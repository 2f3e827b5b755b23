"""Import hygiene: loading the package loads none of the imports that only
some functions use, each entry point loads only the package modules it
runs, and no module imports a name it never uses."""

import ast
import importlib
import json

import pytest

import gtpsim
from _support import SRC, fresh_python


def test_importing_the_package_does_not_load_numpy():
    code = "import sys, gtpsim.cli, gtpsim.scenario; print('numpy' in sys.modules)"
    done = fresh_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


# Every move field is checked by its class, so no module needs the numeric
# ABCs of `numbers` (fractions and decimal load it, but only when deferred).
def test_importing_the_package_does_not_load_numbers():
    code = ("import sys, gtpsim, gtpsim.cli, gtpsim.scenario, gtpsim.traceio\n"
            "print('numbers' in sys.modules)")
    done = fresh_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


# Imported only inside the functions that use them (decimal comes with
# fractions), so code that builds and plays scenarios never loads them.
DEFERRED = ("yaml", "gtpsim.plain_yaml", "fractions", "decimal", "argparse", "csv",
            "numpy")


def test_importing_the_package_loads_no_deferred_module():
    code = ("import sys, json, gtpsim, gtpsim.cli, gtpsim.scenario, gtpsim.traceio\n"
            f"print(json.dumps([m for m in {DEFERRED!r} if m in sys.modules]))")
    done = fresh_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


# Each deferred path works, and loads its module only when it runs.
DEFERRED_PATHS = """
import json, sys
from gtpsim import GameKind, Protocol, cli, scenario, skeptic, traceio

def call(module, run):
    before = module in sys.modules
    result = run()
    return [before, module in sys.modules, result]

csv_text = "n,p_or_m,v,M,V,x,K\\n1,0.5,,0.5,,1,1.25\\n2,0.5,,0,,0,1.25\\n"
print(json.dumps({
    "yaml": call("yaml", lambda: scenario.load_yaml(cli.Path(sys.argv[1]))),
    "fractions": call("fractions", lambda: skeptic.BcCounters().partial_sum == 0),
    "argparse": call("argparse", lambda: vars(cli.build_parser().parse_args(
        ["price", "f.yaml"])) == {"command": "price", "file": cli.Path("f.yaml")}),
    "csv": call("csv", lambda: [(n, r.x, r.capital_after) for n, r in enumerate(
        traceio.trace_from_csv_text(csv_text, Protocol(GameKind.COIN_TOSSING)).rounds, 1)]),
}))
"""


def test_each_deferred_import_loads_when_its_function_runs(tmp_path):
    # A quoted scalar is outside the forms `plain_yaml` reads, so PyYAML
    # reads this file.
    yaml_file = tmp_path / "a.yaml"
    yaml_file.write_text("a: '1'\n", encoding="utf-8")
    done = fresh_python("-c", DEFERRED_PATHS, str(yaml_file))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "yaml": [False, True, {"a": "1"}],
        "fractions": [False, True, True],
        "argparse": [False, True, True],
        "csv": [False, True, [[1, 1.0, 1.25], [2, 0.0, 1.25]]],
    }


# JSON text is read by json, so a command on JSON files never loads PyYAML
# or `plain_yaml`.
JSON_COMMANDS = """
import contextlib, io, json, sys
from gtpsim import cli

out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes = [cli.main(["price", sys.argv[1]]), cli.main(["run", sys.argv[2]])]
print(json.dumps([codes, [m in sys.modules for m in ("yaml", "gtpsim.plain_yaml")],
                  out.getvalue().splitlines()[:2]]))
"""


def test_commands_on_json_files_do_not_load_yaml(tmp_path):
    pricing = tmp_path / "price.yaml"
    pricing.write_text(json.dumps({"p_script": [0.5, 0.5], "event": {"type": "all"}}),
                       encoding="utf-8")
    scenario = tmp_path / "mini.json"
    scenario.write_text(json.dumps({
        "protocol": {"kind": "coin_tossing"}, "horizon": 5,
        "forecaster": {"name": "harmonic"}, "skeptic": {"name": "zero"},
        "reality": {"name": "bc_comply"}}), encoding="utf-8")
    done = fresh_python("-c", JSON_COMMANDS, str(pricing), str(scenario))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [
        [0, 0], [False, False], ["upper: 1.000000000000", "lower: 1.000000000000"]]


# The stock YAML files keep to the forms `plain_yaml` reads, so verifying a
# manifest of them or running one never loads PyYAML.
PLAIN_YAML_COMMANDS = """
import contextlib, io, json, sys
from gtpsim import cli

with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["verify", sys.argv[1]]), cli.main(["run", sys.argv[2]])]
print(json.dumps([codes, "yaml" in sys.modules, "gtpsim.plain_yaml" in sys.modules]))
"""


def test_commands_on_stock_yaml_files_do_not_load_yaml():
    scenarios = SRC.parent / "scenarios"
    done = fresh_python("-c", PLAIN_YAML_COMMANDS, str(scenarios / "examples_manifest.yaml"),
                        str(scenarios / "sub_ulp_coin.yaml"))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[0, 0], False, True]


# The names the package exported when it imported its submodules eagerly.
EXPORTS = {
    "engine": "CombinedSkeptic Forecaster ForecastMove GameKind InvalidMoveError Policy"
              " Protocol Reality RoundRecord ScriptForecaster Skeptic SkepticBet Trace"
              " ZeroSkeptic capital_update replay_verify run_game",
    "hedges": "Growth Hedge HedgeValidationError hedge_inverse identity_growth"
              " power_growth power_hedge validate_growth validate_hedge",
    "skeptic": "BcCounters ConvergentBcSkeptic DivergentBcSkeptic FictionalBcSkeptic"
               " SingleBetSkeptic bc_convergent_bet bc_divergent_bet bc_fictional_bet"
               " ceiling_index_update",
    "reality": "BcComplyReality BcComplyState BoundedAvoidMatchReality ComplyPhase"
               " FirstRoundComplyReality MvComplyReality MvComplyState bc_comply_step"
               " mv_comply_step",
    "randomized": "RandomStream bernoulli_reality kolmogorov_sample mix64 uniform_block",
    "analysis": "Verdict coin_price_bounds epsilon_sequence_step lower_probability_coin"
                " mixture_capitals strong_compliance_verdict upper_probability_coin",
}
EXPORTED = [(module, name) for module, names in EXPORTS.items() for name in names.split()]
PLAYER_MODULES = ("gtpsim.randomized", "gtpsim.reality", "gtpsim.skeptic")


def test_importing_the_package_loads_no_submodule():
    code = ("import json, sys, gtpsim\n"
            "print(json.dumps([m for m in sys.modules if m.startswith('gtpsim.')]))")
    done = fresh_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


@pytest.mark.parametrize("module, name", EXPORTED)
def test_each_exported_name_is_listed_and_is_its_submodules_object(module, name):
    assert name in gtpsim.__all__
    assert name in dir(gtpsim)
    assert getattr(gtpsim, name) is getattr(importlib.import_module(f"gtpsim.{module}"), name)


def test_an_unknown_package_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        gtpsim.no_such_name


def test_star_import_binds_every_exported_name():
    code = ("import json\nnames = {}\nexec('from gtpsim import *', names)\n"
            "print(json.dumps(sorted(n for n in names if n != '__builtins__')))")
    done = fresh_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == sorted(name for _, name in EXPORTED)


# Building the stock pools builds no player: the modules that define the
# players load when a pool is played, not when it is built.
POOLS_BUILT = """
import json, sys
import gtpsim.cli, gtpsim.engine, gtpsim.scenario, gtpsim.traceio
from gtpsim.scenario import STOCK_POOLS

def loaded():
    return sorted(m for m in sys.modules if m in sys.argv[1:])

STOCK_POOLS["coin_comply"]()
coin = loaded()
STOCK_POOLS["ufg"]()
STOCK_POOLS["ufgh"]()
print(json.dumps([coin, loaded()]))
"""


def test_building_the_stock_pools_loads_no_player_module():
    done = fresh_python("-c", POOLS_BUILT, *PLAYER_MODULES, "gtpsim.hedges")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[], ["gtpsim.hedges"]]


# Pricing plays no game; playing one pool scenario afterwards loads what it
# plays with.
PRICE_THEN_PLAY = """
import contextlib, io, json, sys
from gtpsim import cli, scenario

def loaded():
    return sorted(m for m in sys.modules if m in sys.argv[2:])

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["price", sys.argv[1]])
priced = loaded()
pool = {s.name: s for s in scenario.coin_comply_pool(horizon=50)}
summary, _ = cli.cmd_run(pool["coin[harmonic/random_bounded]"])
print(json.dumps([code, priced, loaded(), summary["strong_bound_ok"]]))
"""


def test_pricing_loads_no_player_module_and_playing_loads_them(tmp_path):
    pricing = tmp_path / "price.json"
    pricing.write_text(json.dumps({"p_script": [0.5, 0.25], "event": {"type": "all"}}),
                       encoding="utf-8")
    modules = (*PLAYER_MODULES, "gtpsim.hedges", "gtpsim.traceio")
    done = fresh_python("-c", PRICE_THEN_PLAY, str(pricing), *modules)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [0, [], sorted(modules), True]


def test_cli_help_exits_zero():
    done = fresh_python("-m", "gtpsim.cli", "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: gtpsim")


def unused_imports(source: str):
    """Names bound by an import in `source` that no ast.Name refers to."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_finds_an_unused_name():
    assert unused_imports("import os, sys\nfrom a.b import c as d\nsys.exit(d)") == ["os"]


def test_no_module_imports_a_name_it_never_uses():
    found = {
        path.name: unused_imports(path.read_text(encoding="utf-8"))
        for path in sorted((SRC / "gtpsim").glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in found.items() if names} == {}


YAML_LOADS = {"load", "safe_load", "full_load", "unsafe_load",
              "load_all", "safe_load_all", "full_load_all", "unsafe_load_all"}


def yaml_load_callers(source: str):
    """Names of the functions in `source` that call yaml.<a load function>;
    a call outside any function is reported as "<module>"."""
    callers = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in YAML_LOADS
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "yaml"):
            callers.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return callers


def test_yaml_load_callers_finds_every_call():
    source = "import yaml\nyaml.safe_load('')\ndef f():\n    return yaml.load('', Loader=L)\n"
    assert yaml_load_callers(source) == ["<module>", "f"]


def test_only_the_scenario_helper_parses_yaml():
    found = {
        path.name: yaml_load_callers(path.read_text(encoding="utf-8"))
        for path in sorted((SRC / "gtpsim").glob("*.py"))
    }
    assert {name: callers for name, callers in found.items() if callers} == \
        {"scenario.py": ["load_yaml"]}
