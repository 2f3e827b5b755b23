"""Import hygiene: loading the package loads none of the imports that only
some functions use, and no module imports a name it never uses."""

import ast
import json

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
