"""Scenario parsing, trace serialization, and the CLI verbs."""

import json
import math
from pathlib import Path

import pytest
import yaml

from gtpsim import GameKind, replay_verify, run_game
from gtpsim.cli import cmd_verify, load_manifest, main
from gtpsim.engine import Protocol
from gtpsim.hedges import HedgeValidationError
from gtpsim.randomized import KolmogorovReality
from gtpsim.scenario import (
    _REALITIES,
    _SKEPTICS,
    STOCK_POOLS,
    ScenarioError,
    event_proxy_for,
    parse_scenario,
    parse_scenario_file,
    run_scenario,
    scenario_passes,
)
from gtpsim.skeptic import BangBangSkeptic
from gtpsim.traceio import (
    CSV_HEADER,
    summary_dict,
    trace_from_csv_text,
    trace_to_csv_text,
    write_summary_json,
)
from gtpsim.analysis import strong_compliance_verdict

from _support import mv_forecaster

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"

MINIMAL = """\
name: mini
protocol:
  kind: coin_tossing
horizon: 50
forecaster: {name: harmonic}
skeptic: {name: bc_fictional}
reality: {name: bc_comply}
"""


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_minimal_scenario_defaults():
    scenario = parse_scenario(MINIMAL)
    assert scenario.name == "mini"
    assert scenario.protocol.initial_capital == 1.0
    assert scenario.seed is None
    assert scenario.expected_event == "none"


def test_parse_rejects_unknown_strategy():
    text = MINIMAL.replace("bc_fictional", "foo")
    with pytest.raises(ScenarioError, match="foo"):
        parse_scenario(text)


def test_parse_rejects_unknown_keys():
    with pytest.raises(ScenarioError, match="bogus"):
        parse_scenario(MINIMAL + "bogus: 1\n")


def test_parse_rejects_unknown_label():
    text = MINIMAL + "labels: {expected_event: nonsense}\n"
    with pytest.raises(ScenarioError):
        parse_scenario(text)


def test_parse_general_hedge_scenario_carries_validated_hedge():
    text = """\
name: hedged
protocol:
  kind: general_hedge
  hedge: power:r=1.5
  growth: identity
horizon: 10
forecaster: {name: mv}
skeptic: {name: zero}
reality: {name: ufgh_comply}
"""
    scenario = parse_scenario(text)
    assert scenario.protocol.kind is GameKind.GENERAL_HEDGE
    assert scenario.protocol.hedge.name == "power:r=1.5"
    assert scenario.growth.name == "identity"


def test_parse_rejects_invalid_hedge_power():
    text = """\
name: bad
protocol:
  kind: general_hedge
  hedge: power:r=3
horizon: 10
forecaster: {name: mv}
skeptic: {name: zero}
reality: {name: ufgh_comply}
"""
    with pytest.raises(HedgeValidationError):
        parse_scenario(text)


# Strategies that can play only some games: the ones reading the price p,
# the one reading (m, v), and the ones bound to a single game.
_PRICE_READERS = {"bc_divergent", "bc_convergent", "bc_fictional", "bc_comply",
                  "derandomized_fictional", "first_round", "bernoulli"}
_ONE_GAME = {"ufg_comply": "unbounded_forecasting", "ufgh_comply": "general_hedge",
             "avoid_match": "bounded_forecasting"}


def _plays(kind: GameKind, name: str) -> bool:
    if name in _PRICE_READERS:
        return kind.uses_price
    if name == "kolmogorov":
        return not kind.uses_price
    return _ONE_GAME.get(name, kind.value) == kind.value


def _pair_scenario(kind: GameKind, role: str, name: str) -> str:
    protocol = {"kind": kind.value, "initial_capital": 0.5}
    if kind is GameKind.GENERAL_HEDGE:
        protocol["hedge"] = "power:r=1.5"
    doc = {
        "protocol": protocol,
        "horizon": 5,
        "forecaster": {"name": "harmonic" if kind.uses_price else "mv"},
        "skeptic": {"name": "zero"},
        "reality": {"name": "constant"},
        "seed": 3,
    }
    doc[role] = {"name": name}
    return yaml.safe_dump(doc)


@pytest.mark.parametrize("kind", list(GameKind), ids=lambda k: k.value)
@pytest.mark.parametrize("role, name", [("skeptic", n) for n in _SKEPTICS]
                         + [("reality", n) for n in _REALITIES])
def test_every_strategy_runs_or_is_rejected_at_parse(kind, role, name):
    text = _pair_scenario(kind, role, name)
    if not _plays(kind, name):
        with pytest.raises(ScenarioError, match=kind.value):
            parse_scenario(text)
        return
    trace = run_scenario(parse_scenario(text))
    assert trace.rounds and replay_verify(trace) is None


def test_shipped_example_scenarios_parse():
    for stem in ("coin_harmonic_fictional", "coin_broken_reality",
                 "first_round", "avoid_match"):
        scenario = parse_scenario_file(SCENARIOS / f"{stem}.yaml")
        trace = run_scenario(scenario, horizon=200)
        verdict = strong_compliance_verdict(trace, event_proxy_for(scenario))
        assert scenario_passes(scenario, verdict), scenario.name


def test_example_manifest_lists_four_scenarios():
    scenarios = load_manifest(SCENARIOS / "examples_manifest.yaml")
    assert len(scenarios) == 4


def test_shipped_yaml_parses_alike_with_and_without_libyaml():
    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML was built without libyaml")
    for path in sorted(SCENARIOS.glob("*.yaml")):
        text = path.read_text(encoding="utf-8")
        assert yaml.load(text, Loader=yaml.CSafeLoader) == \
            yaml.load(text, Loader=yaml.SafeLoader), path.name


def test_cli_verify_regression_manifest(capsys):
    assert main(["verify", str(SCENARIOS / "regression_manifest.yaml")]) == 0
    assert "2/2 scenarios passed" in capsys.readouterr().out


def test_pool_manifest_horizon_handling():
    pool_file = SCENARIOS / "coin_comply_pool.yaml"
    from_file = load_manifest(pool_file)
    assert from_file and all(s.horizon == 10_000 for s in from_file)
    overridden = load_manifest(pool_file, horizon=50)
    assert all(s.horizon == 50 for s in overridden)
    assert len(from_file) == len(STOCK_POOLS["coin_comply"]())


# ---------------------------------------------------------------------------
# Trace serialization
# ---------------------------------------------------------------------------

def test_csv_round_trip_coin():
    scenario = parse_scenario(MINIMAL)
    trace = run_scenario(scenario, horizon=100)
    text = trace_to_csv_text(trace)
    assert text.splitlines()[0] == ",".join(CSV_HEADER)
    back = trace_from_csv_text(text, scenario.protocol)
    assert replay_verify(back) is None
    assert back.capitals == trace.capitals


def test_csv_round_trip_mean_variance():
    protocol = Protocol(kind=GameKind.UNBOUNDED_FORECASTING)
    trace = run_game(
        protocol,
        mv_forecaster([0.5, -1.0], [1.0, 2.0]),
        BangBangSkeptic(amplitude=0.1, v_amplitude=0.05),
        KolmogorovReality(seed=3),
        50,
    )
    back = trace_from_csv_text(trace_to_csv_text(trace), protocol)
    assert replay_verify(back) is None
    assert [r.forecast.m for r in back.rounds] == [r.forecast.m for r in trace.rounds]


def test_summary_dict_fields():
    scenario = parse_scenario(MINIMAL)
    trace = run_scenario(scenario, horizon=64, seed=9)
    summary = summary_dict(scenario.name, trace, strong_compliance_verdict(trace))
    assert set(summary) == {
        "scenario", "seed", "sup_capital", "skeptic_duty_ok", "strong_bound_ok",
        "event_proxy_ok", "heads", "final_mean",
    }
    assert summary["seed"] == 9
    assert summary["heads"] == sum(r.x for r in trace.rounds)


NAN_CAPITAL = """\
name: nan_capital
protocol: {kind: unbounded_forecasting}
horizon: 5
forecaster: {name: mv}
skeptic: {name: bang_bang, amplitude: 1.0e200}
reality: {name: constant, x: 1.0e200}
"""


def test_summary_json_is_strict_on_a_nan_capital(tmp_path):
    # Round 1 gains 1e200 * 1e200 = inf; round 2 adds -inf + inf = NaN.
    scenario = parse_scenario(NAN_CAPITAL)
    trace = run_scenario(scenario)
    verdict = strong_compliance_verdict(trace)
    assert math.isnan(verdict.sup_capital)
    write_summary_json(summary_dict(scenario.name, trace, verdict), tmp_path / "s.json")

    def reject(name):
        raise ValueError(f"not JSON: {name}")

    summary = json.loads((tmp_path / "s.json").read_text(), parse_constant=reject)
    assert summary["sup_capital"] is None
    assert summary["final_mean"] == 1e200


# ---------------------------------------------------------------------------
# CLI verbs
# ---------------------------------------------------------------------------

def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def test_cli_run_writes_deterministic_outputs(tmp_path, capsys):
    scenario_file = _write(tmp_path / "mini.yaml", MINIMAL + "seed: 5\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(scenario_file), "--horizon", "200",
                 "--out", str(out_a)]) == 0
    assert main(["run", str(scenario_file), "--horizon", "200",
                 "--out", str(out_b)]) == 0
    capsys.readouterr()
    csv_a = (out_a / "mini.csv").read_bytes()
    csv_b = (out_b / "mini.csv").read_bytes()
    assert csv_a == csv_b
    summary = json.loads((out_a / "mini.json").read_text())
    assert summary["scenario"] == "mini" and summary["seed"] == 5


def test_cli_verify_passing_manifest(tmp_path, capsys):
    _write(tmp_path / "one.yaml", MINIMAL + "labels: {expected_event: strong_comply}\n")
    assert main(["verify", str(tmp_path), "--horizon", "300"]) == 0
    out = capsys.readouterr().out
    assert "1/1 scenarios passed" in out


def test_cli_verify_failing_manifest(tmp_path, capsys):
    broken = MINIMAL.replace("{name: bc_comply}", "{name: constant, x: 1.0}")
    _write(tmp_path / "broken.yaml",
           broken + "labels: {expected_event: strong_comply}\n")
    assert main(["verify", str(tmp_path), "--horizon", "300"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_verify_empty_manifest(tmp_path, capsys):
    manifest = _write(tmp_path / "empty.yaml", "scenarios: []\n")
    assert main(["verify", str(manifest)]) == 0
    assert "0/0 scenarios passed" in capsys.readouterr().out


def test_cli_error_exit_code(tmp_path, capsys):
    bad = _write(tmp_path / "bad.yaml", MINIMAL.replace("bc_fictional", "foo"))
    assert main(["run", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_rejects_a_strategy_in_the_wrong_game(tmp_path, capsys):
    text = MINIMAL.replace("coin_tossing", "unbounded_forecasting").replace(
        "harmonic", "mv").replace("bc_comply", "constant")
    bad = _write(tmp_path / "wrong_game.yaml", text)
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "FictionalBcSkeptic" in err


@pytest.mark.parametrize("forecaster, shown", [
    ("{name: explicit}", "None"),
    ("{name: explicit, values: []}", "[]"),
    ("{name: explicit, values: 0.5}", "0.5"),
    ("{name: explicit, values: abc}", "'abc'"),
    ("{name: explicit, values: [[0.5]]}", "[[0.5]]"),
], ids=["missing", "empty", "scalar", "string", "nested"])
def test_cli_rejects_a_malformed_explicit_forecaster(tmp_path, capsys, forecaster, shown):
    text = MINIMAL.replace("{name: harmonic}", forecaster)
    err = _cli_error(["run", str(_write(tmp_path / "explicit.yaml", text))], capsys)
    assert "explicit forecaster" in err and "values" in err and shown in err


@pytest.mark.parametrize("role, spec", [
    ("forecaster", "name"),
    ("skeptic", "bc_fictional"),
    ("reality", "[bc_comply]"),
])
def test_cli_rejects_a_role_that_is_not_a_mapping(tmp_path, capsys, role, spec):
    lines = [f"{role}: {spec}" if line.startswith(f"{role}:") else line
             for line in MINIMAL.splitlines()]
    path = _write(tmp_path / "role.yaml", "\n".join(lines) + "\n")
    err = _cli_error(["run", str(path)], capsys)
    assert f"{role} must be a mapping" in err


def test_cli_price_coordinate_event(tmp_path, capsys):
    pricing = _write(tmp_path / "price.yaml", """\
p_script: [0.3]
event:
  type: coordinate
  index: 1
""")
    assert main(["price", str(pricing)]) == 0
    out = capsys.readouterr().out
    assert "upper: 0.300000000000" in out
    assert "lower: 0.300000000000" in out


def test_cli_price_threshold_and_all_events(tmp_path, capsys):
    pricing = _write(tmp_path / "maj.yaml", """\
p_script: [0.5, 0.5, 0.5]
event:
  type: threshold
  op: ge
  value: 2
""")
    assert main(["price", str(pricing)]) == 0
    out = capsys.readouterr().out
    assert "upper: 0.500000000000" in out
    everything = _write(tmp_path / "all.yaml", """\
p_script: [0.2, 0.9]
event: {type: all}
""")
    assert main(["price", str(everything)]) == 0
    out = capsys.readouterr().out
    assert "upper: 1.000000000000" in out and "lower: 1.000000000000" in out


def _cli_error(argv, capsys):
    """Run the CLI: exit 2 with one `error:` line and no traceback."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert "Traceback" not in captured.err
    return captured.err


def _price_error(tmp_path, capsys, text):
    """Run `gtpsim price` on a bad file: exit 2 with one `error:` line."""
    return _cli_error(["price", str(_write(tmp_path / "bad_price.yaml", text))], capsys)


def test_cli_price_rejects_an_event_that_is_not_a_mapping(tmp_path, capsys):
    err = _price_error(tmp_path, capsys, "p_script: [0.5]\nevent: 5\n")
    assert "event" in err


def test_cli_price_rejects_a_threshold_without_value(tmp_path, capsys):
    err = _price_error(tmp_path, capsys, "p_script: [0.5]\nevent: {type: threshold}\n")
    assert "value" in err


def test_cli_price_rejects_a_p_script_that_is_not_a_list(tmp_path, capsys):
    err = _price_error(tmp_path, capsys, "p_script: 0.5\nevent: {type: all}\n")
    assert "p_script" in err


@pytest.mark.parametrize("p_script, event, field", [
    ("[0.5, 0.5]", "{type: coordinate, index: 1, value: 2}", "value"),
    ("[0.5, 0.5, 0.5]", "{type: leaves, bitmasks: [3, -1]}", "-1"),
    ("[0.5, 0.5, 0.5]", "{type: leaves, bitmasks: [9]}", "9"),
    ("[0.5, 0.5]", "{type: threshold, value: .nan}", "finite"),
    ("[0.3, 0.8]", "{type: coordinate, index: 2.7}", "2.7"),
    ("[0.3, 0.8]", "{type: coordinate, index: true}", "True"),
    ("[0.3, 0.8]", "{type: coordinate, index: '1'}", "'1'"),
    ("[0.3, 0.8]", "{type: coordinate, index: 1, value: true}", "True"),
    ("[0.5, 0.5, 0.5]", "{type: leaves, bitmasks: [2.5]}", "2.5"),
], ids=["coordinate-value-2", "leaves-negative", "leaves-9-at-n3", "threshold-nan",
        "index-2.7", "index-true", "index-string", "value-true", "bitmask-2.5"])
def test_cli_price_rejects_events_that_would_price_as_empty(tmp_path, capsys,
                                                            p_script, event, field):
    err = _price_error(tmp_path, capsys, f"p_script: {p_script}\nevent: {event}\n")
    assert field in err


def test_cli_price_accepts_an_integral_float_index(tmp_path, capsys):
    pricing = _write(tmp_path / "price.yaml",
                     "p_script: [0.3, 0.8]\nevent: {type: coordinate, index: 2.0}\n")
    assert main(["price", str(pricing)]) == 0
    assert "upper: 0.800000000000" in capsys.readouterr().out


def test_cli_price_rejects_an_unterminated_flow_list(tmp_path, capsys):
    err = _price_error(tmp_path, capsys, "p_script: [0.5, 0.5\nevent: {type: all}\n")
    assert "bad_price.yaml" in err and "YAML" in err


def test_cli_verify_rejects_a_manifest_with_an_unterminated_flow_list(tmp_path, capsys):
    manifest = _write(tmp_path / "manifest.yaml", "scenarios: [one.yaml\n")
    err = _cli_error(["verify", str(manifest)], capsys)
    assert "manifest.yaml" in err and "YAML" in err


@pytest.mark.parametrize("command", ["price", "verify-entry"])
def test_cli_reports_a_missing_file(tmp_path, capsys, command):
    missing = tmp_path / "missing.yaml"
    if command == "price":
        argv = ["price", str(missing)]
    else:
        argv = ["verify", str(_write(tmp_path / "manifest.yaml",
                                     "scenarios: [missing.yaml]\n"))]
    err = _cli_error(argv, capsys)
    assert "missing.yaml" in err


@pytest.mark.parametrize("where, text, field", [
    ("scenario", MINIMAL.replace("horizon: 50", "horizon: 20.7"), "horizon"),
    ("scenario", MINIMAL.replace("horizon: 50", "horizon: true"), "horizon"),
    ("scenario", MINIMAL + "seed: '5'\n", "seed"),
    ("scenario", MINIMAL + "seed: 5.5\n", "seed"),
    ("manifest", "pool: coin_comply\nhorizon: 20.7\n", "horizon"),
    ("manifest", "pool: coin_comply\nseed: false\n", "seed"),
], ids=["horizon-20.7", "horizon-true", "seed-string", "seed-5.5",
        "manifest-horizon-20.7", "manifest-seed-false"])
def test_cli_rejects_a_non_integral_count(tmp_path, capsys, where, text, field):
    path = _write(tmp_path / f"{where}.yaml", text)
    err = _cli_error(["run" if where == "scenario" else "verify", str(path)], capsys)
    assert field in err and "integer" in err


def test_integral_float_counts_are_accepted():
    scenario = parse_scenario(MINIMAL.replace("horizon: 50", "horizon: 50.0") + "seed: 3.0\n")
    assert (scenario.horizon, scenario.seed) == (50, 3)
    assert type(scenario.horizon) is int and type(scenario.seed) is int


def test_cmd_verify_report_shape():
    scenarios = [parse_scenario(MINIMAL + "labels: {expected_event: strong_comply}\n")]
    failures, lines = cmd_verify(scenarios, horizon=100)
    assert failures == 0
    assert len(lines) == 2 and lines[0].startswith("pass")
