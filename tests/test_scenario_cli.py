"""Scenario parsing, trace serialization, and the CLI verbs."""

import inspect
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest
import yaml
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from gtpsim import GameKind, replay_verify, run_game
from gtpsim.cli import cmd_verify, load_manifest, main
from gtpsim.engine import (
    Protocol,
    RoundRecord,
    ZeroSkeptic,
)
from gtpsim.hedges import HedgeValidationError
from gtpsim.randomized import KolmogorovReality
from gtpsim.scenario import (
    _FORECASTER_KEYS,
    MAX_NESTING,
    _REALITIES,
    _SKEPTICS,
    STOCK_POOLS,
    Scenario,
    ScenarioError,
    as_float,
    build_reality,
    build_skeptic,
    event_proxy_for,
    load_yaml,
    parse_scenario,
    proxy_avoid_match,
    proxy_heads_at_c_increments,
    proxy_slln_fail,
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

from _support import (
    ScriptReality,
    fresh_python,
    mv_forecaster,
    parse_text,
    price_forecaster,
    trace_of,
)

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

def test_parse_minimal_scenario_defaults(tmp_path):
    scenario = parse_text(tmp_path, MINIMAL)
    assert scenario.name == "mini"
    assert scenario.protocol.initial_capital == 1.0
    assert scenario.seed is None
    assert scenario.expected_event == "none"


def test_parse_rejects_unknown_strategy(tmp_path):
    text = MINIMAL.replace("bc_fictional", "foo")
    with pytest.raises(ScenarioError, match="foo"):
        parse_text(tmp_path, text)


def test_parse_rejects_unknown_keys(tmp_path):
    with pytest.raises(ScenarioError, match="bogus"):
        parse_text(tmp_path, MINIMAL + "bogus: 1\n")


def test_parse_rejects_unknown_label(tmp_path):
    text = MINIMAL + "labels: {expected_event: nonsense}\n"
    with pytest.raises(ScenarioError):
        parse_text(tmp_path, text)


def test_parse_general_hedge_scenario_carries_validated_hedge(tmp_path):
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
    scenario = parse_text(tmp_path, text)
    assert scenario.protocol.kind is GameKind.GENERAL_HEDGE
    assert scenario.protocol.hedge.name == "power:r=1.5"
    assert scenario.growth.name == "identity"


def test_parse_rejects_invalid_hedge_power(tmp_path):
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
        parse_text(tmp_path, text)


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


def _pair_scenario(kind: GameKind, role: str, spec: dict) -> str:
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
    doc[role] = spec
    return yaml.safe_dump(doc)


@pytest.mark.parametrize("kind", list(GameKind), ids=lambda k: k.value)
@pytest.mark.parametrize("role, name", [("skeptic", n) for n in _SKEPTICS]
                         + [("reality", n) for n in _REALITIES])
def test_every_strategy_runs_or_is_rejected_at_parse(tmp_path, kind, role, name):
    text = _pair_scenario(kind, role, {"name": name})
    if not _plays(kind, name):
        with pytest.raises(ScenarioError, match=kind.value):
            parse_text(tmp_path, text)
        return
    trace = run_scenario(parse_text(tmp_path, text))
    assert trace.rounds and replay_verify(trace) is None


def test_shipped_example_scenarios_parse():
    for stem in ("coin_harmonic_fictional", "coin_broken_reality",
                 "first_round", "avoid_match"):
        scenario = parse_scenario(SCENARIOS / f"{stem}.yaml")
        trace = run_scenario(replace(scenario, horizon=200))
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


def test_pool_manifest_horizon_handling(tmp_path, capsys):
    pool_file = SCENARIOS / "coin_comply_pool.yaml"
    from_file = load_manifest(pool_file)
    assert from_file and all(s.horizon == 10_000 for s in from_file)
    assert len(from_file) == len(STOCK_POOLS["coin_comply"]())
    # --horizon and --seed reach every scenario of a pool manifest
    assert main(["verify", str(SCENARIOS / "ufgh_pool.yaml"), "--horizon", "50",
                 "--seed", "3", "--out", str(tmp_path)]) == 0
    assert "18/18 scenarios passed" in capsys.readouterr().out
    csvs = sorted(tmp_path.glob("*.csv"))
    assert len(csvs) == 18
    for csv in csvs:
        # a Skeptic fault ends the run early; the zero Skeptic never faults
        rounds = len(csv.read_text().splitlines()) - 1
        assert rounds == 50 if csv.stem.endswith("_zero_") else 1 <= rounds <= 50
        assert json.loads(csv.with_suffix(".json").read_text())["seed"] == 3


def test_cli_run_applies_horizon_and_seed(tmp_path, capsys):
    scenario_file = _write(tmp_path / "mini.yaml", MINIMAL + "seed: 5\n")
    assert main(["run", str(scenario_file), "--horizon", "7", "--seed", "9",
                 "--out", str(tmp_path / "out")]) == 0
    assert "seed: 9" in capsys.readouterr().out.splitlines()
    assert len((tmp_path / "out" / "mini.csv").read_text().splitlines()) == 1 + 7
    assert json.loads((tmp_path / "out" / "mini.json").read_text())["seed"] == 9


# ---------------------------------------------------------------------------
# Trace serialization
# ---------------------------------------------------------------------------

def test_csv_round_trip_coin(tmp_path):
    scenario = parse_text(tmp_path, MINIMAL)
    trace = run_scenario(replace(scenario, horizon=100))
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


def test_summary_dict_fields(tmp_path):
    scenario = parse_text(tmp_path, MINIMAL)
    trace = run_scenario(replace(scenario, horizon=64, seed=9))
    summary = summary_dict(scenario.name, trace, strong_compliance_verdict(trace))
    assert set(summary) == {
        "scenario", "seed", "sup_capital", "skeptic_duty_ok", "strong_bound_ok",
        "event_proxy_ok", "heads", "final_mean",
    }
    assert summary["seed"] == 9
    assert summary["heads"] == sum(r.x for r in trace.rounds)


def _slln_trace(vs, xs):
    """A 20-round unbounded-game trace with m = 0 and the given v and x."""
    return run_game(Protocol(kind=GameKind.UNBOUNDED_FORECASTING),
                    mv_forecaster([0.0], vs), ZeroSkeptic(), ScriptReality(xs), 20)


def _crossing_at(*rounds):
    # v_n = n^2 adds exactly 1 to the partial sum of v_n / n^2
    return [float(n * n) if n in rounds else 0.0 for n in range(1, 21)]


def test_slln_fail_proxy_needs_a_crossing_from_round_10():
    heads = [1.0] * 20                                     # |S_n| / n = 1
    assert proxy_slln_fail(_slln_trace(_crossing_at(12), heads))
    assert not proxy_slln_fail(_slln_trace(_crossing_at(1, 9), heads))


def test_slln_fail_proxy_fails_at_a_crossing_with_a_small_mean():
    swing = [1.0] * 10 + [-1.0] * 10                      # S_10 = 10, S_20 = 0
    assert proxy_slln_fail(_slln_trace(_crossing_at(10), swing))
    assert not proxy_slln_fail(_slln_trace(_crossing_at(10, 20), swing))


def _heads_trace(heads):
    """Four rounds at p = 1/2, whose price partial sum crosses an integer in
    rounds 2 and 4, with heads in the given rounds."""
    xs = [1.0 if n in heads else 0.0 for n in range(1, 5)]
    return run_game(Protocol(kind=GameKind.COIN_TOSSING), price_forecaster([0.5]),
                    ZeroSkeptic(), ScriptReality(xs), 4)


def test_heads_at_c_increments_proxy_wants_heads_exactly_at_crossings():
    assert proxy_heads_at_c_increments(_heads_trace({2, 4}))
    assert not proxy_heads_at_c_increments(_heads_trace({2, 3, 4}))  # head off one
    assert not proxy_heads_at_c_increments(_heads_trace({2}))  # crossing, no head


def _avoid_trace(p, x, capital, k0=0.5):
    """A one-round bounded-game trace that records the given capital."""
    record = RoundRecord(p, 0.0, x, capital)
    return trace_of(Protocol(kind=GameKind.BOUNDED_FORECASTING, initial_capital=k0),
                    [record])


def test_avoid_match_proxy_scales_its_slack_by_the_initial_capital():
    # BOUND_SLACK * K_0 = 0.5e-9 with K_0 = 0.5
    assert proxy_avoid_match(_avoid_trace(0.5, 1.0, 0.9 + 0.25e-9), 0.9)
    assert not proxy_avoid_match(_avoid_trace(0.5, 1.0, 0.9 + 0.75e-9), 0.9)


def test_avoid_match_proxy_fails_where_the_outcome_equals_the_price():
    assert not proxy_avoid_match(_avoid_trace(0.5, 0.5, 0.5), 0.9)


def test_avoid_match_event_proxy_reads_the_q_reality_plays(tmp_path):
    bare = parse_text(tmp_path, """\
protocol: {kind: bounded_forecasting, initial_capital: 0.5}
forecaster: {name: harmonic}
skeptic: {name: zero}
reality: {name: avoid_match}
labels: {expected_event: avoid_match}
""")
    trace = _avoid_trace(0.5, 1.0, 0.93)
    assert build_reality(bare).q == 0.9 and not event_proxy_for(bare)(trace)
    wide = replace(bare, reality_spec={"name": "avoid_match", "q": 0.95})
    assert event_proxy_for(wide)(trace)


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
    scenario = parse_text(tmp_path, NAN_CAPITAL)
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


def test_cli_verify_prints_the_round_each_failed_check_names(tmp_path, capsys):
    broken = MINIMAL.replace("{name: bc_comply}", "{name: constant, x: 1.0}")
    _write(tmp_path / "one.yaml", broken + "labels: {expected_event: strong_comply}\n")
    assert main(["verify", str(tmp_path), "--horizon", "300"]) == 1
    line = capsys.readouterr().out.splitlines()[0]
    assert line.split()[:2] == ["FAIL", "mini"]
    assert line.endswith(" proxy=None; capital exceeded the initial value at round 6")


def test_cli_run_prints_the_round_each_failed_check_names(capsys):
    assert main(["run", str(SCENARIOS / "coin_broken_reality.yaml"),
                 "--horizon", "300"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "strong_bound_ok: False" in lines
    assert lines[-1] == "note: capital exceeded the initial value at round 6"
    assert [line.split(":")[0] for line in lines[:-1]] == [
        "scenario", "seed", "sup_capital", "skeptic_duty_ok", "strong_bound_ok",
        "event_proxy_ok", "heads", "final_mean"]


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
    ("{name: explicit, values: [0.5, 1.5]}", "[0.5, 1.5]"),
    ("{name: explicit, values: [0.5, .nan]}", "[0.5, nan]"),
], ids=["missing", "empty", "scalar", "string", "nested", "above-one", "nan"])
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


@pytest.mark.parametrize("kind, role, spec, key", [
    ("coin_tossing", "forecaster", "{name: harmonic, aa: 5}", "aa"),
    ("coin_tossing", "forecaster", "{name: geometric, ratio: 0.5, b: 1}", "b"),
    ("unbounded_forecasting", "forecaster", "{name: mv, vv: {name: power}}", "vv"),
    ("unbounded_forecasting", "forecaster",
     "{name: mv, v: {name: constant, valeu: 2}}", "valeu"),
    ("unbounded_forecasting", "forecaster",
     "{name: mv, v: {name: power, exponent: 1, value: 2}}", "value"),
    ("unbounded_forecasting", "forecaster", "{name: mv, m: {name: zero, a: 1}}", "a"),
    ("unbounded_forecasting", "forecaster",
     "{name: mv, m: {name: sin, amplitud: 2}}", "amplitud"),
    ("coin_tossing", "skeptic", "{name: random_bounded, bund: 0.001}", "bund"),
    ("coin_tossing", "skeptic", "{name: bc_fictional, bound: 1}", "bound"),
    ("unbounded_forecasting", "skeptic", "{name: bang_bang, v_amp: 2}", "v_amp"),
    ("coin_tossing", "reality", "{name: bc_comply, q: 0.9}", "q"),
    ("bounded_forecasting", "reality", "{name: avoid_match, qq: 0.9}", "qq"),
    ("coin_tossing", "reality", "{name: constant, value: 1}", "value"),
])
def test_cli_rejects_an_unknown_strategy_key(tmp_path, capsys, kind, role, spec, key):
    text = _pair_scenario(GameKind(kind), role, yaml.safe_load(spec))
    path = _write(tmp_path / "key.yaml", text)
    err = _cli_error(["run", str(path)], capsys)
    assert "unknown key" in err and repr(key) in err


@pytest.mark.parametrize("kind, spec, shown", [
    ("coin_tossing", "{name: mv}", "forecaster 'mv' requires the"
     " unbounded_forecasting or general_hedge game, got coin_tossing"),
    ("general_hedge", "{name: harmonic}", "forecaster 'harmonic' requires the"
     " coin_tossing or bounded_forecasting game, got general_hedge"),
    ("coin_tossing", "{name: foo}", "unknown forecaster 'foo'"),
    ("unbounded_forecasting", "{name: foo}", "unknown forecaster 'foo'"),
], ids=["mv-in-coin", "harmonic-in-hedge", "unknown-in-coin", "unknown-in-ufg"])
def test_cli_names_an_unknown_or_misplaced_forecaster(tmp_path, capsys, kind, spec, shown):
    text = _pair_scenario(GameKind(kind), "forecaster", yaml.safe_load(spec))
    err = _cli_error(["run", str(_write(tmp_path / "forecaster.yaml", text))], capsys)
    assert shown in err


def _declared_keys():
    """(game, role, strategy name, key) for every parameter key a strategy
    table allows."""
    for name, keys in _FORECASTER_KEYS.items():
        kind = "unbounded_forecasting" if name == "mv" else "coin_tossing"
        yield from ((kind, "forecaster", name, key) for key in keys)
    for role, registry in (("skeptic", _SKEPTICS), ("reality", _REALITIES)):
        for name, (keys, _) in registry.items():
            yield from (("coin_tossing", role, name, key) for key in keys)


@pytest.mark.parametrize("kind, role, name, key", list(_declared_keys()))
def test_every_allowed_strategy_key_is_read(tmp_path, kind, role, name, key):
    # A key the table allows but the strategy never read would be a silent
    # default again: a wrong-typed value must be rejected by name.
    text = _pair_scenario(GameKind(kind), role, {"name": name, key: True})
    with pytest.raises(ScenarioError, match=rf" {key} (must be|list)"):
        parse_text(tmp_path, text)


@pytest.mark.parametrize("role, name", [("skeptic", n) for n in _SKEPTICS]
                         + [("reality", n) for n in _REALITIES])
def test_a_bare_strategy_spec_takes_its_constructor_defaults(role, name):
    spec = {"name": name}
    scenario = Scenario("bare", Protocol(kind=GameKind.COIN_TOSSING), 1, {}, spec, spec)
    registry, build = ((_SKEPTICS, build_skeptic) if role == "skeptic"
                       else (_REALITIES, build_reality))
    player = build(scenario)
    defaults = inspect.signature(type(player)).parameters
    for key in registry[name][0]:
        assert getattr(player, key) == defaults[key].default, key


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


def test_cli_verify_rejects_an_infinite_initial_capital(tmp_path, capsys):
    _write(tmp_path / "inf.yaml",
           MINIMAL.replace("  kind: coin_tossing\n",
                           "  kind: coin_tossing\n  initial_capital: .inf\n"))
    err = _cli_error(["verify", str(tmp_path)], capsys)
    assert "initial_capital" in err


def _general_hedge_scenario(functions: str) -> str:
    """MINIMAL as a general-hedge game with the given hedge/growth lines."""
    return MINIMAL.replace("kind: coin_tossing",
                           f"kind: general_hedge\n  {functions}").replace(
        "harmonic", "mv").replace("bc_fictional", "zero").replace(
        "bc_comply", "ufgh_comply")


@pytest.mark.parametrize("functions", [
    "hedge: 'power:r=nan'", "hedge: 'power:r=2'\n  growth: 'power:r=nan'"])
def test_cli_rejects_a_nan_power_at_parse(tmp_path, capsys, functions):
    text = _general_hedge_scenario(functions)
    err = _cli_error(["run", str(_write(tmp_path / "nan.yaml", text))], capsys)
    assert "power:r=nan" in err


# A NaN or +inf a used to play p = 1 every round (min(1.0, nan) is 1.0).
@pytest.mark.parametrize("a", [".nan", ".inf", "-.inf"])
@pytest.mark.parametrize("script", ["harmonic", "inverse_square", "geometric"])
def test_cli_rejects_a_non_finite_price_script_parameter(tmp_path, capsys, script, a):
    text = MINIMAL.replace("{name: harmonic}", f"{{name: {script}, a: {a}}}")
    err = _cli_error(["run", str(_write(tmp_path / "a.yaml", text))], capsys)
    assert f"{script} a must be finite" in err


# A negative a used to parse, then fail at round 1 with p = -1.0 outside [0, 1].
@pytest.mark.parametrize("script", ["harmonic", "inverse_square", "geometric"])
def test_cli_rejects_a_negative_price_script_parameter(tmp_path, capsys, script):
    text = MINIMAL.replace("{name: harmonic}", f"{{name: {script}, a: -1}}")
    err = _cli_error(["run", str(_write(tmp_path / "a.yaml", text))], capsys)
    assert f"{script} a must be finite and >= 0, got -1.0" in err


@pytest.mark.parametrize("kind, growth, players", [
    ("coin_tossing", "'power:r=2'", "harmonic/bc_fictional/bc_comply"),
    ("unbounded_forecasting", "identity", "mv/zero/ufg_comply"),
], ids=["coin", "ufg"])
def test_cli_rejects_a_growth_outside_general_hedge(tmp_path, capsys, kind, growth,
                                                    players):
    forecaster, skeptic, reality = players.split("/")
    text = (f"protocol: {{kind: {kind}, growth: {growth}}}\nhorizon: 5\n"
            f"forecaster: {{name: {forecaster}}}\nskeptic: {{name: {skeptic}}}\n"
            f"reality: {{name: {reality}}}\n")
    err = _cli_error(["run", str(_write(tmp_path / "growth.yaml", text))], capsys)
    assert "growth" in err


# Only ufgh_comply reads the growth; any other Reality used to drop it.
@pytest.mark.parametrize("reality", ["kolmogorov", "constant"])
def test_cli_rejects_a_growth_that_no_reality_reads(tmp_path, capsys, reality):
    text = _general_hedge_scenario("hedge: 'power:r=1.5'\n  growth: 'power:r=2'")
    path = _write(tmp_path / "growth.yaml", text.replace("ufgh_comply", reality))
    err = _cli_error(["run", str(path)], capsys)
    assert f"protocol growth requires the ufgh_comply reality, got {reality!r}" in err
    assert main(["run", str(_write(path, text)), "--horizon", "20"]) == 0
    scenario = replace(STOCK_POOLS["ufgh"](horizon=20)[0], reality_spec={"name": reality})
    with pytest.raises(ScenarioError, match="protocol growth requires"):
        cmd_verify([scenario])


# 8.0 ** 500 = 2^1500 is the first grid value past the float range (4.0 ** 500
# = 2^1000 is not): the hedge reads it as inf, the growth raises OverflowError.
@pytest.mark.parametrize("functions, shown", [
    ("hedge: 'power:r=500'", "power:r=500: h(8.0) = inf"),
    ("hedge: 'power:r=2'\n  growth: 'power:r=500'", "power:r=500: g(8.0) overflows"),
])
def test_cli_rejects_a_power_that_overflows_at_parse(tmp_path, capsys, functions, shown):
    text = _general_hedge_scenario(functions)
    err = _cli_error(["run", str(_write(tmp_path / "overflow.yaml", text))], capsys)
    assert shown in err


# 0.0 ** -1 raises ZeroDivisionError inside the check of h(0).
def test_cli_rejects_a_negative_power_hedge_at_parse(tmp_path, capsys):
    text = _general_hedge_scenario("hedge: 'power:r=-1'")
    err = _cli_error(["run", str(_write(tmp_path / "negative.yaml", text))], capsys)
    assert err == "error: power:r=-1: h(0.0) divides by zero\n"


# power:r=100 passes its grid (1024 ** 100 = 2^1000), but with v = 1 the sum
# A_n = n does not: g(A_n) overflows at n = 1210, the first n with
# n ** 100 >= 2^1024.
@pytest.mark.parametrize("command", ["run", "verify"])
def test_cli_stops_a_growth_that_overflows_during_play(tmp_path, capsys, command):
    text = _general_hedge_scenario("hedge: 'power:r=2'\n  growth: 'power:r=100'")
    path = _write(tmp_path / "overflow.yaml", text)
    err = _cli_error([command, str(path if command == "run" else tmp_path),
                      "--horizon", "3000"], capsys)
    assert "round 1210: growth power:r=100 overflows at A_n = 1210.0" in err


def test_cli_price_rejects_an_event_that_is_not_a_mapping(tmp_path, capsys):
    err = _price_error(tmp_path, capsys, "p_script: [0.5]\nevent: 5\n")
    assert "event" in err


def test_cli_price_rejects_a_threshold_without_value(tmp_path, capsys):
    err = _price_error(tmp_path, capsys, "p_script: [0.5]\nevent: {type: threshold}\n")
    assert "value" in err


def test_cli_price_rejects_a_p_script_that_is_not_a_list(tmp_path, capsys):
    err = _price_error(tmp_path, capsys, "p_script: 0.5\nevent: {type: all}\n")
    assert "p_script" in err


@pytest.mark.parametrize("p_script", ["[true, 0.5]", "[0.5, false]", "[0.5, [1]]",
                                      "[0.5, half]"])
def test_cli_price_rejects_a_price_that_is_not_a_number(tmp_path, capsys, p_script):
    err = _price_error(tmp_path, capsys, f"p_script: {p_script}\nevent: {{type: all}}\n")
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
    ("[0.5, 0.5]", "{type: threshold, opp: le, value: 1}", "opp"),
    ("[0.5, 0.5]", "{type: all, bitmasks: [1]}", "bitmasks"),
    ("[0.5, 0.5]", "{type: all}\nextra: 1", "extra"),
    ("[0.5, 0.5]", "{type: threshold, value: true}", "True"),
], ids=["coordinate-value-2", "leaves-negative", "leaves-9-at-n3", "threshold-nan",
        "index-2.7", "index-true", "index-string", "value-true", "bitmask-2.5",
        "threshold-opp", "all-bitmasks", "top-level-extra", "threshold-value-true"])
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


def test_cli_names_a_file_that_is_not_utf8(tmp_path, capsys):
    latin1 = tmp_path / "latin1.yaml"
    latin1.write_bytes(MINIMAL.replace("mini", "caf\xe9").encode("latin-1"))
    manifest = _write(tmp_path / "manifest.yml", "scenarios: [latin1.yaml]\n")
    for argv in (["run", str(latin1)], ["verify", str(manifest)]):
        err = _cli_error(argv, capsys)
        assert err.startswith(f"error: {latin1}: not UTF-8: ")


@pytest.mark.parametrize("listed_by", ["manifest", "directory"])
def test_cli_verify_names_the_scenario_that_fails_to_parse(tmp_path, capsys, listed_by):
    _write(tmp_path / "a_good.yaml", MINIMAL)
    bad = _write(tmp_path / "b_bad.yaml", MINIMAL.replace("horizon: 50", "horizon: 0"))
    manifest = _write(tmp_path / "manifest.yml", "scenarios: [a_good.yaml, b_bad.yaml]\n")
    err = _cli_error(["verify", str(manifest if listed_by == "manifest" else tmp_path)],
                     capsys)
    assert err == f"error: {bad}: horizon must be >= 1, got 0\n"
    assert _cli_error(["run", str(bad)], capsys) == "error: horizon must be >= 1, got 0\n"


# Each shape nests lists or mappings `levels` deep around one scalar.
NESTED = {
    "flow-sequence": lambda levels: "[" * levels + "1" + "]" * levels,
    "flow-mapping": lambda levels: "{a: " * levels + "1" + "}" * levels,
    "block-sequence": lambda levels: "- " * levels + "1\n",
    "json": lambda levels: '{"a": ' * levels + "1" + "}" * levels,
}


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_a_document_may_nest_up_to_the_limit(tmp_path, shape):
    path = _write(tmp_path / "nested.yaml", NESTED[shape](MAX_NESTING))
    doc = load_yaml(path)
    for _ in range(MAX_NESTING):
        doc = doc["a"] if isinstance(doc, dict) else doc[0]
    assert doc == 1
    _write(path, NESTED[shape](MAX_NESTING + 1))
    with pytest.raises(ScenarioError, match=f"nested deeper than {MAX_NESTING} levels"):
        load_yaml(path)


# libyaml composes by recursion in C, so at the parent commit these files
# crashed the interpreter (exit 139).  Run in a fresh interpreter, as a crash
# would take the test run down with it.
@pytest.mark.parametrize("shape", sorted(NESTED))
def test_cli_rejects_a_document_nested_fifty_thousand_deep(tmp_path, shape):
    path = _write(tmp_path / "deep.yaml", NESTED[shape](50_000))
    done = fresh_python("-m", "gtpsim.cli", "run", str(path))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: {path}: nested deeper than {MAX_NESTING} levels\n"


def _json_number():
    """JSON number tokens in every form YAML 1.1 types differently: with
    and without a fraction, with an exponent that is signed or not."""
    exponent = st.tuples(st.sampled_from("eE"), st.sampled_from(["", "+", "-"]),
                         st.sampled_from(["0", "5", "05", "16", "308", "400"]))
    return st.tuples(
        st.sampled_from(["", "-"]),
        st.sampled_from(["0", "1", "12", "4503599627370497"]),
        st.sampled_from(["", ".0", ".5", ".25", ".000001"]),
        st.one_of(st.just(("",)), exponent),
    ).map(lambda parts: "".join(parts[:3]) + "".join(parts[3]))


# Characters of the Basic Multilingual Plane that are not surrogates: json
# escapes the others to a surrogate pair, which PyYAML rejects.
BMP_TEXT = st.text(st.characters(blacklist_categories=("Cs",), max_codepoint=0xFFFF),
                   max_size=8)
JSON_SCALAR = st.one_of(
    _json_number(),
    st.sampled_from(["NaN", "Infinity", "-Infinity", "-0", "-0.0", "true", "false",
                     "null"]),
    BMP_TEXT.map(json.dumps),
)


def _json_texts():
    """JSON texts of nested lists and mappings, with repeated keys and
    varied white space."""
    def containers(children):
        sep = st.sampled_from([",", ", ", "\n  ,"])
        items = st.lists(children, max_size=4)
        keys = st.one_of(st.sampled_from(["a", "b", "1.5e+5"]), BMP_TEXT)
        pairs = st.lists(st.tuples(keys.map(json.dumps), children), max_size=4)
        return st.one_of(
            st.tuples(sep, items).map(lambda t: "[" + t[0].join(t[1]) + "]"),
            st.tuples(sep, st.sampled_from([":", ": ", " :\n "]), pairs).map(
                lambda t: "{" + t[0].join(k + t[1] + v for k, v in t[2]) + "}"),
        )
    return st.recursive(JSON_SCALAR, containers, max_leaves=12)


def _same_document(a, b) -> bool:
    """Equal in value and type, floats by their bits (a NaN equals a NaN)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex() or math.isnan(a) and math.isnan(b)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_document, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same_document(a[k], b[k]) for k in a)
    return a == b


@seed(2901)
@settings(deadline=None, max_examples=300)
@given(text=_json_texts())
def test_json_text_loads_as_pyyaml_reads_it(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "doc.json"
    path.write_text(text, encoding="utf-8")
    json.loads(text)                  # the text is JSON
    loaded = load_yaml(path)
    expected = yaml.load(text, Loader=yaml.CSafeLoader)
    assert _same_document(loaded, expected), (loaded, expected)


def test_json_text_with_a_surrogate_pair_escape_loads(tmp_path):
    text = '{"name": "\\ud83d\\ude00"}'
    with pytest.raises(yaml.YAMLError):
        yaml.load(text, Loader=yaml.CSafeLoader)
    assert load_yaml(_write(tmp_path / "emoji.json", text)) == {"name": "\U0001F600"}


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


def test_integral_float_counts_are_accepted(tmp_path):
    scenario = parse_text(
        tmp_path, MINIMAL.replace("horizon: 50", "horizon: 50.0") + "seed: 3.0\n")
    assert (scenario.horizon, scenario.seed) == (50, 3)
    assert type(scenario.horizon) is int and type(scenario.seed) is int


def test_cmd_verify_report_shape(tmp_path):
    scenario = parse_text(tmp_path, MINIMAL + "labels: {expected_event: strong_comply}\n")
    failures, lines = cmd_verify([replace(scenario, horizon=100)])
    assert failures == 0
    assert len(lines) == 2 and lines[0].startswith("pass")


MV_MINIMAL = MINIMAL.replace("coin_tossing", "unbounded_forecasting").replace(
    "{name: harmonic}", "{name: mv}").replace("bc_fictional", "zero").replace(
    "bc_comply", "ufg_comply")


@pytest.mark.parametrize("text, shown", [
    (MINIMAL.replace("{name: harmonic}", "{name: harmonic, a: [1]}"), "harmonic a"),
    (MINIMAL.replace("{name: bc_fictional}", "{name: random_bounded, bound: {x: 1}}"),
     "random_bounded bound"),
    (MV_MINIMAL.replace("{name: mv}", "{name: mv, v: 5}"), "forecaster v"),
    (MV_MINIMAL.replace("{name: mv}", "{name: mv, m: [zero]}"), "forecaster m"),
    (MV_MINIMAL.replace("{name: mv}", "{name: mv, m: {name: sin, amplitude: true}}"),
     "sin mean amplitude"),
    (MINIMAL.replace("protocol:\n  kind: coin_tossing", "protocol: 5"), "protocol"),
    (MINIMAL.replace("  kind: coin_tossing", "  kind: coin_tossing\n  initial_capital: [1]"),
     "initial_capital"),
    (MINIMAL.replace("coin_tossing", "bounded_forecasting").replace(
        "bc_fictional", "zero").replace("{name: bc_comply}", "{name: avoid_match, q: [1]}"),
     "avoid_match q"),
    (MINIMAL.replace("{name: bc_fictional}", "{name: [1]}"), "unknown skeptic"),
    (MINIMAL + "labels: 5\n", "labels"),
], ids=["harmonic-a-list", "bound-mapping", "mv-v-number", "mv-m-list",
        "amplitude-bool", "protocol-number", "initial-capital-list", "avoid-match-q-list",
        "skeptic-name-list", "labels-number"])
def test_cli_rejects_a_parameter_of_the_wrong_type(tmp_path, capsys, text, shown):
    err = _cli_error(["run", str(_write(tmp_path / "typed.yaml", text))], capsys)
    assert shown in err


@pytest.mark.parametrize("manifest, shown", [
    ("scenarios: 5\n", "scenarios"),
    ("scenarios: [[1]]\n", "scenarios"),
    ("pool: [1]\n", "pool"),
], ids=["scenarios-number", "scenarios-nested", "pool-list"])
def test_cli_rejects_a_manifest_of_the_wrong_shape(tmp_path, capsys, manifest, shown):
    err = _cli_error(["verify", str(_write(tmp_path / "manifest.yaml", manifest))], capsys)
    assert shown in err


@pytest.mark.parametrize("manifest, key", [
    ("pool: coin_comply\nhorizn: 5\n", "horizn"),
    ("pool: coin_comply\nscenarios: []\n", "scenarios"),
    ("scenarios: []\nhorizon: 5\n", "horizon"),
    ("scenarios: []\nseed: 5\n", "seed"),
], ids=["pool-misspelt", "pool-and-scenarios", "list-horizon", "list-seed"])
def test_cli_rejects_an_unknown_manifest_key(tmp_path, capsys, manifest, key):
    err = _cli_error(["verify", str(_write(tmp_path / "manifest.yaml", manifest))], capsys)
    assert "unknown key" in err and repr(key) in err


def test_cli_reports_a_variance_script_past_the_float_range(tmp_path, capsys):
    # 6.0 ** 400 is the first n ** 400 past the float range
    text = MV_MINIMAL.replace("{name: mv}", "{name: mv, v: {name: power, exponent: 400}}")
    err = _cli_error(["run", str(_write(tmp_path / "v.yaml", text))], capsys)
    assert "round 6: forecaster move invalid: v: v = inf is not finite" in err


def test_as_float_takes_numbers_and_numeric_strings_only():
    assert as_float(2, "a") == 2.0 and type(as_float(2, "a")) is float
    assert as_float(0.25, "a") == 0.25
    assert as_float("1e-4", "a") == 1e-4   # YAML 1.1 reads 1e-4 as a string
    for raw in (True, None, [1], {"x": 1}, "abc", 10**400):
        with pytest.raises(ScenarioError, match="bound must be a number"):
            as_float(raw, "bound")


def test_an_exponent_without_a_dot_still_parses_as_a_number(tmp_path):
    scenario = parse_text(tmp_path, MINIMAL.replace("{name: bc_fictional}",
                                                    "{name: random_bounded, bound: 1e-4}"))
    assert scenario.skeptic_spec["bound"] == "1e-4"
    bets = [r.bet for r in run_scenario(replace(scenario, horizon=20)).rounds]
    assert max(abs(m) for m in bets) <= 1e-4 and any(bets)


_BOUNDED_CONSTANT = MINIMAL.replace("coin_tossing", "bounded_forecasting").replace(
    "bc_fictional", "zero").replace("{name: bc_comply}", "{name: constant}")


@pytest.mark.parametrize("text, event, shown", [
    (MV_MINIMAL, "first_round", "game, got unbounded_forecasting"),
    (MV_MINIMAL, "heads_at_c_increments", "game, got unbounded_forecasting"),
    (MV_MINIMAL, "avoid_match", "game, got unbounded_forecasting"),
    (MV_MINIMAL, "no_late_heads", "game, got unbounded_forecasting"),
    (MINIMAL, "slln_hold", "general_hedge game, got coin_tossing"),
    (MINIMAL, "slln_fail", "general_hedge game, got coin_tossing"),
    (_BOUNDED_CONSTANT, "avoid_match", "avoid_match reality, got 'constant'"),
    (MINIMAL, "avoid_match", "avoid_match reality, got 'bc_comply'"),
], ids=["first-round-mv", "heads-at-c-mv", "avoid-match-mv", "no-late-heads-mv",
        "slln-hold-coin", "slln-fail-coin", "avoid-match-constant",
        "avoid-match-bc-comply"])
def test_cli_rejects_a_label_for_another_game(tmp_path, capsys, text, event, shown):
    path = _write(tmp_path / "label.yaml", text + f"labels: {{expected_event: {event}}}\n")
    err = _cli_error(["run", str(path)], capsys)
    assert f"expected_event {event!r} requires the" in err and shown in err


@pytest.mark.parametrize("divergent", ["[1, 2]", "1", "'true'", "{a: 1}"])
def test_parse_rejects_a_series_divergent_label_that_is_not_a_bool(tmp_path, divergent):
    with pytest.raises(ScenarioError, match="series_divergent must be true, false or null"):
        parse_text(tmp_path, MINIMAL + f"labels: {{series_divergent: {divergent}}}\n")


def test_parse_takes_a_bool_or_null_series_divergent_label(tmp_path):
    for raw, divergent in (("true", True), ("false", False), ("null", None)):
        scenario = parse_text(tmp_path, MINIMAL + f"labels: {{series_divergent: {raw}}}\n")
        assert scenario.series_divergent is divergent


def test_cli_reports_an_out_path_that_cannot_be_written(tmp_path, capsys):
    taken = _write(tmp_path / "taken", "a file, not a directory\n")
    err = _cli_error(["run", str(_write(tmp_path / "mini.yaml", MINIMAL)),
                      "--out", str(taken)], capsys)
    assert str(taken) in err


@pytest.mark.parametrize("first, second", [("same/x", "same_x"), ("twin", "twin")],
                         ids=["one-stem", "one-name"])
def test_cli_verify_refuses_two_scenarios_with_one_output_name(tmp_path, capsys,
                                                               first, second):
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    for file, name in (("a.yaml", first), ("b.yaml", second)):
        _write(scenarios / file, MINIMAL.replace("name: mini", f"name: {name!r}"))
    out = tmp_path / "out"
    err = _cli_error(["verify", str(scenarios), "--out", str(out)], capsys)
    assert repr(first) in err and repr(second) in err and not out.exists()
    # without --out nothing is written, so nothing can be overwritten
    assert main(["verify", str(scenarios), "--horizon", "20"]) == 0
    assert "2/2 scenarios passed" in capsys.readouterr().out


def test_a_scenario_built_in_python_is_held_to_its_game_too():
    scenario = replace(STOCK_POOLS["ufg"](horizon=20)[0], expected_event="first_round")
    with pytest.raises(ScenarioError, match="expected_event 'first_round' requires the"):
        cmd_verify([scenario])
