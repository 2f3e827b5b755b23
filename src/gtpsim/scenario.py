"""Scenario model: named forecaster scripts, strategy registries, ground-truth
labels, and the finite-horizon event proxies checked against them.

Scenario files are YAML; whether a price series converges is recorded as a
label rather than inferred, since no finite prefix decides it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

import yaml

from . import randomized, reality, skeptic
from .analysis import BOUND_SLACK, Verdict
from .engine import (
    Forecaster,
    ForecastMove,
    GameKind,
    Protocol,
    Reality,
    ScriptForecaster,
    Skeptic,
    Trace,
    ZeroSkeptic,
    run_game,
)
from .hedges import (
    Growth,
    Hedge,
    identity_growth,
    power_growth,
    power_hedge,
    validate_growth,
    validate_hedge,
)
from .skeptic import BcCounters, ceiling_index_update


class ScenarioError(ValueError):
    """Malformed or out-of-range scenario content."""


# libyaml's parser when PyYAML was built with it, else the pure-Python one;
# both build the same documents through the same safe constructor.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_yaml(source: Union[str, Path]) -> Any:
    """The YAML document of a file (a Path, read as UTF-8) or of a text (a
    str).  A file that cannot be read and text that is not YAML are
    ScenarioErrors."""
    where = f"{source}: " if isinstance(source, Path) else ""
    try:
        if isinstance(source, Path):
            source = source.read_text(encoding="utf-8")
        return yaml.load(source, Loader=_YAML_LOADER)
    except OSError as exc:
        raise ScenarioError(f"{where}cannot read: {exc.strerror or exc}") from exc
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{where}not valid YAML: {exc}") from exc


def as_integer(raw: Any, what: str) -> int:
    """`raw` as an int: an int or an integral float.  A bool, a string or a
    non-integral number is a ScenarioError naming `what`."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)) or (
            isinstance(raw, float) and not raw.is_integer()):
        raise ScenarioError(f"{what} must be an integer, got {raw!r}")
    return int(raw)


# Expected event -> name of its finite-horizon proxy in this module (None:
# no proxy).  `event_proxy_for` looks the name up when called, so a rebound
# proxy_* function is the one that runs.
_EVENT_PROXIES: Dict[str, Optional[str]] = {
    "none": None,
    "strong_comply": None,
    "no_late_heads": "proxy_no_late_heads",
    "heads_at_c_increments": "proxy_heads_at_c_increments",
    "slln_hold": "proxy_slln_hold",
    "slln_fail": "proxy_slln_fail",
    "first_round": "proxy_first_round",
    "avoid_match": "proxy_avoid_match",
    "violation": None,
}
EXPECTED_EVENTS = tuple(_EVENT_PROXIES)


@dataclass
class Scenario:
    name: str
    protocol: Protocol
    horizon: int
    forecaster_spec: Dict
    skeptic_spec: Dict
    reality_spec: Dict
    growth: Optional[Growth] = None
    seed: Optional[int] = None
    series_divergent: Optional[bool] = None
    expected_event: str = "none"


# ---------------------------------------------------------------------------
# Named function specs
# ---------------------------------------------------------------------------

def parse_hedge(spec: str) -> Hedge:
    if spec.startswith("power:r="):
        hedge = power_hedge(float(spec[len("power:r="):]))
    else:
        raise ScenarioError(f"unknown hedge {spec!r}")
    validate_hedge(hedge)
    return hedge


def parse_growth(spec: str) -> Growth:
    if spec == "identity":
        growth = identity_growth()
    elif spec.startswith("power:r="):
        growth = power_growth(float(spec[len("power:r="):]))
    else:
        raise ScenarioError(f"unknown growth {spec!r}")
    validate_growth(growth)
    return growth


def _check_keys(mapping: Dict, allowed, where: str) -> None:
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ScenarioError(f"unknown key(s) {sorted(unknown)} in {where}")


# ---------------------------------------------------------------------------
# Forecaster generators
# ---------------------------------------------------------------------------

def _price_script(name: str, params: Dict) -> Callable[[int], float]:
    if name == "harmonic":
        a = float(params.get("a", 1.0))
        return lambda n: min(1.0, a / n)
    if name == "inverse_square":
        a = float(params.get("a", 1.0))
        return lambda n: min(1.0, a / (n * n))
    if name == "constant":
        value = float(params.get("value", 0.5))
        if not 0.0 <= value <= 1.0:
            raise ScenarioError(f"constant price {value} outside [0, 1]")
        return lambda n: value
    if name == "geometric":
        ratio = float(params.get("ratio", 0.5))
        a = float(params.get("a", 1.0))
        if not 0.0 < ratio < 1.0:
            raise ScenarioError(f"geometric ratio {ratio} outside (0, 1)")
        return lambda n: min(1.0, a * ratio ** n)
    if name == "explicit":
        raw = params.get("values")
        if not isinstance(raw, list) or not raw:
            raise ScenarioError(
                f"explicit forecaster needs a non-empty values list, got {raw!r}")
        try:
            values = [float(v) for v in raw]
        except (TypeError, ValueError):
            raise ScenarioError(
                f"explicit forecaster values must be numbers, got {raw!r}") from None
        return lambda n: values[(n - 1) % len(values)]
    raise ScenarioError(f"unknown price forecaster {name!r}")


def _mv_script(params: Dict) -> Callable[[int], ForecastMove]:
    v_spec = params.get("v", {"name": "constant", "value": 1.0})
    m_spec = params.get("m", {"name": "zero"})
    v_name = v_spec.get("name")
    if v_name == "constant":
        value = float(v_spec.get("value", 1.0))
        v_fn = lambda n: value
    elif v_name == "power":
        exponent = float(v_spec.get("exponent", 1.0))
        v_fn = lambda n: float(n) ** exponent
    else:
        raise ScenarioError(f"unknown variance script {v_name!r}")
    m_name = m_spec.get("name")
    if m_name == "zero":
        m_fn = lambda n: 0.0
    elif m_name == "sin":
        amplitude = float(m_spec.get("amplitude", 1.0))
        m_fn = lambda n: amplitude * math.sin(float(n))
    else:
        raise ScenarioError(f"unknown mean script {m_name!r}")
    return lambda n: ForecastMove(None, m_fn(n), v_fn(n))


def build_forecaster(scenario: Scenario) -> Forecaster:
    spec = dict(scenario.forecaster_spec)
    name = spec.pop("name")
    if scenario.protocol.kind.uses_price:
        script = _price_script(name, spec)
        return ScriptForecaster(lambda n: ForecastMove(script(n)))
    if name != "mv":
        raise ScenarioError(f"forecaster {name!r} needs a coin/bounded protocol")
    return ScriptForecaster(_mv_script(spec))


# ---------------------------------------------------------------------------
# Skeptic and Reality registries
# ---------------------------------------------------------------------------

def _seed(scenario: Scenario) -> int:
    return scenario.seed if scenario.seed is not None else 0


# name -> constructor from (scenario, its strategy spec)
_SKEPTICS: Dict[str, Callable[[Scenario, Dict], Skeptic]] = {
    "zero": lambda sc, spec: ZeroSkeptic(),
    "bc_divergent": lambda sc, spec: skeptic.DivergentBcSkeptic(),
    "bc_convergent": lambda sc, spec: skeptic.ConvergentBcSkeptic(),
    "bc_fictional": lambda sc, spec: skeptic.FictionalBcSkeptic(),
    "random_bounded": lambda sc, spec: randomized.RandomBoundedSkeptic(
        seed=_seed(sc), bound=float(spec.get("bound", 10.0))
    ),
    "bang_bang": lambda sc, spec: skeptic.BangBangSkeptic(
        amplitude=float(spec.get("amplitude", 1.0)),
        v_amplitude=float(spec.get("v_amplitude", 1.0)),
    ),
    "single_bet": lambda sc, spec: skeptic.SingleBetSkeptic(
        M=float(spec.get("M", 0.0)), V=float(spec.get("V", 0.0))
    ),
}

_REALITIES: Dict[str, Callable[[Scenario, Dict], Reality]] = {
    "bc_comply": lambda sc, spec: reality.BcComplyReality(),
    "ufg_comply": lambda sc, spec: reality.MvComplyReality(),
    "ufgh_comply": lambda sc, spec: reality.MvComplyReality(
        growth=sc.growth or identity_growth()
    ),
    "derandomized_fictional": lambda sc, spec: reality.DerandomizedCoinReality(
        skeptic.FictionalBcSkeptic()
    ),
    "first_round": lambda sc, spec: reality.FirstRoundComplyReality(),
    "avoid_match": lambda sc, spec: reality.BoundedAvoidMatchReality(
        float(spec.get("q", 0.9))
    ),
    "bernoulli": lambda sc, spec: randomized.BernoulliReality(seed=_seed(sc)),
    "kolmogorov": lambda sc, spec: randomized.KolmogorovReality(seed=_seed(sc)),
    "constant": lambda sc, spec: reality.ConstantReality(float(spec.get("x", 0.0))),
}


def _build(registry: Dict, role: str, scenario: Scenario, spec: Dict):
    name = spec["name"]
    if name not in registry:
        raise ScenarioError(f"unknown {role} {name!r}")
    return registry[name](scenario, spec)


def build_skeptic(scenario: Scenario) -> Skeptic:
    return _build(_SKEPTICS, "skeptic", scenario, scenario.skeptic_spec)


def build_reality(scenario: Scenario) -> Reality:
    return _build(_REALITIES, "reality", scenario, scenario.reality_spec)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def parse_scenario(source: Union[str, Path], name: str = "scenario") -> Scenario:
    """The scenario in a YAML text, or in a file when `source` is a Path."""
    doc = load_yaml(source)
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a mapping")
    _check_keys(
        doc,
        ("name", "protocol", "horizon", "forecaster", "skeptic", "reality",
         "seed", "labels"),
        "scenario",
    )
    proto_doc = doc.get("protocol", {})
    _check_keys(proto_doc, ("kind", "initial_capital", "hedge", "growth"), "protocol")
    try:
        kind = GameKind(proto_doc.get("kind", "coin_tossing"))
    except ValueError as exc:
        raise ScenarioError(f"unknown protocol kind: {exc}") from exc
    hedge = None
    growth = None
    if "hedge" in proto_doc:
        hedge = parse_hedge(str(proto_doc["hedge"]))
    if "growth" in proto_doc:
        growth = parse_growth(str(proto_doc["growth"]))
    protocol = Protocol(
        kind=kind,
        hedge=hedge,
        initial_capital=float(proto_doc.get("initial_capital", 1.0)),
    )
    horizon = as_integer(doc.get("horizon", 100), "horizon")
    if horizon < 1:
        raise ScenarioError(f"horizon must be >= 1, got {horizon}")
    labels = doc.get("labels", {}) or {}
    _check_keys(labels, ("series_divergent", "expected_event"), "labels")
    expected = labels.get("expected_event", "none")
    if expected not in EXPECTED_EVENTS:
        raise ScenarioError(f"unknown expected_event {expected!r}")
    for role in ("forecaster", "skeptic", "reality"):
        spec = doc.get(role)
        if spec is not None and not isinstance(spec, dict):
            raise ScenarioError(
                f"{role} must be a mapping with a name, got {spec!r}")
        if not spec or "name" not in spec:
            raise ScenarioError(f"scenario must name a {role}")
    scenario = Scenario(
        name=str(doc.get("name", name)),
        protocol=protocol,
        horizon=horizon,
        forecaster_spec=dict(doc["forecaster"]),
        skeptic_spec=dict(doc["skeptic"]),
        reality_spec=dict(doc["reality"]),
        growth=growth,
        seed=None if doc.get("seed") is None else as_integer(doc["seed"], "seed"),
        series_divergent=labels.get("series_divergent"),
        expected_event=expected,
    )
    # fail fast on unknown strategy names, bad parameters, and strategies
    # that cannot play this protocol (their reset raises ValueError)
    for player in (build_forecaster(scenario), build_skeptic(scenario),
                   build_reality(scenario)):
        try:
            player.reset(protocol)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
    return scenario


def parse_scenario_file(path) -> Scenario:
    path = Path(path)
    return parse_scenario(path, name=path.stem)


# ---------------------------------------------------------------------------
# Event proxies (finite-horizon stand-ins for the labelled tail events)
# ---------------------------------------------------------------------------

def _c_increment_rounds(increments: List[float]) -> List[int]:
    counters = BcCounters()
    rounds = []
    for n, inc in enumerate(increments, start=1):
        updated = ceiling_index_update(counters, inc)
        if updated.c != counters.c:
            rounds.append(n)
        counters = updated
    return rounds


def proxy_no_late_heads(trace: Trace) -> bool:
    """No head in the final 90% of the run."""
    cutoff = max(1, len(trace.rounds) // 10)
    return all(r.x != 1.0 for r in trace.rounds[cutoff:])


def proxy_heads_at_c_increments(trace: Trace) -> bool:
    """Heads occur exactly where the price partial sum crosses an integer."""
    increments = [r.forecast.p for r in trace.rounds]
    expected = set(_c_increment_rounds(increments))
    actual = {r.n for r in trace.rounds if r.x == 1.0}
    return expected == actual


def proxy_slln_hold(trace: Trace, threshold: float = 0.01) -> bool:
    """Final centered mean is small."""
    total = sum(r.x - r.forecast.m for r in trace.rounds)
    return abs(total) / len(trace.rounds) <= threshold


def proxy_slln_fail(trace: Trace, threshold: float = 0.5, first_round: int = 10) -> bool:
    """|S_n| / n stays large at every crossing round n >= first_round."""
    increments = [r.forecast.v / (r.n * r.n) for r in trace.rounds]
    crossings = [n for n in _c_increment_rounds(increments) if n >= first_round]
    total = 0.0
    checks = []
    by_round = {}
    for r in trace.rounds:
        total += r.x - r.forecast.m
        by_round[r.n] = total
    for n in crossings:
        checks.append(abs(by_round[n]) / n >= threshold)
    return bool(checks) and all(checks)


def proxy_first_round(trace: Trace) -> bool:
    """p_1 > 0 forces a first-round head, and the capital peaks at round 1."""
    first = trace.rounds[0]
    if first.forecast.p > 0.0 and first.x != 1.0:
        return False
    slack = BOUND_SLACK * trace.protocol.initial_capital
    return max(trace.capitals) <= first.capital_after + slack


def proxy_avoid_match(trace: Trace, q: float) -> bool:
    """No outcome ever equals the price, and the capital stays below q."""
    if any(r.x == r.forecast.p for r in trace.rounds):
        return False
    return max(trace.capitals) <= q + BOUND_SLACK


def event_proxy_for(scenario: Scenario) -> Optional[Callable[[Trace], bool]]:
    expected = scenario.expected_event
    if expected not in _EVENT_PROXIES:
        raise ScenarioError(f"unknown expected_event {expected!r}")
    name = _EVENT_PROXIES[expected]
    if name is None:
        return None
    proxy = globals()[name]
    if expected == "avoid_match":
        q = float(scenario.reality_spec.get("q", 0.9))
        return lambda trace: proxy(trace, q)
    return proxy


# ---------------------------------------------------------------------------
# Execution and checking
# ---------------------------------------------------------------------------

def run_scenario(scenario: Scenario, horizon: Optional[int] = None,
                 seed: Optional[int] = None) -> Trace:
    if seed is not None:
        scenario = Scenario(**{**scenario.__dict__, "seed": seed})
    trace = run_game(
        scenario.protocol,
        build_forecaster(scenario),
        build_skeptic(scenario),
        build_reality(scenario),
        horizon if horizon is not None else scenario.horizon,
        seed=scenario.seed,
        stop_on_skeptic_fault=True,
    )
    return trace


def scenario_passes(scenario: Scenario, verdict: Verdict) -> bool:
    """Compare a verdict with the scenario's ground-truth labels.

    A Skeptic who bankrupts himself is his own fault: the duty flag is
    reported but the event proxy is only binding while the duty holds.
    """
    expected = scenario.expected_event
    if expected == "violation":
        k0 = scenario.protocol.initial_capital
        return (not verdict.strong_bound_ok) or verdict.sup_capital > 10.0 * k0
    if expected == "none":
        return True
    if expected in ("first_round", "avoid_match"):
        return verdict.event_proxy_ok is not False
    if not verdict.strong_bound_ok:
        return False
    if verdict.skeptic_duty_ok and verdict.event_proxy_ok is False:
        return False
    return True


# ---------------------------------------------------------------------------
# Stock pools
# ---------------------------------------------------------------------------

_POOL_FORECASTERS = {
    "harmonic": ({"name": "harmonic"}, True),
    "inverse_square": ({"name": "inverse_square"}, False),
    "constant_0.3": ({"name": "constant", "value": 0.3}, True),
    "geometric": ({"name": "geometric"}, False),
}

_POOL_SKEPTICS = (
    {"name": "zero"},
    {"name": "bc_divergent"},
    {"name": "bc_convergent"},
    {"name": "bc_fictional"},
    {"name": "random_bounded", "bound": 10.0},
    {"name": "bang_bang", "amplitude": 1.0},
)


def coin_comply_pool(horizon: int = 10_000, seed: int = 7) -> List[Scenario]:
    """Coin-game compliance pool: every forecaster script crossed with every
    Skeptic adversary, against the deterministic complying Reality."""
    scenarios = []
    for f_label, (f_spec, divergent) in _POOL_FORECASTERS.items():
        for s_spec in _POOL_SKEPTICS:
            expected = "strong_comply"
            if not divergent:
                expected = "no_late_heads"
            elif s_spec["name"] == "zero":
                expected = "heads_at_c_increments"
            scenarios.append(
                Scenario(
                    name=f"coin[{f_label}/{s_spec['name']}]",
                    protocol=Protocol(kind=GameKind.COIN_TOSSING),
                    horizon=horizon,
                    forecaster_spec=dict(f_spec),
                    skeptic_spec=dict(s_spec),
                    reality_spec={"name": "bc_comply"},
                    seed=seed,
                    series_divergent=divergent,
                    expected_event=expected,
                )
            )
    return scenarios


def ufg_pool(horizon: int = 10_000, seed: int = 7) -> List[Scenario]:
    """Unbounded-game compliance pool over convergent/divergent variance
    scripts and bounded mean scripts."""
    scenarios = []
    v_scripts = {
        "v=1": ({"name": "constant", "value": 1.0}, False),
        "v=n": ({"name": "power", "exponent": 1.0}, True),
    }
    m_scripts = {"m=0": {"name": "zero"}, "m=sin": {"name": "sin"}}
    for v_label, (v_spec, divergent) in v_scripts.items():
        for m_label, m_spec in m_scripts.items():
            for s_spec in _POOL_SKEPTICS:
                if s_spec["name"].startswith("bc_"):
                    continue  # coin-only bets
                expected = "strong_comply"
                if not divergent and m_label == "m=0":
                    expected = "slln_hold"
                elif divergent and s_spec["name"] == "zero" and m_label == "m=0":
                    expected = "slln_fail"
                scenarios.append(
                    Scenario(
                        name=f"ufg[{v_label}/{m_label}/{s_spec['name']}]",
                        protocol=Protocol(kind=GameKind.UNBOUNDED_FORECASTING),
                        horizon=horizon,
                        forecaster_spec={"name": "mv", "v": dict(v_spec),
                                         "m": dict(m_spec)},
                        skeptic_spec=dict(s_spec),
                        reality_spec={"name": "ufg_comply"},
                        seed=seed,
                        series_divergent=divergent,
                        expected_event=expected,
                    )
                )
    return scenarios


def ufgh_pool(horizon: int = 10_000, seed: int = 7) -> List[Scenario]:
    """General-hedge compliance pool over power hedges and growth choices."""
    scenarios = []
    for r in (1.0, 1.5, 2.0):
        for g_label in ("identity", "power:r=2"):
            for s_spec in _POOL_SKEPTICS:
                if s_spec["name"].startswith("bc_"):
                    continue  # coin-only bets
                scenarios.append(
                    Scenario(
                        name=f"ufgh[r={r:g}/{g_label}/{s_spec['name']}]",
                        protocol=Protocol(
                            kind=GameKind.GENERAL_HEDGE, hedge=power_hedge(r)
                        ),
                        horizon=horizon,
                        forecaster_spec={"name": "mv",
                                         "v": {"name": "constant", "value": 1.0}},
                        skeptic_spec=dict(s_spec),
                        reality_spec={"name": "ufgh_comply"},
                        growth=parse_growth(g_label),
                        seed=seed,
                        series_divergent=False,
                        expected_event="strong_comply",
                    )
                )
    return scenarios


STOCK_POOLS: Dict[str, Callable[..., List[Scenario]]] = {
    "coin_comply": coin_comply_pool,
    "ufg": ufg_pool,
    "ufgh": ufgh_pool,
}
