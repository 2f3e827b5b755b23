"""Scenario model: named forecaster scripts, strategy registries, ground-truth
labels, and the finite-horizon event proxies checked against them.

Scenario files are YAML; whether a price series converges is recorded as a
label rather than inferred, since no finite prefix decides it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from .engine import (
    BOUND_SLACK,
    MEAN_VARIANCE_GAMES,
    PRICE_GAMES,
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

if TYPE_CHECKING:
    from .analysis import Verdict
    from .hedges import Growth, Hedge


class ScenarioError(ValueError):
    """Malformed or out-of-range scenario content."""


# The deepest nesting of lists and mappings an input file may hold.  No
# stock file passes 4.  libyaml composes a document by recursion in C, which
# overflows the stack (SIGSEGV) some 25,000 levels down; json raises
# RecursionError near 1,000.
MAX_NESTING = 32


def load_yaml(path: Path) -> Any:
    """The YAML document of a file, read as UTF-8.  A file that cannot be
    read, is not UTF-8, is not YAML, nests lists and mappings deeper than
    MAX_NESTING or holds an integer too long for `int` is a ScenarioError
    that starts with the path.

    Three readers give the document PyYAML's safe loader builds, tried in
    turn.  Text that is JSON is read by `json`, typed as YAML 1.1 types it:
    a number is a float only when it has a dot and any exponent is signed
    (`1e5` and `1.5e5` stay strings), and NaN and Infinity stay strings.
    Other text is read by `plain_yaml`, when it keeps to the plain forms
    that module lists, and else by PyYAML.  `plain_yaml` and PyYAML are
    imported only when they are needed."""
    import json

    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8: {exc}") from None
    too_deep = ScenarioError(f"{path}: nested deeper than {MAX_NESTING} levels")
    try:
        try:
            doc = json.loads(text, parse_float=_yaml_float, parse_constant=str)
        except json.JSONDecodeError:
            from . import plain_yaml

            doc = plain_yaml.read(text, MAX_NESTING)
        else:
            if _nested_deeper(doc, MAX_NESTING):
                raise too_deep
            return doc
        if doc is not None:
            return doc
        import yaml

        # libyaml's parser when PyYAML was built with it, else the
        # pure-Python one; both build the same documents through the same
        # safe constructor.  Their events are read first, so a deep document
        # stops at its first level past the limit, before either parser
        # recurses.
        loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
        depth = 0
        try:
            for event in yaml.parse(text, Loader=loader):
                if isinstance(event, yaml.CollectionStartEvent):
                    depth += 1
                    if depth > MAX_NESTING:
                        raise too_deep
                elif isinstance(event, yaml.CollectionEndEvent):
                    depth -= 1
            return yaml.load(text, Loader=loader)
        except yaml.YAMLError as exc:
            raise ScenarioError(f"{path}: not valid YAML: {exc}") from exc
    except RecursionError:        # json raises it near 1,000 levels
        raise too_deep from None
    except ScenarioError:
        raise
    except ValueError as exc:     # an int longer than `int` converts, in any reader
        raise ScenarioError(f"{path}: {exc}") from None


def _yaml_float(number: str) -> Any:
    """A JSON number with a fraction or an exponent, as YAML 1.1 reads it:
    a float when it has a dot and any exponent is signed, else a string."""
    mantissa, e, exponent = number.lower().partition("e")
    if "." in mantissa and (not e or exponent[0] in "+-"):
        return float(number)
    return number


def _nested_deeper(doc: Any, levels: int) -> bool:
    """Whether lists and mappings nest in `doc` more than `levels` deep."""
    nodes = [doc]
    for _ in range(levels):
        nodes = [child for node in nodes if isinstance(node, (dict, list))
                 for child in (node.values() if isinstance(node, dict) else node)]
    return any(isinstance(node, (dict, list)) for node in nodes)


def as_integer(raw: Any, what: str) -> int:
    """`raw` as an int: an int or an integral float.  A bool, a string or a
    non-integral number is a ScenarioError naming `what`."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)) or (
            isinstance(raw, float) and not raw.is_integer()):
        raise ScenarioError(f"{what} must be an integer, got {raw!r}")
    return int(raw)


def as_float(raw: Any, what: str) -> float:
    """`raw` as a float: an int, a float, or a string that spells a number
    (YAML 1.1 reads `1e-4`, with no dot, as a string).  A bool, any other
    string or any other type is a ScenarioError naming `what`."""
    if not isinstance(raw, bool) and isinstance(raw, (int, float, str)):
        try:
            return float(raw)
        except (ValueError, OverflowError):
            pass
    raise ScenarioError(f"{what} must be a number, got {raw!r}")


def _number(spec: Dict, key: str, default: float, owner: str) -> float:
    """spec[key] (or the default) as a float; see `as_float`."""
    return as_float(spec.get(key, default), f"{owner} {key}")


def _mapping(raw: Any, what: str) -> Dict:
    if not isinstance(raw, dict):
        raise ScenarioError(f"{what} must be a mapping, got {raw!r}")
    return raw


# Expected event -> (name of its finite-horizon proxy in this module, or None
# for no proxy; the games whose moves the event reads).  `event_proxy_for`
# looks the name up when called, so a rebound proxy_* function is the one
# that runs.
_ALL_GAMES = tuple(GameKind)
_EVENT_PROXIES: Dict[str, Tuple[Optional[str], Tuple[GameKind, ...]]] = {
    "none": (None, _ALL_GAMES),
    "strong_comply": (None, _ALL_GAMES),
    "no_late_heads": ("proxy_no_late_heads", PRICE_GAMES),
    "heads_at_c_increments": ("proxy_heads_at_c_increments", PRICE_GAMES),
    "slln_hold": ("proxy_slln_hold", MEAN_VARIANCE_GAMES),
    "slln_fail": ("proxy_slln_fail", MEAN_VARIANCE_GAMES),
    "first_round": ("proxy_first_round", PRICE_GAMES),
    "avoid_match": ("proxy_avoid_match", PRICE_GAMES),
    "violation": (None, _ALL_GAMES),
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
    from .hedges import power_hedge, validate_hedge

    if spec.startswith("power:r="):
        hedge = power_hedge(as_float(spec[len("power:r="):], "hedge power r"))
    else:
        raise ScenarioError(f"unknown hedge {spec!r}")
    validate_hedge(hedge)
    return hedge


def parse_growth(spec: str) -> Growth:
    from .hedges import identity_growth, power_growth, validate_growth

    if spec == "identity":
        growth = identity_growth()
    elif spec.startswith("power:r="):
        growth = power_growth(as_float(spec[len("power:r="):], "growth power r"))
    else:
        raise ScenarioError(f"unknown growth {spec!r}")
    validate_growth(growth)
    return growth


def _require_game(what: str, games: Tuple[GameKind, ...], kind: GameKind) -> None:
    if kind not in games:
        raise ScenarioError(f"{what} requires the"
                            f" {' or '.join(k.value for k in games)} game,"
                            f" got {kind.value}")


def _check_keys(mapping: Dict, allowed, where: str) -> None:
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ScenarioError(f"unknown key(s) {sorted(unknown)} in {where}")


# ---------------------------------------------------------------------------
# Forecaster generators
# ---------------------------------------------------------------------------

def _price_script(name: str, params: Dict) -> Callable[[int], float]:
    """Round n -> the price p_n, a float, for a named price series, a key of
    `_FORECASTER_KEYS` other than `mv`.  `constant`, `explicit` and an
    underflowed `geometric` announce float objects built here (see
    `engine`)."""
    if name in ("harmonic", "inverse_square", "geometric"):
        a = _number(params, "a", 1.0, name)
        if not 0.0 <= a < math.inf:  # -0.0 passes: it plays p = -0.0
            raise ScenarioError(f"{name} a must be finite and >= 0, got {a}")
    if name == "harmonic":
        return lambda n: min(1.0, a / n)
    if name == "inverse_square":
        return lambda n: min(1.0, a / (n * n))
    if name == "constant":
        value = _number(params, "value", 0.5, name)
        if not 0.0 <= value <= 1.0:
            raise ScenarioError(f"constant price {value} outside [0, 1]")
        return lambda n: value
    if name == "geometric":
        ratio = _number(params, "ratio", 0.5, name)
        if not 0.0 < ratio < 1.0:
            raise ScenarioError(f"geometric ratio {ratio} outside (0, 1)")
        # Announced once a * ratio^n underflows; a * 0.0 keeps the sign of a.
        zero = a * 0.0

        def geometric(n: int) -> float:
            p = a * ratio ** n
            return min(1.0, p) if p else zero
        return geometric
    # explicit
    raw = params.get("values")
    if not isinstance(raw, list) or not raw:
        raise ScenarioError(
            f"explicit forecaster needs a non-empty values list, got {raw!r}")
    try:
        values = [as_float(v, "value") for v in raw]
    except ScenarioError:
        raise ScenarioError(
            f"explicit forecaster values must be numbers, got {raw!r}") from None
    if any(not 0.0 <= value <= 1.0 for value in values):  # NaN fails too
        raise ScenarioError(
            f"explicit forecaster values must lie in [0, 1], got {raw!r}")
    return lambda n: values[(n - 1) % len(values)]


def _mv_script(params: Dict) -> Callable[[int], ForecastMove]:
    """Round n -> ForecastMove(m_n, v_n), one script frame per
    forecast.  Constant v with zero m announces one move built here."""
    v_spec = _mapping(params.get("v", {"name": "constant", "value": 1.0}),
                      "forecaster v")
    m_spec = _mapping(params.get("m", {"name": "zero"}), "forecaster m")
    v_name, m_name = v_spec.get("name"), m_spec.get("name")
    if v_name == "constant":
        _check_keys(v_spec, ("name", "value"), "constant variance")
        value = _number(v_spec, "value", 1.0, "constant variance")
    elif v_name == "power":
        _check_keys(v_spec, ("name", "exponent"), "power variance")
        exponent = _number(v_spec, "exponent", 1.0, "power variance")
    else:
        raise ScenarioError(f"unknown variance script {v_name!r}")
    if m_name == "zero":
        _check_keys(m_spec, ("name",), "zero mean")
    elif m_name == "sin":
        _check_keys(m_spec, ("name", "amplitude"), "sin mean")
        amplitude = _number(m_spec, "amplitude", 1.0, "sin mean")
        sin = math.sin
    else:
        raise ScenarioError(f"unknown mean script {m_name!r}")
    if v_name == "constant" and m_name == "zero":
        move = ForecastMove(0.0, value)
        return lambda n: move
    sin_mean, power_v = m_name == "sin", v_name == "power"

    def script(n: int) -> ForecastMove:
        # A zero mean is the literal 0.0: 0.0 * sin(n) would be -0.0 on half
        # the rounds.
        m = amplitude * sin(float(n)) if sin_mean else 0.0
        if not power_v:
            return ForecastMove(m, value)
        # n ** exponent past the float range is v = inf, as `power_hedge`
        # gives, for validation to report; float `**` would raise OverflowError.
        try:
            v = float(n) ** exponent
        except OverflowError:
            v = math.inf
        return ForecastMove(m, v)
    return script


# Forecaster name -> the parameter keys its spec may hold besides `name`.
_FORECASTER_KEYS: Dict[str, Tuple[str, ...]] = {
    "harmonic": ("a",),
    "inverse_square": ("a",),
    "constant": ("value",),
    "geometric": ("ratio", "a"),
    "explicit": ("values",),
    "mv": ("v", "m"),
}


def build_forecaster(scenario: Scenario) -> Forecaster:
    spec = dict(scenario.forecaster_spec)
    name = spec.pop("name")
    if not isinstance(name, str) or name not in _FORECASTER_KEYS:
        raise ScenarioError(f"unknown forecaster {name!r}")
    _check_keys(spec, _FORECASTER_KEYS[name], f"forecaster {name!r}")
    _require_game(f"forecaster {name!r}", MEAN_VARIANCE_GAMES if name == "mv"
                  else PRICE_GAMES, scenario.protocol.kind)
    if name == "mv":
        return ScriptForecaster(_mv_script(spec))
    return ScriptForecaster(_price_script(name, spec))


# ---------------------------------------------------------------------------
# Skeptic and Reality registries
# ---------------------------------------------------------------------------

def _seed(scenario: Scenario) -> int:
    return scenario.seed if scenario.seed is not None else 0


class _PlayerModules:
    """The modules the registered players come from, each imported when the
    first player from it is built: parsing a pricing file or building a
    pool builds no player, so it never loads them."""

    def __getattr__(self, name: str) -> Any:
        return import_module(f"{__package__}.{name}")


_players = _PlayerModules()


# name -> (the numeric parameter keys its spec may hold besides `name`,
# constructor from (scenario, **the keys the spec holds, as floats)).  Any
# other key is a ScenarioError, so a misspelt parameter cannot fall back to
# its default; a key the spec leaves out takes the constructor's default.
_Registry = Dict[str, Tuple[Tuple[str, ...], Callable[..., Any]]]

_SKEPTICS: _Registry = {
    "zero": ((), lambda sc: ZeroSkeptic()),
    "bc_divergent": ((), lambda sc: _players.skeptic.DivergentBcSkeptic()),
    "bc_convergent": ((), lambda sc: _players.skeptic.ConvergentBcSkeptic()),
    "bc_fictional": ((), lambda sc: _players.skeptic.FictionalBcSkeptic()),
    "random_bounded": (("bound",), lambda sc, **kw: _players.randomized.RandomBoundedSkeptic(
        seed=_seed(sc), **kw)),
    "bang_bang": (("amplitude", "v_amplitude"),
                  lambda sc, **kw: _players.skeptic.BangBangSkeptic(**kw)),
    "single_bet": (("M", "V"), lambda sc, **kw: _players.skeptic.SingleBetSkeptic(**kw)),
}

_REALITIES: _Registry = {
    "bc_comply": ((), lambda sc: _players.reality.BcComplyReality()),
    "ufg_comply": ((), lambda sc: _players.reality.MvComplyReality()),
    "ufgh_comply": ((), lambda sc: _players.reality.MvComplyReality(
        growth=sc.growth or _players.hedges.identity_growth()
    )),
    "derandomized_fictional": ((), lambda sc: _players.reality.BcComplyReality(
        _players.reality.DERANDOMIZED_PHASE
    )),
    "first_round": ((), lambda sc: _players.reality.FirstRoundComplyReality()),
    "avoid_match": (("q",), lambda sc, **kw: _players.reality.BoundedAvoidMatchReality(**kw)),
    "bernoulli": ((), lambda sc: _players.randomized.BernoulliReality(seed=_seed(sc))),
    "kolmogorov": ((), lambda sc: _players.randomized.KolmogorovReality(seed=_seed(sc))),
    "constant": (("x",), lambda sc, **kw: _players.reality.ConstantReality(**kw)),
}


def _build(registry: _Registry, role: str, scenario: Scenario, spec: Dict):
    name = spec["name"]
    if not isinstance(name, str) or name not in registry:
        raise ScenarioError(f"unknown {role} {name!r}")
    keys, make = registry[name]
    _check_keys(spec, ("name",) + keys, f"{role} {name!r}")
    return make(scenario, **{key: as_float(spec[key], f"{name} {key}")
                             for key in keys if key in spec})


def build_skeptic(scenario: Scenario) -> Skeptic:
    return _build(_SKEPTICS, "skeptic", scenario, scenario.skeptic_spec)


def build_reality(scenario: Scenario) -> Reality:
    """The scenario's Reality.  A protocol growth is a ScenarioError unless
    the Reality is `ufgh_comply`, the one that reads it."""
    player = _build(_REALITIES, "reality", scenario, scenario.reality_spec)
    name = scenario.reality_spec["name"]
    if scenario.growth is not None and name != "ufgh_comply":
        raise ScenarioError(
            f"protocol growth requires the ufgh_comply reality, got {name!r}")
    return player


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def parse_scenario(path: Path) -> Scenario:
    """The scenario in a YAML file, named after the file's stem unless it
    has a `name:`."""
    doc = load_yaml(path)
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a mapping")
    _check_keys(
        doc,
        ("name", "protocol", "horizon", "forecaster", "skeptic", "reality",
         "seed", "labels"),
        "scenario",
    )
    proto_doc = _mapping(doc.get("protocol", {}), "protocol")
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
        if kind is not GameKind.GENERAL_HEDGE:
            raise ScenarioError(f"{kind.value} protocol carries no growth")
        growth = parse_growth(str(proto_doc["growth"]))
    protocol = Protocol(
        kind=kind,
        hedge=hedge,
        initial_capital=_number(proto_doc, "initial_capital", 1.0, "protocol"),
    )
    horizon = as_integer(doc.get("horizon", 100), "horizon")
    if horizon < 1:
        raise ScenarioError(f"horizon must be >= 1, got {horizon}")
    labels = _mapping(doc.get("labels", {}) or {}, "labels")
    _check_keys(labels, ("series_divergent", "expected_event"), "labels")
    divergent = labels.get("series_divergent")
    if divergent is not None and not isinstance(divergent, bool):
        raise ScenarioError(
            f"labels series_divergent must be true, false or null, got {divergent!r}")
    for role in ("forecaster", "skeptic", "reality"):
        spec = doc.get(role)
        if spec is not None and not isinstance(spec, dict):
            raise ScenarioError(
                f"{role} must be a mapping with a name, got {spec!r}")
        if not spec or "name" not in spec:
            raise ScenarioError(f"scenario must name a {role}")
    scenario = Scenario(
        name=str(doc.get("name", path.stem)),
        protocol=protocol,
        horizon=horizon,
        forecaster_spec=dict(doc["forecaster"]),
        skeptic_spec=dict(doc["skeptic"]),
        reality_spec=dict(doc["reality"]),
        growth=growth,
        seed=None if doc.get("seed") is None else as_integer(doc["seed"], "seed"),
        series_divergent=divergent,
        expected_event=labels.get("expected_event", "none"),
    )
    # fail fast on unknown strategy names, bad parameters, strategies that
    # cannot play this protocol (their reset raises ValueError), and labels
    # the game cannot check
    for player in (build_forecaster(scenario), build_skeptic(scenario),
                   build_reality(scenario)):
        try:
            player.reset(protocol)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
    event_proxy_for(scenario)
    return scenario


# ---------------------------------------------------------------------------
# Event proxies (finite-horizon stand-ins for the labelled tail events)
# ---------------------------------------------------------------------------

def proxy_no_late_heads(trace: Trace) -> bool:
    """No head in the final 90% of the run."""
    cutoff = max(1, len(trace.xs) // 10)
    return 1.0 not in trace.xs[cutoff:]


def proxy_heads_at_c_increments(trace: Trace) -> bool:
    """Heads occur exactly where the price partial sum crosses an integer."""
    from .skeptic import BcCounters, ceiling_index_update

    counters = BcCounters()
    for p, x in zip(trace.forecasts, trace.xs):
        updated = ceiling_index_update(counters, p)
        if (updated.c != counters.c) != (x == 1.0):
            return False
        counters = updated
    return True


def proxy_slln_hold(trace: Trace) -> bool:
    """Final centered mean |S_N| / N is at most 0.01."""
    total = sum(x - f.m for f, x in zip(trace.forecasts, trace.xs))
    return abs(total) / len(trace.xs) <= 0.01


def proxy_slln_fail(trace: Trace) -> bool:
    """|S_n| / n >= 0.5 at every round n >= 10 where the partial sum of
    v_n / n^2 crosses an integer, and there is such a round."""
    from .skeptic import BcCounters, ceiling_index_update

    counters, total, crossed = BcCounters(), 0.0, False
    for n, (f, x) in enumerate(zip(trace.forecasts, trace.xs), 1):
        total += x - f.m
        updated = ceiling_index_update(counters, f.v / (n * n))
        if updated.c != counters.c and n >= 10:
            if not abs(total) / n >= 0.5:
                return False
            crossed = True
        counters = updated
    return crossed


def proxy_first_round(trace: Trace) -> bool:
    """p_1 > 0 forces a first-round head, and the capital peaks at round 1."""
    if trace.forecasts[0] > 0.0 and trace.xs[0] != 1.0:
        return False
    slack = BOUND_SLACK * trace.protocol.initial_capital
    return max(trace.capitals) <= trace.capitals[0] + slack


def proxy_avoid_match(trace: Trace, q: float) -> bool:
    """No outcome ever equals the price, and the capital stays below q."""
    if any(x == p for p, x in zip(trace.forecasts, trace.xs)):
        return False
    return max(trace.capitals) <= q + BOUND_SLACK * trace.protocol.initial_capital


def event_proxy_for(scenario: Scenario) -> Optional[Callable[[Trace], bool]]:
    """The proxy of the scenario's expected event, or None.  A label the
    scenario's game cannot check, or `avoid_match` without the avoid_match
    Reality whose q it reads, is a ScenarioError."""
    expected = scenario.expected_event
    if expected not in EXPECTED_EVENTS:
        raise ScenarioError(f"unknown expected_event {expected!r}")
    name, games = _EVENT_PROXIES[expected]
    _require_game(f"expected_event {expected!r}", games, scenario.protocol.kind)
    if name is None:
        return None
    proxy = globals()[name]
    if expected == "avoid_match":
        if scenario.reality_spec["name"] != "avoid_match":
            raise ScenarioError("expected_event 'avoid_match' requires the avoid_match"
                                f" reality, got {scenario.reality_spec['name']!r}")
        q = build_reality(scenario).q
        return lambda trace: proxy(trace, q)
    return proxy


# ---------------------------------------------------------------------------
# Execution and checking
# ---------------------------------------------------------------------------

def run_scenario(scenario: Scenario) -> Trace:
    return run_game(
        scenario.protocol,
        build_forecaster(scenario),
        build_skeptic(scenario),
        build_reality(scenario),
        scenario.horizon,
        seed=scenario.seed,
    )


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

_POOL_SKEPTICS = (
    {"name": "zero"},
    {"name": "bc_divergent"},
    {"name": "bc_convergent"},
    {"name": "bc_fictional"},
    {"name": "random_bounded", "bound": 10.0},
    {"name": "bang_bang", "amplitude": 1.0},
)


def _pool(reality_name: str, cells: List[Tuple], horizon: int,
          seed: int) -> List[Scenario]:
    """Each cell (name prefix, protocol, forecaster spec, growth,
    series_divergent, expected event against the zero Skeptic, expected event
    against the others) crossed with every pool Skeptic that plays its game,
    against the named Reality.  The `bc_*` Skeptics read the price, so they
    play only the price games."""
    return [
        Scenario(
            name=f"{prefix}/{s_spec['name']}]",
            protocol=protocol,
            horizon=horizon,
            forecaster_spec=dict(f_spec),
            skeptic_spec=dict(s_spec),
            reality_spec={"name": reality_name},
            growth=growth,
            seed=seed,
            series_divergent=divergent,
            expected_event=vs_zero if s_spec["name"] == "zero" else vs_others,
        )
        for prefix, protocol, f_spec, growth, divergent, vs_zero, vs_others in cells
        for s_spec in _POOL_SKEPTICS
        if protocol.kind.uses_price or not s_spec["name"].startswith("bc_")
    ]


def coin_comply_pool(horizon: int = 10_000, seed: int = 7) -> List[Scenario]:
    """Coin-game compliance pool: every forecaster script crossed with every
    Skeptic adversary, against the deterministic complying Reality."""
    coin = Protocol(kind=GameKind.COIN_TOSSING)
    return _pool("bc_comply", [
        ("coin[harmonic", coin, {"name": "harmonic"}, None, True,
         "heads_at_c_increments", "strong_comply"),
        ("coin[inverse_square", coin, {"name": "inverse_square"}, None, False,
         "no_late_heads", "no_late_heads"),
        ("coin[constant_0.3", coin, {"name": "constant", "value": 0.3}, None, True,
         "heads_at_c_increments", "strong_comply"),
        ("coin[geometric", coin, {"name": "geometric"}, None, False,
         "no_late_heads", "no_late_heads"),
    ], horizon, seed)


def ufg_pool(horizon: int = 10_000, seed: int = 7) -> List[Scenario]:
    """Unbounded-game compliance pool over convergent/divergent variance
    scripts and bounded mean scripts."""
    ufg = Protocol(kind=GameKind.UNBOUNDED_FORECASTING)
    v_1, v_n = {"name": "constant", "value": 1.0}, {"name": "power", "exponent": 1.0}
    m_0, m_sin = {"name": "zero"}, {"name": "sin"}
    return _pool("ufg_comply", [
        ("ufg[v=1/m=0", ufg, {"name": "mv", "v": v_1, "m": m_0}, None, False,
         "slln_hold", "slln_hold"),
        ("ufg[v=1/m=sin", ufg, {"name": "mv", "v": v_1, "m": m_sin}, None, False,
         "strong_comply", "strong_comply"),
        ("ufg[v=n/m=0", ufg, {"name": "mv", "v": v_n, "m": m_0}, None, True,
         "slln_fail", "strong_comply"),
        ("ufg[v=n/m=sin", ufg, {"name": "mv", "v": v_n, "m": m_sin}, None, True,
         "strong_comply", "strong_comply"),
    ], horizon, seed)


def ufgh_pool(horizon: int = 10_000, seed: int = 7) -> List[Scenario]:
    """General-hedge compliance pool over power hedges and growth choices."""
    from .hedges import power_hedge

    return _pool("ufgh_comply", [
        (f"ufgh[r={r:g}/{g}", Protocol(kind=GameKind.GENERAL_HEDGE, hedge=power_hedge(r)),
         {"name": "mv", "v": {"name": "constant", "value": 1.0}}, parse_growth(g), False,
         "strong_comply", "strong_comply")
        for r in (1.0, 1.5, 2.0) for g in ("identity", "power:r=2")
    ], horizon, seed)


STOCK_POOLS: Dict[str, Callable[..., List[Scenario]]] = {
    "coin_comply": coin_comply_pool,
    "ufg": ufg_pool,
    "ufgh": ufgh_pool,
}
