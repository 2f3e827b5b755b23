"""Game protocols, move validation, capital updates, and recorded runs.

Four protocols share one round shape: Forecaster announces prices, Skeptic
announces bets, Reality announces the outcome x (a float), and the capital
updates.
Everything downstream (strategies, verdicts, the CLI) works on the Trace
produced here, and any trace can be replayed against the update rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from math import isfinite
from typing import Callable, List, Optional, Sequence

from .hedges import Hedge


class GameKind(Enum):
    COIN_TOSSING = "coin_tossing"
    BOUNDED_FORECASTING = "bounded_forecasting"
    UNBOUNDED_FORECASTING = "unbounded_forecasting"
    GENERAL_HEDGE = "general_hedge"

    def __init__(self, value: str):
        # Coin/bounded games announce a single price p in [0, 1].  Set once
        # per member, since the engine reads it for every move.
        self.uses_price = value in ("coin_tossing", "bounded_forecasting")


# The games announcing a price p, and those announcing a pair (m, v).
PRICE_GAMES = tuple(kind for kind in GameKind if kind.uses_price)
MEAN_VARIANCE_GAMES = tuple(kind for kind in GameKind if not kind.uses_price)


@dataclass(frozen=True)
class Protocol:
    kind: GameKind
    hedge: Optional[Hedge] = None
    initial_capital: float = 1.0

    def __post_init__(self):
        if not self.initial_capital > 0.0:
            raise ValueError("initial_capital must be positive")
        if self.kind is GameKind.GENERAL_HEDGE:
            if self.hedge is None:
                raise ValueError("general-hedge protocol requires a hedge")
        elif self.hedge is not None:
            raise ValueError(f"{self.kind.value} protocol carries no hedge")


# The trace records (ForecastMove, SkepticBet, RoundRecord) are slotted
# dataclasses but not frozen: a frozen __init__ sets each field through
# object.__setattr__, several times the cost of a slot store, and every
# round builds three records.  Nothing writes a record after run_game
# appends it (the pinned trace digests catch a strategy that does).  Without
# `frozen`, __hash__ is None: records are unhashable by design.
@dataclass(slots=True)
class ForecastMove:
    """Forecaster's announcement: p for coin/bounded games, (m, v) otherwise."""

    p: Optional[float] = None
    m: Optional[float] = None
    v: Optional[float] = None


@dataclass(slots=True)
class SkepticBet:
    """Skeptic's announcement: M always, V only in mean-variance games."""

    M: float = 0.0
    V: Optional[float] = None


@dataclass(frozen=True)
class Violation:
    field: str
    message: str


@dataclass(slots=True)
class RoundRecord:
    n: int
    forecast: ForecastMove
    bet: SkepticBet
    x: float
    capital_after: float


@dataclass
class Trace:
    protocol: Protocol
    rounds: List[RoundRecord] = field(default_factory=list)
    seed: Optional[int] = None

    @property
    def capitals(self) -> List[float]:
        return [r.capital_after for r in self.rounds]


class InvalidMoveError(ValueError):
    def __init__(self, round_index: int, role: str, violation: Violation):
        self.round_index = round_index
        self.role = role
        self.violation = violation
        super().__init__(
            f"round {round_index}: {role} move invalid: "
            f"{violation.field}: {violation.message}"
        )


def _not_finite(name: str, value: float) -> Violation:
    return Violation(name, f"{name} = {value} is not finite")


def validate_forecast(protocol: Protocol, f: ForecastMove) -> Optional[Violation]:
    if protocol.kind.uses_price:
        if f.p is None:
            return Violation("p", "price required for this protocol")
        if not 0.0 <= f.p <= 1.0:
            return Violation("p", f"p = {f.p} outside [0, 1]")
    else:
        if f.m is None or f.v is None:
            return Violation("m", "m and v required for this protocol")
        if not isfinite(f.m):
            return _not_finite("m", f.m)
        if not isfinite(f.v):
            return _not_finite("v", f.v)
        if f.v < 0.0:
            return Violation("v", f"v = {f.v} violates v >= 0")
    return None


def validate_bet(protocol: Protocol, s: SkepticBet) -> Optional[Violation]:
    if not isfinite(s.M):
        return _not_finite("M", s.M)
    if not protocol.kind.uses_price:
        if s.V is None:
            return Violation("V", "V required for this protocol")
        if not isfinite(s.V):
            return _not_finite("V", s.V)
        if s.V < 0.0:
            return Violation("V", f"V = {s.V} violates V >= 0")
    return None


def validate_outcome(protocol: Protocol, x: float) -> Optional[Violation]:
    kind = protocol.kind
    if kind is GameKind.COIN_TOSSING:
        if x not in (0.0, 1.0):
            return Violation("x", f"x = {x} outside {{0, 1}}")
    elif kind is GameKind.BOUNDED_FORECASTING:
        if not 0.0 <= x <= 1.0:
            return Violation("x", f"x = {x} outside [0, 1]")
    elif not isfinite(x):
        return _not_finite("x", x)
    return None


def validate_moves(
    protocol: Protocol, f: ForecastMove, s: SkepticBet, x: float
) -> Optional[Violation]:
    """First domain violation among the three announcements, or None."""
    return (
        validate_forecast(protocol, f)
        or validate_bet(protocol, s)
        or validate_outcome(protocol, x)
    )


# The player whose move carries each validated field.
_ROLE_OF_FIELD = {
    "p": "forecaster", "m": "forecaster", "v": "forecaster",
    "M": "skeptic", "V": "skeptic",
    "x": "reality",
}


def capital_update(
    protocol: Protocol, k_prev: float, f: ForecastMove, s: SkepticBet, x: float
) -> float:
    """New capital after one round, per the protocol's update rule.

    An invalid move raises InvalidMoveError naming its role; the round index
    is 0 since this function does not know it (`run_game` and
    `replay_verify` report the round)."""
    violation = validate_moves(protocol, f, s, x)
    if violation is not None:
        raise InvalidMoveError(0, _ROLE_OF_FIELD[violation.field], violation)
    if protocol.kind.uses_price:
        return k_prev + s.M * (x - f.p)
    centered = x - f.m
    k = k_prev + s.M * centered
    if s.V == 0.0:
        # The V term would add only +-0, or NaN if the hedge term overflows.
        return k
    if protocol.kind is GameKind.UNBOUNDED_FORECASTING:
        return k + s.V * (centered * centered - f.v)
    return k + s.V * (protocol.hedge.forward(centered) - f.v)


def require_game(protocol: Protocol, player: object, *kinds: GameKind) -> None:
    """Raise ValueError unless the protocol is one of the games `player` can
    play.  Strategies call this from `reset`."""
    if protocol.kind not in kinds:
        raise ValueError(
            f"{type(player).__name__} requires the"
            f" {' or '.join(k.value for k in kinds)} game, got {protocol.kind.value}"
        )


class Policy:
    """A stateful player.  reset() is called once per run, observe() once
    per completed round with the full record."""

    def reset(self, protocol: Protocol) -> None:
        pass

    def observe(self, record: RoundRecord) -> None:
        pass


class Forecaster(Policy):
    def forecast(self, n: int) -> ForecastMove:
        raise NotImplementedError


class Skeptic(Policy):
    """A betting player.  `with_v` says whether the protocol takes a V bet
    (the mean-variance games); `reset` sets it."""

    with_v = False

    def reset(self, protocol: Protocol) -> None:
        self.with_v = not protocol.kind.uses_price

    def bet(self, n: int, forecast: ForecastMove, k_prev: float) -> SkepticBet:
        raise NotImplementedError


class Reality(Policy):
    def outcome(
        self, n: int, forecast: ForecastMove, bet: SkepticBet, k_prev: float
    ) -> float:
        raise NotImplementedError


class ScriptForecaster(Forecaster):
    """Forecaster reading moves from a function of the round index."""

    def __init__(self, script: Callable[[int], ForecastMove]):
        self.script = script

    def forecast(self, n: int) -> ForecastMove:
        return self.script(n)


class ZeroSkeptic(Skeptic):
    """Never bets; capital stays at its initial value."""

    def bet(self, n, forecast, k_prev) -> SkepticBet:
        return SkepticBet(0.0, 0.0 if self.with_v else None)


class CombinedSkeptic(Skeptic):
    """Convex combination of Skeptic policies, announced componentwise.

    Its capital process is the same convex combination of the component
    capital processes along any shared path.
    """

    def __init__(self, weights: Sequence[float], policies: Sequence[Skeptic]):
        if len(weights) != len(policies) or not policies:
            raise ValueError("weights and policies must have equal length >= 1")
        if any(w < 0.0 for w in weights):
            raise ValueError("weights must be nonnegative")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {sum(weights)!r}, expected 1")
        self.weights = list(weights)
        self.policies = list(policies)

    def reset(self, protocol: Protocol) -> None:
        super().reset(protocol)
        for p in self.policies:
            p.reset(protocol)

    def bet(self, n, forecast, k_prev) -> SkepticBet:
        bets = [p.bet(n, forecast, k_prev) for p in self.policies]
        m = sum(w * b.M for w, b in zip(self.weights, bets))
        if self.with_v:
            v = sum(w * (b.V or 0.0) for w, b in zip(self.weights, bets))
            return SkepticBet(m, v)
        return SkepticBet(m)

    def observe(self, record: RoundRecord) -> None:
        for p in self.policies:
            p.observe(record)


def run_game(
    protocol: Protocol,
    forecaster: Forecaster,
    skeptic: Skeptic,
    reality: Reality,
    horizon: int,
    seed: Optional[int] = None,
    stop_on_skeptic_fault: bool = False,
) -> Trace:
    """Play `horizon` rounds and record every move and capital.

    With stop_on_skeptic_fault, the run ends after the first round whose
    capital is negative or NaN: the Skeptic broke his collateral duty and
    nothing after that round is attributable to the other players.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    for policy in (forecaster, skeptic, reality):
        policy.reset(protocol)
    forecast, bet, outcome = forecaster.forecast, skeptic.bet, reality.outcome
    observe_f, observe_s, observe_r = (
        forecaster.observe, skeptic.observe, reality.observe
    )
    floor = -1e-9 * protocol.initial_capital
    k = protocol.initial_capital
    rounds: List[RoundRecord] = []
    append = rounds.append
    for n in range(1, horizon + 1):
        f = forecast(n)
        violation = validate_forecast(protocol, f)
        if violation is not None:
            raise InvalidMoveError(n, "forecaster", violation)
        s = bet(n, f, k)
        violation = validate_bet(protocol, s)
        if violation is not None:
            raise InvalidMoveError(n, "skeptic", violation)
        x = outcome(n, f, s, k)
        violation = validate_outcome(protocol, x)
        if violation is not None:
            raise InvalidMoveError(n, "reality", violation)
        k = capital_update(protocol, k, f, s, x)
        record = RoundRecord(n, f, s, x, k)
        append(record)
        observe_f(record)
        observe_s(record)
        observe_r(record)
        if stop_on_skeptic_fault and not k >= floor:
            break
    return Trace(protocol=protocol, rounds=rounds, seed=seed)


def replay_verify(trace: Trace, tol: float = 1e-12) -> Optional[int]:
    """Recompute capitals from the initial value; return the first
    mismatching round index, or None when the trace is consistent.

    An invalid recorded move raises InvalidMoveError with its round and role.
    """
    k = trace.protocol.initial_capital
    for record in trace.rounds:
        try:
            k = capital_update(
                trace.protocol, k, record.forecast, record.bet, record.x
            )
        except InvalidMoveError as err:
            raise InvalidMoveError(record.n, err.role, err.violation) from None
        if not math.isclose(k, record.capital_after, rel_tol=0.0, abs_tol=tol):
            return record.n
    return None
