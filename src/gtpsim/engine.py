"""Game protocols, move validation, capital updates, and recorded runs.

Four protocols share one round shape: Forecaster announces prices, Skeptic
announces bets, Reality announces the outcome x (a float), and the capital
updates.
Everything downstream (strategies, verdicts, the CLI) works on the Trace
produced here, and any trace can be replayed against the update rule.
"""

from __future__ import annotations

import gc
import math
import struct
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from math import isfinite
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence, Union

if TYPE_CHECKING:
    from .hedges import Hedge

# The slack, relative to the initial capital, by which a capital may pass
# below 0 (Skeptic's collateral duty) or above K_0 (the strong-compliance
# bound) and still count as kept: `run_game` stops a faulty Skeptic, and
# `analysis.strong_compliance_verdict` judges the duties, with the same one.
BOUND_SLACK = 1e-9


class GameKind(Enum):
    COIN_TOSSING = "coin_tossing"
    BOUNDED_FORECASTING = "bounded_forecasting"
    UNBOUNDED_FORECASTING = "unbounded_forecasting"
    GENERAL_HEDGE = "general_hedge"

    def __init__(self, value: str):
        # Coin/bounded games announce a single price p in [0, 1].  Set once
        # per member, since the engine reads it for every move.
        self.uses_price = value in ("coin_tossing", "bounded_forecasting")


# Per-round comparisons use these globals (README, Hot-path rule).
_COIN, _BOUNDED, _UNBOUNDED = (
    GameKind.COIN_TOSSING, GameKind.BOUNDED_FORECASTING, GameKind.UNBOUNDED_FORECASTING)

# The games announcing a price p, and those announcing a pair (m, v).
PRICE_GAMES = tuple(kind for kind in GameKind if kind.uses_price)
MEAN_VARIANCE_GAMES = tuple(kind for kind in GameKind if not kind.uses_price)


@dataclass(frozen=True)
class Protocol:
    kind: GameKind
    hedge: Optional[Hedge] = None
    initial_capital: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.initial_capital < math.inf:
            raise ValueError(
                f"initial_capital must be positive and finite, got {self.initial_capital}")
        if self.kind is GameKind.GENERAL_HEDGE:
            if self.hedge is None:
                raise ValueError("general-hedge protocol requires a hedge")
        elif self.hedge is not None:
            raise ValueError(f"{self.kind.value} protocol carries no hedge")


# The move records (ForecastMove, SkepticBet) and RoundRecord are slotted
# dataclasses but not frozen: a frozen __init__ sets each field through
# object.__setattr__, several times the cost of a slot store.  Without
# `frozen`, __hash__ is None: records are unhashable by design.  A
# price-game forecast and bet are no records but the floats p and M, as an
# outcome is the float x.  A trace keeps no RoundRecord and, in the price
# games, no float object either (see Trace).
#
# Nothing writes a move after it is announced (the pinned trace digests
# catch a strategy that does).  A strategy announces the same object again
# while its move is unchanged (ZeroSkeptic; scripts and Skeptics in
# `scenario` and `skeptic`: see README, Shared moves), so a write to it
# would change every round that shares it.
@dataclass(slots=True)
class ForecastMove:
    """Forecaster's announcement in the mean-variance games."""

    m: float
    v: float


@dataclass(slots=True)
class SkepticBet:
    """Skeptic's announcement in the mean-variance games."""

    M: float
    V: float


if TYPE_CHECKING:  # no typing object built at import
    Forecast = Union[float, ForecastMove]
    Bet = Union[float, SkepticBet]


@dataclass(slots=True)
class RoundRecord:
    """One round, as `run_game` passes it to the observers and
    `Trace.rounds` reads it back.  A record read from a price-game trace
    holds new floats with the bits of the announced ones."""

    forecast: Forecast
    bet: Bet
    x: float
    capital_after: float


# Rounds a caller gathers in lists before `Trace.extend` packs them.
PACK_ROUNDS = 4096


@dataclass
class Trace:
    """Round n's moves and capital are entry n - 1 of the four columns;
    `rounds` reads them as RoundRecords.

    In the price games each column is an array('d'), 8 B a round: a read
    gives a new float with the stored bits, never the announced object.  In
    the mean-variance games the columns are lists, so a forecast and a bet
    stay the announced records, and a move or capital shared by many
    rounds costs one slot a round.  `__post_init__` and `extend` are the
    only code that knows the format."""

    protocol: Protocol
    forecasts: Sequence[Forecast] = field(init=False)
    bets: Sequence[Bet] = field(init=False)
    xs: Sequence[float] = field(init=False)
    capitals: Sequence[float] = field(init=False)
    seed: Optional[int] = None

    def __post_init__(self):
        new = (lambda: array("d")) if self.protocol.kind.uses_price else list
        self.forecasts, self.bets, self.xs, self.capitals = new(), new(), new(), new()

    @property
    def columns(self) -> tuple:
        return self.forecasts, self.bets, self.xs, self.capitals

    @property
    def rounds(self) -> Rounds:
        return Rounds(self)

    def extend(self, forecasts: list, bets: list, xs: list, capitals: list) -> None:
        """Append the rounds held in four lists, one entry per round, and
        empty the lists.  Packing through `struct` costs about half of
        `array.fromlist` per float."""
        packed = self.protocol.kind.uses_price
        for column, values in zip(self.columns, (forecasts, bets, xs, capitals)):
            if packed:
                column.frombytes(struct.pack(f"{len(values)}d", *values))
            else:
                column += values
            values.clear()


class Rounds:
    """RoundRecords built on read; `rounds[i] = record` writes them back."""

    def __init__(self, trace: Trace):
        self.columns = trace.columns

    def __len__(self) -> int:
        return len(self.columns[3])

    def __iter__(self) -> Iterator[RoundRecord]:
        return map(RoundRecord, *self.columns)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(RoundRecord, *(column[i] for column in self.columns)))
        return RoundRecord(*(column[i] for column in self.columns))

    def __setitem__(self, i: int, record: RoundRecord) -> None:
        for column, value in zip(self.columns, (record.forecast, record.bet,
                                                record.x, record.capital_after)):
            column[i] = value

    def __eq__(self, other) -> bool:
        return list(self) == list(other)


class InvalidMoveError(ValueError):
    """A move outside its game's domain: the round, the role of the player
    who made it, its field and what is wrong."""

    def __init__(self, round_index: int, role: str, field: str, message: str):
        self.round_index = round_index
        self.role = role
        self.field = field
        self.message = message
        super().__init__(f"round {round_index}: {role} move invalid: {field}: {message}")


def _bad_field(n: int, role: str, **fields: object) -> InvalidMoveError:
    """The error for the first field that is no float or not finite."""
    for name, value in fields.items():
        if value.__class__ is not float:
            return InvalidMoveError(
                n, role, name, f"{name} must be a float, got {type(value).__name__}")
        if not isfinite(value):
            break
    return InvalidMoveError(n, role, name, f"{name} = {value} is not finite")


# Each validator raises InvalidMoveError for its own player's move at round
# n and returns None for a move in the domain.  Every field is a float:
# a class test comes first, so no later check meets another type.
def validate_forecast(protocol: Protocol, f: Forecast, n: int) -> None:
    if protocol.kind.uses_price:
        if f.__class__ is not float:
            raise _bad_field(n, "forecaster", p=f)
        if not 0.0 <= f <= 1.0:
            raise InvalidMoveError(n, "forecaster", "p", f"p = {f} outside [0, 1]")
        return
    if f.__class__ is not ForecastMove:
        raise InvalidMoveError(n, "forecaster", "m", "m and v required for this protocol")
    m, v = f.m, f.v
    if not (m.__class__ is float and v.__class__ is float and isfinite(m) and isfinite(v)):
        raise _bad_field(n, "forecaster", m=m, v=v)
    if v < 0.0:
        raise InvalidMoveError(n, "forecaster", "v", f"v = {v} violates v >= 0")


def validate_bet(protocol: Protocol, s: Bet, n: int) -> None:
    if protocol.kind.uses_price:
        if not (s.__class__ is float and isfinite(s)):
            raise _bad_field(n, "skeptic", M=s)
        return
    if s.__class__ is not SkepticBet:
        raise InvalidMoveError(n, "skeptic", "M", "M and V required for this protocol")
    M, V = s.M, s.V
    if not (M.__class__ is float and V.__class__ is float and isfinite(M) and isfinite(V)):
        raise _bad_field(n, "skeptic", M=M, V=V)
    if V < 0.0:
        raise InvalidMoveError(n, "skeptic", "V", f"V = {V} violates V >= 0")


def validate_outcome(protocol: Protocol, x: float, n: int) -> None:
    if x.__class__ is not float:
        raise _bad_field(n, "reality", x=x)
    kind = protocol.kind
    if kind is _COIN:
        if x not in (0.0, 1.0):
            raise InvalidMoveError(n, "reality", "x", f"x = {x} outside {{0, 1}}")
    elif kind is _BOUNDED:
        if not 0.0 <= x <= 1.0:
            raise InvalidMoveError(n, "reality", "x", f"x = {x} outside [0, 1]")
    elif not isfinite(x):
        raise _bad_field(n, "reality", x=x)


def capital_update(
    protocol: Protocol, k_prev: float, f: Forecast, s: Bet, x: float, n: int
) -> float:
    """New capital after round n, per the protocol's update rule.

    An invalid move raises InvalidMoveError naming round n and its role."""
    validate_forecast(protocol, f, n)
    validate_bet(protocol, s, n)
    validate_outcome(protocol, x, n)
    # A zero bet keeps k_prev itself: K is never -0.0, so the bits agree.
    if protocol.kind.uses_price:
        return k_prev + s * (x - f) if s else k_prev
    M = s.M
    if s.V == 0.0:
        # The V term (and a zero M) would add only +-0, or NaN on overflow.
        return k_prev + M * (x - f.m) if M else k_prev
    centered = x - f.m
    k = k_prev + M * centered
    if protocol.kind is _UNBOUNDED:
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
    """A stateful player.  `__init__` keeps only its arguments; reset(),
    called once per run, builds the run's state, and a player is not played
    before it.  observe() is called once per completed round with the full
    record, which holds no n: a player counts rounds or keeps its calls' n.

    `run_game` skips the inherited no-op: it calls a player's observe only
    when the bound method is not `Policy.observe`, that is when a class
    overrides it (also after the class is built, as a wrapper set on it) or
    the instance holds its own.  It decides this once per run, after
    reset()."""

    def reset(self, protocol: Protocol) -> None:
        pass

    def observe(self, record: RoundRecord) -> None:
        pass


class Forecaster(Policy):
    """`forecast` announces the price p, a float, in the price games and a
    ForecastMove (m, v) in the others."""

    def forecast(self, n: int) -> Forecast:
        raise NotImplementedError


class Skeptic(Policy):
    """`bet` announces M, a float, in the price games and a SkepticBet
    (M, V) in the others.  `with_v` says which; `reset` sets it."""

    def reset(self, protocol: Protocol) -> None:
        self.with_v = not protocol.kind.uses_price

    def bet(self, n: int, forecast: Forecast, k_prev: float) -> Bet:
        raise NotImplementedError


class Reality(Policy):
    def outcome(
        self, n: int, forecast: Forecast, bet: Bet, k_prev: float
    ) -> float:
        raise NotImplementedError


class ScriptForecaster(Forecaster):
    """Forecaster reading moves from a function of the round index."""

    def __init__(self, script: Callable[[int], Forecast]):
        self.script = script

    def forecast(self, n: int) -> Forecast:
        return self.script(n)


class ZeroSkeptic(Skeptic):
    """Never bets; capital stays at its initial value.  Every round
    announces the one zero bet built by `reset`."""

    def reset(self, protocol: Protocol) -> None:
        super().reset(protocol)
        self.zero_bet = SkepticBet(0.0, 0.0) if self.with_v else 0.0

    def bet(self, n, forecast, k_prev) -> Bet:
        return self.zero_bet


class CombinedSkeptic(Skeptic):
    """Convex combination of Skeptic policies, announced componentwise.

    Each part bets from its own capital, K_0 at reset and then updated with
    its own bets, so the combined capital is the same convex combination of
    the parts' capitals along any shared path.
    """

    def __init__(self, weights: Sequence[float], policies: Sequence[Skeptic]):
        if len(weights) != len(policies) or not policies:
            raise ValueError("weights and policies must have equal length >= 1")
        # Negated, so that a NaN weight fails both checks.
        if not all(w >= 0.0 for w in weights):
            raise ValueError("weights must be nonnegative")
        if not abs(sum(weights) - 1.0) <= 1e-12:
            raise ValueError(f"weights sum to {sum(weights)!r}, expected 1")
        self.weights = list(weights)
        self.policies = list(policies)

    def reset(self, protocol: Protocol) -> None:
        super().reset(protocol)
        self.protocol = protocol
        self.capitals = [protocol.initial_capital] * len(self.policies)
        for p in self.policies:
            p.reset(protocol)

    def bet(self, n, forecast, k_prev) -> Bet:
        self.n = n
        self.bets = bets = [p.bet(n, forecast, k)
                            for p, k in zip(self.policies, self.capitals)]
        if self.with_v:
            return SkepticBet(sum(w * b.M for w, b in zip(self.weights, bets)),
                              sum(w * b.V for w, b in zip(self.weights, bets)))
        return sum(w * b for w, b in zip(self.weights, bets))

    def observe(self, record: RoundRecord) -> None:
        f, x = record.forecast, record.x
        self.capitals = [capital_update(self.protocol, k, f, b, x, self.n)
                         for k, b in zip(self.capitals, self.bets)]
        for p in self.policies:
            p.observe(record)


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause automatic cyclic garbage collection for the block.

    A loop that builds a trace keeps the moves it allocates, so the
    collector would rescan a growing heap that holds no cycle.  The
    collector is disabled only if it is enabled on entry, and is enabled
    again on exit, also on an exception; a nested pause, or a caller that
    runs with the collector off, leaves it as it found it.  Nothing is
    collected here and no threshold changes: cycles made inside the block
    (by a user strategy, say) are collected by the first automatic
    collection after it.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def run_game(
    protocol: Protocol,
    forecaster: Forecaster,
    skeptic: Skeptic,
    reality: Reality,
    horizon: int,
    seed: Optional[int] = None,
) -> Trace:
    """Play up to `horizon` rounds and record every move and capital.

    The run ends after the first round whose capital is below
    -BOUND_SLACK * K_0 or NaN: the Skeptic broke his collateral duty and
    nothing after that round is attributable to the other players.

    A move outside its game's domain raises InvalidMoveError with its round
    and its player's role; one raised inside a player's method passes as is.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    for policy in (forecaster, skeptic, reality):
        policy.reset(protocol)
    forecast, bet, outcome = forecaster.forecast, skeptic.bet, reality.outcome
    # Only the observers that do something, in player order: see Policy.
    observers = tuple(
        observe for observe in (forecaster.observe, skeptic.observe, reality.observe)
        if getattr(observe, "__func__", None) is not Policy.observe
    )
    floor = -BOUND_SLACK * protocol.initial_capital
    k = protocol.initial_capital
    trace = Trace(protocol=protocol, seed=seed)
    # A list append costs less than half of an array append: the rounds go
    # to lists, and `trace.extend` packs them every PACK_ROUNDS rounds.
    pending = [], [], [], []
    add_f, add_s, add_x, add_k = [rounds.append for rounds in pending]
    # The moves and floats the loop keeps hold no cycle: see gc_paused.
    with gc_paused():
        for start in range(1, horizon + 1, PACK_ROUNDS):
            for n in range(start, min(start + PACK_ROUNDS, horizon + 1)):
                f = forecast(n)
                validate_forecast(protocol, f, n)
                s = bet(n, f, k)
                validate_bet(protocol, s, n)
                x = outcome(n, f, s, k)
                validate_outcome(protocol, x, n)
                k = capital_update(protocol, k, f, s, x, n)
                add_f(f)
                add_s(s)
                add_x(x)
                add_k(k)
                if observers:
                    record = RoundRecord(f, s, x, k)
                    for observe in observers:
                        observe(record)
                if not k >= floor:
                    break
            trace.extend(*pending)
            if not k >= floor:
                break
    return trace


def replay_verify(trace: Trace) -> Optional[int]:
    """Recompute capitals from the initial value; return the first round
    whose recorded capital is off by more than 1e-12, or None when the trace
    is consistent.

    An invalid recorded move raises InvalidMoveError with its round and role.
    """
    protocol, k = trace.protocol, trace.protocol.initial_capital
    for n, (f, s, x, recorded) in enumerate(zip(*trace.columns), 1):
        k = capital_update(protocol, k, f, s, x, n)
        if not math.isclose(k, recorded, rel_tol=0.0, abs_tol=1e-12):
            return n
    return None
