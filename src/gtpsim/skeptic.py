"""Skeptic betting strategies for the coin-tossing game.

Three related bets driven by two counters: the number of heads seen so far
and the integer ceiling index of the running price sum.  The divergent-side
bet profits when prices keep accumulating but heads stop; the convergent-side
bet profits from heads once the price sum has settled; their difference (with
exponents shifted by one) is the "fictional" bet that Reality mixes into her
own responses.
"""

from __future__ import annotations

import math
from math import copysign
from typing import TYPE_CHECKING, Callable, NamedTuple

from .engine import (
    PRICE_GAMES,
    Protocol,
    RoundRecord,
    Skeptic,
    SkepticBet,
    require_game,
)

if TYPE_CHECKING:
    from fractions import Fraction

    from .engine import Bet, Forecast


class BcCounters(NamedTuple):
    """Running head count b, price partial sum, and its ceiling index c.

    c is the unique integer with c - 1 <= partial_sum < c; an exactly
    integer partial sum rounds up, so the empty sum gives c = 1.

    The partial sum is kept exact: `acc` is the sum as an integer in units
    of 2^-1074, the smallest subnormal.  Every finite float >= 0 is such a
    multiple, so each increment adds exactly and c = (acc >> 1074) + 1.
    Exactness keeps c honest on scripts like p_n = 2^-n, whose float partial
    sums would round up to an integer they never actually reach.
    `partial_sum` reads the sum back as a Fraction.

    A NamedTuple, like the step states that hold it (see `reality`).  Hot
    paths build it with `_tuple_new(BcCounters, (b, acc, c))`.  Counters
    are never written, so equal counters are interchangeable: the counters
    a counter Skeptic's step returns may also be Reality's (see
    `ceiling_index_update`).
    """

    b: int = 0
    acc: int = 0
    c: int = 1

    @property
    def partial_sum(self) -> Fraction:
        # Imported here: only tests and callers that read the sum back use
        # fractions, and no hot path does.
        from fractions import Fraction

        return Fraction(self.acc, 1 << 1074)


# Builds a NamedTuple in one C call: the same instance as `Cls(*values)`
# without the frame of the generated Python __new__.  Used once or more per
# round, here and in `reality`.
_tuple_new = tuple.__new__


# The counter Skeptic's last step of the exact sum: (price object, counters
# before, counters after).  Only `_CounterSkeptic.bet` writes it, as one
# tuple in one assignment, so no reader sees a price with another step's
# counters.
_shared_step: tuple = (None, None, None)


def ceiling_index_update(counters: BcCounters, p: float) -> BcCounters:
    """Add the float increment p >= 0 to the exact sum and refresh c.

    A compliance Reality playing a counter Skeptic steps the same counters
    with the same price object the Skeptic stepped a moment before: given
    the identical p (`is`) and counters equal to the Skeptic's last step,
    it returns that step's counters and skips the exact arithmetic.  The
    range check and the zero shortcut come first.  Any other call pays one
    identity test and takes the step itself."""
    if not 0.0 <= p < math.inf:
        raise ValueError(f"price increment must be finite and >= 0, got {p}")
    if p == 0.0:  # also -0.0: the sum and c stay, as in a geometric tail
        return counters
    price, before, after = _shared_step
    if p is price and counters == before:
        return after
    num, den = p.as_integer_ratio()  # den = 2^k with k <= 1074
    acc = counters.acc + (num << (1075 - den.bit_length()))  # num * 2^(1074 - k)
    return _tuple_new(BcCounters, (counters.b, acc, (acc >> 1074) + 1))


def bc_divergent_bet(counters: BcCounters) -> float:
    """M = -2^(-b-1): shorts heads, profits from tails at positive prices."""
    return -(2.0 ** (-counters.b - 1))


def bc_convergent_bet(counters: BcCounters) -> float:
    """M = 2^(-c-1): backs heads once the price sum is nearly spent."""
    return 2.0 ** (-counters.c - 1)


def bc_fictional_bet(counters: BcCounters) -> float:
    """M = 2^(-c-2) - 2^(-b-2): half-weighted mix of both directions."""
    return 2.0 ** (-counters.c - 2) - 2.0 ** (-counters.b - 2)


class _CounterSkeptic(Skeptic):
    """Coin-game Skeptic driven by BcCounters.

    The ceiling index is refreshed with the current price before betting
    (Forecaster moves first); the head count only after Reality's move.
    Each subclass names its bet as `formula = staticmethod(bc_*_bet)`, so a
    bet calls the formula with no method frame in between.  The formula
    reads only b and c, so it runs again only when either moves (`bet_c`
    is the c it last ran for, 0 after a head), and the last float is
    announced again while the bits of M do not change (`copysign` tells
    -0.0 from 0.0).  Each bet leaves its step of the exact sum in
    `_shared_step`, where `ceiling_index_update` finds it when a compliance
    Reality takes the same step in the same round.
    """

    formula: Callable[[BcCounters], float]

    def reset(self, protocol: Protocol) -> None:
        require_game(protocol, self, *PRICE_GAMES)
        super().reset(protocol)
        self.counters = BcCounters()
        self.announced = math.nan  # no bet yet: NaN equals no formula value
        self.bet_c = 0

    def bet(self, n: int, forecast: Forecast, k_prev: float) -> float:
        global _shared_step
        before = self.counters
        self.counters = counters = ceiling_index_update(before, forecast)
        _shared_step = (forecast, before, counters)
        c = counters.c
        if c != self.bet_c:
            self.bet_c = c
            M, last = self.formula(counters), self.announced
            if M != last or (not M and copysign(1.0, M) != copysign(1.0, last)):
                self.announced = M
        return self.announced

    def observe(self, record: RoundRecord) -> None:
        if record.x == 1.0:  # a head: b + 1
            b, acc, c = self.counters
            self.counters = _tuple_new(BcCounters, (b + 1, acc, c))
            self.bet_c = 0


class DivergentBcSkeptic(_CounterSkeptic):
    formula = staticmethod(bc_divergent_bet)


class ConvergentBcSkeptic(_CounterSkeptic):
    formula = staticmethod(bc_convergent_bet)


class FictionalBcSkeptic(_CounterSkeptic):
    formula = staticmethod(bc_fictional_bet)


class BangBangSkeptic(Skeptic):
    """Sign-flipping adversary: M alternates +/- amplitude each round.

    In mean-variance games V alternates between 0 and v_amplitude.
    """

    def __init__(self, amplitude: float = 1.0, v_amplitude: float = 1.0):
        self.amplitude = amplitude
        self.v_amplitude = v_amplitude

    def reset(self, protocol: Protocol) -> None:
        super().reset(protocol)
        # One bet per parity, announced every odd or even round.
        if self.with_v:
            self.odd_bet = SkepticBet(self.amplitude, 0.0)
            self.even_bet = SkepticBet(-self.amplitude, self.v_amplitude)
        else:
            self.odd_bet, self.even_bet = self.amplitude, -self.amplitude

    def bet(self, n: int, forecast: Forecast, k_prev: float) -> Bet:
        return self.odd_bet if n % 2 else self.even_bet


class SingleBetSkeptic(Skeptic):
    """Bets (M, V) in round 1 and nothing after: the smallest Skeptic that
    moves the compliance machines out of their waiting phase."""

    def __init__(self, M: float = 0.0, V: float = 0.0):
        self.M = M
        self.V = V

    def reset(self, protocol: Protocol) -> None:
        super().reset(protocol)
        # The round-1 bet and the zero bet announced in every later round.
        if self.with_v:
            self.first_bet, self.zero_bet = SkepticBet(self.M, self.V), SkepticBet(0.0, 0.0)
        else:
            self.first_bet, self.zero_bet = self.M, 0.0

    def bet(self, n: int, forecast: Forecast, k_prev: float) -> Bet:
        return self.first_bet if n == 1 else self.zero_bet
