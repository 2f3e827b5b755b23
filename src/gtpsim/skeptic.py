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
from fractions import Fraction
from typing import NamedTuple

from .engine import (
    PRICE_GAMES,
    ForecastMove,
    Protocol,
    RoundRecord,
    Skeptic,
    SkepticBet,
    require_game,
)


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

    A NamedTuple, like the step states that hold it (see `reality`).
    """

    b: int = 0
    acc: int = 0
    c: int = 1

    @property
    def partial_sum(self) -> Fraction:
        return Fraction(self.acc, 1 << 1074)


def heads_count_update(counters: BcCounters, head: bool) -> BcCounters:
    if not head:
        return counters
    return BcCounters(counters.b + 1, counters.acc, counters.c)


def ceiling_index_update(counters: BcCounters, p: float) -> BcCounters:
    """Add the float increment p >= 0 to the exact sum and refresh c."""
    if not 0.0 <= p < math.inf:
        raise ValueError(f"price increment must be finite and >= 0, got {p}")
    num, den = p.as_integer_ratio()  # den = 2^k with k <= 1074
    acc = counters.acc + (num << (1075 - den.bit_length()))  # num * 2^(1074 - k)
    return BcCounters(counters.b, acc, (acc >> 1074) + 1)


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
    """

    def __init__(self):
        self.counters = BcCounters()

    def reset(self, protocol: Protocol) -> None:
        require_game(protocol, self, *PRICE_GAMES)
        super().reset(protocol)
        self.counters = BcCounters()

    def _formula(self, counters: BcCounters) -> float:
        raise NotImplementedError

    def bet(self, n: int, forecast: ForecastMove, k_prev: float) -> SkepticBet:
        self.counters = ceiling_index_update(self.counters, forecast.p)
        return SkepticBet(self._formula(self.counters))

    def observe(self, record: RoundRecord) -> None:
        self.counters = heads_count_update(self.counters, record.x == 1.0)


class DivergentBcSkeptic(_CounterSkeptic):
    def _formula(self, counters: BcCounters) -> float:
        return bc_divergent_bet(counters)


class ConvergentBcSkeptic(_CounterSkeptic):
    def _formula(self, counters: BcCounters) -> float:
        return bc_convergent_bet(counters)


class FictionalBcSkeptic(_CounterSkeptic):
    def _formula(self, counters: BcCounters) -> float:
        return bc_fictional_bet(counters)


class BangBangSkeptic(Skeptic):
    """Sign-flipping adversary: M alternates +/- amplitude each round.

    In mean-variance games V alternates between 0 and v_amplitude.
    """

    def __init__(self, amplitude: float = 1.0, v_amplitude: float = 1.0):
        self.amplitude = amplitude
        self.v_amplitude = v_amplitude

    def bet(self, n: int, forecast: ForecastMove, k_prev: float) -> SkepticBet:
        m = self.amplitude if n % 2 else -self.amplitude
        if self.with_v:
            return SkepticBet(m, self.v_amplitude if n % 2 == 0 else 0.0)
        return SkepticBet(m)


class SingleBetSkeptic(Skeptic):
    """Bets (M, V) in round 1 and nothing after: the smallest Skeptic that
    moves the compliance machines out of their waiting phase."""

    def __init__(self, M: float = 0.0, V: float = 0.0):
        self.M = M
        self.V = V

    def bet(self, n: int, forecast: ForecastMove, k_prev: float) -> SkepticBet:
        M, V = (self.M, self.V) if n == 1 else (0.0, 0.0)
        return SkepticBet(M, V if self.with_v else None)
