"""Reality's deterministic compliance strategies.

Each strategy runs a small phase machine.  Reality waits for the first
Skeptic bet she can answer with a strict capital decrease; from then on she
mixes the real Skeptic's bet with a fictional counter-driven bet and answers
by a sign/threshold rule, which keeps the capital at or below its starting
value forever while steering the path into the target event.
"""

from __future__ import annotations

from math import copysign
from typing import NamedTuple, Optional, Tuple

from .analysis import epsilon_sequence_step
from .engine import (
    PRICE_GAMES,
    ForecastMove,
    GameKind,
    Protocol,
    Reality,
    SkepticBet,
    require_game,
)
from .hedges import SQUARE_HEDGE, Growth, Hedge, hedge_inverse
from .skeptic import BcCounters, _tuple_new, ceiling_index_update


class ComplyPhase(NamedTuple):
    """The phase is two numbers.  Waiting: n0 is None.  Skeptic's first
    strict capital change delta < 0, in round n0, ends the wait: Mixing
    with the fictional bet's weight mix_coeff = -delta, or Degenerate
    (mix_coeff None) when that loss took the capital to exactly 0.

    The paper's epsilon is mix_coeff / K_0, and K_{n0} is the capital
    recorded in round n0.  The weight is epsilon * K_{n0} / (1 - epsilon)
    = K_0 - K_{n0} = -delta in real arithmetic.  It is stored as -delta, not
    recomputed from 1 - K_{n0}/K_0: a loss below half an ulp of K_0 leaves
    K_{n0} == K_0 in floats, and the difference would give the fictional bet
    no weight."""

    n0: Optional[int] = None
    mix_coeff: Optional[float] = None


def _qualify(n: int, delta: float, k_prev: float) -> ComplyPhase:
    """The phase after the first strict capital change delta < 0, in round
    n, from the capital k_prev = K_0 held while waiting."""
    return ComplyPhase(n, None if k_prev + delta == 0.0 else -delta)


# The paper's derandomization with no wait: Mixing from round 1, weight 1.
DERANDOMIZED_PHASE = ComplyPhase(n0=0, mix_coeff=1.0)


# ---------------------------------------------------------------------------
# Coin-tossing game
# ---------------------------------------------------------------------------

# The step states, and the phase and counters they hold, are NamedTuples.
# They are immutable, so the step functions are pure: a caller may keep a
# state and step it again.  Each round builds a new state and counters with
# `_tuple_new` (no Python __new__ frame).  The step functions inline their
# one-line helpers: the mixing threshold
#     mix_coeff * (2^(-b-2) - 2^(-c-2))
# with b the head count before the round and c the refreshed ceiling index
# (the fictional bet's negative, scaled by the mixing weight), and the head
# count update after the answer.  Each step tests Mixing first, the phase
# of most rounds; a zero bet while waiting gets the Degenerate answer, the
# far point if c moved and the neutral point otherwise.
class BcComplyState(NamedTuple):
    phase: ComplyPhase = ComplyPhase()
    counters: BcCounters = BcCounters()


def bc_comply_step(
    state: BcComplyState, n: int, p: float, M: float, k_prev: float
) -> Tuple[float, BcComplyState]:
    """Round n of the coin-game compliance strategy."""
    phase, counters = state
    b, c_prev = counters.b, counters.c
    counters = ceiling_index_update(counters, p)
    c = counters.c
    mix_coeff = phase.mix_coeff
    if mix_coeff is not None:
        x = 1.0 if M <= mix_coeff * (2.0 ** (-b - 2) - 2.0 ** (-c - 2)) else 0.0
    elif M == 0.0 or phase.n0 is not None:
        x = 1.0 if c != c_prev else 0.0
    else:
        x = 1.0 if M < 0.0 else 0.0
        delta = M * (x - p)
        if delta < 0.0:
            phase = _qualify(n, delta, k_prev)
        # else: degenerate price (p = 1 with M < 0, p = 0 with M > 0);
        # the answer is capital-neutral and the wait continues.
    if x == 1.0:
        counters = _tuple_new(BcCounters, (b + 1, counters.acc, c))
    return x, _tuple_new(BcComplyState, (phase, counters))


class BcComplyReality(Reality):
    """Policy wrapper around bc_comply_step, started in `phase`.

    The default waits for a first strict loss.  Started in
    `DERANDOMIZED_PHASE`, Mixing with n0 = 0 and weight 1, it is the paper's
    derandomization of the Bernoulli(p) Reality with no wait: x = 1 exactly
    when M + m_f <= 0, m_f the fictional bet `bc_fictional_bet`, so the
    1/2-1/2 mixture of the real and the fictional capital never increases
    (`analysis.mixture_capitals`).
    """

    def __init__(self, phase: ComplyPhase = ComplyPhase()):
        self.phase = phase

    def reset(self, protocol: Protocol) -> None:
        require_game(protocol, self, *PRICE_GAMES)
        self.state = BcComplyState(self.phase)

    def outcome(self, n, forecast, bet, k_prev) -> float:
        x, self.state = bc_comply_step(self.state, n, forecast, bet, k_prev)
        return x


# ---------------------------------------------------------------------------
# Mean-variance games: unbounded (h(x) = x^2) and general hedge
# ---------------------------------------------------------------------------

class MvComplyState(NamedTuple):
    """Counters reinterpreted for the mean-variance games: b counts rounds
    with nonzero centered outcome, the partial sum accumulates
    eps_k * v_k / g_k, and the damping sequence keeps its running state."""

    phase: ComplyPhase = ComplyPhase()
    counters: BcCounters = BcCounters()
    a_total: float = 0.0        # A_n = sum of v_k so far
    eps_running: float = 0.0    # sum of a_k = v_k / g(A_k) so far


def mv_comply_step(
    state: MvComplyState,
    n: int,
    f: ForecastMove,
    s: SkepticBet,
    hedge: Hedge,
    growth: Optional[Growth],
    k_prev: float,
) -> Tuple[float, MvComplyState]:
    """Round n of the mean-variance compliance strategy.

    Without a growth this is the unbounded game (hedge x^2): the schedule is
    v_n / n^2 with no damping.  With a growth g it is eps_n * v_n / g(A_n),
    eps_n = 1 / (1 + eps_running) from `epsilon_sequence_step`.  Rounds with
    v = 0 answer x = m and return the state unchanged.
    """
    m, v = f.m, f.v
    if v == 0.0:
        return m, state
    phase, counters, a_total, eps_running = state
    M, V = s.M, s.V
    a_total += v
    if growth is None:
        # an int, so that eps * v < g_a compares exactly as v < n^2
        eps, g_a = 1.0, n * n
    else:
        try:
            g_a = growth.eval(a_total)
        except OverflowError:
            raise ValueError(f"round {n}: growth {growth.name} overflows at"
                             f" A_n = {a_total!r}") from None
        if g_a <= 0.0:
            raise ValueError(f"growth must stay positive, g({a_total}) = {g_a}")
        eps, eps_running = epsilon_sequence_step(eps_running, v / g_a)
    b, c_prev = counters.b, counters.c
    counters = ceiling_index_update(counters, eps * v / g_a)
    c = counters.c
    scale = g_a / eps
    mix_coeff = phase.mix_coeff
    if mix_coeff is not None:
        d = mix_coeff * (2.0 ** (-b - 2) - 2.0 ** (-c - 2)) / scale
        if eps * v < g_a:
            if V <= d:
                e = hedge_inverse(hedge, scale)
                xt = e if M < 0.0 else -e
            else:
                xt = 0.0
        else:
            root = hedge_inverse(hedge, v)
            xt = root if M < 0.0 else -root
    elif (M == 0.0 and V == 0.0) or phase.n0 is not None:
        xt = hedge_inverse(hedge, scale) if c != c_prev else 0.0
    else:
        if V == 0.0:
            xt = 1.0 if M < 0.0 else -1.0
            delta = M * xt
        else:
            xt = 0.0
            delta = V * (hedge.forward(0.0) - v)
        if delta < 0.0:
            phase = _qualify(n, delta, k_prev)
        # else: V * v underflowed to 0; the answer is capital-neutral and
        # the wait continues.
    if xt != 0.0:
        counters = _tuple_new(BcCounters, (b + 1, counters.acc, c))
    # m's own float when m + xt has its bits, as in most rounds (xt = 0.0);
    # but -0.0 + 0.0 is +0.0.
    x = m + xt
    if x == m and (m or copysign(1.0, x) == copysign(1.0, m)):
        x = m
    return x, _tuple_new(MvComplyState, (phase, counters, a_total, eps_running))


class MvComplyReality(Reality):
    """Policy wrapper around mv_comply_step: the unbounded game without a
    growth, the general-hedge game with one."""

    def __init__(self, growth: Optional[Growth] = None):
        self.growth = growth

    def reset(self, protocol: Protocol) -> None:
        require_game(protocol, self, GameKind.UNBOUNDED_FORECASTING
                     if self.growth is None else GameKind.GENERAL_HEDGE)
        self.state = MvComplyState()
        self.hedge = protocol.hedge or SQUARE_HEDGE

    def outcome(self, n, forecast, bet, k_prev) -> float:
        x, self.state = mv_comply_step(
            self.state, n, forecast, bet, self.hedge, self.growth, k_prev
        )
        return x


# ---------------------------------------------------------------------------
# Example strategies: first-round head, avoid-the-price
# ---------------------------------------------------------------------------

class FirstRoundComplyReality(Reality):
    """Guarantees "p_1 > 0 implies x_1 = 1" with sup capital = K_1.

    Round one answers the price's sign; afterwards every bet is answered on
    its losing side, so the capital never rises again.
    """

    def reset(self, protocol: Protocol) -> None:
        require_game(protocol, self, *PRICE_GAMES)

    def outcome(self, n, forecast, bet, k_prev) -> float:
        if n == 1:
            return 1.0 if forecast > 0.0 else 0.0
        return 1.0 if bet < 0.0 else 0.0


class BoundedAvoidMatchReality(Reality):
    """Bounded-game Reality that never matches the price and caps capital at q.

    At interior prices she answers the bet's losing side; at the endpoints
    she steps inside (0, 1) by a gap small enough that the round's gain is
    at most half the remaining headroom (q - K)/2.
    """

    def __init__(self, q: float = 0.9):
        self.q = q

    def reset(self, protocol: Protocol) -> None:
        require_game(protocol, self, GameKind.BOUNDED_FORECASTING)
        if not protocol.initial_capital < self.q < 1.0:
            raise ValueError(
                f"q = {self.q} must lie in (initial capital, 1) ="
                f" ({protocol.initial_capital}, 1)"
            )

    def outcome(self, n, forecast, bet, k_prev) -> float:
        p, M = forecast, bet
        if p == 0.0 or p == 1.0:
            gap = min(0.5, (self.q - k_prev) / (2.0 * abs(M) + 1.0))
            return gap if p == 0.0 else 1.0 - gap
        return 1.0 if M <= 0.0 else 0.0


# ---------------------------------------------------------------------------
# Scripted outcomes
# ---------------------------------------------------------------------------

class ConstantReality(Reality):
    """Always announces the same outcome (e.g. all tails, or a broken
    always-heads player used to probe the Skeptic side)."""

    def __init__(self, x: float = 0.0):
        self.x = x

    def outcome(self, n, forecast, bet, k_prev) -> float:
        return self.x
