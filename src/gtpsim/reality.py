"""Reality's deterministic compliance strategies.

Each strategy runs a small phase machine.  Reality waits for the first
Skeptic bet she can answer with a strict capital decrease; from then on she
mixes the real Skeptic's bet with a fictional counter-driven bet and answers
by a sign/threshold rule, which keeps the capital at or below its starting
value forever while steering the path into the target event.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional, Tuple

from .analysis import epsilon_sequence_step
from .engine import (
    PRICE_GAMES,
    ForecastMove,
    GameKind,
    Protocol,
    Reality,
    RoundRecord,
    Skeptic,
    SkepticBet,
    require_game,
)
from .hedges import SQUARE_HEDGE, Growth, Hedge, hedge_inverse
from .skeptic import BcCounters, ceiling_index_update, heads_count_update


class PhaseTag(Enum):
    WAITING = "waiting"
    DEGENERATE = "degenerate"
    MIXING = "mixing"


class ComplyPhase(NamedTuple):
    """The phase, and on entering Mixing the round n0, the mixing weight
    -delta (delta < 0 the first strict capital change), epsilon = -delta/K_0
    for reporting, and K_{n0}.

    The weight is epsilon * K_{n0} / (1 - epsilon) = K_0 - K_{n0} = -delta
    in real arithmetic.  It is stored as -delta, not recomputed from
    1 - K_{n0}/K_0: a loss below half an ulp of K_0 leaves K_{n0} == K_0 in
    floats, and the difference would give the fictional bet no weight."""

    tag: PhaseTag = PhaseTag.WAITING
    n0: Optional[int] = None
    mix_coeff: Optional[float] = None
    epsilon: Optional[float] = None
    k_n0: Optional[float] = None


def _qualify(n: int, delta: float, k_prev: float, k0: float) -> ComplyPhase:
    """Transition out of Waiting after the first strict capital change
    delta < 0, from the capital k_prev = K_0 held while waiting."""
    k_new = k_prev + delta
    if k_new == 0.0:
        return ComplyPhase(tag=PhaseTag.DEGENERATE, n0=n)
    return ComplyPhase(tag=PhaseTag.MIXING, n0=n, mix_coeff=-delta,
                       epsilon=-delta / k0, k_n0=k_new)


def _threshold(phase: ComplyPhase, b: int, c: int) -> float:
    return phase.mix_coeff * (2.0 ** (-b - 2) - 2.0 ** (-c - 2))


# ---------------------------------------------------------------------------
# Coin-tossing game
# ---------------------------------------------------------------------------

# The step states, and the phase and counters they hold, are NamedTuples.
# They are immutable, so the step functions are pure: a caller may keep a
# state and step it again.  Each round builds a new state, positionally; a
# tuple also costs less to build than a frozen dataclass.
class BcComplyState(NamedTuple):
    phase: ComplyPhase = ComplyPhase()
    counters: BcCounters = BcCounters()
    n: int = 0


def bc_comply_step(
    state: BcComplyState, p: float, M: float, k_prev: float, k0: float
) -> Tuple[float, BcComplyState]:
    """One round of the coin-game compliance strategy."""
    n = state.n + 1
    counters = ceiling_index_update(state.counters, p)
    c_changed = counters.c != state.counters.c
    phase = state.phase
    if phase.tag is PhaseTag.WAITING:
        if M == 0.0:
            x = 1.0 if c_changed else 0.0
        else:
            x = 1.0 if M < 0.0 else 0.0
            delta = M * (x - p)
            if delta < 0.0:
                phase = _qualify(n, delta, k_prev, k0)
            # else: degenerate price (p = 1 with M < 0, p = 0 with M > 0);
            # the answer is capital-neutral and the wait continues.
    elif phase.tag is PhaseTag.DEGENERATE:
        x = 1.0 if c_changed else 0.0
    else:
        d = _threshold(phase, state.counters.b, counters.c)
        x = 1.0 if M <= d else 0.0
    counters = heads_count_update(counters, x == 1.0)
    return x, BcComplyState(phase, counters, n)


class BcComplyReality(Reality):
    """Policy wrapper around bc_comply_step."""

    def __init__(self):
        self.state = BcComplyState()
        self.k0 = 1.0

    def reset(self, protocol: Protocol) -> None:
        require_game(protocol, self, *PRICE_GAMES)
        self.state = BcComplyState()
        self.k0 = protocol.initial_capital

    def outcome(self, n, forecast, bet, k_prev) -> float:
        x, self.state = bc_comply_step(
            self.state, forecast.p, bet.M, k_prev, self.k0
        )
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
    n: int = 0
    a_total: float = 0.0        # A_n = sum of v_k so far
    eps_running: float = 0.0    # sum of a_k = v_k / g(A_k) so far
    eps: float = 1.0            # current damping weight


def mv_comply_step(
    state: MvComplyState,
    f: ForecastMove,
    s: SkepticBet,
    hedge: Hedge,
    growth: Optional[Growth],
    k_prev: float,
    k0: float,
) -> Tuple[float, MvComplyState]:
    """One round of the mean-variance compliance strategy.

    Without a growth this is the unbounded game (hedge x^2): the schedule is
    v_n / n^2 with no damping.  With a growth g it is eps_n * v_n / g(A_n),
    eps_n from `epsilon_sequence_step`.  Rounds with v = 0 answer x = m,
    leave the counters untouched, and never end the waiting phase.
    """
    n = state.n + 1
    m, v = f.m, f.v
    M, V = s.M, s.V
    if v == 0.0:
        return m, state._replace(n=n)
    a_total = state.a_total + v
    if growth is None:
        # an int, so that eps * v < g_a compares exactly as v < n^2
        eps, eps_running, g_a = 1.0, state.eps_running, n * n
    else:
        g_a = growth.eval(a_total)
        if g_a <= 0.0:
            raise ValueError(f"growth must stay positive, g({a_total}) = {g_a}")
        eps, eps_running = epsilon_sequence_step(state.eps_running, v / g_a)
    counters = ceiling_index_update(state.counters, eps * v / g_a)
    c_changed = counters.c != state.counters.c
    phase = state.phase
    scale = g_a / eps
    if phase.tag is PhaseTag.WAITING:
        if M == 0.0 and V == 0.0:
            xt = hedge_inverse(hedge, scale) if c_changed else 0.0
        else:
            if V == 0.0:
                xt = 1.0 if M < 0.0 else -1.0
                delta = M * xt
            else:
                xt = 0.0
                delta = V * (hedge.forward(0.0) - v)
            if delta < 0.0:
                phase = _qualify(n, delta, k_prev, k0)
            # else: V * v underflowed to 0; the answer is capital-neutral
            # and the wait continues.
    elif phase.tag is PhaseTag.DEGENERATE:
        xt = hedge_inverse(hedge, scale) if c_changed else 0.0
    else:
        d = _threshold(phase, state.counters.b, counters.c) / scale
        if eps * v < g_a:
            if V <= d:
                e = hedge_inverse(hedge, scale)
                xt = e if M < 0.0 else -e
            else:
                xt = 0.0
        else:
            root = hedge_inverse(hedge, v)
            xt = root if M < 0.0 else -root
    counters = heads_count_update(counters, xt != 0.0)
    return m + xt, MvComplyState(
        phase, counters, n, a_total, eps_running, eps
    )


class MvComplyReality(Reality):
    """Policy wrapper around mv_comply_step: the unbounded game without a
    growth, the general-hedge game with one."""

    def __init__(self, growth: Optional[Growth] = None):
        self.growth = growth
        self.state = MvComplyState()
        self.k0 = 1.0
        self.hedge = SQUARE_HEDGE

    def reset(self, protocol: Protocol) -> None:
        require_game(protocol, self, GameKind.UNBOUNDED_FORECASTING
                     if self.growth is None else GameKind.GENERAL_HEDGE)
        self.state = MvComplyState()
        self.k0 = protocol.initial_capital
        self.hedge = protocol.hedge or SQUARE_HEDGE

    def outcome(self, n, forecast, bet, k_prev) -> float:
        x, self.state = mv_comply_step(
            self.state, forecast, bet, self.hedge, self.growth, k_prev, self.k0
        )
        return x


# ---------------------------------------------------------------------------
# Derandomized coin-game Reality from a fictional Skeptic
# ---------------------------------------------------------------------------

class DerandomizedCoinReality(Reality):
    """Reality policy built from a capital-non-negative fictional Skeptic.

    Each round she averages the real bet with the fictional bet and plays
    heads exactly when the average is <= 0, which makes the averaged
    ("mixture") capital non-increasing.  The per-round mixture capitals are
    kept on the instance for auditing.
    """

    def __init__(self, fictional: Skeptic):
        self.fictional = fictional
        self.mixture_capitals = [1.0]
        self.fictional_capitals = [1.0]

    def reset(self, protocol: Protocol) -> None:
        require_game(protocol, self, *PRICE_GAMES)
        self.fictional.reset(protocol)
        k0 = protocol.initial_capital
        self.mixture_capitals = [k0]
        self.fictional_capitals = [k0]

    def outcome(self, n, forecast, bet, k_prev) -> float:
        p = forecast.p
        m_f = self.fictional.bet(n, forecast, self.fictional_capitals[-1]).M
        m_o = 0.5 * (bet.M + m_f)
        x = 1.0 if m_o <= 0.0 else 0.0
        self.mixture_capitals.append(self.mixture_capitals[-1] + m_o * (x - p))
        self.fictional_capitals.append(self.fictional_capitals[-1] + m_f * (x - p))
        return x

    def observe(self, record: RoundRecord) -> None:
        self.fictional.observe(record)


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
            return 1.0 if forecast.p > 0.0 else 0.0
        return 1.0 if bet.M < 0.0 else 0.0


class BoundedAvoidMatchReality(Reality):
    """Bounded-game Reality that never matches the price and caps capital at q.

    At interior prices she answers the bet's losing side; at the endpoints
    she steps inside (0, 1) by a gap small enough that the round's gain is
    at most half the remaining headroom (q - K)/2.
    """

    def __init__(self, q: float):
        self.q = q

    def reset(self, protocol: Protocol) -> None:
        require_game(protocol, self, GameKind.BOUNDED_FORECASTING)
        if not protocol.initial_capital < self.q < 1.0:
            raise ValueError(
                f"q = {self.q} must lie in (initial capital, 1) ="
                f" ({protocol.initial_capital}, 1)"
            )

    def outcome(self, n, forecast, bet, k_prev) -> float:
        p, M = forecast.p, bet.M
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

    def __init__(self, x: float):
        self.x = x

    def outcome(self, n, forecast, bet, k_prev) -> float:
        return self.x
