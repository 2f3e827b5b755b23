"""Deterministic compliance strategies: phase machine, thresholds, examples."""

import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtpsim import (
    BcComplyReality,
    BcComplyState,
    ComplyPhase,
    ForecastMove,
    GameKind,
    PhaseTag,
    Protocol,
    ScriptForecaster,
    SingleBetSkeptic,
    SkepticBet,
    bc_comply_step,
    capital_update,
    run_game,
)
from gtpsim.hedges import SQUARE_HEDGE, hedge_inverse, identity_growth, power_hedge
from gtpsim.randomized import RandomBoundedSkeptic
from gtpsim.reality import (
    BoundedAvoidMatchReality,
    ConstantReality,
    DerandomizedCoinReality,
    FirstRoundComplyReality,
    MvComplyReality,
    MvComplyState,
    _qualify,
    mv_comply_step,
)
from gtpsim.skeptic import BcCounters, FictionalBcSkeptic, ceiling_index_update
from gtpsim.engine import Skeptic

from _support import mv_forecaster, price_forecaster

COIN = Protocol(kind=GameKind.COIN_TOSSING)
BOUNDED = Protocol(kind=GameKind.BOUNDED_FORECASTING, initial_capital=0.5)
UNBOUNDED = Protocol(kind=GameKind.UNBOUNDED_FORECASTING)

MIXING_HALF = ComplyPhase(tag=PhaseTag.MIXING, n0=1, mix_coeff=0.5, epsilon=0.5,
                          k_n0=0.5)


# ---------------------------------------------------------------------------
# Coin-game phase machine
# ---------------------------------------------------------------------------

def test_mix_coeff_equals_capital_drop():
    # A first loss of 0.15 from K_0 = 1 makes the coefficient K_0 - k_n0.
    phase = _qualify(3, -0.15, 1.0, 1.0)
    assert math.isclose(phase.mix_coeff, 0.15, rel_tol=0.0, abs_tol=1e-15)


def test_waiting_zero_bet_no_crossing_plays_tail():
    x, state = bc_comply_step(BcComplyState(), 0.6, 0.0, 1.0, 1.0)
    assert x == 0.0
    assert state.phase.tag is PhaseTag.WAITING
    assert state.counters.c == 1 and state.counters.b == 0


def test_waiting_zero_bet_crossing_plays_head():
    _, state = bc_comply_step(BcComplyState(), 0.6, 0.0, 1.0, 1.0)
    x, state = bc_comply_step(state, 0.6, 0.0, 1.0, 1.0)
    assert x == 1.0                # partial sum 1.2 crosses 1
    assert state.counters.c == 2 and state.counters.b == 1


def test_qualifying_round_enters_mixing():
    x, state = bc_comply_step(BcComplyState(), 0.5, -0.3, 1.0, 1.0)
    assert x == 1.0
    phase = state.phase
    assert phase.tag is PhaseTag.MIXING and phase.n0 == 1
    assert math.isclose(phase.epsilon, 0.15, rel_tol=0.0, abs_tol=1e-12)
    assert math.isclose(phase.k_n0, 0.85, rel_tol=0.0, abs_tol=1e-12)


def test_degenerate_price_rounds_keep_waiting():
    # p = 1 with M < 0 and p = 0 with M > 0 are capital-neutral.
    x, state = bc_comply_step(BcComplyState(), 1.0, -0.3, 1.0, 1.0)
    assert x == 1.0 and state.phase.tag is PhaseTag.WAITING
    x, state = bc_comply_step(BcComplyState(), 0.0, 0.3, 1.0, 1.0)
    assert x == 0.0 and state.phase.tag is PhaseTag.WAITING


def test_mixing_threshold_rule():
    # mix_coeff = 0.5, b = 0, c = 2: d = 0.5 * (2^-2 - 2^-4) = 0.09375.
    def state():
        counters = ceiling_index_update(BcCounters(b=0), 1.2)
        assert (counters.partial_sum, counters.c) == (1.2, 2)
        return BcComplyState(phase=MIXING_HALF, counters=counters, n=1)

    x, _ = bc_comply_step(state(), 0.0, 0.05, 0.5, 1.0)
    assert x == 1.0
    x, _ = bc_comply_step(state(), 0.0, 0.2, 0.5, 1.0)
    assert x == 0.0


def test_capital_hitting_zero_enters_degenerate():
    x, state = bc_comply_step(BcComplyState(), 0.5, 2.0, 1.0, 1.0)
    assert x == 0.0                # losing side of M > 0
    assert state.phase.tag is PhaseTag.DEGENERATE
    # Degenerate phase follows the crossing rule: next p pushes the sum to 1.1.
    x, state = bc_comply_step(state, 0.6, 5.0, 0.0, 1.0)
    assert x == 1.0


# ---------------------------------------------------------------------------
# Unbounded-game steps
# ---------------------------------------------------------------------------

def test_ufg_zero_variance_round_answers_mean():
    x, state = mv_comply_step(
        MvComplyState(), ForecastMove(m=3.0, v=0.0), SkepticBet(M=5.0, V=1.0),
        SQUARE_HEDGE, None, 1.0, 1.0,
    )
    assert x == 3.0
    assert state.n == 1 and state.counters == BcCounters()
    assert state.phase.tag is PhaseTag.WAITING


def test_ufg_qualifying_round_with_positive_v_bet():
    x, state = mv_comply_step(
        MvComplyState(), ForecastMove(m=0.0, v=2.0), SkepticBet(M=1.0, V=0.5),
        SQUARE_HEDGE, None, 1.0, 1.0,
    )
    assert x == 0.0                # capital change 0.5 * (0 - 2) = -1, hits 0
    assert state.phase.tag is PhaseTag.DEGENERATE and state.phase.n0 == 1


def test_ufg_qualifying_round_with_pure_m_bet():
    x, state = mv_comply_step(
        MvComplyState(), ForecastMove(m=0.0, v=1.0), SkepticBet(M=-0.5, V=0.0),
        SQUARE_HEDGE, None, 1.0, 1.0,
    )
    assert x == 1.0                # sign of M picks the losing side
    assert state.phase.tag is PhaseTag.MIXING
    assert math.isclose(state.phase.epsilon, 0.5, rel_tol=0.0, abs_tol=1e-12)


def test_ufg_waiting_crossing_plays_n():
    x, state = mv_comply_step(
        MvComplyState(), ForecastMove(m=2.0, v=2.0), SkepticBet(M=0.0, V=0.0),
        SQUARE_HEDGE, None, 1.0, 1.0,
    )
    assert x == 3.0                # v/n^2 = 2 crosses an integer, centered move n=1
    assert state.counters.b == 1


def test_ufg_mixing_large_v_bet_zeroes_the_move():
    # n = 5, v = 1 < 25: d = 0.5 * (2^-2 - 2^-3) / 25 = 0.0025 < V.
    state = MvComplyState(phase=MIXING_HALF, counters=BcCounters(), n=4)
    x, _ = mv_comply_step(
        state, ForecastMove(m=7.0, v=1.0), SkepticBet(M=1.0, V=0.1),
        SQUARE_HEDGE, None, 0.5, 1.0,
    )
    assert x == 7.0


def test_ufg_mixing_big_variance_plays_root():
    # n = 2, v = 9 >= 4, M < 0: centered move +sqrt(9).
    state = MvComplyState(phase=MIXING_HALF, counters=BcCounters(), n=1)
    x, _ = mv_comply_step(
        state, ForecastMove(m=0.0, v=9.0), SkepticBet(M=-1.0, V=0.0),
        SQUARE_HEDGE, None, 0.5, 1.0,
    )
    assert x == 3.0


# ---------------------------------------------------------------------------
# General-hedge steps
# ---------------------------------------------------------------------------

SQUARE = power_hedge(2.0)
IDENTITY = identity_growth()


def test_mv_reality_rejects_the_other_mean_variance_game():
    ufg = Protocol(kind=GameKind.UNBOUNDED_FORECASTING)
    ufgh = Protocol(kind=GameKind.GENERAL_HEDGE, hedge=SQUARE)
    MvComplyReality().reset(ufg)
    MvComplyReality(growth=IDENTITY).reset(ufgh)
    with pytest.raises(ValueError, match="requires the general_hedge"):
        MvComplyReality(growth=IDENTITY).reset(ufg)
    with pytest.raises(ValueError, match="requires the unbounded_forecasting"):
        MvComplyReality().reset(ufgh)
    with pytest.raises(ValueError):
        MvComplyReality().reset(COIN)


def test_ufgh_damping_sequence_and_inverse_scale():
    # h(x) = x^2, g = identity, v = 1 each round: A_2 = 2, eps_2 = 1/(1 + 1.5).
    state = MvComplyState()
    zero = SkepticBet(M=0.0, V=0.0)
    f = ForecastMove(m=0.0, v=1.0)
    _, state = mv_comply_step(state, f, zero, SQUARE, IDENTITY, 1.0, 1.0)
    assert math.isclose(state.eps, 0.5, rel_tol=0.0, abs_tol=1e-15)
    _, state = mv_comply_step(state, f, zero, SQUARE, IDENTITY, 1.0, 1.0)
    assert math.isclose(state.eps, 0.4, rel_tol=0.0, abs_tol=1e-15)
    assert state.a_total == 2.0
    scale = IDENTITY.eval(state.a_total) / state.eps
    assert math.isclose(scale, 5.0, rel_tol=0.0, abs_tol=1e-12)
    assert math.isclose(hedge_inverse(SQUARE, scale), math.sqrt(5.0), rel_tol=1e-12)


def test_ufgh_qualifying_round_with_positive_v_bet():
    # Capital change V * (h(0) - v) = -2, strictly negative by h(0) = 0.
    x, state = mv_comply_step(
        MvComplyState(), ForecastMove(m=0.0, v=2.0), SkepticBet(M=0.0, V=1.0),
        SQUARE, IDENTITY, 3.0, 3.0,
    )
    assert x == 0.0
    assert state.phase.tag is PhaseTag.MIXING
    assert math.isclose(state.phase.k_n0, 1.0, rel_tol=0.0, abs_tol=1e-12)
    assert math.isclose(state.phase.epsilon, 2.0 / 3.0, rel_tol=1e-12)


def test_ufgh_mixing_small_v_bet_plays_inverse_scale():
    # Fresh accumulators, v = 1: eps = 0.5, scale = 2, d = 0.5*(1/4-1/8)/2.
    def state():
        return MvComplyState(phase=MIXING_HALF, counters=BcCounters(), n=1)

    f = ForecastMove(m=0.0, v=1.0)
    x, _ = mv_comply_step(
        state(), f, SkepticBet(M=-1.0, V=0.0), SQUARE, IDENTITY, 0.5, 1.0
    )
    assert math.isclose(x, math.sqrt(2.0), rel_tol=1e-12)
    x, _ = mv_comply_step(
        state(), f, SkepticBet(M=-1.0, V=0.1), SQUARE, IDENTITY, 0.5, 1.0
    )
    assert x == 0.0                # V above the threshold zeroes the move


def test_ufgh_zero_variance_round_answers_mean():
    x, state = mv_comply_step(
        MvComplyState(), ForecastMove(m=-2.0, v=0.0), SkepticBet(M=9.0, V=9.0),
        SQUARE, IDENTITY, 1.0, 1.0,
    )
    assert x == -2.0 and state.phase.tag is PhaseTag.WAITING


# ---------------------------------------------------------------------------
# Derandomizer
# ---------------------------------------------------------------------------

def test_derandomizer_sign_rule():
    # Fictional bet at b=0, c=1 is -1/8; average with the real bet decides x.
    def first_outcome(m_real):
        reality = DerandomizedCoinReality(FictionalBcSkeptic())
        reality.reset(COIN)
        return reality.outcome(
            1, ForecastMove(p=0.5), SkepticBet(M=m_real), 1.0
        )

    assert first_outcome(0.1) == 1.0    # average -0.0125 <= 0
    assert first_outcome(0.125) == 1.0  # boundary: average exactly 0
    assert first_outcome(0.5) == 0.0    # average 0.1875 > 0


def test_derandomizer_mixture_capital_non_increasing():
    reality = DerandomizedCoinReality(FictionalBcSkeptic())
    run_game(
        COIN,
        price_forecaster([min(1.0, 1.0 / n) for n in range(1, 301)]),
        RandomBoundedSkeptic(seed=3),
        reality,
        300,
    )
    caps = reality.mixture_capitals
    assert all(b <= a + 1e-12 for a, b in zip(caps, caps[1:]))


# ---------------------------------------------------------------------------
# Example strategies
# ---------------------------------------------------------------------------

def test_first_round_rule():
    reality = FirstRoundComplyReality()
    assert reality.outcome(1, ForecastMove(p=0.0), SkepticBet(M=1.0), 1.0) == 0.0
    assert reality.outcome(1, ForecastMove(p=0.7), SkepticBet(M=1.0), 1.0) == 1.0
    assert reality.outcome(2, ForecastMove(p=0.5), SkepticBet(M=-1.0), 1.0) == 1.0
    assert reality.outcome(2, ForecastMove(p=0.5), SkepticBet(M=1.0), 1.0) == 0.0


def test_avoid_match_endpoint_gap():
    reality = BoundedAvoidMatchReality(0.9)
    x = reality.outcome(1, ForecastMove(p=0.0), SkepticBet(M=4.0), 0.5)
    assert math.isclose(x, 0.4 / 9.0, rel_tol=1e-12)
    # Round gain M*x is at most half the headroom (0.9 - 0.5)/2.
    assert 4.0 * x <= 0.2 + 1e-12
    x = reality.outcome(2, ForecastMove(p=1.0), SkepticBet(M=0.0), 0.3)
    assert x == 0.5                # gap capped at 1/2
    assert reality.outcome(3, ForecastMove(p=0.5), SkepticBet(M=-2.0), 0.5) == 1.0
    assert reality.outcome(4, ForecastMove(p=0.5), SkepticBet(M=2.0), 0.5) == 0.0


def test_avoid_match_parameter_validation():
    with pytest.raises(ValueError):
        BoundedAvoidMatchReality(0.4).reset(BOUNDED)   # q below initial capital
    with pytest.raises(ValueError):
        BoundedAvoidMatchReality(1.0).reset(BOUNDED)
    with pytest.raises(ValueError):
        BoundedAvoidMatchReality(0.9).reset(COIN)      # wrong protocol kind


def test_constant_reality():
    reality = ConstantReality(1.0)
    assert reality.outcome(1, ForecastMove(p=0.2), SkepticBet(M=0.0), 1.0) == 1.0


# ---------------------------------------------------------------------------
# Strong-compliance bound under duty-keeping adversaries
# ---------------------------------------------------------------------------

class _DutyKeepingSkeptic(Skeptic):
    """Bets a fraction of current capital, so its own capital stays >= 0."""

    def __init__(self, fractions):
        self.fractions = list(fractions)

    def bet(self, n, forecast, k_prev):
        f = self.fractions[(n - 1) % len(self.fractions)]
        return SkepticBet(M=f * max(k_prev, 0.0))


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=60),
    st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=1, max_size=60),
)
def test_coin_compliance_bound_against_fractional_bets(ps, fractions):
    trace = run_game(
        COIN, price_forecaster(ps), _DutyKeepingSkeptic(fractions),
        BcComplyReality(), len(ps),
    )
    assert max(trace.capitals) <= 1.0 + 1e-9
    assert min(trace.capitals) >= -1e-9


# ---------------------------------------------------------------------------
# A first loss below half an ulp of K_0
# ---------------------------------------------------------------------------

# M = 1e-17 in round 1 loses less than half an ulp of K_0 = 1, so K_{n0}
# rounds to K_0.  The mixing weight is that loss, not K_0 - K_{n0} = 0.
TINY = SingleBetSkeptic(M=1e-17)


def _moves(trace):
    return sum(1 for r in trace.rounds if r.x != r.forecast.m)


def test_sub_ulp_first_loss_still_steers_the_coin_game():
    trace = run_game(COIN, ScriptForecaster(lambda n: ForecastMove(p=min(1.0, 1.0 / n**2))),
                     TINY, BcComplyReality(), 2000)
    assert trace.capitals[0] == 1.0 and trace.rounds[0].x == 0.0
    assert sum(r.x for r in trace.rounds) == 3


def test_sub_ulp_first_loss_still_steers_the_unbounded_game():
    trace = run_game(Protocol(kind=GameKind.UNBOUNDED_FORECASTING),
                     mv_forecaster([0.0], [1.0]), TINY, MvComplyReality(), 10_000)
    assert trace.capitals[0] == 1.0
    assert _moves(trace) == 3


def test_sub_ulp_first_loss_still_steers_the_general_hedge_game():
    trace = run_game(Protocol(kind=GameKind.GENERAL_HEDGE, hedge=SQUARE_HEDGE),
                     mv_forecaster([0.0], [1.0]), TINY,
                     MvComplyReality(growth=identity_growth()), 10_000)
    assert trace.capitals[0] == 1.0
    assert _moves(trace) == 4


def test_underflowing_variance_loss_keeps_waiting():
    # V * v = 1e-340 rounds to -0.0: no loss at all, so no mixing phase.
    reality = MvComplyReality()
    trace = run_game(Protocol(kind=GameKind.UNBOUNDED_FORECASTING),
                     mv_forecaster([0.0], [1e-170]), SingleBetSkeptic(V=1e-170),
                     reality, 1000)
    assert reality.state.phase.tag is PhaseTag.WAITING
    assert _moves(trace) == 0


# ---------------------------------------------------------------------------
# Step values are immutable, so the step functions are pure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value, field", [
    (BcCounters(), "b"),
    (MIXING_HALF, "mix_coeff"),
    (BcComplyState(), "counters"),
    (MvComplyState(), "eps"),
], ids=["counters", "phase", "coin-state", "mv-state"])
def test_step_values_reject_assignment(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))


def test_bc_comply_step_leaves_its_input_state_unchanged():
    # waiting (zero bet, then a qualifying bet), then mixing on both sides
    state, k = BcComplyState(), 1.0
    for p, M in [(0.6, 0.0), (0.6, 0.0), (0.5, -1.0), (0.3, 2.0), (0.3, -2.0), (0.9, 0.0)]:
        saved = copy.deepcopy(state)
        x, after = bc_comply_step(state, p, M, k, 1.0)
        assert state == saved
        assert bc_comply_step(saved, p, M, k, 1.0) == (x, after)
        state, k = after, k + M * (x - p)
    assert state.phase.tag is PhaseTag.MIXING and state.counters.b > 0


@pytest.mark.parametrize("growth", [None, IDENTITY], ids=["unbounded", "general-hedge"])
def test_mv_comply_step_leaves_its_input_state_unchanged(growth):
    state, k = MvComplyState(), 1.0
    moves = [(0.0, 1.0, 0.0, 0.0), (1.0, 0.0, 5.0, 1.0), (0.0, 2.0, -0.5, 0.0),
             (0.5, 1.0, 1.0, 0.1), (0.0, 9.0, -1.0, 0.0)]
    for m, v, M, V in moves:
        f, s = ForecastMove(None, m, v), SkepticBet(M, V)
        saved = copy.deepcopy(state)
        x, after = mv_comply_step(state, f, s, SQUARE, growth, k, 1.0)
        assert state == saved
        assert mv_comply_step(saved, f, s, SQUARE, growth, k, 1.0) == (x, after)
        state = after
        k = capital_update(UNBOUNDED, k, f, s, x)
    assert state.phase.tag is PhaseTag.MIXING and state.n == len(moves)
