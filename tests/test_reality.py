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
    Protocol,
    ScriptForecaster,
    SingleBetSkeptic,
    SkepticBet,
    bc_comply_step,
    capital_update,
    mixture_capitals,
    run_game,
)
from gtpsim.hedges import SQUARE_HEDGE, hedge_inverse, identity_growth, power_hedge
from gtpsim.randomized import RandomBoundedSkeptic
from gtpsim.reality import (
    BoundedAvoidMatchReality,
    ConstantReality,
    FirstRoundComplyReality,
    MvComplyReality,
    MvComplyState,
    _qualify,
    mv_comply_step,
)
from gtpsim.scenario import (
    build_forecaster,
    build_reality,
    build_skeptic,
    coin_comply_pool,
)
from gtpsim.skeptic import (
    BcCounters,
    FictionalBcSkeptic,
    bc_fictional_bet,
    ceiling_index_update,
)
from gtpsim.engine import Skeptic, ZeroSkeptic

from _support import (comply_worst_capital, derandomizer, heads_count_update,
                      mv_forecaster, play_past_faults, price_forecaster)

COIN = Protocol(kind=GameKind.COIN_TOSSING)
BOUNDED = Protocol(kind=GameKind.BOUNDED_FORECASTING, initial_capital=0.5)
UNBOUNDED = Protocol(kind=GameKind.UNBOUNDED_FORECASTING)

MIXING_HALF = ComplyPhase(n0=1, mix_coeff=0.5)


# ---------------------------------------------------------------------------
# Coin-game phase machine
# ---------------------------------------------------------------------------

def test_mix_coeff_equals_capital_drop():
    # A first loss of 0.15 from K_0 = 1 makes the coefficient K_0 - K_{n0}.
    phase = _qualify(3, -0.15, 1.0)
    assert math.isclose(phase.mix_coeff, 0.15, rel_tol=0.0, abs_tol=1e-15)


def test_waiting_zero_bet_no_crossing_plays_tail():
    x, state = bc_comply_step(BcComplyState(), 1, 0.6, 0.0, 1.0)
    assert x == 0.0
    assert state.phase == ComplyPhase()
    assert state.counters.c == 1 and state.counters.b == 0


def test_waiting_zero_bet_crossing_plays_head():
    _, state = bc_comply_step(BcComplyState(), 1, 0.6, 0.0, 1.0)
    x, state = bc_comply_step(state, 2, 0.6, 0.0, 1.0)
    assert x == 1.0                # partial sum 1.2 crosses 1
    assert state.counters.c == 2 and state.counters.b == 1


def test_qualifying_round_enters_mixing():
    f, s = 0.5, -0.3
    x, state = bc_comply_step(BcComplyState(), 1, f, s, 1.0)
    assert x == 1.0
    phase = state.phase
    assert phase.mix_coeff is not None and phase.n0 == 1
    # epsilon = mix_coeff / K_0, and K_{n0} is the capital after round n0
    assert math.isclose(phase.mix_coeff / 1.0, 0.15, rel_tol=0.0, abs_tol=1e-12)
    k_n0 = capital_update(COIN, 1.0, f, s, x, 1)
    assert math.isclose(k_n0, 0.85, rel_tol=0.0, abs_tol=1e-12)


def test_degenerate_price_rounds_keep_waiting():
    # p = 1 with M < 0 and p = 0 with M > 0 are capital-neutral.
    x, state = bc_comply_step(BcComplyState(), 1, 1.0, -0.3, 1.0)
    assert x == 1.0 and state.phase == ComplyPhase()
    x, state = bc_comply_step(BcComplyState(), 1, 0.0, 0.3, 1.0)
    assert x == 0.0 and state.phase == ComplyPhase()


def test_mixing_threshold_rule():
    # mix_coeff = 0.5, b = 0, c = 2: d = 0.5 * (2^-2 - 2^-4) = 0.09375.
    def state():
        counters = ceiling_index_update(BcCounters(b=0), 1.2)
        assert (counters.partial_sum, counters.c) == (1.2, 2)
        return BcComplyState(phase=MIXING_HALF, counters=counters)

    x, _ = bc_comply_step(state(), 2, 0.0, 0.05, 0.5)
    assert x == 1.0
    x, _ = bc_comply_step(state(), 2, 0.0, 0.2, 0.5)
    assert x == 0.0


def test_capital_hitting_zero_enters_degenerate():
    x, state = bc_comply_step(BcComplyState(), 1, 0.5, 2.0, 1.0)
    assert x == 0.0                # losing side of M > 0
    assert state.phase == ComplyPhase(n0=1)     # Degenerate: no mixing weight
    # Degenerate phase follows the crossing rule: next p pushes the sum to 1.1.
    x, state = bc_comply_step(state, 2, 0.6, 5.0, 0.0)
    assert x == 1.0


# ---------------------------------------------------------------------------
# Unbounded-game steps
# ---------------------------------------------------------------------------

def test_ufg_zero_variance_round_answers_mean():
    x, state = mv_comply_step(
        MvComplyState(), 1, ForecastMove(m=3.0, v=0.0), SkepticBet(M=5.0, V=1.0),
        SQUARE_HEDGE, None, 1.0,
    )
    assert x == 3.0
    assert state == MvComplyState()    # counters, accumulators and phase unchanged


@pytest.mark.parametrize("m", [0.0, -0.0, 2.5, 1e300])
def test_an_mv_answer_of_m_is_the_forecast_float_itself(m):
    # Mixing with a large V bet answers xt = 0.0: x = m + 0.0 has m's bits,
    # except for m = -0.0, whose sum is +0.0.
    f = ForecastMove(m, 1.0)
    state = MvComplyState(phase=MIXING_HALF, counters=BcCounters())
    x, _ = mv_comply_step(state, 5, f, SkepticBet(M=1.0, V=0.1), SQUARE_HEDGE, None, 0.5)
    assert (x is f.m) == (math.copysign(1.0, m) > 0.0)
    assert x.hex() == (m + 0.0).hex()


def test_ufg_qualifying_round_with_positive_v_bet():
    x, state = mv_comply_step(
        MvComplyState(), 1, ForecastMove(m=0.0, v=2.0), SkepticBet(M=1.0, V=0.5),
        SQUARE_HEDGE, None, 1.0,
    )
    assert x == 0.0                # capital change 0.5 * (0 - 2) = -1, hits 0
    assert state.phase == ComplyPhase(n0=1)     # Degenerate


def test_ufg_qualifying_round_with_pure_m_bet():
    x, state = mv_comply_step(
        MvComplyState(), 1, ForecastMove(m=0.0, v=1.0), SkepticBet(M=-0.5, V=0.0),
        SQUARE_HEDGE, None, 1.0,
    )
    assert x == 1.0                # sign of M picks the losing side
    assert state.phase.mix_coeff is not None
    assert math.isclose(state.phase.mix_coeff / 1.0, 0.5, rel_tol=0.0, abs_tol=1e-12)


def test_ufg_waiting_crossing_plays_n():
    x, state = mv_comply_step(
        MvComplyState(), 1, ForecastMove(m=2.0, v=2.0), SkepticBet(M=0.0, V=0.0),
        SQUARE_HEDGE, None, 1.0,
    )
    assert x == 3.0                # v/n^2 = 2 crosses an integer, centered move n=1
    assert state.counters.b == 1


def test_ufg_mixing_large_v_bet_zeroes_the_move():
    # n = 5, v = 1 < 25: d = 0.5 * (2^-2 - 2^-3) / 25 = 0.0025 < V.
    state = MvComplyState(phase=MIXING_HALF, counters=BcCounters())
    x, _ = mv_comply_step(
        state, 5, ForecastMove(m=7.0, v=1.0), SkepticBet(M=1.0, V=0.1),
        SQUARE_HEDGE, None, 0.5,
    )
    assert x == 7.0


def test_ufg_mixing_big_variance_plays_root():
    # n = 2, v = 9 >= 4, M < 0: centered move +sqrt(9).
    state = MvComplyState(phase=MIXING_HALF, counters=BcCounters())
    x, _ = mv_comply_step(
        state, 2, ForecastMove(m=0.0, v=9.0), SkepticBet(M=-1.0, V=0.0),
        SQUARE_HEDGE, None, 0.5,
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
    _, state = mv_comply_step(state, 1, f, zero, SQUARE, IDENTITY, 1.0)
    assert math.isclose(1.0 / (1.0 + state.eps_running), 0.5, rel_tol=0.0, abs_tol=1e-15)
    _, state = mv_comply_step(state, 2, f, zero, SQUARE, IDENTITY, 1.0)
    eps = 1.0 / (1.0 + state.eps_running)
    assert math.isclose(eps, 0.4, rel_tol=0.0, abs_tol=1e-15)
    assert state.a_total == 2.0
    scale = IDENTITY.eval(state.a_total) / eps
    assert math.isclose(scale, 5.0, rel_tol=0.0, abs_tol=1e-12)
    assert math.isclose(hedge_inverse(SQUARE, scale), math.sqrt(5.0), rel_tol=1e-12)


def test_ufgh_qualifying_round_with_positive_v_bet():
    # Capital change V * (h(0) - v) = -2, strictly negative by h(0) = 0.
    f, s = ForecastMove(m=0.0, v=2.0), SkepticBet(M=0.0, V=1.0)
    x, state = mv_comply_step(MvComplyState(), 1, f, s, SQUARE, IDENTITY, 3.0)
    assert x == 0.0
    assert state.phase.mix_coeff is not None
    protocol = Protocol(kind=GameKind.GENERAL_HEDGE, hedge=SQUARE, initial_capital=3.0)
    k_n0 = capital_update(protocol, 3.0, f, s, x, 1)
    assert math.isclose(k_n0, 1.0, rel_tol=0.0, abs_tol=1e-12)
    assert math.isclose(state.phase.mix_coeff / 3.0, 2.0 / 3.0, rel_tol=1e-12)


def test_ufgh_mixing_small_v_bet_plays_inverse_scale():
    # Fresh accumulators, v = 1: eps = 0.5, scale = 2, d = 0.5*(1/4-1/8)/2.
    def state():
        return MvComplyState(phase=MIXING_HALF, counters=BcCounters())

    f = ForecastMove(m=0.0, v=1.0)
    x, _ = mv_comply_step(
        state(), 2, f, SkepticBet(M=-1.0, V=0.0), SQUARE, IDENTITY, 0.5
    )
    assert math.isclose(x, math.sqrt(2.0), rel_tol=1e-12)
    x, _ = mv_comply_step(
        state(), 2, f, SkepticBet(M=-1.0, V=0.1), SQUARE, IDENTITY, 0.5
    )
    assert x == 0.0                # V above the threshold zeroes the move


def test_ufgh_zero_variance_round_answers_mean():
    x, state = mv_comply_step(
        MvComplyState(), 1, ForecastMove(m=-2.0, v=0.0), SkepticBet(M=9.0, V=9.0),
        SQUARE, IDENTITY, 1.0,
    )
    assert x == -2.0 and state.phase == ComplyPhase()


# ---------------------------------------------------------------------------
# Derandomizer
# ---------------------------------------------------------------------------

def test_derandomizer_sign_rule():
    # Fictional bet at b=0, c=1 is -1/8; average with the real bet decides x.
    def first_outcome(m_real):
        reality = derandomizer()
        reality.reset(COIN)
        return reality.outcome(
            1, 0.5, m_real, 1.0
        )

    assert first_outcome(0.1) == 1.0    # average -0.0125 <= 0
    assert first_outcome(0.125) == 1.0  # boundary: average exactly 0
    assert first_outcome(0.5) == 0.0    # average 0.1875 > 0


def test_derandomizer_is_the_compliance_machine_in_mixing():
    reality = derandomizer()
    reality.reset(COIN)
    assert type(reality) is BcComplyReality
    assert reality.state.phase == ComplyPhase(n0=0, mix_coeff=1.0)


def test_derandomizer_mixture_capital_non_increasing():
    trace = play_past_faults(
        COIN,
        price_forecaster([min(1.0, 1.0 / n) for n in range(1, 301)]),
        RandomBoundedSkeptic(seed=3),
        derandomizer(),
        300,
    )
    caps = mixture_capitals(trace, FictionalBcSkeptic(), 1.0)
    assert len(caps) == 301
    assert all(b <= a + 1e-12 for a, b in zip(caps, caps[1:]))


def test_derandomizer_keeps_its_sign_rule_where_half_the_sum_underflows():
    # On these prices the fictional bet's two terms meet near the smallest
    # subnormal.  Halving M + m_f there rounds it to 0, which would play
    # heads at a positive sum (first at round 2,379).
    trace = run_game(COIN, price_forecaster([0.0, 1.0, 0.5, 0.3]), ZeroSkeptic(),
                     derandomizer(), 2400)
    counters, halved_to_zero = BcCounters(), 0
    for n, record in enumerate(trace.rounds, 1):
        counters = ceiling_index_update(counters, record.forecast)
        total = record.bet + bc_fictional_bet(counters)
        assert (record.x == 1.0) == (total <= 0.0), n
        halved_to_zero += total > 0.0 and 0.5 * total == 0.0
        counters = heads_count_update(counters, record.x == 1.0)
    assert halved_to_zero >= 1


def test_bc_comply_mixture_capital_never_increases_on_the_coin_pool():
    mixing = 0
    for scenario in coin_comply_pool():
        reality = build_reality(scenario)
        trace = run_game(scenario.protocol, build_forecaster(scenario),
                         build_skeptic(scenario), reality, scenario.horizon)
        phase = reality.state.phase
        if phase.mix_coeff is None:
            continue
        mixing += 1
        caps = mixture_capitals(trace, FictionalBcSkeptic(), phase.mix_coeff, phase.n0)
        assert len(caps) == len(trace.rounds) - phase.n0 + 1
        assert all(b <= a + 1e-12 for a, b in zip(caps, caps[1:])), scenario.name
    assert mixing >= 1


# ---------------------------------------------------------------------------
# Example strategies
# ---------------------------------------------------------------------------

def test_first_round_rule():
    reality = FirstRoundComplyReality()
    assert reality.outcome(1, 0.0, 1.0, 1.0) == 0.0
    assert reality.outcome(1, 0.7, 1.0, 1.0) == 1.0
    assert reality.outcome(2, 0.5, -1.0, 1.0) == 1.0
    assert reality.outcome(2, 0.5, 1.0, 1.0) == 0.0


def test_avoid_match_endpoint_gap():
    reality = BoundedAvoidMatchReality(0.9)
    x = reality.outcome(1, 0.0, 4.0, 0.5)
    assert math.isclose(x, 0.4 / 9.0, rel_tol=1e-12)
    # Round gain M*x is at most half the headroom (0.9 - 0.5)/2.
    assert 4.0 * x <= 0.2 + 1e-12
    x = reality.outcome(2, 1.0, 0.0, 0.3)
    assert x == 0.5                # gap capped at 1/2
    assert reality.outcome(3, 0.5, -2.0, 0.5) == 1.0
    assert reality.outcome(4, 0.5, 2.0, 0.5) == 0.0


def test_avoid_match_parameter_validation():
    with pytest.raises(ValueError):
        BoundedAvoidMatchReality(0.4).reset(BOUNDED)   # q below initial capital
    with pytest.raises(ValueError):
        BoundedAvoidMatchReality(1.0).reset(BOUNDED)
    with pytest.raises(ValueError):
        BoundedAvoidMatchReality(0.9).reset(COIN)      # wrong protocol kind


def test_constant_reality():
    reality = ConstantReality(1.0)
    assert reality.outcome(1, 0.2, 0.0, 1.0) == 1.0


# ---------------------------------------------------------------------------
# Strong-compliance bound under duty-keeping adversaries
# ---------------------------------------------------------------------------

class _DutyKeepingSkeptic(Skeptic):
    """Bets a fraction of current capital, so its own capital stays >= 0."""

    def __init__(self, fractions):
        self.fractions = list(fractions)

    def bet(self, n, forecast, k_prev):
        f = self.fractions[(n - 1) % len(self.fractions)]
        return f * max(k_prev, 0.0)


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


def _stock_prices(n: int) -> dict:
    """The first n prices of each price script in the coin pool."""
    scripts = {}
    for scenario in coin_comply_pool(n):
        if not scenario.name.endswith("/zero]"):
            continue
        name = scenario.name.split("/")[0][len("coin["):]
        forecaster = build_forecaster(scenario)
        forecaster.reset(scenario.protocol)
        scripts[name] = [forecaster.forecast(k) for k in range(1, n + 1)]
    return scripts


SEARCH_ROUNDS = 5
SEARCH_SCRIPTS = {**_stock_prices(SEARCH_ROUNDS),
                  "edge": [0.0, 1.0, 5e-324, 0.5, 1.0 - 2.0 ** -53]}


@pytest.mark.parametrize("prices", SEARCH_SCRIPTS.values(), ids=SEARCH_SCRIPTS)
def test_no_skeptic_raises_the_waiting_machines_exact_capital(prices):
    # Every Skeptic, by the finite search `comply_worst_capital` documents.
    largest, leaves = comply_worst_capital(prices)
    assert largest <= 1
    assert leaves > 4 ** (SEARCH_ROUNDS - 1)   # far more than the zero bets' one path


# ---------------------------------------------------------------------------
# A first loss below half an ulp of K_0
# ---------------------------------------------------------------------------

# M = 1e-17 in round 1 loses less than half an ulp of K_0 = 1, so K_{n0}
# rounds to K_0.  The mixing weight is that loss, not K_0 - K_{n0} = 0.
TINY = SingleBetSkeptic(M=1e-17)


def _moves(trace):
    return sum(1 for r in trace.rounds if r.x != r.forecast.m)


def test_sub_ulp_first_loss_still_steers_the_coin_game():
    trace = run_game(COIN, ScriptForecaster(lambda n: min(1.0, 1.0 / n**2)),
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
    assert reality.state.phase == ComplyPhase()
    assert _moves(trace) == 0


# ---------------------------------------------------------------------------
# Step values are immutable, so the step functions are pure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value, field", [
    (BcCounters(), "b"),
    (MIXING_HALF, "mix_coeff"),
    (BcComplyState(), "counters"),
    (MvComplyState(), "eps_running"),
], ids=["counters", "phase", "coin-state", "mv-state"])
def test_step_values_reject_assignment(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))


def test_bc_comply_step_leaves_its_input_state_unchanged():
    # waiting (zero bet, then a qualifying bet), then mixing on both sides
    state, k = BcComplyState(), 1.0
    moves = [(0.6, 0.0), (0.6, 0.0), (0.5, -1.0), (0.3, 2.0), (0.3, -2.0), (0.9, 0.0)]
    for n, (p, M) in enumerate(moves, 1):
        saved = copy.deepcopy(state)
        x, after = bc_comply_step(state, n, p, M, k)
        assert state == saved
        assert bc_comply_step(saved, n, p, M, k) == (x, after)
        state, k = after, k + M * (x - p)
    assert state.phase.mix_coeff is not None and state.counters.b > 0


@pytest.mark.parametrize("growth", [None, IDENTITY], ids=["unbounded", "general-hedge"])
def test_mv_comply_step_leaves_its_input_state_unchanged(growth):
    state, k = MvComplyState(), 1.0
    moves = [(0.0, 1.0, 0.0, 0.0), (1.0, 0.0, 5.0, 1.0), (0.0, 2.0, -0.5, 0.0),
             (0.5, 1.0, 1.0, 0.1), (0.0, 9.0, -1.0, 0.0)]
    for n, (m, v, M, V) in enumerate(moves, 1):
        f, s = ForecastMove(m, v), SkepticBet(M, V)
        saved = copy.deepcopy(state)
        x, after = mv_comply_step(state, n, f, s, SQUARE, growth, k)
        assert state == saved
        assert mv_comply_step(saved, n, f, s, SQUARE, growth, k) == (x, after)
        state = after
        k = capital_update(UNBOUNDED, k, f, s, x, n)
    assert state.phase.mix_coeff is not None
    assert state.a_total == sum(v for _, v, _, _ in moves)
