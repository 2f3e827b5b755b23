"""Counter updates and the two Borel–Cantelli bets plus their combination."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from gtpsim import (
    BcCounters,
    ForecastMove,
    GameKind,
    Protocol,
    RoundRecord,
    SkepticBet,
    bc_comply_step,
    bc_convergent_bet,
    bc_divergent_bet,
    bc_fictional_bet,
    ceiling_index_update,
    run_game,
)
from gtpsim.reality import BcComplyState, ConstantReality
from gtpsim.skeptic import (
    BangBangSkeptic,
    ConvergentBcSkeptic,
    DivergentBcSkeptic,
    FictionalBcSkeptic,
)

from _support import ScriptReality, heads_count_update, price_forecaster

COIN = Protocol(kind=GameKind.COIN_TOSSING)


# ---------------------------------------------------------------------------
# Counter updates
# ---------------------------------------------------------------------------

def test_heads_count_ignores_tails():
    c = BcCounters()
    assert heads_count_update(c, False).b == 0


def test_heads_count_sequence():
    c = BcCounters()
    values = [c.b]
    for head in (True, False, True):
        c = heads_count_update(c, head)
        values.append(c.b)
    assert values == [0, 1, 1, 2]


def test_heads_count_five_tails():
    c = BcCounters()
    for _ in range(5):
        c = heads_count_update(c, False)
    assert c.b == 0


def test_inlined_head_count_updates_agree_with_heads_count_update():
    # _CounterSkeptic.observe and bc_comply_step inline heads_count_update;
    # on a random coin run all three give the same counters in every round.
    rng = random.Random(20260418)
    skeptic = FictionalBcSkeptic()
    skeptic.reset(COIN)
    state, k, expected = BcComplyState(), 1.0, BcCounters()
    heads = 0
    for n in range(1, 2001):
        forecast = rng.choice([0.0, 1.0, rng.random()])
        skeptic.bet(n, forecast, k)
        M = rng.uniform(-1.0, 1.0)
        x, state = bc_comply_step(state, n, forecast, M, k)
        k += M * (x - forecast)
        skeptic.observe(RoundRecord(forecast, M, x, k))
        expected = heads_count_update(ceiling_index_update(expected, forecast), x == 1.0)
        assert skeptic.counters == expected, n
        assert state.counters == expected, n
        heads += x == 1.0
    assert 0 < heads < 2000


def test_ceiling_index_basic_steps():
    c = ceiling_index_update(BcCounters(), 0.6)
    assert (c.partial_sum, c.c) == (0.6, 1)
    c = ceiling_index_update(c, 0.6)
    assert (c.partial_sum, c.c) == (1.2, 2)


def test_ceiling_index_exact_integer_rounds_up():
    c = ceiling_index_update(BcCounters(), 1.0)
    assert c.c == 2


@pytest.mark.parametrize("p", [0.0, -0.0])
def test_ceiling_index_zero_increment_returns_the_same_counters(p):
    counters = ceiling_index_update(BcCounters(b=3), 1.5)
    assert ceiling_index_update(counters, p) is counters


def test_ceiling_index_rejects_negative_increment():
    with pytest.raises(ValueError):
        ceiling_index_update(BcCounters(), -0.1)


@pytest.mark.parametrize("p", [-5e-324, math.nan, math.inf, -math.inf])
def test_ceiling_index_rejects_non_finite_and_tiny_negative_increments(p):
    with pytest.raises(ValueError):
        ceiling_index_update(BcCounters(), p)


def assert_matches_fraction_oracle(increments):
    """c and the exact sum after every increment agree with a Fraction sum."""
    counters, total = BcCounters(), Fraction(0)
    for p in increments:
        counters = ceiling_index_update(counters, p)
        total += Fraction(p)
        assert counters.partial_sum == total
        assert counters.c == math.floor(total) + 1


nonnegative_floats = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1e-300),           # subnormals and near
    st.floats(min_value=1e300, allow_infinity=False),     # ufg increments v / n^2
    st.sampled_from([0.0, 5e-324, 1.0, 0.5, 2.0 ** -1074, 2.0 ** -1022]),
)


@given(st.lists(nonnegative_floats, max_size=40))
def test_ceiling_index_matches_fraction_oracle(increments):
    assert_matches_fraction_oracle(increments)


def test_ceiling_index_exact_on_harmonic_prices():
    assert_matches_fraction_oracle(1.0 / n for n in range(1, 100_001))


def test_ceiling_index_exact_on_powers_of_two():
    # The float sums of 2^-n reach 1.0 at n = 53; the exact sum never does.
    assert_matches_fraction_oracle(2.0 ** -n for n in range(1, 1100))
    counters = BcCounters()
    for n in range(1, 1100):
        counters = ceiling_index_update(counters, 2.0 ** -n)
    assert counters.c == 1
    assert counters.partial_sum == 1 - Fraction(1, 2 ** 1074)


# ---------------------------------------------------------------------------
# The shared step: a compliance Reality takes the counter Skeptic's step
# ---------------------------------------------------------------------------

def exact_step(counters: BcCounters, p: float) -> tuple:
    """(b, partial sum, c) after adding p, by the Fraction oracle."""
    total = counters.partial_sum + Fraction(p)
    return counters.b, total, math.floor(total) + 1


def read_back(counters: BcCounters) -> tuple:
    assert type(counters) is BcCounters
    return counters.b, counters.partial_sum, counters.c


def assert_exact_step(counters: BcCounters, p: float, result: BcCounters) -> None:
    assert read_back(result) == exact_step(counters, p)
    if p == 0.0:
        assert result is counters


shared_step_prices = st.one_of(
    st.floats(min_value=0.0, max_value=1e300),            # subnormals included
    st.sampled_from([0.0, -0.0, 5e-324, 2.0 ** -1022, 0.3, 1.0, 1e300]),
)
PROBES = ("bet", "comply", "equal_float", "other_counters", "invalid")


@seed(3131)
@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([DivergentBcSkeptic, ConvergentBcSkeptic, FictionalBcSkeptic]),
    st.lists(st.tuples(st.sampled_from(PROBES), shared_step_prices, st.booleans(),
                       st.sampled_from([math.nan, math.inf, -math.inf, -5e-324, -1.0])),
             max_size=30),
)
def test_the_shared_step_changes_no_result(skeptic_cls, probes):
    # Until this run's first bet, the record is whatever an earlier example
    # left: it must change nothing either.
    skeptic = skeptic_cls()
    skeptic.reset(COIN)
    price, before, after = 0.5, BcCounters(b=2), None
    for n, (probe, p, head, bad) in enumerate(probes, 1):
        if probe == "bet":
            price, before = p, skeptic.counters
            skeptic.bet(n, p, 1.0)
            after = skeptic.counters
            assert_exact_step(before, p, after)
            if head:
                skeptic.observe(RoundRecord(p, 0.0, 1.0, 1.0))
        elif probe == "comply":
            # Reality's own counters, equal to the Skeptic's, and the
            # Skeptic's price object: the step is read from the record.
            counters = BcCounters(*before)
            result = ceiling_index_update(counters, price)
            assert_exact_step(counters, price, result)
            if price and after is not None:
                assert result is after
            x, state = bc_comply_step(BcComplyState(counters=counters), n, price, 0.0, 1.0)
            b, total, c = exact_step(counters, price)
            assert read_back(state.counters) == (b + (x == 1.0), total, c)
        elif probe == "equal_float":
            twin = float.fromhex(price.hex())
            assert twin is not price
            counters = BcCounters(*before)
            assert_exact_step(counters, twin, ceiling_index_update(counters, twin))
        elif probe == "other_counters":
            for counters in (before._replace(b=before.b + 1),
                             BcCounters(before.b, before.acc + 1,
                                        ((before.acc + 1) >> 1074) + 1)):
                assert_exact_step(counters, price, ceiling_index_update(counters, price))
        else:
            with pytest.raises(ValueError):
                ceiling_index_update(BcCounters(*before), bad)


# ---------------------------------------------------------------------------
# Bet formulas
# ---------------------------------------------------------------------------

def test_divergent_bet_values():
    assert bc_divergent_bet(BcCounters(b=0)) == -0.5
    assert bc_divergent_bet(BcCounters(b=2)) == -0.125


def test_convergent_bet_values():
    assert bc_convergent_bet(BcCounters(c=1)) == 0.25
    assert bc_convergent_bet(BcCounters(c=3)) == 0.0625


def test_fictional_bet_values():
    assert bc_fictional_bet(BcCounters(b=0, c=1)) == -0.125
    assert bc_fictional_bet(BcCounters(b=1, c=1)) == 0.0
    assert bc_fictional_bet(BcCounters(b=3, c=2)) == 0.03125


@given(st.integers(0, 40), st.integers(1, 40))
def test_fictional_is_average_of_both_directions(b, c):
    counters = BcCounters(b=b, c=c)
    avg = 0.5 * (bc_divergent_bet(counters) + bc_convergent_bet(counters))
    assert bc_fictional_bet(counters) == avg


def test_divergent_bet_constant_without_heads():
    skeptic = DivergentBcSkeptic()
    skeptic.reset(COIN)
    trace = run_game(
        COIN, price_forecaster([0.5]), skeptic, ConstantReality(0.0), 20
    )
    assert all(r.bet == -0.5 for r in trace.rounds)
    # Strictly increasing capital along the divergent script with no heads.
    assert list(trace.capitals) == sorted(set(trace.capitals))


def test_convergent_bet_frozen_on_geometric_prices():
    # p_n = 2^-n keeps the partial sum below 1, so c = 1 and M = 1/4 forever.
    skeptic = ConvergentBcSkeptic()
    forecaster = price_forecaster([2.0 ** -n for n in range(1, 31)])
    trace = run_game(COIN, forecaster, skeptic, ConstantReality(1.0), 30)
    assert all(r.bet == 0.25 for r in trace.rounds)


def test_bang_bang_alternates():
    skeptic = BangBangSkeptic(amplitude=2.0, v_amplitude=3.0)
    skeptic.reset(COIN)
    assert skeptic.bet(1, 0.5, 1.0) == 2.0
    assert skeptic.bet(2, 0.5, 1.0) == -2.0
    ufg = Protocol(kind=GameKind.UNBOUNDED_FORECASTING)
    skeptic.reset(ufg)
    assert skeptic.bet(1, ForecastMove(m=0.0, v=1.0), 1.0).V == 0.0
    assert skeptic.bet(2, ForecastMove(m=0.0, v=1.0), 1.0).V == 3.0


# ---------------------------------------------------------------------------
# Non-negativity under adversarial play
# ---------------------------------------------------------------------------

adversarial_rounds = st.lists(
    st.tuples(st.floats(0.0, 1.0, allow_nan=False), st.booleans()),
    min_size=1,
    max_size=200,
)


@settings(deadline=None)
@given(adversarial_rounds)
@pytest.mark.parametrize(
    "policy_cls", [DivergentBcSkeptic, ConvergentBcSkeptic, FictionalBcSkeptic]
)
def test_bc_policies_keep_capital_nonnegative(policy_cls, rounds):
    ps = [r[0] for r in rounds]
    xs = [1.0 if r[1] else 0.0 for r in rounds]
    trace = run_game(
        COIN, price_forecaster(ps), policy_cls(), ScriptReality(xs), len(rounds)
    )
    assert min(trace.capitals) >= -1e-9
