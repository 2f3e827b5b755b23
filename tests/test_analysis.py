"""Damping sequence, hedge machinery, pricing, verdicts."""

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gtpsim import (
    GameKind,
    Hedge,
    HedgeValidationError,
    Growth,
    Protocol,
    ZeroSkeptic,
    epsilon_sequence_step,
    hedge_inverse,
    identity_growth,
    lower_probability_coin,
    power_growth,
    power_hedge,
    run_game,
    strong_compliance_verdict,
    upper_probability_coin,
    validate_growth,
    validate_hedge,
)
from gtpsim.analysis import BOUND_SLACK, MAX_PRICING_HORIZON, Verdict, _first_round
from gtpsim.hedges import _REL_TOL, SQUARE_HEDGE
from gtpsim.engine import RoundRecord
from gtpsim.reality import ConstantReality

from _support import price_forecaster, trace_of

COIN = Protocol(kind=GameKind.COIN_TOSSING)


# ---------------------------------------------------------------------------
# Damping sequence
# ---------------------------------------------------------------------------

def test_epsilon_first_step():
    eps, total = epsilon_sequence_step(0.0, 1.0)
    assert eps == 0.5 and total == 1.0


def test_epsilon_rejects_nonpositive_terms():
    with pytest.raises(ValueError):
        epsilon_sequence_step(0.0, 0.0)
    with pytest.raises(ValueError):
        epsilon_sequence_step(1.0, -2.0)


def test_epsilon_geometric_terms_converge_to_half():
    total = 0.0
    for k in range(1, 200):
        eps, total = epsilon_sequence_step(total, 2.0 ** -k)
    assert math.isclose(eps, 0.5, rel_tol=0.0, abs_tol=1e-12)


def test_epsilon_constant_terms_weighted_sum_diverges():
    total = 0.0
    weighted = 0.0
    for k in range(1, 501):
        eps, total = epsilon_sequence_step(total, 1.0)
        weighted += eps * 1.0
    assert weighted >= 5.0          # harmonic growth: H_501 - 1


@given(st.floats(0.0, 1e6, allow_nan=False), st.floats(1e-9, 1e6, allow_nan=False))
def test_epsilon_weight_times_term_at_most_one(running, a):
    eps, _ = epsilon_sequence_step(running, a)
    assert 0.0 < eps <= 1.0
    assert eps * a <= 1.0


# ---------------------------------------------------------------------------
# Hedge machinery
# ---------------------------------------------------------------------------

def test_hedge_inverse_closed_form_square():
    assert hedge_inverse(power_hedge(2.0), 9.0) == 3.0


def test_hedge_inverse_at_zero():
    assert hedge_inverse(power_hedge(1.5), 0.0) == 0.0


def test_hedge_inverse_power_three_halves():
    assert math.isclose(hedge_inverse(power_hedge(1.5), 8.0), 4.0, rel_tol=1e-12)


def test_hedge_inverse_errors():
    with pytest.raises(ValueError):
        hedge_inverse(power_hedge(2.0), -1.0)


@pytest.mark.parametrize("r", [1.0, 1.5, 2.0])
def test_hedge_validation_accepts_powers_in_range(r):
    validate_hedge(power_hedge(r))


def test_hedge_validation_rejects_quartic():
    with pytest.raises(HedgeValidationError):
        validate_hedge(power_hedge(4.0))   # h(x)/x^2 increases


def test_hedge_validation_rejects_cubic_growth():
    with pytest.raises(HedgeValidationError):
        validate_hedge(Hedge(forward=lambda x: abs(x) ** 3,
                             inverse=lambda y: y ** (1.0 / 3.0), name="cube"))


def test_hedge_validation_rejects_odd_function():
    with pytest.raises(HedgeValidationError):
        validate_hedge(Hedge(forward=lambda x: x, inverse=lambda y: y, name="odd"))


def test_hedge_validation_rejects_nonzero_at_origin():
    with pytest.raises(HedgeValidationError):
        validate_hedge(Hedge(forward=lambda x: x * x + 1.0,
                             inverse=lambda y: math.sqrt(y - 1.0), name="shifted"))


NAN = math.nan


@pytest.mark.parametrize("hedge", [
    power_hedge(NAN),
    Hedge(forward=lambda x: NAN if x == 4.0 else x * x, inverse=math.sqrt,
          name="nan_at_4"),
    Hedge(forward=lambda x: NAN if x == -4.0 else x * x, inverse=math.sqrt,
          name="nan_at_minus_4"),
    Hedge(forward=lambda x: x * x, inverse=lambda y: NAN, name="nan_inverse"),
])
def test_hedge_validation_rejects_nan(hedge):
    with pytest.raises(HedgeValidationError, match=hedge.name):
        validate_hedge(hedge)


@pytest.mark.parametrize("growth", [
    power_growth(NAN),
    Growth(eval=lambda x: NAN if x == 4.0 else x, name="nan_at_4"),
])
def test_growth_validation_rejects_nan(growth):
    with pytest.raises(HedgeValidationError, match=growth.name):
        validate_growth(growth)


def _exp_square(x):
    return math.exp(x * x) - 1.0      # math.exp raises OverflowError past ~709


@pytest.mark.parametrize("hedge, shown", [
    (Hedge(forward=_exp_square, inverse=lambda y: math.sqrt(math.log1p(y)),
           name="exp_square"), r"exp_square: h\(32\.0\) overflows"),
    (Hedge(forward=lambda x: x * x,
           inverse=lambda y: math.sqrt(y) if y < 1e6 else math.exp(y), name="exp_inverse"),
     r"exp_inverse: h\^-1\(1048576\.0\) overflows"),
])
def test_hedge_validation_names_a_function_that_overflows(hedge, shown):
    with pytest.raises(HedgeValidationError, match=shown):
        validate_hedge(hedge)


@pytest.mark.parametrize("growth, shown", [
    (power_growth(500.0), r"power:r=500: g\(8\.0\) overflows"),
    (Growth(eval=lambda x: math.inf if x > 1.0 else 1.0, name="inf"),
     r"inf: g\(2\.0\) = inf, expected finite"),
])
def test_growth_validation_rejects_an_overflow(growth, shown):
    with pytest.raises(HedgeValidationError, match=shown):
        validate_growth(growth)


def test_power_hedge_is_infinite_past_the_float_range():
    h = power_hedge(1.5).forward
    assert h(1e300) == h(-1e300) == math.inf
    assert math.isfinite(h(1e200))
    with pytest.raises(HedgeValidationError, match=r"power:r=500: h\(8\.0\) = inf"):
        validate_hedge(power_hedge(500.0))


# Random points on top of the validator's dyadic grid: every hedge the
# scenarios build, at 0 < x < y in [2^-10, 2^10].
HEDGES = st.one_of(st.floats(1.0, 2.0).map(power_hedge), st.just(SQUARE_HEDGE))
POINTS = st.floats(2.0 ** -10, 2.0 ** 10)


@settings(max_examples=300)
@given(HEDGES, POINTS, POINTS)
def test_hedge_conditions_hold_at_random_points(hedge, x, y):
    x, y = sorted((x, y))
    assume(x < y)
    h = hedge.forward
    for t in (x, y):
        assert abs(h(-t) - h(t)) <= _REL_TOL * max(1.0, h(t))
    assert h(x) / x <= h(y) / y * (1.0 + _REL_TOL) + _REL_TOL
    assert h(x) / x ** 2 >= h(y) / y ** 2 * (1.0 - _REL_TOL) - _REL_TOL


@settings(max_examples=300)
@given(HEDGES, POINTS)
def test_hedge_inverse_round_trips_at_random_points(hedge, x):
    y = hedge.forward(x)
    assert abs(hedge.forward(hedge_inverse(hedge, y)) - y) <= _REL_TOL * max(1.0, y)


def test_growth_validation():
    validate_growth(identity_growth())
    validate_growth(power_growth(2.0))
    with pytest.raises(HedgeValidationError):
        validate_growth(Growth(eval=lambda x: 1.0 / (1.0 + x), name="decay"))
    with pytest.raises(HedgeValidationError):
        validate_growth(Growth(eval=lambda x: -x, name="negative"))


# ---------------------------------------------------------------------------
# Pricing
# ---------------------------------------------------------------------------

def test_upper_probability_certain_event():
    assert upper_probability_coin([0.5, 0.2], lambda bits: True) == 1.0


def test_upper_probability_first_coordinate():
    assert math.isclose(
        upper_probability_coin([0.3], lambda bits: bits[0] == 1), 0.3, rel_tol=1e-15
    )


def test_upper_probability_majority_of_three():
    value = upper_probability_coin([0.5] * 3, lambda bits: sum(bits) >= 2)
    assert math.isclose(value, 0.5, rel_tol=0.0, abs_tol=1e-15)


def test_lower_probability_examples():
    assert lower_probability_coin([0.5, 0.5], lambda bits: True) == 1.0
    assert math.isclose(
        lower_probability_coin([0.3], lambda bits: bits[0] == 1), 0.3, rel_tol=1e-12
    )
    assert lower_probability_coin([0.5, 0.5], lambda bits: False) == 0.0


def test_pricing_input_validation():
    with pytest.raises(ValueError):
        upper_probability_coin([0.5] * (MAX_PRICING_HORIZON + 1), lambda bits: True)
    with pytest.raises(ValueError):
        upper_probability_coin([1.5], lambda bits: True)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=8),
    st.integers(0, 2 ** 8 - 1),
)
def test_pricing_matches_leaf_enumeration(p_script, mask):
    n = len(p_script)
    members = {leaf for leaf in range(2 ** n) if (mask >> (leaf % 8)) & 1}

    def event(bits):
        leaf = 0
        for b in bits:
            leaf = (leaf << 1) | b
        return leaf in members

    expected = 0.0
    for leaf in members:
        prob = 1.0
        for i in range(n):
            bit = (leaf >> (n - 1 - i)) & 1
            prob *= p_script[i] if bit else 1.0 - p_script[i]
        expected += prob
    upper = upper_probability_coin(p_script, event)
    lower = lower_probability_coin(p_script, event)
    assert math.isclose(upper, expected, rel_tol=0.0, abs_tol=1e-12)
    assert lower <= upper + 1e-12
    complement = upper_probability_coin(p_script, lambda bits: not event(bits))
    assert math.isclose(upper + complement, 1.0, rel_tol=0.0, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

def test_verdict_zero_bet_trace():
    trace = run_game(
        COIN, price_forecaster([0.4]), ZeroSkeptic(), ConstantReality(1.0), 20
    )
    verdict = strong_compliance_verdict(trace)
    assert verdict.skeptic_duty_ok and verdict.strong_bound_ok
    assert verdict.sup_capital == 1.0
    assert verdict.event_proxy_ok is None


def test_verdict_flags_injected_bound_violation():
    trace = run_game(
        COIN, price_forecaster([0.4]), ZeroSkeptic(), ConstantReality(1.0), 6
    )
    bad = trace.rounds[4]
    trace.rounds[4] = RoundRecord(
        forecast=bad.forecast, bet=bad.bet, x=bad.x,
        capital_after=1.1,
    )
    verdict = strong_compliance_verdict(trace)
    assert not verdict.strong_bound_ok
    assert verdict.sup_capital == 1.1
    assert any("round 5" in note for note in verdict.notes)


def test_verdict_names_nan_capital_instead_of_crashing():
    # Round 3 of five carries a NaN capital; no round has K < -slack.
    trace = run_game(
        COIN, price_forecaster([0.4]), ZeroSkeptic(), ConstantReality(1.0), 5
    )
    bad = trace.rounds[2]
    trace.rounds[2] = RoundRecord(
        forecast=bad.forecast, bet=bad.bet, x=bad.x,
        capital_after=math.nan,
    )
    verdict = strong_compliance_verdict(trace)
    assert not verdict.skeptic_duty_ok and not verdict.strong_bound_ok
    assert math.isnan(verdict.sup_capital)
    assert verdict.notes == ["capital is not finite (nan) at round 3"]


def test_verdict_event_proxy_is_evaluated():
    trace = run_game(
        COIN, price_forecaster([0.4]), ZeroSkeptic(), ConstantReality(1.0), 5
    )
    verdict = strong_compliance_verdict(
        trace, lambda t: all(r.x == 1.0 for r in t.rounds)
    )
    assert verdict.event_proxy_ok is True


def _verdict_oracle(trace, event_proxy=None):
    """strong_compliance_verdict as it was before the finite trace took one
    min and one max: the reference the current one must agree with."""
    k0 = trace.protocol.initial_capital
    slack = BOUND_SLACK * k0
    capitals = trace.capitals
    sup_capital = max(capitals, default=k0)
    duty_ok = all(k >= -slack for k in capitals)
    bound_ok = all(k <= k0 + slack for k in capitals)
    notes = []
    if not all(map(math.isfinite, capitals)):
        first = _first_round(capitals, lambda k: not math.isfinite(k))
        notes.append(f"capital is not finite ({capitals[first - 1]}) at round {first}")
        if any(map(math.isnan, capitals)):
            sup_capital = math.nan
    if not duty_ok:
        first = _first_round(capitals, lambda k: k < -slack)
        if first is not None:
            notes.append(f"skeptic capital went negative at round {first}")
    if not bound_ok:
        first = _first_round(capitals, lambda k: k > k0 + slack)
        if first is not None:
            notes.append(f"capital exceeded the initial value at round {first}")
    proxy_ok = None if event_proxy is None else bool(event_proxy(trace))
    return Verdict(duty_ok, bound_ok, sup_capital, proxy_ok, notes)


# Ordinary capitals, NaN, +-inf, negatives, values above K_0, and (for
# K_0 = 1) the floats at and next to both duty edges.
_EDGES = [-BOUND_SLACK, math.nextafter(-BOUND_SLACK, -math.inf), 1.0 + BOUND_SLACK,
          math.nextafter(1.0 + BOUND_SLACK, math.inf), 0.0, -0.0, 1.0]
_CAPITALS = st.lists(st.one_of(
    st.floats(-2.0, 2.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(_EDGES + [math.nan, math.inf, -math.inf]),
), max_size=12)


@settings(max_examples=400, deadline=None)
@given(_CAPITALS, st.sampled_from([1.0, 0.25, 3.0]), st.booleans())
@example([], 1.0, False)
@example([0.5, math.nan, 2.0], 1.0, False)
@example([math.inf, -math.inf], 1.0, True)
@example([0.5, -0.5, -BOUND_SLACK], 1.0, False)
@example([1.5, 0.5, 1.0 + BOUND_SLACK], 1.0, False)
def test_verdict_agrees_with_the_two_pass_oracle(capitals, k0, with_proxy):
    protocol = Protocol(kind=GameKind.COIN_TOSSING, initial_capital=k0)
    move, bet = 0.5, 0.0
    trace = trace_of(protocol, [RoundRecord(move, bet, 0.0, k) for k in capitals])
    proxy = (lambda t: len(t.rounds) > 3) if with_proxy else None
    got, want = strong_compliance_verdict(trace, proxy), _verdict_oracle(trace, proxy)
    assert (got.skeptic_duty_ok, got.strong_bound_ok, got.event_proxy_ok, got.notes) == (
        want.skeptic_duty_ok, want.strong_bound_ok, want.event_proxy_ok, want.notes)
    # repr tells NaN and -0.0 apart, as == would not
    assert repr(got.sup_capital) == repr(want.sup_capital)
