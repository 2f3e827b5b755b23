"""Protocol validation, capital updates, game runs, replay, combination."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtpsim import (
    CombinedSkeptic,
    ForecastMove,
    GameKind,
    InvalidMoveError,
    Protocol,
    ScriptForecaster,
    SkepticBet,
    ZeroSkeptic,
    capital_update,
    replay_verify,
    run_game,
    validate_moves,
)
from gtpsim.engine import RoundRecord, Trace
from gtpsim.hedges import power_hedge
from gtpsim.reality import ConstantReality
from gtpsim.skeptic import ConvergentBcSkeptic, DivergentBcSkeptic

from _support import ScriptBetSkeptic, ScriptReality, price_forecaster

COIN = Protocol(kind=GameKind.COIN_TOSSING)
UFG = Protocol(kind=GameKind.UNBOUNDED_FORECASTING)


# ---------------------------------------------------------------------------
# Protocol invariants
# ---------------------------------------------------------------------------

def test_general_hedge_requires_hedge():
    with pytest.raises(ValueError):
        Protocol(kind=GameKind.GENERAL_HEDGE)


def test_non_hedge_kinds_reject_hedge():
    with pytest.raises(ValueError):
        Protocol(kind=GameKind.COIN_TOSSING, hedge=power_hedge(2.0))


def test_initial_capital_must_be_positive():
    with pytest.raises(ValueError):
        Protocol(kind=GameKind.COIN_TOSSING, initial_capital=0.0)


# ---------------------------------------------------------------------------
# capital_update
# ---------------------------------------------------------------------------

def test_capital_update_mean_variance():
    k = capital_update(
        UFG, 1.0, ForecastMove(m=0.0, v=1.0), SkepticBet(M=0.0, V=1.0), 2.0
    )
    assert k == 4.0  # 1 + 1 * (4 - 1)


def test_capital_update_coin_zero_bet():
    k = capital_update(COIN, 1.0, ForecastMove(p=0.5), SkepticBet(M=0.0), 1.0)
    assert k == 1.0


def test_capital_update_general_hedge():
    protocol = Protocol(kind=GameKind.GENERAL_HEDGE, hedge=power_hedge(1.5))
    k = capital_update(
        protocol, 1.0, ForecastMove(m=0.0, v=1.0), SkepticBet(M=0.0, V=2.0),
        4.0,
    )
    assert math.isclose(k, 15.0, rel_tol=0.0, abs_tol=1e-12)  # 1 + 2 * (8 - 1)


def test_capital_update_rejects_invalid_moves():
    with pytest.raises(InvalidMoveError) as excinfo:
        capital_update(COIN, 1.0, ForecastMove(p=0.5), SkepticBet(M=1.0), 0.5)
    assert excinfo.value.role == "reality"


# ---------------------------------------------------------------------------
# validate_moves
# ---------------------------------------------------------------------------

def test_validate_coin_outcome_domain():
    v = validate_moves(COIN, ForecastMove(p=0.5), SkepticBet(M=0.0), 0.5)
    assert v is not None and v.field == "x"


def test_validate_negative_variance_bet():
    v = validate_moves(
        UFG, ForecastMove(m=0.0, v=1.0), SkepticBet(M=0.0, V=-1.0), 0.0
    )
    assert v is not None and v.field == "V"


def test_validate_unbounded_everything_legal():
    v = validate_moves(
        UFG, ForecastMove(m=-3.0, v=0.0), SkepticBet(M=7.0, V=0.0), -3.0
    )
    assert v is None


NAN, INF = math.nan, math.inf


NON_FINITE_MOVES = [
    (COIN, ForecastMove(p=NAN), SkepticBet(M=0.0), 0.0, "p"),
    (COIN, ForecastMove(p=0.5), SkepticBet(M=NAN), 0.0, "M"),
    (COIN, ForecastMove(p=0.5), SkepticBet(M=-INF), 0.0, "M"),
    (COIN, ForecastMove(p=0.5), SkepticBet(M=0.0), NAN, "x"),
    (UFG, ForecastMove(m=NAN, v=1.0), SkepticBet(M=0.0, V=0.0), 0.0, "m"),
    (UFG, ForecastMove(m=0.0, v=NAN), SkepticBet(M=0.0, V=0.0), 0.0, "v"),
    (UFG, ForecastMove(m=0.0, v=INF), SkepticBet(M=0.0, V=0.0), 0.0, "v"),
    (UFG, ForecastMove(m=0.0, v=1.0), SkepticBet(M=INF, V=0.0), 0.0, "M"),
    (UFG, ForecastMove(m=0.0, v=1.0), SkepticBet(M=0.0, V=NAN), 0.0, "V"),
    (UFG, ForecastMove(m=0.0, v=1.0), SkepticBet(M=0.0, V=0.0), INF, "x"),
    (UFG, ForecastMove(m=0.0, v=1.0), SkepticBet(M=0.0, V=0.0), -INF, "x"),
]


# Ids name each case by its index, keeping them unique and stable whatever
# the values print as.
@pytest.mark.parametrize(
    "protocol, f, s, x, field", NON_FINITE_MOVES,
    ids=[f"protocol{i}-f{i}-s{i}-x{i}-{case[-1]}"
         for i, case in enumerate(NON_FINITE_MOVES)],
)
def test_validate_rejects_non_finite_moves(protocol, f, s, x, field):
    v = validate_moves(protocol, f, s, x)
    assert v is not None and v.field == field


def test_validate_bounded_outcome_interval():
    bounded = Protocol(kind=GameKind.BOUNDED_FORECASTING)
    assert validate_moves(
        bounded, ForecastMove(p=0.5), SkepticBet(M=0.0), 0.25
    ) is None
    v = validate_moves(bounded, ForecastMove(p=0.5), SkepticBet(M=0.0), 1.5)
    assert v is not None and v.field == "x"


# ---------------------------------------------------------------------------
# run_game
# ---------------------------------------------------------------------------

def test_run_game_rejects_zero_horizon():
    with pytest.raises(ValueError):
        run_game(COIN, price_forecaster([0.5]), ZeroSkeptic(), ConstantReality(0.0), 0)


def test_zero_skeptic_capital_constant():
    trace = run_game(
        COIN, price_forecaster([0.3]), ZeroSkeptic(), ConstantReality(1.0), 100
    )
    assert len(trace.rounds) == 100
    assert all(k == 1.0 for k in trace.capitals)


def test_divergent_bet_all_tails_harmonic_prices():
    # p_n = 1/n, all tails: b stays 0, M = -1/2, gain p_n/2 per round.
    forecaster = ScriptForecaster(lambda n: ForecastMove(p=1.0 / n))
    trace = run_game(COIN, forecaster, DivergentBcSkeptic(), ConstantReality(0.0), 3)
    expected = [1.5, 1.75, 1.75 + 1.0 / 6.0]
    for k, e in zip(trace.capitals, expected):
        assert math.isclose(k, e, rel_tol=0.0, abs_tol=1e-12)


def test_run_game_flags_offending_role():
    forecaster = ScriptForecaster(lambda n: ForecastMove(p=2.0))
    with pytest.raises(InvalidMoveError) as excinfo:
        run_game(COIN, forecaster, ZeroSkeptic(), ConstantReality(0.0), 5)
    assert excinfo.value.role == "forecaster"
    assert excinfo.value.round_index == 1


def test_run_game_rejects_nan_bet_with_round_and_role():
    skeptic = ScriptBetSkeptic([0.25, math.nan])
    with pytest.raises(InvalidMoveError) as excinfo:
        run_game(COIN, price_forecaster([0.5]), skeptic, ConstantReality(0.0), 5,
                 stop_on_skeptic_fault=True)
    err = excinfo.value
    assert (err.round_index, err.role, err.violation.field) == (2, "skeptic", "M")
    assert "round 2: skeptic move invalid: M" in str(err)


def nan_capital_run(stop: bool) -> Trace:
    # Finite moves that overflow: K = 1 + (-1e200) * 1e200 + 1 * (inf - 1),
    # i.e. -inf + inf.
    return run_game(
        UFG, ScriptForecaster(lambda n: ForecastMove(m=0.0, v=1.0)),
        ScriptBetSkeptic([-1e200], [1.0]), ConstantReality(1e200), 5,
        stop_on_skeptic_fault=stop,
    )


def test_zero_v_bet_skips_the_overflowing_variance_term():
    # M = V = 0: (x - m)^2 = inf would make 0 * inf = NaN; the capital is 1.
    k = capital_update(
        UFG, 1.0, ForecastMove(m=0.0, v=1.0), SkepticBet(M=0.0, V=0.0),
        1e200,
    )
    assert k == 1.0


def test_stop_on_skeptic_fault_stops_on_nan_capital():
    assert len(nan_capital_run(stop=False).rounds) == 5
    stopped = nan_capital_run(stop=True)
    assert len(stopped.rounds) == 1
    assert math.isnan(stopped.capitals[0])


def test_stop_on_skeptic_fault_truncates():
    # M = 10 at p = 0.9 against all-tails loses 9 in round one.
    forecaster = price_forecaster([0.9])
    skeptic = ScriptBetSkeptic([10.0])
    full = run_game(COIN, forecaster, skeptic, ConstantReality(0.0), 5)
    assert len(full.rounds) == 5
    stopped = run_game(
        COIN, forecaster, skeptic, ConstantReality(0.0), 5,
        stop_on_skeptic_fault=True,
    )
    assert len(stopped.rounds) == 1
    assert stopped.capitals[0] < 0.0


# ---------------------------------------------------------------------------
# replay_verify
# ---------------------------------------------------------------------------

def test_replay_ok_on_fresh_trace():
    trace = run_game(
        COIN, price_forecaster([0.3, 0.9]), ScriptBetSkeptic([0.2, -0.4]),
        ScriptReality([1.0, 0.0]), 50,
    )
    assert replay_verify(trace) is None


def test_replay_detects_tampering():
    trace = run_game(
        COIN, price_forecaster([0.3]), ScriptBetSkeptic([0.2]),
        ScriptReality([1.0, 0.0]), 10,
    )
    bad = trace.rounds[4]
    trace.rounds[4] = RoundRecord(
        n=bad.n, forecast=bad.forecast, bet=bad.bet, x=bad.x,
        capital_after=bad.capital_after + 1.0,
    )
    assert replay_verify(trace) == 5


def test_replay_names_round_and_role_of_invalid_move():
    trace = run_game(
        COIN, price_forecaster([0.3]), ScriptBetSkeptic([0.2]),
        ScriptReality([1.0, 0.0]), 10,
    )
    bad = trace.rounds[2]
    trace.rounds[2] = RoundRecord(
        n=bad.n, forecast=bad.forecast, bet=bad.bet, x=0.5,
        capital_after=bad.capital_after,
    )
    with pytest.raises(InvalidMoveError) as excinfo:
        replay_verify(trace)
    assert (excinfo.value.round_index, excinfo.value.role) == (3, "reality")
    assert "round 3: reality move invalid: x" in str(excinfo.value)


def test_replay_empty_trace_ok():
    assert replay_verify(Trace(protocol=COIN)) is None


# ---------------------------------------------------------------------------
# CombinedSkeptic
# ---------------------------------------------------------------------------

def test_combine_single_policy_is_identity():
    single = CombinedSkeptic([1.0], [ScriptBetSkeptic([0.7, -0.2])])
    single.reset(COIN)
    f = ForecastMove(p=0.5)
    assert single.bet(1, f, 1.0).M == 0.7
    assert single.bet(2, f, 1.0).M == -0.2


def test_combine_divergent_and_convergent_first_bet():
    combo = CombinedSkeptic([0.5, 0.5], [DivergentBcSkeptic(), ConvergentBcSkeptic()])
    combo.reset(COIN)
    # b = 0 gives -1/2; p = 0.5 keeps c = 1, giving 1/4; average is -1/8.
    assert combo.bet(1, ForecastMove(p=0.5), 1.0).M == -0.125


def test_combine_with_zero_halves_bets():
    combo = CombinedSkeptic([0.5, 0.5], [ScriptBetSkeptic([0.8]), ZeroSkeptic()])
    combo.reset(COIN)
    assert combo.bet(1, ForecastMove(p=0.5), 1.0).M == 0.4


def test_combine_rejects_bad_weights():
    with pytest.raises(ValueError):
        CombinedSkeptic([0.6, 0.6], [ZeroSkeptic(), ZeroSkeptic()])
    with pytest.raises(ValueError):
        CombinedSkeptic([-0.5, 1.5], [ZeroSkeptic(), ZeroSkeptic()])
    with pytest.raises(ValueError):
        CombinedSkeptic([], [])


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

coin_rounds = st.lists(
    st.tuples(
        st.floats(0.0, 1.0, allow_nan=False),
        st.booleans(),
        st.floats(-5.0, 5.0, allow_nan=False),
        st.floats(-5.0, 5.0, allow_nan=False),
    ),
    min_size=1,
    max_size=30,
)


@settings(deadline=None)
@given(coin_rounds)
def test_capital_linearity_of_half_half_combination(rounds):
    ps = [r[0] for r in rounds]
    xs = [1.0 if r[1] else 0.0 for r in rounds]
    m1 = [r[2] for r in rounds]
    m2 = [r[3] for r in rounds]
    horizon = len(rounds)

    def play(skeptic):
        return run_game(
            COIN, price_forecaster(ps), skeptic, ScriptReality(xs), horizon
        ).capitals

    k1 = play(ScriptBetSkeptic(m1))
    k2 = play(ScriptBetSkeptic(m2))
    kc = play(CombinedSkeptic([0.5, 0.5], [ScriptBetSkeptic(m1), ScriptBetSkeptic(m2)]))
    for a, b, c in zip(k1, k2, kc):
        assert math.isclose(0.5 * (a + b), c, rel_tol=1e-12, abs_tol=1e-12)


@settings(deadline=None)
@given(coin_rounds)
def test_replay_soundness_on_random_runs(rounds):
    ps = [r[0] for r in rounds]
    xs = [1.0 if r[1] else 0.0 for r in rounds]
    ms = [r[2] for r in rounds]
    trace = run_game(
        COIN, price_forecaster(ps), ScriptBetSkeptic(ms), ScriptReality(xs),
        len(rounds),
    )
    assert replay_verify(trace) is None


@settings(deadline=None)
@given(coin_rounds)
def test_zero_bet_neutrality(rounds):
    ps = [r[0] for r in rounds]
    xs = [1.0 if r[1] else 0.0 for r in rounds]
    trace = run_game(
        COIN, price_forecaster(ps), ZeroSkeptic(), ScriptReality(xs), len(rounds)
    )
    assert all(k == 1.0 for k in trace.capitals)


# ---------------------------------------------------------------------------
# Trace records
# ---------------------------------------------------------------------------

def test_trace_records_are_slotted_unhashable_dataclasses():
    f, s = ForecastMove(0.5), SkepticBet(-1.0)
    for record in (f, s, RoundRecord(1, f, s, 1.0, 0.5)):
        assert dataclasses.is_dataclass(record)
        assert not hasattr(record, "__dict__")
        assert type(record).__slots__ == tuple(
            field.name for field in dataclasses.fields(record))
        with pytest.raises(TypeError):
            hash(record)


def test_round_record_supports_dataclasses_replace():
    record = RoundRecord(3, ForecastMove(0.5), SkepticBet(-1.0), 1.0, 0.5)
    moved = dataclasses.replace(record, capital_after=-0.5)
    assert moved == RoundRecord(3, record.forecast, record.bet, 1.0, -0.5)
    assert record.capital_after == 0.5
