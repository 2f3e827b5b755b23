"""Protocol validation, capital updates, game runs, replay, combination."""

import dataclasses
import math
import struct
from decimal import Decimal
from fractions import Fraction
from math import isfinite
from typing import Optional

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
    strong_compliance_verdict,
)
from gtpsim import analysis
from gtpsim.engine import (
    BOUND_SLACK,
    PACK_ROUNDS,
    Reality,
    RoundRecord,
    Skeptic,
    Trace,
    validate_bet as engine_validate_bet,
    validate_forecast as engine_validate_forecast,
    validate_outcome as engine_validate_outcome,
)
from gtpsim.hedges import power_hedge
from gtpsim.reality import ConstantReality
from gtpsim.skeptic import ConvergentBcSkeptic, DivergentBcSkeptic
from gtpsim.traceio import trace_from_csv_text, trace_to_csv_text

from _support import ScriptBetSkeptic, ScriptReality, play_past_faults, price_forecaster

_COIN, _BOUNDED = GameKind.COIN_TOSSING, GameKind.BOUNDED_FORECASTING
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


@pytest.mark.parametrize("k0", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_initial_capital_must_be_positive(k0):
    with pytest.raises(ValueError, match="positive and finite"):
        Protocol(kind=GameKind.COIN_TOSSING, initial_capital=k0)


# ---------------------------------------------------------------------------
# capital_update
# ---------------------------------------------------------------------------

def test_capital_update_mean_variance():
    k = capital_update(
        UFG, 1.0, ForecastMove(m=0.0, v=1.0), SkepticBet(M=0.0, V=1.0), 2.0, 1
    )
    assert k == 4.0  # 1 + 1 * (4 - 1)


def test_capital_update_coin_zero_bet():
    k = capital_update(COIN, 1.0, 0.5, 0.0, 1.0, 1)
    assert k == 1.0


def test_capital_update_general_hedge():
    protocol = Protocol(kind=GameKind.GENERAL_HEDGE, hedge=power_hedge(1.5))
    k = capital_update(
        protocol, 1.0, ForecastMove(m=0.0, v=1.0), SkepticBet(M=0.0, V=2.0),
        4.0, 1,
    )
    assert math.isclose(k, 15.0, rel_tol=0.0, abs_tol=1e-12)  # 1 + 2 * (8 - 1)


def test_capital_update_rejects_invalid_moves():
    with pytest.raises(InvalidMoveError) as excinfo:
        capital_update(COIN, 1.0, 0.5, 1.0, 0.5, 1)
    assert excinfo.value.role == "reality"


# ---------------------------------------------------------------------------
# Move validation
# ---------------------------------------------------------------------------

def _rejection(protocol, f, s, x):
    """The InvalidMoveError capital_update raises for the round's moves, or
    None when every move is in its domain."""
    try:
        capital_update(protocol, 1.0, f, s, x, 1)
    except InvalidMoveError as err:
        return err
    return None


def test_validate_coin_outcome_domain():
    err = _rejection(COIN, 0.5, 0.0, 0.5)
    assert err is not None and (err.role, err.field) == ("reality", "x")


def test_validate_negative_variance_bet():
    err = _rejection(
        UFG, ForecastMove(m=0.0, v=1.0), SkepticBet(M=0.0, V=-1.0), 0.0
    )
    assert err is not None and (err.role, err.field) == ("skeptic", "V")


def test_validate_unbounded_everything_legal():
    err = _rejection(
        UFG, ForecastMove(m=-3.0, v=0.0), SkepticBet(M=7.0, V=0.0), -3.0
    )
    assert err is None


# A price-game forecast is the price itself, a float: anything else, None
# included, is the forecaster's invalid p, at its round, never a TypeError or
# AttributeError.  In a mean-variance game a bare float is the forecaster's
# invalid m.
@pytest.mark.parametrize("protocol, forecast, field, shown", [
    (COIN, None, "p", "p must be a float, got NoneType"),
    (COIN, ForecastMove(0.5, 1.0), "p", "p must be a float, got ForecastMove"),
    (Protocol(kind=GameKind.BOUNDED_FORECASTING), 1, "p", "p must be a float, got int"),
    (UFG, 0.5, "m", "m and v required for this protocol"),
], ids=["coin-none", "coin-move", "bounded-int", "ufg-float"])
def test_a_forecast_of_the_wrong_type_is_an_invalid_move(protocol, forecast, field, shown):
    with pytest.raises(InvalidMoveError) as excinfo:
        engine_validate_forecast(protocol, forecast, 4)
    err = excinfo.value
    assert (err.round_index, err.role, err.field) == (4, "forecaster", field)
    assert err.message.startswith(shown)
    forecaster = ScriptForecaster(lambda n: forecast)
    with pytest.raises(InvalidMoveError) as excinfo:
        run_game(protocol, forecaster, ZeroSkeptic(), ConstantReality(0.0), 3)
    assert (excinfo.value.round_index, excinfo.value.field) == (1, field)


# A price-game bet is M itself, a float: anything else is the skeptic's
# invalid M.  In a mean-variance game a bare float is the skeptic's invalid
# M as well, and a bet with a None field is the invalid move of that field.
@pytest.mark.parametrize("protocol, bet, field, shown", [
    (COIN, None, "M", "M must be a float, got NoneType"),
    (COIN, SkepticBet(0.5, 1.0), "M", "M must be a float, got SkepticBet"),
    (Protocol(kind=GameKind.BOUNDED_FORECASTING), 1, "M", "M must be a float, got int"),
    (UFG, 0.5, "M", "M and V required for this protocol"),
    (UFG, SkepticBet(0.5, None), "V", "V must be a float, got NoneType"),
], ids=["coin-none", "coin-bet", "bounded-int", "ufg-float", "ufg-none-v"])
def test_a_bet_of_the_wrong_type_is_an_invalid_move(protocol, bet, field, shown):
    with pytest.raises(InvalidMoveError) as excinfo:
        engine_validate_bet(protocol, bet, 4)
    err = excinfo.value
    assert (err.round_index, err.role, err.field) == (4, "skeptic", field)
    assert err.message.startswith(shown)
    forecast = 0.5 if protocol.kind.uses_price else ForecastMove(0.0, 1.0)
    player = _MoveAtRound(1, bet, 0.0)
    with pytest.raises(InvalidMoveError) as excinfo:
        run_game(protocol, ScriptForecaster(lambda n: forecast), player, player, 3)
    err = excinfo.value
    assert (err.round_index, err.role, err.field) == (1, "skeptic", field)


NAN, INF = math.nan, math.inf


NON_FINITE_MOVES = [
    (COIN, NAN, 0.0, 0.0, "p"),
    (COIN, 0.5, NAN, 0.0, "M"),
    (COIN, 0.5, -INF, 0.0, "M"),
    (COIN, 0.5, 0.0, NAN, "x"),
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
    err = _rejection(protocol, f, s, x)
    assert err is not None and err.field == field


# An int is no float, also one beyond the float range, where isfinite would
# raise OverflowError: each mean-variance field holding one is an invalid
# move of its player.
HUGE = 10**400
HEDGE = Protocol(kind=GameKind.GENERAL_HEDGE, hedge=power_hedge(1.5))
OVERFLOWING_MOVES = {
    "m": (UFG, "forecaster", ForecastMove(m=HUGE, v=1.0)),
    "v": (UFG, "forecaster", ForecastMove(m=0.0, v=HUGE)),
    "M": (UFG, "skeptic", SkepticBet(M=-HUGE, V=0.0)),
    "V": (UFG, "skeptic", SkepticBet(M=0.0, V=HUGE)),
    "x-unbounded": (UFG, "reality", HUGE),
    "x-general_hedge": (HEDGE, "reality", -HUGE),
}
VALIDATORS = {"forecaster": engine_validate_forecast, "skeptic": engine_validate_bet,
              "reality": engine_validate_outcome}


@pytest.mark.parametrize("case", OVERFLOWING_MOVES)
def test_an_int_beyond_the_float_range_is_an_invalid_move(case):
    protocol, role, move = OVERFLOWING_MOVES[case]
    field = case[0]
    with pytest.raises(InvalidMoveError) as direct:
        VALIDATORS[role](protocol, move, 3)
    # Python-built players announcing the move in round 3 of 5
    f, bet, x = ForecastMove(0.0, 1.0), SkepticBet(0.0, 0.0), 0.0
    f, bet, x = {"forecaster": (move, bet, x), "skeptic": (f, move, x),
                 "reality": (f, bet, move)}[role]
    forecaster = ScriptForecaster(lambda n: f if n == 3 else ForecastMove(0.0, 1.0))
    skeptic = ScriptBetSkeptic([0.0, 0.0, bet.M], [0.0, 0.0, bet.V])
    with pytest.raises(InvalidMoveError) as played:
        run_game(protocol, forecaster, skeptic, ScriptReality([0.0, 0.0, x]), 5)
    for err in (direct.value, played.value):
        assert (err.round_index, err.role, err.field) == (3, role, field)
        assert err.message == f"{field} must be a float, got int"


ALL_GAMES = [COIN, Protocol(kind=GameKind.BOUNDED_FORECASTING), UFG,
             Protocol(kind=GameKind.GENERAL_HEDGE, hedge=power_hedge(1.5))]
# In-domain values often, and any float (NaN, infinities and huge values
# included) otherwise.
ANY_FLOAT = st.one_of(st.sampled_from([0.0, 0.5, 1.0, -1.0]), st.floats())
ANY_FIELD = st.one_of(st.none(), ANY_FLOAT)


# The oracle: the three validators as they were when each returned a
# Violation (or None) and `_ROLE_OF_FIELD` named the player of its field,
# with a price-game bet the float M, a mean-variance one a pair (M, V), and
# every field a float: a None field is no float.
@dataclasses.dataclass(frozen=True)
class Violation:
    field: str
    message: str


def _not_finite(name: str, value: float) -> Violation:
    return Violation(name, f"{name} = {value} is not finite")


def _field_violation(name: str, value) -> Optional[Violation]:
    """A None field is no float; a float field must be finite."""
    if value is None:
        return Violation(name, f"{name} must be a float, got NoneType")
    return None if isfinite(value) else _not_finite(name, value)


def validate_forecast(protocol: Protocol, f) -> Optional[Violation]:
    if protocol.kind.uses_price:
        if f is None:
            return Violation("p", "p must be a float, got NoneType")
        if not 0.0 <= f <= 1.0:
            return Violation("p", f"p = {f} outside [0, 1]")
        return None
    violation = _field_violation("m", f.m) or _field_violation("v", f.v)
    if violation is None and f.v < 0.0:
        return Violation("v", f"v = {f.v} violates v >= 0")
    return violation


def validate_bet(protocol: Protocol, s) -> Optional[Violation]:
    if protocol.kind.uses_price:
        return _field_violation("M", s)
    violation = _field_violation("M", s.M) or _field_violation("V", s.V)
    if violation is None and s.V < 0.0:
        return Violation("V", f"V = {s.V} violates V >= 0")
    return violation


def validate_outcome(protocol: Protocol, x: float) -> Optional[Violation]:
    kind = protocol.kind
    if kind is _COIN:
        if x not in (0.0, 1.0):
            return Violation("x", f"x = {x} outside {{0, 1}}")
    elif kind is _BOUNDED:
        if not 0.0 <= x <= 1.0:
            return Violation("x", f"x = {x} outside [0, 1]")
    elif not isfinite(x):
        return _not_finite("x", x)
    return None


_ROLE_OF_FIELD = {
    "p": "forecaster", "m": "forecaster", "v": "forecaster",
    "M": "skeptic", "V": "skeptic",
    "x": "reality",
}


class _MoveAtRound(Skeptic, Reality):
    """Plays a legal zero bet and outcome before round n, and the given bet
    and outcome in it."""

    def __init__(self, n, s, x):
        self.n, self.s, self.x = n, s, x

    def bet(self, k, forecast, k_prev):
        return self.s if k == self.n else SkepticBet(0.0, 0.0) if self.with_v else 0.0

    def outcome(self, k, forecast, bet, k_prev):
        return self.x if k == self.n else 0.0


def _oracle(n, violation):
    """(round, role, field, message, text) of the error the oracle expects
    at round n, or None."""
    if violation is None:
        return None
    role = _ROLE_OF_FIELD[violation.field]
    return (n, role, violation.field, violation.message,
            f"round {n}: {role} move invalid: {violation.field}: {violation.message}")


def _raised(call):
    """(round, role, field, message, text) of the InvalidMoveError `call`
    raises, or None."""
    try:
        call()
    except InvalidMoveError as err:
        return err.round_index, err.role, err.field, err.message, str(err)
    return None


# Every move the oracle rejects, capital_update rejects at the round it is
# given and run_game at the round it is played, with the same role, field
# and text.
@settings(max_examples=500, deadline=None)
@given(st.sampled_from(ALL_GAMES), ANY_FIELD, ANY_FIELD, ANY_FIELD, ANY_FLOAT,
       ANY_FIELD, ANY_FLOAT, st.integers(1, 3))
def test_validators_raise_the_role_field_and_message_of_the_oracle(
        protocol, p, m, v, M, V, x, n):
    f, s = (p, M) if protocol.kind.uses_price else (ForecastMove(m, v), SkepticBet(M, V))
    violation = (validate_forecast(protocol, f) or validate_bet(protocol, s)
                 or validate_outcome(protocol, x))
    assert _raised(lambda: capital_update(protocol, 1.0, f, s, x, n)) == _oracle(n, violation)
    legal = 0.5 if protocol.kind.uses_price else ForecastMove(0.0, 1.0)
    forecaster = ScriptForecaster(lambda k: f if k == n else legal)
    player = _MoveAtRound(n, s, x)
    err = _raised(lambda: run_game(protocol, forecaster, player, player, n))
    assert err == _oracle(n, violation)


LONG = 10**5000  # past sys.get_int_max_str_digits(): str() raises ValueError
SNAN = Decimal("sNaN")  # a comparison raises InvalidOperation, isfinite ValueError
BOUNDED = Protocol(kind=GameKind.BOUNDED_FORECASTING)
# Moves no domain check could read: the class test comes first and names the
# type, so no check raises TypeError, ValueError or InvalidOperation.
UNREADABLE_MOVES = {
    "m-str": (UFG, "forecaster", ForecastMove("0", 1.0), "m", "m must be a float, got str"),
    "m-complex": (UFG, "forecaster", ForecastMove(1j, 1.0), "m",
                  "m must be a float, got complex"),
    "v-snan": (UFG, "forecaster", ForecastMove(0.0, SNAN), "v", "v must be a float, got Decimal"),
    "p-long": (COIN, "forecaster", LONG, "p", "p must be a float, got int"),
    "M-long": (BOUNDED, "skeptic", LONG, "M", "M must be a float, got int"),
    "V-snan": (UFG, "skeptic", SkepticBet(0.0, SNAN), "V", "V must be a float, got Decimal"),
    "x-str-unbounded": (UFG, "reality", "0", "x", "x must be a float, got str"),
    "x-str-bounded": (BOUNDED, "reality", "0", "x", "x must be a float, got str"),
    "x-none-bounded": (BOUNDED, "reality", None, "x", "x must be a float, got NoneType"),
    "x-snan-bounded": (BOUNDED, "reality", SNAN, "x", "x must be a float, got Decimal"),
    "x-snan-coin": (COIN, "reality", SNAN, "x", "x must be a float, got Decimal"),
    "x-long-coin": (COIN, "reality", LONG, "x", "x must be a float, got int"),
    "x-long-bounded": (BOUNDED, "reality", LONG, "x", "x must be a float, got int"),
}


def _play_at_round_3(protocol, role, move):
    """Play 5 rounds with Python-built players: legal moves and a zero bet,
    and `move` as `role`'s move in round 3."""
    legal = 0.5 if protocol.kind.uses_price else ForecastMove(0.0, 1.0)
    zero = 0.0 if protocol.kind.uses_price else SkepticBet(0.0, 0.0)
    forecaster = ScriptForecaster(
        lambda n: move if (role, n) == ("forecaster", 3) else legal)
    player = _MoveAtRound(3, move if role == "skeptic" else zero,
                          move if role == "reality" else 0.0)
    return run_game(protocol, forecaster, player, player, 5)


@pytest.mark.parametrize("case", UNREADABLE_MOVES)
def test_a_move_no_check_can_read_is_an_invalid_move(case):
    protocol, role, move, field, message = UNREADABLE_MOVES[case]
    with pytest.raises(InvalidMoveError) as direct:
        VALIDATORS[role](protocol, move, 3)
    with pytest.raises(InvalidMoveError) as played:
        _play_at_round_3(protocol, role, move)
    for err in (direct.value, played.value):
        assert (err.round_index, err.role, err.field, err.message) == (3, role, field, message)


# A Decimal x would pass each game's domain check, since it compares with
# floats and isfinite reads it, but `x - f` raises TypeError for a float f.
# The same value as a float is a valid move.
@pytest.mark.parametrize("protocol, value", list(zip(ALL_GAMES, (1, 0.5, 0.5, 0.5))),
                         ids=["coin", "bounded", "ufg", "hedge"])
def test_a_decimal_x_is_an_invalid_move(protocol, value):
    x = Decimal(value)
    with pytest.raises(InvalidMoveError) as direct:
        engine_validate_outcome(protocol, x, 3)
    with pytest.raises(InvalidMoveError) as played:
        _play_at_round_3(protocol, "reality", x)
    for err in (direct.value, played.value):
        assert (err.round_index, err.role, err.field, err.message) == (
            3, "reality", "x", "x must be a float, got Decimal")
    x = float(value)
    assert engine_validate_outcome(protocol, x, 3) is None
    played = _play_at_round_3(protocol, "reality", x).rounds[2].x
    if protocol.kind.uses_price:   # a packed x reads back as its bits
        assert played.hex() == x.hex()
    else:
        assert played is x


# Each move field of each game is a float.  A number of another type, even
# one in the field's domain, is its player's invalid move at its round: never
# a TypeError from the capital update, and never played.
FIELD_MOVES = {
    "m": (UFG, "forecaster", lambda value: ForecastMove(value, 1.0)),
    "v": (UFG, "forecaster", lambda value: ForecastMove(0.0, value)),
    "M": (UFG, "skeptic", lambda value: SkepticBet(value, 0.0)),
    "V": (UFG, "skeptic", lambda value: SkepticBet(0.0, value)),
    "p-coin": (COIN, "forecaster", lambda value: value),
    "M-bounded": (BOUNDED, "skeptic", lambda value: value),
}


@pytest.mark.parametrize("value", [Decimal("1"), Fraction(1, 2), 1, True],
                         ids=["decimal", "fraction", "int", "bool"])
@pytest.mark.parametrize("case", FIELD_MOVES)
def test_a_field_of_a_number_type_other_than_float_is_an_invalid_move(case, value):
    protocol, role, build = FIELD_MOVES[case]
    move, field = build(value), case.split("-")[0]
    message = f"{field} must be a float, got {type(value).__name__}"
    expected = (3, role, field, message, f"round 3: {role} move invalid: {field}: {message}")
    legal = 0.5 if protocol.kind.uses_price else ForecastMove(0.0, 1.0)
    zero = 0.0 if protocol.kind.uses_price else SkepticBet(0.0, 0.0)
    f, s = (move, zero) if role == "forecaster" else (legal, move)
    assert _raised(lambda: VALIDATORS[role](protocol, move, 3)) == expected
    assert _raised(lambda: capital_update(protocol, 1.0, f, s, 0.0, 3)) == expected
    assert _raised(lambda: _play_at_round_3(protocol, role, move)) == expected


def test_an_invalid_move_error_from_a_player_reaches_the_caller_as_raised():
    raised = InvalidMoveError(9, "forecaster", "p", "raised by the Reality itself")

    class RaisingReality(Reality):
        def outcome(self, n, forecast, bet, k_prev):
            if n == 3:
                raise raised
            return 0.0

    with pytest.raises(InvalidMoveError) as excinfo:
        run_game(COIN, price_forecaster([0.5]), ZeroSkeptic(), RaisingReality(), 5)
    assert excinfo.value is raised
    assert (raised.round_index, raised.role, raised.field) == (9, "forecaster", "p")
    assert str(raised) == ("round 9: forecaster move invalid: p:"
                           " raised by the Reality itself")


def _update_before_zero_bets_kept_k(protocol, k_prev, f, s, x):
    """capital_update's formula before a zero bet returned k_prev itself:
    the oracle of the two tests below."""
    if protocol.kind.uses_price:
        return k_prev + s * (x - f)
    centered = x - f.m
    k = k_prev + s.M * centered
    if s.V == 0.0:
        return k
    if protocol.kind is GameKind.UNBOUNDED_FORECASTING:
        return k + s.V * (centered * centered - f.v)
    return k + s.V * (protocol.hedge.forward(centered) - f.v)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NONNEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
_ZERO = st.sampled_from([0.0, -0.0])


@st.composite
def _valid_rounds(draw):
    """(protocol, f, s, x): moves every validator accepts, in one of the four
    games, with a zero M (and V) often."""
    protocol = draw(st.sampled_from(ALL_GAMES))
    M = draw(st.one_of(_ZERO, _FINITE))
    if protocol.kind.uses_price:
        f = draw(st.floats(0.0, 1.0))
        outcomes = (st.sampled_from([0.0, 1.0]) if protocol.kind is GameKind.COIN_TOSSING
                    else st.floats(0.0, 1.0))
        return protocol, f, M, draw(outcomes)
    f = ForecastMove(draw(_FINITE), draw(_NONNEGATIVE))
    return protocol, f, SkepticBet(M, draw(st.one_of(_ZERO, _NONNEGATIVE))), draw(_FINITE)


def _bits(k: float) -> bytes:
    return struct.pack(">d", k)


# K_0 > 0 and a sum that is exactly 0 is +0.0, so no capital is -0.0.
_CAPITALS = st.floats().filter(lambda k: k != 0.0 or math.copysign(1.0, k) > 0.0)


@settings(max_examples=1000, deadline=None)
@given(_valid_rounds(), _CAPITALS)
def test_a_zero_bet_keeps_the_capital_object(round_, k_prev):
    protocol, f, s, x = round_
    oracle = _update_before_zero_bets_kept_k(protocol, k_prev, f, s, x)
    k = capital_update(protocol, k_prev, f, s, x, 1)
    if (s == 0.0) if protocol.kind.uses_price else (s.M == 0.0 and s.V == 0.0):
        assert k is k_prev
    if math.isnan(oracle):
        assert math.isnan(k) or k is k_prev
    else:
        assert _bits(k) == _bits(oracle)


@pytest.mark.parametrize("protocol", ALL_GAMES[2:], ids=["ufg", "hedge"])
def test_a_zero_bet_keeps_k_where_x_minus_m_overflows(protocol):
    # x - m = inf, so the old update added 0 * inf = NaN; a zero M and V
    # now keep K, as a zero V already kept K + M * (x - m).
    f, s = ForecastMove(-1e308, 1.0), SkepticBet(0.0, 0.0)
    assert math.isnan(_update_before_zero_bets_kept_k(protocol, 1.0, f, s, 1e308))
    k_prev = 0.75
    assert capital_update(protocol, k_prev, f, s, 1e308, 1) is k_prev


def test_validate_bounded_outcome_interval():
    bounded = Protocol(kind=GameKind.BOUNDED_FORECASTING)
    assert _rejection(bounded, 0.5, 0.0, 0.25) is None
    err = _rejection(bounded, 0.5, 0.0, 1.5)
    assert err is not None and (err.role, err.field) == ("reality", "x")


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
    forecaster = ScriptForecaster(lambda n: 1.0 / n)
    trace = run_game(COIN, forecaster, DivergentBcSkeptic(), ConstantReality(0.0), 3)
    expected = [1.5, 1.75, 1.75 + 1.0 / 6.0]
    for k, e in zip(trace.capitals, expected):
        assert math.isclose(k, e, rel_tol=0.0, abs_tol=1e-12)


def test_run_game_flags_offending_role():
    forecaster = ScriptForecaster(lambda n: 2.0)
    with pytest.raises(InvalidMoveError) as excinfo:
        run_game(COIN, forecaster, ZeroSkeptic(), ConstantReality(0.0), 5)
    assert excinfo.value.role == "forecaster"
    assert excinfo.value.round_index == 1


def test_run_game_rejects_nan_bet_with_round_and_role():
    skeptic = ScriptBetSkeptic([0.25, math.nan])
    with pytest.raises(InvalidMoveError) as excinfo:
        run_game(COIN, price_forecaster([0.5]), skeptic, ConstantReality(0.0), 5)
    err = excinfo.value
    assert (err.round_index, err.role, err.field) == (2, "skeptic", "M")
    assert "round 2: skeptic move invalid: M" in str(err)


def nan_capital_run(play) -> Trace:
    # Finite moves that overflow: K = 1 + (-1e200) * 1e200 + 1 * (inf - 1),
    # i.e. -inf + inf.
    return play(
        UFG, ScriptForecaster(lambda n: ForecastMove(m=0.0, v=1.0)),
        ScriptBetSkeptic([-1e200], [1.0]), ConstantReality(1e200), 5,
    )


def test_zero_v_bet_skips_the_overflowing_variance_term():
    # M = V = 0: (x - m)^2 = inf would make 0 * inf = NaN; the capital is 1.
    k = capital_update(
        UFG, 1.0, ForecastMove(m=0.0, v=1.0), SkepticBet(M=0.0, V=0.0),
        1e200, 1,
    )
    assert k == 1.0


# run_game ends a run after the first round whose capital breaks Skeptic's
# duty; `play_past_faults` plays the same moves to the horizon.
def test_stop_on_skeptic_fault_stops_on_nan_capital():
    assert len(nan_capital_run(play_past_faults).rounds) == 5
    stopped = nan_capital_run(run_game)
    assert len(stopped.rounds) == 1
    assert math.isnan(stopped.capitals[0])


def test_stop_on_skeptic_fault_truncates():
    # M = 10 at p = 0.9 against all-tails loses 9 in round one.
    forecaster = price_forecaster([0.9])
    skeptic = ScriptBetSkeptic([10.0])
    full = play_past_faults(COIN, forecaster, skeptic, ConstantReality(0.0), 5)
    assert len(full.rounds) == 5
    stopped = run_game(COIN, forecaster, skeptic, ConstantReality(0.0), 5)
    assert len(stopped.rounds) == 1
    assert stopped.capitals[0] < 0.0


# run_game packs its rounds every PACK_ROUNDS rounds: a run stops at its
# fault in any pack, at a pack's last round or first, and keeps every
# round before it bit for bit.
@pytest.mark.parametrize("fault", [
    PACK_ROUNDS, PACK_ROUNDS + 1, 2 * PACK_ROUNDS + 7, None])
def test_a_run_across_packs_keeps_every_round_and_stops_at_its_fault(fault):
    horizon = 3 * PACK_ROUNDS + 5
    # Small bets of alternating sign move the capital every round; a bet
    # of 4 at p = 0.5 against the outcome takes it below 0.
    xs = [0.0, 1.0, 1.0, 0.0, 0.0]
    bets = [1e-3 * (-1) ** n for n in range(horizon)]
    if fault is not None:
        bets[fault - 1] = 4.0 if xs[(fault - 1) % len(xs)] == 0.0 else -4.0
    players = (COIN, price_forecaster([0.5]), ScriptBetSkeptic(bets),
               ScriptReality(xs), horizon)
    trace, full = run_game(*players), play_past_faults(*players)
    played = fault or horizon
    assert len(trace.rounds) == played
    assert [c[:played].tobytes() for c in full.columns] == [c.tobytes() for c in trace.columns]
    assert replay_verify(trace) is None


@pytest.mark.parametrize("k0", [1.0, 3.0])
def test_run_and_verdict_share_the_duty_slack_edge(k0):
    # Round 1 loses all of K_0 (M = 2 K_0 at p = 1/2, tails); round 2 bets
    # M = 1 on tails at price t, so K_2 = -t exactly.  t = slack * K_0 keeps
    # the duty and the run plays on; the next float above t breaks it.
    assert analysis.BOUND_SLACK is BOUND_SLACK
    edge = BOUND_SLACK * k0
    protocol = Protocol(kind=GameKind.COIN_TOSSING, initial_capital=k0)
    skeptic = ScriptBetSkeptic([2.0 * k0, 1.0, 0.0])
    for t, kept in ((edge, True), (math.nextafter(edge, 1.0), False)):
        trace = run_game(protocol, price_forecaster([0.5, t, 0.5]), skeptic,
                         ConstantReality(0.0), 3)
        assert list(trace.capitals[:2]) == [0.0, -t]
        assert len(trace.rounds) == (3 if kept else 2)
        verdict = strong_compliance_verdict(trace)
        assert verdict.skeptic_duty_ok is kept
        assert verdict.notes == ([] if kept else
                                 ["skeptic capital went negative at round 2"])


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
        forecast=bad.forecast, bet=bad.bet, x=bad.x,
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
        forecast=bad.forecast, bet=bad.bet, x=0.5,
        capital_after=bad.capital_after,
    )
    with pytest.raises(InvalidMoveError) as excinfo:
        replay_verify(trace)
    assert (excinfo.value.round_index, excinfo.value.role) == (3, "reality")
    assert "round 3: reality move invalid: x" in str(excinfo.value)


def test_every_report_of_an_invalid_recorded_move_names_its_round():
    trace = run_game(
        COIN, price_forecaster([0.3]), ScriptBetSkeptic([0.2]),
        ScriptReality([1.0, 0.0]), 10,
    )
    bad = trace.rounds[1]
    trace.rounds[1] = RoundRecord(bad.forecast, bad.bet, 0.5, bad.capital_after)
    message = "x = 0.5 outside {0, 1}"
    expected = (2, "reality", "x", message, f"round 2: reality move invalid: x: {message}")
    assert _raised(lambda: replay_verify(trace)) == expected
    assert _raised(lambda: analysis.mixture_capitals(trace, ZeroSkeptic(), 1.0)) == expected
    assert _raised(lambda: capital_update(COIN, 1.0, bad.forecast, bad.bet, 0.5, 2)) == expected


def test_replay_empty_trace_ok():
    assert replay_verify(Trace(protocol=COIN)) is None


# ---------------------------------------------------------------------------
# CombinedSkeptic
# ---------------------------------------------------------------------------

def test_combine_single_policy_is_identity():
    single = CombinedSkeptic([1.0], [ScriptBetSkeptic([0.7, -0.2])])
    single.reset(COIN)
    f = 0.5
    assert single.bet(1, f, 1.0) == 0.7
    assert single.bet(2, f, 1.0) == -0.2


def test_combine_divergent_and_convergent_first_bet():
    combo = CombinedSkeptic([0.5, 0.5], [DivergentBcSkeptic(), ConvergentBcSkeptic()])
    combo.reset(COIN)
    # b = 0 gives -1/2; p = 0.5 keeps c = 1, giving 1/4; average is -1/8.
    assert combo.bet(1, 0.5, 1.0) == -0.125


def test_combine_with_zero_halves_bets():
    combo = CombinedSkeptic([0.5, 0.5], [ScriptBetSkeptic([0.8]), ZeroSkeptic()])
    combo.reset(COIN)
    assert combo.bet(1, 0.5, 1.0) == 0.4


class _FractionSkeptic(Skeptic):
    """Bets a fixed fraction of the capital it is given."""

    def __init__(self, fraction):
        self.fraction = fraction

    def bet(self, n, forecast, k_prev):
        return self.fraction * k_prev


def test_combine_bets_each_part_from_its_own_capital():
    def play(skeptic):
        return list(run_game(COIN, price_forecaster([0.5]), skeptic,
                             ConstantReality(1.0), 5).capitals)

    up, down = play(_FractionSkeptic(0.5)), play(_FractionSkeptic(-0.5))
    combined = play(CombinedSkeptic([0.5, 0.5], [_FractionSkeptic(0.5),
                                                 _FractionSkeptic(-0.5)]))
    assert combined == [0.5 * (a + b) for a, b in zip(up, down)]
    assert [round(k, 4) for k in combined] == [1.0, 1.0625, 1.1875, 1.3789, 1.6445]


def test_combine_rejects_bad_weights():
    with pytest.raises(ValueError):
        CombinedSkeptic([0.6, 0.6], [ZeroSkeptic(), ZeroSkeptic()])
    with pytest.raises(ValueError):
        CombinedSkeptic([-0.5, 1.5], [ZeroSkeptic(), ZeroSkeptic()])
    with pytest.raises(ValueError):
        CombinedSkeptic([], [])


@pytest.mark.parametrize("weights", [[math.nan, 1.0], [1.0, math.nan], [math.nan] * 2])
def test_combine_rejects_a_nan_weight(weights):
    with pytest.raises(ValueError):
        CombinedSkeptic(weights, [ZeroSkeptic(), ZeroSkeptic()])


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

    # Capitals are linear in the bets on every round, a Skeptic's fault or not.
    def play(skeptic):
        return play_past_faults(
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
    # Bets up to 5 often break the Skeptic's duty, where run_game stops; the
    # same moves played to the drawn horizon replay too, and run_game's
    # rounds are their first rounds, bit for bit.
    full = play_past_faults(
        COIN, price_forecaster(ps), ScriptBetSkeptic(ms), ScriptReality(xs),
        len(rounds),
    )
    assert len(full.rounds) == len(rounds)
    assert replay_verify(full) is None
    played = len(trace.rounds)
    assert [c[:played].tobytes() for c in full.columns] == [c.tobytes() for c in trace.columns]


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
    f, s = ForecastMove(0.0, 1.0), SkepticBet(-1.0, 0.0)
    for record in (f, s, RoundRecord(f, s, 1.0, 0.5)):
        assert dataclasses.is_dataclass(record)
        assert not hasattr(record, "__dict__")
        assert type(record).__slots__ == tuple(
            field.name for field in dataclasses.fields(record))
        with pytest.raises(TypeError):
            hash(record)
    assert tuple(field.name for field in dataclasses.fields(RoundRecord)) == (
        "forecast", "bet", "x", "capital_after")


def test_trace_rounds_read_as_records_and_take_a_written_record():
    trace = run_game(
        COIN, price_forecaster([0.3, 0.9]), ScriptBetSkeptic([0.2, -0.4]),
        ScriptReality([1.0, 0.0, 0.0]), 200,
    )
    records = list(trace.rounds)
    assert len(trace.rounds) == len(records) == 200
    assert [r.capital_after for r in records] == list(trace.capitals)
    for i in (0, 100, 199, -1, -200):
        assert trace.rounds[i] == records[i]
    for i in (200, -201):
        with pytest.raises(IndexError):
            trace.rounds[i]
    for part in (slice(10, 20), slice(None, None, -3), slice(1, None, 2), slice(300, None)):
        assert trace.rounds[part] == records[part]
    assert trace.rounds == records
    assert trace_from_csv_text(trace_to_csv_text(trace), COIN).rounds == trace.rounds
    text = trace_to_csv_text(trace)
    record = trace.rounds[100]
    trace.rounds[100] = dataclasses.replace(record, capital_after=-record.capital_after)
    assert trace.rounds[100] == dataclasses.replace(record, capital_after=-record.capital_after)
    assert trace.capitals[100] == -record.capital_after
    assert trace.rounds != records
    assert replay_verify(trace) == 101
    assert trace_to_csv_text(trace) != text
    last = trace.rounds[-1]
    trace.rounds[-1] = dataclasses.replace(last, x=1.0 - last.x)
    assert trace.rounds[199].x == 1.0 - last.x
    assert trace.rounds[:100] == records[:100]


def test_round_record_supports_dataclasses_replace():
    record = RoundRecord(0.5, -1.0, 1.0, 0.5)
    moved = dataclasses.replace(record, capital_after=-0.5)
    assert moved == RoundRecord(record.forecast, record.bet, 1.0, -0.5)
    assert record.capital_after == 0.5
