"""Shared moves: a round builds no new object for a value that did not
change.  A strategy whose announcement does not depend on the round builds
its move once and announces that object every round; a counter Skeptic
announces its last bet again while the bet's bits do not change; the
geometric price script announces one move once its price underflows; and a
zero bet keeps the capital object.  The tests read the objects the players
announce and are passed, not the trace.

A trace keeps four columns, of forecasts, bets, outcomes and capitals, and
no record per round.  In the price games the columns are packed doubles, so
sharing saves an allocation per round, not trace memory; in the
mean-variance games the columns are lists, and one shared object for many
rounds is what keeps their memory down.  The bytes a trace keeps per round
are pinned here by tracemalloc.  Sharing is safe only because nothing
writes a move after it is announced, so the tests also check that the
shared objects still hold the values they were built with after a run.
"""

import dataclasses
import gc
import math
import tracemalloc
from fractions import Fraction

import pytest

from gtpsim import (
    BcCounters,
    CombinedSkeptic,
    ForecastMove,
    GameKind,
    Protocol,
    RoundRecord,
    SkepticBet,
    ZeroSkeptic,
    run_game,
)
from gtpsim.analysis import mixture_capitals
from gtpsim.scenario import (
    build_forecaster,
    build_reality,
    build_skeptic,
    coin_comply_pool,
    run_scenario,
    ufg_pool,
)
from gtpsim.skeptic import (
    ConvergentBcSkeptic,
    DivergentBcSkeptic,
    FictionalBcSkeptic,
    _CounterSkeptic,
)

HORIZON = 2000
COIN = Protocol(kind=GameKind.COIN_TOSSING)
UFG = Protocol(kind=GameKind.UNBOUNDED_FORECASTING)


def _pool(horizon: int = 60) -> dict:
    return {s.name: s for s in coin_comply_pool(horizon) + ufg_pool(horizon)}


def _with(scenario, **specs):
    """The scenario with other forecaster/skeptic specs."""
    return dataclasses.replace(
        scenario, **{f"{role}_spec": spec for role, spec in specs.items()})


# Bytes a trace keeps per round at HORIZON, at most.  A price-game round
# packs four doubles (32 B); the array over-allocation and the Trace object
# bring that to 35.0-36.4 B.  A mean-variance round keeps one slot in each
# of four lists (32 B), a new capital float when the bet is not zero, and a
# new ForecastMove in a non-constant script; the shared moves and outcomes
# cost nothing per round.
# Measured: 36.2, 36.4, 36.2, 35.0 and 33 B.  With four lists of floats a
# price game kept 81, 64, 46 and 33 B.  A RoundRecord kept per round cost
# 40 B more (121, 104, 86, 73 and 73 B), and one with a round number 76 B
# more (157, 140, 122, 109 and 109 B).  With that number, a ForecastMove
# around each price kept 213 and 152 B, a new bet after every head of the
# constant_0.3 run 176 B, a SkepticBet around each of its bets 154 B, and a
# new x float in every ufg round 133 B.
TRACE_BYTES_PER_ROUND = {
    "coin[harmonic/bc_fictional]": 38.0,
    "coin[constant_0.3/bc_convergent]": 38.0,
    "coin[geometric/zero]": 38.0,
    "coin[constant_0.3/zero]": 38.0,
    "ufg[v=1/m=0/zero]": 40.0,
}


def _kept_bytes_per_round(scenario) -> float:
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = run_scenario(scenario)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace.rounds) == scenario.horizon
    return kept / scenario.horizon


@pytest.mark.parametrize("name", sorted(TRACE_BYTES_PER_ROUND))
def test_trace_bytes_per_round_stay_below_their_bound(name):
    per_round = _kept_bytes_per_round(_pool(HORIZON)[name])
    assert per_round < TRACE_BYTES_PER_ROUND[name], per_round


def test_a_long_price_game_trace_keeps_its_doubles_alone():
    # Measured 33.5 B per round; four lists of floats kept 80.1 B.  About
    # 4 s under tracemalloc.
    per_round = _kept_bytes_per_round(_pool(100_000)["coin[harmonic/bc_fictional]"])
    assert per_round < 36.0, per_round


def _objects(moves) -> int:
    return len({id(move) for move in moves})


def _announcements(policy, method: str, calls=None) -> list:
    """The list the policy's announcements by `method` go to, round by
    round, from now on; `calls` gets each call's arguments."""
    moves, announce = [], getattr(policy, method)

    def recorded(*args):
        if calls is not None:
            calls.append(args)
        moves.append(announce(*args))
        return moves[-1]
    setattr(policy, method, recorded)
    return moves


def _play(scenario):
    """`run_scenario`, also returning the forecasts and the bets the
    scenario's players announced."""
    forecaster, skeptic = build_forecaster(scenario), build_skeptic(scenario)
    forecasts = _announcements(forecaster, "forecast")
    bets = _announcements(skeptic, "bet")
    trace = run_game(scenario.protocol, forecaster, skeptic, build_reality(scenario),
                     scenario.horizon, seed=scenario.seed)
    assert [r.forecast for r in trace.rounds] == forecasts
    assert [r.bet for r in trace.rounds] == bets
    return trace, forecasts, bets


@pytest.mark.parametrize("name, forecasts", [
    ("coin[constant_0.3/zero]", 1),
    ("ufg[v=1/m=0/zero]", 1),
    ("explicit", 3),
])
def test_a_constant_script_announces_prebuilt_forecasts(name, forecasts):
    pool = _pool()
    if name == "explicit":
        scenario = _with(pool["coin[constant_0.3/zero]"], forecaster={
            "name": "explicit", "values": [0.25, 0.5, 0.75]})
    else:
        scenario = pool[name]
    built = [build_forecaster(scenario).forecast(n) for n in range(1, 4)]
    _, moves, _ = _play(scenario)
    assert _objects(moves) == forecasts
    # round n and round n + period announce the same object
    assert all(a is b for a, b in zip(moves, moves[forecasts:]))
    assert moves[:3] == built   # the values a fresh script builds


@pytest.mark.parametrize("pool_name", [
    "coin[constant_0.3/zero]", "ufg[v=1/m=0/zero]"])
def test_the_zero_skeptic_announces_one_bet_per_run(pool_name):
    scenario = _pool()[pool_name]
    skeptic, protocol, calls = ZeroSkeptic(), scenario.protocol, []
    bets = _announcements(skeptic, "bet", calls)
    trace = run_game(protocol, build_forecaster(scenario), skeptic,
                     build_reality(scenario), 60)
    assert len(bets) == len(trace.rounds) == 60
    assert _objects(bets) == 1
    assert bets[0] is skeptic.zero_bet
    # the capital object K_0 is kept too, and passed to every bet
    assert all(k_prev is protocol.initial_capital for _, _, k_prev in calls)
    expected = 0.0 if protocol.kind.uses_price else SkepticBet(0.0, 0.0)
    assert type(skeptic.zero_bet) is type(expected) and skeptic.zero_bet == expected


def test_the_zero_skeptic_bets_the_float_zero_in_the_coin_game():
    skeptic = ZeroSkeptic()
    skeptic.reset(COIN)
    bet = skeptic.bet(1, 0.5, 1.0)
    assert type(bet) is float and bet == 0.0


def test_reset_switches_the_zero_bet_to_the_game():
    skeptic = ZeroSkeptic()
    skeptic.reset(COIN)
    assert skeptic.bet(1, 0.5, 1.0) == 0.0
    skeptic.reset(UFG)
    mv_bet = skeptic.bet(1, ForecastMove(0.0, 1.0), 1.0)
    assert mv_bet == SkepticBet(0.0, 0.0)
    skeptic.reset(COIN)
    coin_bet = skeptic.bet(1, 0.5, 1.0)
    assert type(coin_bet) is float and coin_bet == 0.0


@pytest.mark.parametrize("pool_name", [
    "coin[constant_0.3/bang_bang]", "ufg[v=1/m=0/bang_bang]"])
def test_bang_bang_announces_one_bet_per_parity(pool_name):
    scenario = _with(_pool()[pool_name], skeptic={
        "name": "bang_bang", "amplitude": 0.5, "v_amplitude": 0.25})
    with_v = not scenario.protocol.kind.uses_price
    _, _, bets = _play(scenario)
    odd, even = bets[0::2], bets[1::2]
    assert _objects(odd) == _objects(even) == 1 and odd[0] is not even[0]
    assert odd[0] == (SkepticBet(0.5, 0.0) if with_v else 0.5)
    assert even[0] == (SkepticBet(-0.5, 0.25) if with_v else -0.5)


@pytest.mark.parametrize("pool_name", [
    "coin[constant_0.3/zero]", "ufg[v=1/m=0/zero]"])
def test_single_bet_announces_its_bet_then_one_zero_bet(pool_name):
    scenario = _with(_pool()[pool_name],
                     skeptic={"name": "single_bet", "M": -0.5, "V": 0.25})
    with_v = not scenario.protocol.kind.uses_price
    skeptic = build_skeptic(scenario)
    _, _, (first, *rest) = _play(scenario)
    assert _objects(rest) == 1 and rest[0] is not first
    assert first == (SkepticBet(-0.5, 0.25) if with_v else -0.5)
    assert rest[0] == (SkepticBet(0.0, 0.0) if with_v else 0.0)
    # a fresh Skeptic, reset for the game, builds the same two bets
    skeptic.reset(scenario.protocol)
    assert (skeptic.first_bet, skeptic.zero_bet) == (first, rest[0])


# p_n = 2^-n is 0 from n = 1075 on, and the geometric script announces one
# move for all those rounds, +0.0, or -0.0 when a = -0.0.
@pytest.mark.parametrize("a, sign", [(1.0, 1.0), (-0.0, -1.0)])
def test_an_underflowed_geometric_price_is_one_move(a, sign):
    script = build_forecaster(_with(_pool()["coin[geometric/zero]"], forecaster={
        "name": "geometric", "a": a})).forecast
    moves = [script(n) for n in range(1, 1500)]
    tail = moves[1074:]
    assert _objects(tail) == 1 and tail[0] == 0.0
    assert math.copysign(1.0, tail[0]) == sign
    if a:
        assert moves[1073] == 2.0 ** -1074 and moves[1073] is not tail[0]
    assert _objects(moves[:1074]) == (1074 if a else 1)


# The counter Skeptics' bets read only the head count b and the ceiling
# index c, so each announces the float it last announced until b or c moves
# its bits.
COUNTER_SKEPTICS = {"bc_divergent": DivergentBcSkeptic,
                    "bc_convergent": ConvergentBcSkeptic,
                    "bc_fictional": FictionalBcSkeptic}


def _counters_by_round(trace) -> list:
    """The BcCounters each round's bet sees, recomputed from the trace with
    a Fraction sum: heads in the earlier rounds, and c - 1 <= sum of the
    prices up to this one < c."""
    counters, heads, total = [], 0, Fraction(0)
    for record in trace.rounds:
        total += Fraction(record.forecast)
        acc = total * (1 << 1074)
        assert acc.denominator == 1
        counters.append(BcCounters(heads, int(acc), math.floor(total) + 1))
        heads += record.x == 1.0
    return counters


def _check_announcements(cls, bets, counters):
    """Every bet is the float `cls.formula` of its counters, and a bet is
    the previous round's object exactly when its bits are unchanged."""
    assert len(bets) == len(counters) > 0
    moved = {"b": 0, "c": 0}
    for n, (bet, now) in enumerate(zip(bets, counters)):
        assert type(bet) is float and bet == cls.formula(now)
        if n:
            before = counters[n - 1]
            moved["b"] += now.b != before.b
            moved["c"] += now.c != before.c
            assert (bet is bets[n - 1]) == (bet.hex() == bets[n - 1].hex())
    assert moved["b"] and moved["c"]   # both kinds of change are exercised
    assert _objects(bets) < len(bets) / 10


@pytest.mark.parametrize("name", sorted(COUNTER_SKEPTICS))
def test_a_counter_skeptic_announces_a_new_bet_only_when_b_or_c_moves(name):
    trace, _, bets = _play(_pool(400)[f"coin[harmonic/{name}]"])
    assert len(trace.rounds) == 400
    _check_announcements(COUNTER_SKEPTICS[name], bets, _counters_by_round(trace))


def test_counter_skeptics_inside_a_combination_announce_their_own_bets():
    scenario = _pool(400)["coin[harmonic/zero]"]
    parts = [cls() for cls in COUNTER_SKEPTICS.values()]
    bets = [_announcements(part, "bet") for part in parts]
    trace = run_game(scenario.protocol, build_forecaster(scenario),
                     CombinedSkeptic([0.5, 0.25, 0.25], parts),
                     build_reality(scenario), 400)
    counters = _counters_by_round(trace)
    for cls, part_bets in zip(COUNTER_SKEPTICS.values(), bets):
        _check_announcements(cls, part_bets, counters)


class _SignedZeroSkeptic(_CounterSkeptic):
    # -0.0 after an odd number of heads, +0.0 after an even one
    formula = staticmethod(lambda counters: -0.0 if counters.b % 2 else 0.0)


def test_a_counter_skeptic_tells_a_negative_zero_bet_from_a_zero_bet():
    skeptic = _SignedZeroSkeptic()
    skeptic.reset(COIN)
    bets = [skeptic.bet(1, 0.25, 1.0)]
    for n, x in enumerate([1.0, 0.0, 1.0], 2):   # b = 1, 1, 2 in rounds 2-4
        skeptic.observe(RoundRecord(0.25, bets[-1], x, 1.0))
        bets.append(skeptic.bet(n, 0.25, 1.0))
    assert [math.copysign(1.0, bet) for bet in bets] == [1.0, -1.0, -1.0, 1.0]
    # rounds 1 and 4 may share the formula's constant 0.0, never adjacent rounds
    assert [bets[n] is bets[n - 1] for n in (1, 2, 3)] == [False, True, False]


@pytest.mark.parametrize("cls", COUNTER_SKEPTICS.values(), ids=lambda cls: cls.__name__)
def test_a_counter_skeptic_replayed_by_mixture_capitals_reannounces_its_bet(cls):
    # p_1 = 0.5 leaves c = 1, so round 1 of a replay rebuilds the bet only
    # because reset cleared it
    scenario = _with(_pool(400)["coin[harmonic/zero]"],
                     forecaster={"name": "harmonic", "a": 0.5},
                     reality={"name": "derandomized_fictional"})
    trace = run_scenario(scenario)
    skeptic = cls()
    bets = _announcements(skeptic, "bet")
    for _ in range(2):
        mixture_capitals(trace, skeptic, 1.0)
        _check_announcements(cls, bets[-len(trace.rounds):], _counters_by_round(trace))
    assert bets[len(trace.rounds)] is not bets[len(trace.rounds) - 1]
