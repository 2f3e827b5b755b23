"""Prebuilt moves: a strategy whose announcement does not depend on the round
builds its move once and announces that object every round.

The trace then holds one move object for many rounds, which is what keeps
its memory down; the bytes a trace keeps per round are pinned here by
tracemalloc.  Sharing is safe only because nothing writes a move after it
is announced, so the tests also check that the shared objects still hold
the values they were built with after a run.
"""

import dataclasses
import gc
import tracemalloc

import pytest

from gtpsim import (
    ForecastMove,
    GameKind,
    Protocol,
    SkepticBet,
    ZeroSkeptic,
    run_game,
)
from gtpsim.scenario import (
    build_forecaster,
    build_reality,
    build_skeptic,
    coin_comply_pool,
    run_scenario,
    ufg_pool,
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


# Bytes a trace keeps per round at HORIZON, at most.  Each round still
# keeps its RoundRecord and outcome and capital floats; the shared moves
# cost nothing per round (with fresh moves: 260.5 and 236.5).
TRACE_BYTES_PER_ROUND = {
    "ufg[v=1/m=0/zero]": 200.0,
    "coin[constant_0.3/zero]": 180.0,
}


@pytest.mark.parametrize("name", sorted(TRACE_BYTES_PER_ROUND))
def test_trace_bytes_per_round_stay_below_their_bound(name):
    scenario = _pool(HORIZON)[name]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = run_scenario(scenario)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace.rounds) == HORIZON
    assert kept / HORIZON < TRACE_BYTES_PER_ROUND[name], kept / HORIZON


def _objects(moves) -> int:
    return len({id(move) for move in moves})


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
    trace = run_scenario(scenario)
    moves = [r.forecast for r in trace.rounds]
    assert _objects(moves) == forecasts
    # round n and round n + period announce the same object
    assert all(a is b for a, b in zip(moves, moves[forecasts:]))
    assert moves[:3] == built   # the values a fresh script builds


@pytest.mark.parametrize("pool_name", [
    "coin[constant_0.3/zero]", "ufg[v=1/m=0/zero]"])
def test_the_zero_skeptic_announces_one_bet_per_run(pool_name):
    scenario = _pool()[pool_name]
    skeptic, protocol = ZeroSkeptic(), scenario.protocol
    trace = run_game(protocol, build_forecaster(scenario), skeptic,
                     build_reality(scenario), 60)
    assert _objects(r.bet for r in trace.rounds) == 1
    assert trace.rounds[0].bet is skeptic.zero_bet
    v = None if protocol.kind.uses_price else 0.0
    assert skeptic.zero_bet == SkepticBet(0.0, v)


def test_the_zero_skeptic_bets_in_the_coin_game_before_reset():
    bet = ZeroSkeptic().bet(1, ForecastMove(0.5), 1.0)
    assert (bet.M, bet.V) == (0.0, None)


def test_reset_switches_the_zero_bet_to_the_game():
    skeptic = ZeroSkeptic()
    skeptic.reset(COIN)
    coin_bet = skeptic.bet(1, ForecastMove(0.5), 1.0)
    assert coin_bet == SkepticBet(0.0, None)
    skeptic.reset(UFG)
    mv_bet = skeptic.bet(1, ForecastMove(None, 0.0, 1.0), 1.0)
    assert mv_bet == SkepticBet(0.0, 0.0)
    assert coin_bet == SkepticBet(0.0, None)   # the coin game's bet is untouched


@pytest.mark.parametrize("pool_name", [
    "coin[constant_0.3/bang_bang]", "ufg[v=1/m=0/bang_bang]"])
def test_bang_bang_announces_one_bet_per_parity(pool_name):
    scenario = _with(_pool()[pool_name], skeptic={
        "name": "bang_bang", "amplitude": 0.5, "v_amplitude": 0.25})
    with_v = not scenario.protocol.kind.uses_price
    trace = run_scenario(scenario)
    odd = [r.bet for r in trace.rounds if r.n % 2]
    even = [r.bet for r in trace.rounds if not r.n % 2]
    assert _objects(odd) == _objects(even) == 1 and odd[0] is not even[0]
    assert odd[0] == SkepticBet(0.5, 0.0 if with_v else None)
    assert even[0] == SkepticBet(-0.5, 0.25 if with_v else None)


@pytest.mark.parametrize("pool_name", [
    "coin[constant_0.3/zero]", "ufg[v=1/m=0/zero]"])
def test_single_bet_announces_its_bet_then_one_zero_bet(pool_name):
    scenario = _with(_pool()[pool_name],
                     skeptic={"name": "single_bet", "M": -0.5, "V": 0.25})
    with_v = not scenario.protocol.kind.uses_price
    skeptic = build_skeptic(scenario)
    trace = run_scenario(scenario)
    first, rest = trace.rounds[0].bet, [r.bet for r in trace.rounds[1:]]
    assert _objects(rest) == 1 and rest[0] is not first
    assert first == SkepticBet(-0.5, 0.25 if with_v else None)
    assert rest[0] == SkepticBet(0.0, 0.0 if with_v else None)
    # a fresh Skeptic, reset for the game, builds the same two bets
    skeptic.reset(scenario.protocol)
    assert (skeptic.first_bet, skeptic.zero_bet) == (first, rest[0])
