"""`run_game` calls a player's observe only when it does something.

The observers are chosen once per run, after the resets: a player whose
bound observe is the inherited no-op `Policy.observe` is skipped, and every
other one (an override on the class, a function set on the class after it
was built, or one set on the instance) is called once per round, in player
order, with a record of the round just played.
"""

import hashlib
import struct
import sys

from gtpsim import (
    CombinedSkeptic,
    GameKind,
    Protocol,
    ScriptForecaster,
    ZeroSkeptic,
    run_game,
)
from gtpsim.engine import gc_paused
from gtpsim.reality import BcComplyReality, ConstantReality
from gtpsim.skeptic import (
    ConvergentBcSkeptic,
    DivergentBcSkeptic,
    FictionalBcSkeptic,
    _CounterSkeptic,
)

from _support import derandomizer, price_forecaster

COIN = Protocol(kind=GameKind.COIN_TOSSING)
HORIZON = 300

# SHA-256 of the packed (x, K) doubles of the two counter-Skeptic runs below,
# recorded before run_game skipped the no-op observers.
RECORDED = {
    "combined": "07e08e2d8ab32a2e4da4099ffbbbdd47b864e426957251dbeb70e09bf8ce93d5",
    "divergent": "912cee4c429c370e7af003d208b36df1d43ece10fe564a50837c3383d510272c",
}


def _harmonic() -> ScriptForecaster:
    return ScriptForecaster(lambda n: 1.0 / (n + 1))


def _digest(trace) -> str:
    digest = hashlib.sha256()
    for record in trace.rounds:
        digest.update(struct.pack(">dd", record.x, record.capital_after))
    return digest.hexdigest()


def _same(seen, trace, times: int = 1) -> bool:
    """Each record seen holds the bits of the trace's four packed floats,
    round by round, each round seen `times` times in a row."""
    rounds = [struct.pack("4d", *fields) for fields in zip(*trace.columns)
              for _ in range(times)]
    return len(seen) == len(rounds) and all(
        struct.pack("4d", r.forecast, r.bet, r.x, r.capital_after) == fields
        for r, fields in zip(seen, rounds))


def _play_observed(players, codes) -> tuple:
    """(trace, {code object: the record passed to each call of it, in
    order}, calls of any function named observe)."""
    seen = {code: [] for code in codes}
    observe_calls = 0

    def profile(frame, event, arg):
        nonlocal observe_calls
        if event != "call":
            return
        code = frame.f_code
        if code.co_name == "observe":
            observe_calls += 1
        if code in seen:
            seen[code].append(frame.f_locals["record"])

    with gc_paused():
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            trace = run_game(COIN, *players, HORIZON)
        finally:
            sys.setprofile(previous)
    return trace, seen, observe_calls


def test_a_run_without_an_observer_makes_no_observe_frame():
    players = (price_forecaster([0.3]), ZeroSkeptic(), ConstantReality(1.0))
    trace, _, observe_calls = _play_observed(players, ())
    assert len(trace.rounds) == HORIZON
    assert observe_calls == 0


def test_combined_counter_skeptics_see_every_record_in_order():
    parts = [DivergentBcSkeptic(), ConvergentBcSkeptic(), FictionalBcSkeptic()]
    combined = CombinedSkeptic([0.25, 0.25, 0.5], parts)
    counter_code = _CounterSkeptic.observe.__code__
    combined_code = CombinedSkeptic.observe.__code__
    trace, seen, observe_calls = _play_observed(
        (_harmonic(), combined, derandomizer()), (counter_code, combined_code))
    assert len(trace.rounds) == HORIZON
    assert _same(seen[combined_code], trace)
    # each round, once per part, before the next one
    assert _same(seen[counter_code], trace, len(parts))
    assert observe_calls == 4 * HORIZON
    heads = sum(r.x == 1.0 for r in trace.rounds)
    assert [p.counters.b for p in parts] == [heads] * 3
    assert _digest(trace) == RECORDED["combined"]


def test_a_lone_counter_skeptic_sees_every_record_in_order():
    skeptic = DivergentBcSkeptic()
    counter_code = _CounterSkeptic.observe.__code__
    trace, seen, observe_calls = _play_observed(
        (_harmonic(), skeptic, BcComplyReality()), (counter_code,))
    assert _same(seen[counter_code], trace)
    assert observe_calls == HORIZON
    assert skeptic.counters.b == sum(r.x == 1.0 for r in trace.rounds)
    assert _digest(trace) == RECORDED["divergent"]


def test_an_observe_set_on_the_class_after_it_is_built_is_called():
    class LateSkeptic(ZeroSkeptic):
        pass

    seen = []
    LateSkeptic.observe = lambda self, record: seen.append(record)
    trace = run_game(COIN, price_forecaster([0.3]), LateSkeptic(),
                     ConstantReality(0.0), HORIZON)
    assert len(trace.rounds) == HORIZON and _same(seen, trace)


def test_an_observe_set_on_the_instance_is_called():
    forecaster, reality = price_forecaster([0.3]), ConstantReality(1.0)
    seen = []
    forecaster.observe = lambda record: seen.append(("forecaster", record))
    reality.observe = lambda record: seen.append(("reality", record))
    trace = run_game(COIN, forecaster, ZeroSkeptic(), reality, HORIZON)
    assert [role for role, _ in seen] == ["forecaster", "reality"] * HORIZON
    assert _same([r for _, r in seen], trace, 2)
