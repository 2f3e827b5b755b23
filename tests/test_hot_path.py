"""The per-round hot path, pinned by count rather than by time.

Each round of `run_game` makes a fixed number of Python-level calls (frames:
policy methods, scripts, step functions, validators, dataclass __init__s).
`sys.setprofile` counts them exactly and the count repeats run to run, so a
one-line helper frame that creeps back into every round fails here even on
a host too noisy to time it.  The step values built on that path must keep
their NamedTuple types, and the functions on it must not look up an Enum
member (`GameKind.X`), which costs ten times a module global.
"""

import dataclasses
import dis
import enum
import gc
import inspect
import sys

import pytest

from gtpsim import (
    BcComplyState,
    BcCounters,
    ForecastMove,
    MvComplyState,
    SkepticBet,
    bc_comply_step,
    ceiling_index_update,
    mv_comply_step,
    run_game,
)
from gtpsim import engine, reality, skeptic
from gtpsim.engine import RoundRecord, gc_paused
from gtpsim.hedges import SQUARE_HEDGE
from gtpsim.reality import ComplyPhase
from gtpsim.scenario import (
    build_forecaster,
    build_reality,
    build_skeptic,
    coin_comply_pool,
    ufg_pool,
    ufgh_pool,
)
from gtpsim.skeptic import FictionalBcSkeptic

from _support import heads_count_update

HORIZON = 2000
# Calls outside the rounds: run_game itself and the three resets.
SETUP_CALLS = 50

# Python calls per round, at most.  A price script announces the price, a
# float, so no price-game round builds a ForecastMove; a constant
# mean-variance script and the zero and bang-bang Skeptics announce
# prebuilt moves, so their rounds build no ForecastMove or SkepticBet; and
# only the counter Skeptics override observe, so only their runs build a
# RoundRecord for the observers.  A counter Skeptic announces M, a float,
# and runs its formula (1 call) only when b or c moves: 17 times in 2000
# rounds of harmonic prices, hence 16.01.
CALLS_PER_ROUND = {
    "coin[harmonic/bc_fictional]": 16.01,
    "coin[constant_0.3/zero]": 13,
    "coin[inverse_square/bang_bang]": 13,
    "ufg[v=1/m=0/zero]": 13,
    "ufgh[r=2/identity/zero]": 15,
    "derandomized[harmonic/bc_fictional]": 16.01,
    "derandomized[constant_0.3/zero]": 13,
}

# The functions a round runs: the step functions when a compliance Reality plays.
ROUND_PATH = (
    engine.run_game,
    engine.validate_forecast,
    engine.validate_bet,
    engine.validate_outcome,
    engine.capital_update,
    reality.bc_comply_step,
    reality.mv_comply_step,
    skeptic.ceiling_index_update,
)


def _pool() -> dict:
    """The pinned scenarios by name: the stock pools, and two coin-pool
    scenarios played by `derandomized_fictional`."""
    pool = {s.name: s for s in
            coin_comply_pool(HORIZON) + ufg_pool(HORIZON) + ufgh_pool(HORIZON)}
    for name in ("harmonic/bc_fictional", "constant_0.3/zero"):
        pool[f"derandomized[{name}]"] = dataclasses.replace(
            pool[f"coin[{name}]"], name=f"derandomized[{name}]",
            reality_spec={"name": "derandomized_fictional"})
    return pool


def _calls(scenario) -> tuple:
    """(Python call events of one run_game, its C calls of
    `float.as_integer_ratio`, rounds played).  The cyclic collector is
    emptied first and paused while counting, so finalizers of garbage left
    by other tests add no calls."""
    players = (build_forecaster(scenario), build_skeptic(scenario),
               build_reality(scenario))
    count = ratios = 0

    def profile(frame, event, arg):
        nonlocal count, ratios
        if event == "call":
            count += 1
        elif event == "c_call" and arg.__name__ == "as_integer_ratio":
            ratios += 1

    gc.collect()
    with gc_paused():
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            trace = run_game(scenario.protocol, *players, HORIZON)
        finally:
            sys.setprofile(previous)
    return count, ratios, len(trace.rounds)


@pytest.mark.parametrize("name", sorted(CALLS_PER_ROUND))
def test_python_calls_per_round_stay_pinned(name):
    pool = _pool()
    calls, ratios, rounds = _calls(pool[name])
    assert rounds == HORIZON
    assert _calls(pool[name]) == (calls, ratios, rounds)   # the count repeats exactly
    assert calls <= CALLS_PER_ROUND[name] * rounds + SETUP_CALLS, calls / rounds


@pytest.mark.parametrize("name", ["coin[harmonic/bc_fictional]",
                                  "derandomized[harmonic/bc_fictional]"])
def test_reality_reuses_the_counter_skeptics_exact_step(name):
    # Both players step the same exact price sum by the same price object:
    # `ceiling_index_update` returns the Skeptic's step to Reality, so the
    # round splits one price into its integer ratio, where it split two.
    _, ratios, rounds = _calls(_pool()[name])
    assert rounds == HORIZON
    assert ratios <= rounds + SETUP_CALLS, ratios / rounds


def test_mean_variance_machine_takes_its_own_exact_step():
    # Its increment is a new float each round, never the Skeptic's price.
    _, ratios, rounds = _calls(_pool()["ufg[v=1/m=0/zero]"])
    assert (ratios, rounds) == (HORIZON, HORIZON)


def _global_names(code) -> set:
    """Names of the globals the code loads, its nested code included."""
    names = {i.argval for i in dis.get_instructions(code) if i.opname == "LOAD_GLOBAL"}
    for const in code.co_consts:
        if inspect.iscode(const):
            names |= _global_names(const)
    return names


@pytest.mark.parametrize("fn", ROUND_PATH, ids=lambda fn: fn.__name__)
def test_round_path_looks_up_no_enum_member(fn):
    fn = inspect.unwrap(fn)
    enums = {name for name in _global_names(fn.__code__)
             if isinstance(fn.__globals__.get(name), enum.EnumMeta)}
    assert not enums


def test_counter_updates_keep_the_namedtuple_type():
    counters = ceiling_index_update(BcCounters(), 0.75)
    assert type(counters) is BcCounters and counters == (0, 3 << 1072, 1)
    assert counters._fields == ("b", "acc", "c")
    head = heads_count_update(counters, True)
    assert type(head) is BcCounters and head.b == 1
    assert head._replace(c=9) == BcCounters(1, counters.acc, 9)

    skeptic = FictionalBcSkeptic()
    skeptic.reset(engine.Protocol(kind=engine.GameKind.COIN_TOSSING))
    skeptic.bet(1, 1.5, 1.0)
    skeptic.observe(RoundRecord(1.5, 0.0, 1.0, 1.0))
    assert type(skeptic.counters) is BcCounters
    assert skeptic.counters == BcCounters(1, 3 << 1073, 2)


def test_step_states_keep_their_namedtuple_types():
    state = BcComplyState()
    for n, (p, M) in enumerate(((0.5, 0.0), (0.75, -0.25), (0.5, 0.125), (0.4, -1.0)), 1):
        x, state = bc_comply_step(state, n, p, M, 1.0)
        assert type(state) is BcComplyState and type(state.counters) is BcCounters
    assert state.phase.n0 == 2 and state.phase.mix_coeff is not None
    assert state._replace(counters=BcCounters()).counters == BcCounters()
    assert state._fields == ("phase", "counters")
    assert ComplyPhase._fields == ("n0", "mix_coeff")

    mv = MvComplyState()
    for n, (v, M, V) in enumerate(
            ((1.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 0.5, 0.0), (2.0, 0.1, 0.1)), 1):
        x, mv = mv_comply_step(mv, n, ForecastMove(0.0, v), SkepticBet(M, V),
                               SQUARE_HEDGE, None, 1.0)
        assert type(mv) is MvComplyState and type(mv.counters) is BcCounters
    assert mv.a_total == 4.0
    assert type(mv.phase) is ComplyPhase and mv.phase.mix_coeff is not None
    assert mv._replace(eps_running=0.5).eps_running == 0.5
    assert mv._fields == ("phase", "counters", "a_total", "eps_running")
