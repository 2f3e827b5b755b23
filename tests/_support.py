"""Shared scripted policies for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterable, List, Sequence

from gtpsim import (
    BcCounters,
    ForecastMove,
    Forecaster,
    GameKind,
    Protocol,
    Reality,
    RoundRecord,
    ScriptForecaster,
    Skeptic,
    SkepticBet,
    Trace,
    capital_update,
)
from gtpsim.scenario import Scenario, build_reality, parse_scenario

SRC = Path(__file__).resolve().parent.parent / "src"


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run a new interpreter that imports gtpsim from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=60)


class ScriptReality(Reality):
    """Plays a fixed outcome sequence, cycling if the run is longer."""

    def __init__(self, xs: Sequence[float]):
        self.xs = list(xs)

    def outcome(self, n, forecast, bet, k_prev) -> float:
        return self.xs[(n - 1) % len(self.xs)]


class ScriptBetSkeptic(Skeptic):
    """Plays a fixed bet sequence, cycling if the run is longer."""

    def __init__(self, ms: Sequence[float], vs: Sequence[float] = ()):
        self.ms = list(ms)
        self.vs = list(vs)

    def bet(self, n, forecast, k_prev):
        m = self.ms[(n - 1) % len(self.ms)]
        if self.with_v:
            v = self.vs[(n - 1) % len(self.vs)] if self.vs else 0.0
            return SkepticBet(M=m, V=v)
        return m


def play_past_faults(protocol: Protocol, forecaster: Forecaster, skeptic: Skeptic,
                     reality: Reality, horizon: int) -> Trace:
    """The trace of `horizon` rounds played as `run_game` plays them, but
    with no stop after a round whose capital breaks Skeptic's duty."""
    for policy in (forecaster, skeptic, reality):
        policy.reset(protocol)
    records, k = [], protocol.initial_capital
    for n in range(1, horizon + 1):
        f = forecaster.forecast(n)
        s = skeptic.bet(n, f, k)
        x = reality.outcome(n, f, s, k)
        k = capital_update(protocol, k, f, s, x, n)
        records.append(RoundRecord(f, s, x, k))
        for policy in (forecaster, skeptic, reality):
            policy.observe(records[-1])
    return trace_of(protocol, records)


def trace_of(protocol: Protocol, records: Iterable[RoundRecord]) -> Trace:
    """The trace whose rounds are the records' fields: in a price game their
    bits, packed; in a mean-variance game each field the record's object."""
    records = list(records)
    trace = Trace(protocol=protocol)
    trace.extend([r.forecast for r in records], [r.bet for r in records],
                 [r.x for r in records], [r.capital_after for r in records])
    return trace


def parse_text(tmp_path: Path, text: str) -> Scenario:
    """The scenario of a YAML text, written to a file under tmp_path and
    parsed from there."""
    path = tmp_path / "scenario.yaml"
    path.write_text(text, encoding="utf-8")
    return parse_scenario(path)


def derandomizer() -> Reality:
    """A new Reality from the `derandomized_fictional` registry entry."""
    return build_reality(Scenario(
        name="derandomized", protocol=Protocol(kind=GameKind.COIN_TOSSING),
        horizon=1, forecaster_spec={}, skeptic_spec={},
        reality_spec={"name": "derandomized_fictional"},
    ))


def price_forecaster(ps: Sequence[float]) -> ScriptForecaster:
    values = list(ps)
    return ScriptForecaster(lambda n: values[(n - 1) % len(values)])


def mv_forecaster(ms: Sequence[float], vs: Sequence[float]) -> ScriptForecaster:
    m_values, v_values = list(ms), list(vs)
    return ScriptForecaster(
        lambda n: ForecastMove(
            m=m_values[(n - 1) % len(m_values)], v=v_values[(n - 1) % len(v_values)]
        )
    )


def heads_count_update(counters: BcCounters, head: bool) -> BcCounters:
    """The head count b after a round: the oracle of the updates that
    `_CounterSkeptic.observe` and `bc_comply_step` inline."""
    if not head:
        return counters
    b, acc, c = counters
    return BcCounters(b + 1, acc, c)


# The exponent r of each hedge `exact_capitals` replays: x^2 in the
# unbounded game, |x|^r for the power hedges with an integer r.
_EXACT_HEDGE_POWER = {"square": 2, "power:r=1": 1, "power:r=2": 2}


def exact_capitals(trace: Trace) -> List[Fraction]:
    """The capitals K_1..K_n of the trace, replayed from its recorded moves
    in exact rational arithmetic, with no rounding at any step.

    Every float is a dyadic rational, so the replay is exact for the coin,
    bounded and unbounded games and for the power hedges with r in {1, 2}.
    It shares no code with `engine.capital_update`."""
    protocol = trace.protocol
    k = Fraction(protocol.initial_capital)
    capitals = []
    if protocol.kind.uses_price:
        for r in trace.rounds:
            k += Fraction(r.bet) * (Fraction(r.x) - Fraction(r.forecast))
            capitals.append(k)
        return capitals
    hedge = protocol.hedge.name if protocol.kind is GameKind.GENERAL_HEDGE else "square"
    power = _EXACT_HEDGE_POWER[hedge]
    for r in trace.rounds:
        f, s = r.forecast, r.bet
        centered = Fraction(r.x) - Fraction(f.m)
        k += (Fraction(s.M) * centered
              + Fraction(s.V) * (abs(centered) ** power - Fraction(f.v)))
        capitals.append(k)
    return capitals
