"""Shared scripted policies for the test suite."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterable, List, Sequence

from gtpsim import (
    BcComplyState,
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
    bc_comply_step,
    capital_update,
    ceiling_index_update,
)
from gtpsim.engine import BOUND_SLACK
from gtpsim.scenario import Scenario, build_reality, parse_scenario

SRC = Path(__file__).resolve().parent.parent / "src"


def same_document(a, b) -> bool:
    """Equal in value and type, floats by their bits (a NaN equals a NaN)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex() or math.isnan(a) and math.isnan(b)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_document, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(same_document(a[k], b[k]) for k in a)
    return a == b


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


_COIN = Protocol(kind=GameKind.COIN_TOSSING)
# The first losses the search tries in a Waiting round: the weight w of the
# fictional bet, from the smallest subnormal to K_0 less an ulp (K_0 = 1).
FIRST_LOSSES = (5e-324, 1e-300, 0.5, 1.0 - math.ulp(1.0))


def comply_worst_capital(prices: Sequence[float]) -> tuple:
    """(The largest exact capital K_N, leaves searched) over every Skeptic
    in an exhaustive depth-first search of N = len(prices) coin rounds
    against the pure `bc_comply_step` from `BcComplyState()`, K_0 = 1.

    Why a finite set of bets covers every Skeptic (Shafer & Vovk ch. 1, the
    backward induction `analysis.coin_price_bounds` runs for prices):
    - In a Mixing round Reality answers heads exactly when M <= T, the
      mixing threshold, and Skeptic's gain M (x - p) is linear in M on each
      side of T.  Fix the side of every round: K_N is then affine in each
      bet, and its sup over a side is at an end of that side, the threshold
      T (heads) or the float just above it (tails), or a collateral limit,
      -K/(1 - p) or K/p.  A zero bet stands for every bet of a round whose
      answer does not depend on M (Degenerate).
    - A Waiting round's first strict loss -w sets the weight of every later
      threshold, and the sup over w again lies near an end of (0, K_0]:
      the search tries the collateral limits (w = K) and the weights in
      `FIRST_LOSSES`, each taken on heads (M = -w/(1 - p)) and on tails
      (M = w/p).

    The capital is kept exactly in `Fraction` beside the float K that the
    engine's `capital_update` computes and the bets are sized from.  A bet
    that is not a finite float is not a move, and a round whose float K
    breaks Skeptic's duty ends its branch there, as it ends `run_game`."""
    floor = -BOUND_SLACK * _COIN.initial_capital
    leaves = []     # the exact capital of each branch's last round

    def bets(state: BcComplyState, p: float, k: float) -> set:
        candidates = {0.0}
        weights = (k,) if state.phase.n0 is not None else (k, *FIRST_LOSSES)
        for w in weights:
            if p < 1.0:
                candidates.add(-w / (1.0 - p))
            if p > 0.0:
                candidates.add(w / p)
        mix_coeff = state.phase.mix_coeff
        if mix_coeff is not None:
            b, c = state.counters.b, ceiling_index_update(state.counters, p).c
            t = mix_coeff * (2.0 ** (-b - 2) - 2.0 ** (-c - 2))
            candidates.update((t, math.nextafter(t, math.inf)))
        return {M for M in candidates if math.isfinite(M)}

    def search(n: int, state: BcComplyState, k: float, exact: Fraction) -> None:
        if n > len(prices) or not k >= floor:
            leaves.append(exact)
            return
        p = prices[n - 1]
        for M in bets(state, p, k):
            x, after = bc_comply_step(state, n, p, M, k)
            search(n + 1, after, capital_update(_COIN, k, p, M, x, n),
                   exact + Fraction(M) * (Fraction(x) - Fraction(p)))

    search(1, BcComplyState(), _COIN.initial_capital, Fraction(_COIN.initial_capital))
    return max(leaves), len(leaves)
