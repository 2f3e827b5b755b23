"""Shared scripted policies for the test suite."""

from __future__ import annotations

from typing import Sequence

from gtpsim import (
    ForecastMove,
    GameKind,
    Protocol,
    Reality,
    ScriptForecaster,
    Skeptic,
    SkepticBet,
)
from gtpsim.scenario import Scenario, build_reality


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

    def bet(self, n, forecast, k_prev) -> SkepticBet:
        m = self.ms[(n - 1) % len(self.ms)]
        if self.with_v:
            v = self.vs[(n - 1) % len(self.vs)] if self.vs else 0.0
            return SkepticBet(M=m, V=v)
        return SkepticBet(M=m)


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
