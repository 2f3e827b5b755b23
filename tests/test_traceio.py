"""Trace CSV text: byte identity with a csv.writer reference, and round trips."""

import csv
import io
import math

import pytest

from gtpsim import (
    ForecastMove,
    GameKind,
    Protocol,
    RoundRecord,
    SkepticBet,
    Trace,
    replay_verify,
)
from gtpsim.hedges import power_hedge
from gtpsim.scenario import parse_scenario, run_scenario
from gtpsim.traceio import CSV_HEADER, trace_from_csv_text, trace_to_csv_text


def _reference_csv(trace: Trace) -> str:
    """The CSV text as csv.writer writes it, each float to 17 digits."""

    def fmt(value):
        return "" if value is None else format(value, ".17g")

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in trace.rounds:
        f = r.forecast
        writer.writerow([
            r.n, fmt(f.p if f.p is not None else f.m), fmt(f.v),
            fmt(r.bet.M), fmt(r.bet.V), fmt(r.x), fmt(r.capital_after),
        ])
    return out.getvalue()


# One scenario per protocol whose Skeptic bets small enough to last the
# horizon; the mean-variance ones also set V.
PLAYED = {
    "coin": ("coin_tossing", "{name: harmonic, a: 1.5}",
             "{name: random_bounded, bound: 0.001}", "{name: bc_comply}"),
    "bounded": ("bounded_forecasting, initial_capital: 0.5",
                "{name: explicit, values: [0.0, 1.0, 0.37, 0.91]}",
                "{name: random_bounded, bound: 0.001}", "{name: avoid_match, q: 0.9}"),
    "unbounded": ("unbounded_forecasting", "{name: mv, m: {name: sin}}",
                  "{name: bang_bang, amplitude: 0.001, v_amplitude: 0.001}",
                  "{name: ufg_comply}"),
    "general_hedge": ("general_hedge, hedge: 'power:r=1.5', growth: identity",
                      "{name: mv, m: {name: sin}}",
                      "{name: random_bounded, bound: 0.001}", "{name: ufgh_comply}"),
}
HORIZON = 300


def _played(kind: str) -> Trace:
    protocol, forecaster, skeptic, reality = PLAYED[kind]
    trace = run_scenario(parse_scenario(
        f"name: {kind}\nprotocol: {{kind: {protocol}}}\nhorizon: {HORIZON}\n"
        f"forecaster: {forecaster}\nskeptic: {skeptic}\nreality: {reality}\nseed: 11\n"))
    assert len(trace.rounds) == HORIZON
    return trace


NAN_CAPITAL = """\
name: nan_capital
protocol: {kind: unbounded_forecasting}
horizon: 5
forecaster: {name: mv}
skeptic: {name: bang_bang, amplitude: 1.0e200}
reality: {name: constant, x: 1.0e200}
"""


@pytest.mark.parametrize("kind", sorted(PLAYED))
def test_csv_text_matches_csv_writer_and_round_trips(kind):
    trace = _played(kind)
    text = trace_to_csv_text(trace)
    assert text == _reference_csv(trace)
    back = trace_from_csv_text(text, trace.protocol, trace.seed)
    assert back.rounds == trace.rounds
    assert replay_verify(back) is None
    assert trace_to_csv_text(back) == text


def test_csv_text_writes_non_finite_values_as_csv_writer_does():
    # Round 1 gains 1e200 * 1e200 = inf; round 2 adds -inf + inf = NaN.
    trace = run_scenario(parse_scenario(NAN_CAPITAL))
    capitals = trace.capitals
    assert math.isinf(capitals[0]) and math.isnan(capitals[1])
    text = trace_to_csv_text(trace)
    assert text == _reference_csv(trace)
    assert text.splitlines()[1].endswith(",inf") and text.splitlines()[2].endswith(",nan")
    back = trace_from_csv_text(text, trace.protocol)
    assert trace_to_csv_text(back) == text


def test_csv_text_of_absent_fields_and_hand_built_values():
    coin = Protocol(kind=GameKind.COIN_TOSSING)
    hedge = Protocol(kind=GameKind.GENERAL_HEDGE, hedge=power_hedge(1.5))
    rows = [
        # a coin-game bet carrying a V, which the coin reader ignores
        (coin, RoundRecord(1, ForecastMove(0.25), SkepticBet(0.5, 0.125), 1.0, 1.375)),
        # no p and no m: p_or_m empty, like v and V
        (coin, RoundRecord(2, ForecastMove(), SkepticBet(-0.0), 0.0, 1.0)),
        # p wins over m when both are set
        (coin, RoundRecord(3, ForecastMove(0.5, 7.0, 2.0), SkepticBet(1e-300), 1.0, 5e-324)),
        (hedge, RoundRecord(4, ForecastMove(None, -math.inf, math.inf),
                            SkepticBet(math.nan, math.inf), -math.inf, math.nan)),
        (hedge, RoundRecord(5, ForecastMove(None, 0.1, 0.2),
                            SkepticBet(1 / 3, 2 / 3), 0.1 + 0.2, 1e16)),
    ]
    for protocol, record in rows:
        trace = Trace(protocol=protocol, rounds=[record])
        assert trace_to_csv_text(trace) == _reference_csv(trace)
    lines = [trace_to_csv_text(Trace(protocol=p, rounds=[r])).splitlines()[1]
             for p, r in rows]
    assert lines[0] == "1,0.25,,0.5,0.125,1,1.375"
    assert lines[1] == "2,,,-0,,0,1"
    assert lines[3] == "4,-inf,inf,nan,inf,-inf,nan"
    assert lines[4] == "5,0.10000000000000001,0.20000000000000001,0.33333333333333331," \
        "0.66666666666666663,0.30000000000000004,10000000000000000"


def test_empty_trace_is_the_header_alone():
    trace = Trace(protocol=Protocol(kind=GameKind.COIN_TOSSING))
    assert trace_to_csv_text(trace) == "n,p_or_m,v,M,V,x,K\n" == _reference_csv(trace)
