"""Exact capital replay: the recorded moves of a trace, replayed in rational
arithmetic by `_support.exact_capitals`, which shares no code with
`engine.capital_update`."""

import math
from fractions import Fraction

import pytest

from gtpsim.scenario import coin_comply_pool, run_scenario, ufg_pool

from _support import exact_capitals, parse_text

HORIZON = 4000


def test_no_exact_capital_of_the_compliance_pools_exceeds_k0():
    rounds = 0
    for scenario in coin_comply_pool(HORIZON) + ufg_pool(HORIZON):
        trace = run_scenario(scenario)
        k0 = Fraction(scenario.protocol.initial_capital)
        above = [n for n, k in enumerate(exact_capitals(trace), 1) if k > k0]
        assert not above, (scenario.name, above[:5])
        rounds += len(trace.rounds)
    assert rounds > 80_000   # most runs play all 4000 rounds


# One scenario per game and hedge the replay covers, each with a Skeptic
# that bets small enough to last the horizon.
PLAYED = {
    "coin": ("coin_tossing", "{name: harmonic}", "{name: random_bounded, bound: 0.01}",
             "{name: bernoulli}"),
    "bounded": ("bounded_forecasting", "{name: explicit, values: [0.0, 1.0, 0.37]}",
                "{name: random_bounded, bound: 0.01}", "{name: constant, x: 0.5}"),
    "unbounded": ("unbounded_forecasting", "{name: mv, m: {name: sin}}",
                  "{name: random_bounded, bound: 0.001}", "{name: kolmogorov}"),
    "hedge_r1": ("general_hedge, hedge: 'power:r=1'", "{name: mv}",
                 "{name: random_bounded, bound: 0.01}", "{name: constant, x: 3.0}"),
    "hedge_r2": ("general_hedge, hedge: 'power:r=2'", "{name: mv, m: {name: sin}}",
                 "{name: bang_bang, amplitude: 0.01, v_amplitude: 0.01}",
                 "{name: constant, x: -2.0}"),
}


@pytest.mark.parametrize("kind", sorted(PLAYED))
def test_the_exact_replay_agrees_with_the_float_capitals(tmp_path, kind):
    protocol, forecaster, skeptic, reality = PLAYED[kind]
    trace = run_scenario(parse_text(tmp_path,
        f"protocol: {{kind: {protocol}}}\nhorizon: 300\nforecaster: {forecaster}\n"
        f"skeptic: {skeptic}\nreality: {reality}\nseed: 5\n"))
    assert len(trace.rounds) == 300
    exact = exact_capitals(trace)
    assert len(set(exact)) > 100   # the capital moves
    for n, (record, k) in enumerate(zip(trace.rounds, exact), 1):
        assert math.isclose(record.capital_after, k, rel_tol=1e-12, abs_tol=1e-12), n


def test_the_exact_replay_sees_a_rise_the_floats_round_away(tmp_path):
    # K_0 = 1 plus a gain of 2^-60 is 1.0 in floats, but not in the replay.
    trace = run_scenario(parse_text(tmp_path,
        "protocol: {kind: coin_tossing}\nhorizon: 1\nforecaster: {name: constant}\n"
        "skeptic: {name: single_bet, M: 8.673617379884035e-19}\n"
        "reality: {name: constant, x: 1.0}\n"))
    assert list(trace.capitals) == [1.0]
    assert exact_capitals(trace) == [1 + Fraction(1, 2 ** 61)]
