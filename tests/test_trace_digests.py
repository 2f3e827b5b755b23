"""Bit-exactness guard: the three stock pools, and a set of mean-variance
scenarios on branches the pools miss, replay the same traces.

Each pool is played at horizon 500 with its default seed, and the (x, K)
pair of every round of every scenario is hashed as IEEE-754 doubles, in pool
order.  The digests were recorded before the ceiling index moved from a
Fraction sum to a scaled integer; a change in any outcome or capital, down
to the last bit, changes them.  A deliberate behaviour change must update
them and say why.
"""

import dataclasses
import hashlib
import struct

import pytest

from gtpsim.engine import GameKind, Protocol
from gtpsim.hedges import power_hedge
from gtpsim.scenario import (
    STOCK_POOLS,
    Scenario,
    coin_comply_pool,
    parse_growth,
    run_scenario,
)
from gtpsim.traceio import trace_to_csv_text

HORIZON = 500

# pool -> (rounds played, SHA-256 of the packed (x, K) doubles)
RECORDED = {
    "coin_comply": (8515, "397391c476216ee1d9a6cfa9dd418c8ae7bf001039efd260a0653728f275bac2"),
    "ufg": (2016, "4c2e5e27a6869c7d1f7752f15941373cb5fc555d41fc792d297e053a5e6cce83"),
    "ufgh": (3024, "ff5604d8c21357640480174949fa0ad85c8db61652a8904f21484bf9f613afe2"),
}


def test_every_stock_pool_is_recorded():
    assert set(RECORDED) == set(STOCK_POOLS)


def _digest(scenarios):
    digest = hashlib.sha256()
    rounds = 0
    for scenario in scenarios:
        for record in run_scenario(scenario).rounds:
            digest.update(struct.pack(">dd", record.x, record.capital_after))
            rounds += 1
    return rounds, digest.hexdigest()


@pytest.mark.parametrize("pool", sorted(RECORDED))
def test_stock_pool_traces_are_bit_identical(pool):
    assert _digest(STOCK_POOLS[pool](horizon=HORIZON)) == RECORDED[pool]


# Variances v = n^2 and n^2.5 keep the mean-variance machines on their root
# branch (v >= n^2, or eps * v >= g(A_n) with g = sqrt) after round 1, where
# the stock pools never go.  Recorded before the two machines were merged.
BRANCH_RECORDED = (
    6704, "335500a6e01a2c69ec08991610433def66dc50b3314b11873cb838f53e4c4e31"
)


def branch_scenarios(horizon: int = 400):
    scenarios = []
    for kind in ("ufg", "ufgh"):
        if kind == "ufg":
            protocol, growth = Protocol(kind=GameKind.UNBOUNDED_FORECASTING), None
        else:
            protocol = Protocol(kind=GameKind.GENERAL_HEDGE, hedge=power_hedge(1.5))
            growth = parse_growth("power:r=0.5")
        for exponent in (2.5, 2.0):
            for m_spec in ({"name": "zero"}, {"name": "sin", "amplitude": 3.0}):
                for s_spec in ({"name": "random_bounded", "bound": 1e-3},
                               {"name": "random_bounded", "bound": 1e-9},
                               {"name": "bang_bang", "amplitude": 1.0},
                               {"name": "zero"}):
                    scenarios.append(Scenario(
                        name=f"{kind}[v=n^{exponent:g}/{m_spec['name']}/{s_spec}]",
                        protocol=protocol,
                        horizon=horizon,
                        forecaster_spec={"name": "mv", "m": m_spec,
                                         "v": {"name": "power", "exponent": exponent}},
                        skeptic_spec=s_spec,
                        reality_spec={"name": f"{kind}_comply"},
                        growth=growth,
                        seed=7,
                    ))
    return scenarios


def test_root_branch_traces_are_bit_identical():
    assert _digest(branch_scenarios()) == BRANCH_RECORDED


# Every Reality outside the stock pools, against three Skeptics.  The digest
# hashes the (x, K) columns parsed back from the trace CSV, so it reads no
# record field.  Recorded before Reality's move became a bare float.
REALITIES_RECORDED = (
    24674, "8df578afa1e36035f466a98d21dc035b339a3bf528943a90663cdbe6595bacf6"
)

_PRICES = (
    {"name": "harmonic"},
    {"name": "constant", "value": 0.3},
    {"name": "explicit", "values": [0.0, 1.0, 0.5, 0.3]},
)
_SMALL_SKEPTICS = (
    {"name": "zero"},
    {"name": "random_bounded", "bound": 1e-3},
    {"name": "bang_bang", "amplitude": 1e-3, "v_amplitude": 1e-3},
)


def reality_scenarios(horizon: int = 500):
    coin = Protocol(kind=GameKind.COIN_TOSSING)
    bounded = Protocol(kind=GameKind.BOUNDED_FORECASTING, initial_capital=0.5)
    unbounded = Protocol(kind=GameKind.UNBOUNDED_FORECASTING)
    cases = [(coin, f_spec, {"name": name}) for f_spec in _PRICES
             for name in ("derandomized_fictional", "first_round", "bernoulli")]
    cases += [
        (coin, _PRICES[0], {"name": "constant", "x": 1.0}),
        (bounded, _PRICES[2], {"name": "avoid_match", "q": 0.9}),
        (bounded, {"name": "explicit", "values": [1.0, 0.0, 0.25]},
         {"name": "avoid_match", "q": 0.6}),
        (unbounded, {"name": "mv"}, {"name": "constant", "x": 0.5}),
    ]
    cases += [(unbounded, {"name": "mv", "v": v_spec, "m": m_spec}, {"name": "kolmogorov"})
              for v_spec in ({"name": "constant", "value": 1.0},
                             {"name": "power", "exponent": 2.0})
              for m_spec in ({"name": "zero"}, {"name": "sin", "amplitude": 3.0})]
    return [
        Scenario(
            name=f"{protocol.kind.value}[{f_spec}/{s_spec}/{r_spec}]",
            protocol=protocol,
            horizon=horizon,
            forecaster_spec=f_spec,
            skeptic_spec=s_spec,
            reality_spec=r_spec,
            seed=7,
        )
        for protocol, f_spec, r_spec in cases
        for s_spec in _SMALL_SKEPTICS
    ]


def _csv_digest(scenarios):
    digest = hashlib.sha256()
    rounds = 0
    for scenario in scenarios:
        lines = trace_to_csv_text(run_scenario(scenario)).splitlines()
        header = lines[0].split(",")
        ix, ik = header.index("x"), header.index("K")
        for line in lines[1:]:
            cols = line.split(",")
            digest.update(struct.pack(">dd", float(cols[ix]), float(cols[ik])))
            rounds += 1
    return rounds, digest.hexdigest()


def test_every_reality_outside_the_pools_replays_the_same_trace():
    assert _csv_digest(reality_scenarios()) == REALITIES_RECORDED


# The geometric price script p_n = 2^-n underflows to 0 at n = 1075 and
# stays 0; the pool digests above stop at round 500, before that.  This one
# plays the six geometric pool scenarios past it, and a seventh with a = -0.0
# (so p_n = -0.0 in every round), and hashes the bits of p as well as x and
# K.  Recorded before the underflowed price became one shared move.
GEOMETRIC_TAIL_HORIZON = 1500
GEOMETRIC_TAIL_RECORDED = (
    7503, "d0dd0a62e4adbf03f58b059653d91cccfc8361a48512afbce858adadc9ad34a9"
)


def geometric_tail_scenarios():
    scenarios = [s for s in coin_comply_pool(GEOMETRIC_TAIL_HORIZON)
                 if s.name.startswith("coin[geometric/")]
    fictional = next(s for s in scenarios if s.name == "coin[geometric/bc_fictional]")
    return scenarios + [dataclasses.replace(
        fictional, name="coin[geometric_a=-0/bc_fictional]",
        forecaster_spec={"name": "geometric", "a": -0.0})]


def test_geometric_tail_traces_are_bit_identical():
    scenarios = geometric_tail_scenarios()
    assert len(scenarios) == 7
    digest = hashlib.sha256()
    rounds = 0
    for scenario in scenarios:
        for record in run_scenario(scenario).rounds:
            digest.update(struct.pack(
                ">ddd", record.forecast, record.x, record.capital_after))
            rounds += 1
    assert (rounds, digest.hexdigest()) == GEOMETRIC_TAIL_RECORDED
