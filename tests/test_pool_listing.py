"""Content guard for the three stock pools: what each scenario is, not what it
plays.

Every scenario's name, protocol (kind, hedge name, K0), horizon, seed,
forecaster/Skeptic/Reality specs, growth name, `series_divergent` and
`expected_event` are listed as JSON in pool order and hashed.  The trace
digests of `test_trace_digests.py` cover the outcomes and capitals but not
the labels; these digests cover the labels and names as well.  They were
recorded before the pools were built from one table; a deliberate change to
a pool must update them and say why.
"""

import hashlib
import json

import pytest

from gtpsim.scenario import STOCK_POOLS

# arguments of the pool builder -> pool -> (scenarios, SHA-256 of the listing)
CALLS = {"defaults": {}, "horizon-300-seed-3": {"horizon": 300, "seed": 3}}
RECORDED = {
    "defaults": {
        "coin_comply": (24, "9641c4a028da88df6138327de0f07c78b8d5764efe85840cf7731bb7c69d89e1"),
        "ufg": (12, "2a9ea32b4076b0e0dedbb7fed02737d7cd973a789197c32530f2a22320921f53"),
        "ufgh": (18, "ef4de02a82bcbe4edee195bba55652322b1118a281529dd1ade24064502bd5d5"),
    },
    "horizon-300-seed-3": {
        "coin_comply": (24, "3946f80f683568752ef15af6fbfc06b3b1eb039eb82fa9ff3485ba2a07bef44b"),
        "ufg": (12, "c46946cc9496805ad580edbb08ae67e3e8922bef20ddc1fadd3c041e3fb0be29"),
        "ufgh": (18, "8741fccd877b0c607734d867b9550ed39553ce6361289da8d290c8e38663ad74"),
    },
}


def _listing(scenario) -> str:
    protocol = scenario.protocol
    return json.dumps([
        scenario.name,
        protocol.kind.value,
        None if protocol.hedge is None else protocol.hedge.name,
        protocol.initial_capital,
        scenario.horizon,
        scenario.seed,
        scenario.forecaster_spec,
        scenario.skeptic_spec,
        scenario.reality_spec,
        None if scenario.growth is None else scenario.growth.name,
        scenario.series_divergent,
        scenario.expected_event,
    ], sort_keys=True)


def _digest(scenarios):
    digest = hashlib.sha256()
    for scenario in scenarios:
        digest.update(_listing(scenario).encode() + b"\n")
    return len(scenarios), digest.hexdigest()


def test_every_stock_pool_is_recorded():
    assert all(set(pools) == set(STOCK_POOLS) for pools in RECORDED.values())


@pytest.mark.parametrize("call", sorted(CALLS))
@pytest.mark.parametrize("pool", sorted(STOCK_POOLS))
def test_stock_pool_contents_are_unchanged(pool, call):
    assert _digest(STOCK_POOLS[pool](**CALLS[call])) == RECORDED[call][pool]
