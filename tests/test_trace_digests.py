"""Bit-exactness guard: the three stock pools replay the same traces.

Each pool is played at horizon 500 with its default seed, and the (x, K)
pair of every round of every scenario is hashed as IEEE-754 doubles, in pool
order.  The digests were recorded before the ceiling index moved from a
Fraction sum to a scaled integer; a change in any outcome or capital, down
to the last bit, changes them.  A deliberate behaviour change must update
them and say why.
"""

import hashlib
import struct

import pytest

from gtpsim.scenario import STOCK_POOLS, run_scenario

HORIZON = 500

# pool -> (rounds played, SHA-256 of the packed (x, K) doubles)
RECORDED = {
    "coin_comply": (8515, "397391c476216ee1d9a6cfa9dd418c8ae7bf001039efd260a0653728f275bac2"),
    "ufg": (2016, "4c2e5e27a6869c7d1f7752f15941373cb5fc555d41fc792d297e053a5e6cce83"),
    "ufgh": (3024, "ff5604d8c21357640480174949fa0ad85c8db61652a8904f21484bf9f613afe2"),
}


def test_every_stock_pool_is_recorded():
    assert set(RECORDED) == set(STOCK_POOLS)


@pytest.mark.parametrize("pool", sorted(RECORDED))
def test_stock_pool_traces_are_bit_identical(pool):
    digest = hashlib.sha256()
    rounds = 0
    for scenario in STOCK_POOLS[pool](horizon=HORIZON):
        for record in run_scenario(scenario).rounds:
            digest.update(struct.pack(">dd", record.outcome.x, record.capital_after))
            rounds += 1
    assert (rounds, digest.hexdigest()) == RECORDED[pool]
