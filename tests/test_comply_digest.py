"""Bit-exactness guard for the compliance machines on the branches the stock
pools never reach.

Seeded short games play `BcComplyReality` and `MvComplyReality` through
`_support.play_past_faults` (every round, also after a Skeptic's fault)
against scripted bets: zero bets while waiting, degenerate prices
(p = 1 with M < 0, p = 0 with M > 0), a first loss below half an ulp of
K_0, a bet that takes K to exactly 0 (the Degenerate phase), v = 0 rounds,
a V * v that underflows, and growth-free and growth-damped mean-variance
games.  Each case hashes the (x, K) doubles of every round and then the
final phase (n0 and the mixing weight) and counters.  The digests were
recorded before the phase became the pair (n0, -delta).
"""

import hashlib
import random
import struct

import pytest

from _support import derandomizer, play_past_faults
from gtpsim.engine import (
    ForecastMove,
    GameKind,
    Protocol,
    ScriptForecaster,
    Skeptic,
    SkepticBet,
)
from gtpsim.hedges import identity_growth, power_growth, power_hedge
from gtpsim.reality import BcComplyReality, MvComplyReality

HORIZON = 120


class _Bets(Skeptic):
    """Announces bets[n - 1] in round n."""

    def __init__(self, bets):
        self.bets = bets

    def bet(self, n, forecast, k_prev):
        return self.bets[n - 1]


def _coin_bet(rng):
    return rng.choice((0.0, 1.0, 1e-3, 1e-9)) * rng.uniform(-1.0, 1.0)


def coin_case(name, seed):
    """(protocol, forecasts, bets, reality) for a coin-game case."""
    rng = random.Random(seed)
    opening = [(rng.choice((0.0, 0.3, 1.0)), 0.0) for _ in range(3)]
    opening += [(1.0, -0.7), (0.0, 0.7)]
    opening += {"coin_sub_ulp": [(0.5, -1e-20)], "coin_to_zero": [(0.5, 2.0)]}.get(name, [])
    reality = derandomizer() if name == "coin_derandomized" else BcComplyReality()
    script = opening + [
        (rng.choice((0.0, 1.0, rng.random(), rng.random())), _coin_bet(rng))
        for _ in range(HORIZON - len(opening))
    ]
    forecasts = [p for p, _ in script]
    bets = [M for _, M in script]
    return Protocol(kind=GameKind.COIN_TOSSING), forecasts, bets, reality


def _mv_move(rng, n):
    v = rng.choice((0.0, rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0), float(n * n)))
    M = rng.choice((0.0, 0.0, rng.uniform(-1.0, 1.0), 1e-6 * rng.uniform(-1.0, 1.0)))
    V = rng.choice((0.0, 0.0, rng.uniform(0.0, 1e-3), 1e-9 * rng.random()))
    return (rng.uniform(-2.0, 2.0), v), (M, V)


def mv_case(name, seed):
    """(protocol, forecasts, bets, reality) for a mean-variance case."""
    rng = random.Random(seed)
    opening = [((rng.uniform(-1.0, 1.0), 0.0), (rng.uniform(-1.0, 1.0), 0.5)),
               ((0.5, rng.uniform(0.5, 2.0)), (0.0, 0.0)),
               ((0.0, 1e-300), (0.0, 1e-300))]
    if name.endswith("_to_zero"):
        opening.append(((0.25, 2.0), (0.3, 0.5)))
    elif name.endswith("_m_loss"):
        opening.append(((0.0, 1.0), (-0.5, 0.0)))
    else:
        opening.append(((0.0, 1.0), (0.0, 1e-3)))
    script = opening + [_mv_move(rng, n)
                        for n in range(len(opening) + 1, HORIZON + 1)]
    if name.startswith("ufgh"):
        protocol = Protocol(kind=GameKind.GENERAL_HEDGE, hedge=power_hedge(1.5))
        growth = identity_growth() if "identity" in name else power_growth(0.5)
    else:
        protocol, growth = Protocol(kind=GameKind.UNBOUNDED_FORECASTING), None
    forecasts = [ForecastMove(m=m, v=v) for (m, v), _ in script]
    bets = [SkepticBet(M=M, V=V) for _, (M, V) in script]
    return protocol, forecasts, bets, MvComplyReality(growth)


def _digest(case):
    protocol, forecasts, bets, reality = case
    trace = play_past_faults(protocol, ScriptForecaster(lambda n: forecasts[n - 1]),
                             _Bets(bets), reality, HORIZON)
    digest = hashlib.sha256()
    for record in trace.rounds:
        digest.update(struct.pack(">dd", record.x, record.capital_after))
    state = reality.state
    final = (state.phase.n0, state.phase.mix_coeff, tuple(state.counters))
    digest.update(repr(final).encode())
    return final, digest.hexdigest()


# case -> ((n0, mixing weight) at the end, SHA-256 of the rounds and final state)
RECORDED = {
    "coin_wait-1": ((6, 1.502089552868566e-10),
        "fd5bd98047337f2a327e07710d89099f3ecd95d6f10058aa9390d0215cf40c3e"),
    "coin_wait-2": ((6, 7.650386568633285e-05),
        "7d4ff042202e3407a742511f560aedbdd9147ac9d99e6352454530176925d75c"),
    "coin_sub_ulp-1": ((6, 5e-21),
        "bce870d1ba27eebcf8c038b227bfcf5f4d419a65c93cd3863881ff14e7197e82"),
    "coin_sub_ulp-2": ((6, 5e-21),
        "a8a004648aa5c49ba9ce9e4b3fd5582b7733729abf1e546e37600518e38496a8"),
    "coin_to_zero-1": ((6, None),
        "0d034d3b0c49caa7531d122bc0c06bb3314f1949e12bbe3063eb7550201c95bf"),
    "coin_to_zero-2": ((6, None),
        "741c67e90826eb4427be721fee4f297f8038109599a3696735111f8e10453dbe"),
    "coin_derandomized-1": ((0, 1.0),
        "e68be9d0e72e0f349fa8665d5091d8fe41d6e7f2c612a81202b513fa10eed3f7"),
    "coin_derandomized-2": ((0, 1.0),
        "7855ceae9a42ea282800d13e27cab4979ecac303a07cd758c9a1d4d6a92c4194"),
    "ufg_v_loss-1": ((4, 0.001),
        "0b733cf7982da59a468c4fca2b913ed7861f02d6534f78cf45570bd98090cb52"),
    "ufg_v_loss-2": ((4, 0.001),
        "b37af9ab84ec0eeeecc2c24fd089caab0f142d769a626576b5daaafbdec66484"),
    "ufg_m_loss-1": ((4, 0.5),
        "207cd61a30ffc1ca74007d18b190c99b2ca60ccbfbc0dfcc69a34d496100c77a"),
    "ufg_m_loss-2": ((4, 0.5),
        "c3a5a1012da503bf55bfdca39b1437d63a71d24e92a35592cda78fefe3c77e47"),
    "ufg_to_zero-1": ((4, None),
        "53c5773131324441d092bc5506e88d663dd09329de6840acb73e56fc4d82d821"),
    "ufg_to_zero-2": ((4, None),
        "8208dca8a9a6a1df9662569dc95bdff6344cd46ad0782981745e81f689bd3a6f"),
    "ufgh_identity_v_loss-1": ((4, 0.001),
        "78003c18ea3b864d9e7d814719537d970c422d0718e8750f60440a0228f17d4f"),
    "ufgh_identity_v_loss-2": ((4, 0.001),
        "cd691f598e257789768c9e72aac6275f369cc2f2162aaee138d5adc8d9ecbb28"),
    "ufgh_identity_to_zero-1": ((4, None),
        "86dca5bc8ad5e486e81cca658f7edb1863f1c8643961e33316dc5c2654032479"),
    "ufgh_identity_to_zero-2": ((4, None),
        "067223f6345ae12bdd0a768988371dc2270373927c3607fc431ad418471e48d1"),
    "ufgh_power_m_loss-1": ((4, 0.5),
        "9ef4ab9cd8048702b925f7001727b3bb03d379b417bc3ae711cdcc8a82b0b7c3"),
    "ufgh_power_m_loss-2": ((4, 0.5),
        "26a2a63e2bd0c5d0ddd5702a8ea4428edb8d3feb79f14c63262bbf9f8229cd9f"),
}

CASES = [(name, seed, coin_case) for name in
         ("coin_wait", "coin_sub_ulp", "coin_to_zero", "coin_derandomized")
         for seed in (1, 2)]
CASES += [(name, seed, mv_case) for name in
          ("ufg_v_loss", "ufg_m_loss", "ufg_to_zero", "ufgh_identity_v_loss",
           "ufgh_identity_to_zero", "ufgh_power_m_loss")
          for seed in (1, 2)]


@pytest.mark.parametrize("name, seed, build", CASES,
                         ids=[f"{name}-{seed}" for name, seed, _ in CASES])
def test_compliance_step_traces_are_bit_identical(name, seed, build):
    final, hexdigest = _digest(build(name, seed))
    assert (final[:2], hexdigest) == RECORDED[f"{name}-{seed}"]
