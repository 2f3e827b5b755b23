"""Counter-based stream, vectorized block equivalence, and sampling laws."""

import math

import numpy as np
import pytest

from gtpsim import (
    ForecastMove,
    GameKind,
    Protocol,
    RandomStream,
    SkepticBet,
    bernoulli_reality,
    kolmogorov_sample,
    mix64,
    uniform_block,
)
from gtpsim.randomized import (
    BernoulliReality,
    KolmogorovReality,
    RandomBoundedSkeptic,
)


# ---------------------------------------------------------------------------
# Stream mechanics
# ---------------------------------------------------------------------------

def test_stream_is_deterministic():
    a = RandomStream(seed=42)
    b = RandomStream(seed=42)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_streams_with_different_seeds_differ():
    a = RandomStream(seed=1)
    b = RandomStream(seed=2)
    assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]


def test_mix64_stays_in_64_bits():
    for z in (0, 1, 2 ** 64 - 1, 0xDEADBEEF):
        assert 0 <= mix64(z) < 2 ** 64


def test_uniform_block_matches_scalar_stream():
    stream = RandomStream(seed=123)
    scalar = [stream.uniform() for _ in range(50)]
    block = uniform_block(123, 50)
    assert np.array_equal(np.array(scalar), block)


# ---------------------------------------------------------------------------
# Bernoulli sampling
# ---------------------------------------------------------------------------

def test_bernoulli_degenerate_probabilities():
    rng = RandomStream(seed=0)
    assert all(bernoulli_reality(0.0, rng) == 0.0 for _ in range(50))
    assert all(bernoulli_reality(1.0, rng) == 1.0 for _ in range(50))


def test_bernoulli_rejects_bad_probability():
    with pytest.raises(ValueError):
        bernoulli_reality(1.5, RandomStream(seed=0))


def test_bernoulli_fair_coin_mean():
    u = uniform_block(2024, 100_000)
    mean = float(np.mean(u < 0.5))
    assert 0.494 <= mean <= 0.506
    # The vectorized draws are exactly what bernoulli_reality would consume.
    rng = RandomStream(seed=2024)
    draws = [bernoulli_reality(0.5, rng) for _ in range(100)]
    assert draws == [1.0 if v < 0.5 else 0.0 for v in u[:100]]


# ---------------------------------------------------------------------------
# Kolmogorov sampling
# ---------------------------------------------------------------------------

def test_kolmogorov_zero_variance_is_zero():
    rng = RandomStream(seed=1)
    assert all(kolmogorov_sample(n, 0.0, rng) == 0.0 for n in range(1, 20))


def test_kolmogorov_three_point_law():
    # v = n^2/2 puts probability (1/4, 1/4, 1/2) on (n, -n, 0).
    n, v, draws = 2, 2.0, 20_000
    rng = RandomStream(seed=77)
    samples = [kolmogorov_sample(n, v, rng) for _ in range(draws)]
    assert set(samples) <= {2.0, -2.0, 0.0}
    tol = 4.0 * math.sqrt(0.25 * 0.75 / draws)
    assert abs(samples.count(2.0) / draws - 0.25) <= tol
    assert abs(samples.count(-2.0) / draws - 0.25) <= tol


def test_kolmogorov_two_point_law():
    n, v, draws = 2, 9.0, 20_000
    rng = RandomStream(seed=78)
    samples = [kolmogorov_sample(n, v, rng) for _ in range(draws)]
    assert set(samples) <= {3.0, -3.0}
    tol = 4.0 * math.sqrt(0.25 / draws)
    assert abs(samples.count(3.0) / draws - 0.5) <= tol


def test_kolmogorov_input_validation():
    with pytest.raises(ValueError):
        kolmogorov_sample(0, 1.0, RandomStream(seed=0))
    with pytest.raises(ValueError):
        kolmogorov_sample(1, -1.0, RandomStream(seed=0))


# ---------------------------------------------------------------------------
# Policy wrappers
# ---------------------------------------------------------------------------

def test_bernoulli_reality_resets_to_same_sequence():
    protocol = Protocol(kind=GameKind.COIN_TOSSING)
    reality = BernoulliReality(seed=11)
    f, s = 0.5, 0.0
    reality.reset(protocol)
    first = [reality.outcome(n, f, s, 1.0) for n in range(1, 20)]
    reality.reset(protocol)
    second = [reality.outcome(n, f, s, 1.0) for n in range(1, 20)]
    assert first == second


def test_kolmogorov_reality_recenters_on_mean():
    protocol = Protocol(kind=GameKind.UNBOUNDED_FORECASTING)
    reality = KolmogorovReality(seed=11)
    reality.reset(protocol)
    xs = {
        reality.outcome(2, ForecastMove(m=5.0, v=9.0), SkepticBet(M=0.0, V=0.0), 1.0)
        for _ in range(20)
    }
    assert xs <= {8.0, 2.0}


def test_random_bounded_skeptic_respects_bounds():
    protocol = Protocol(kind=GameKind.UNBOUNDED_FORECASTING)
    skeptic = RandomBoundedSkeptic(seed=4, bound=3.0)
    skeptic.reset(protocol)
    for n in range(1, 200):
        bet = skeptic.bet(n, ForecastMove(m=0.0, v=1.0), 1.0)
        assert -3.0 <= bet.M <= 3.0
        assert 0.0 <= bet.V <= 3.0
