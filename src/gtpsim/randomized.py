"""Seeded randomized reference strategies and a counter-based generator.

The generator is a plain splitmix-style 64-bit mixer applied to
seed + counter * golden_gamma, so draw i of a stream depends only on
(seed, i).  That keeps traces reproducible bit-for-bit across platforms and
lets Monte-Carlo checks recompute whole seed x round grids with numpy.
numpy is imported by `uniform_block` alone, so importing the package does
not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .engine import (
    MEAN_VARIANCE_GAMES,
    PRICE_GAMES,
    Protocol,
    Reality,
    Skeptic,
    SkepticBet,
    require_game,
)

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TWO64 = float(1 << 64)


def mix64(z: int) -> int:
    """Splitmix64 finalizer."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


@dataclass
class RandomStream:
    """Counter-based stream: draw i is mix64(seed + i * gamma)."""

    seed: int
    counter: int = 0

    def next_u64(self) -> int:
        self.counter += 1
        return mix64((self.seed + self.counter * _GAMMA) & _MASK)

    def uniform(self) -> float:
        return self.next_u64() / _TWO64

    def spawn(self, key: int) -> "RandomStream":
        """Independent child stream; distinct keys never overlap."""
        return RandomStream(seed=mix64(self.seed ^ mix64(key + 1)))


def uniform_block(seed: int, n_draws: int, first_counter: int = 1) -> "numpy.ndarray":
    """Vectorized uniforms equal to draws first_counter..first_counter+n-1
    of RandomStream(seed)."""
    import numpy as np

    counters = np.arange(first_counter, first_counter + n_draws, dtype=np.uint64)
    z = (np.uint64(seed & _MASK) + counters * np.uint64(_GAMMA))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    z = z ^ (z >> np.uint64(31))
    return z.astype(np.float64) / _TWO64


def bernoulli_reality(p: float, rng: RandomStream) -> float:
    """Heads with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p = {p} outside [0, 1]")
    return 1.0 if rng.uniform() < p else 0.0


def kolmogorov_sample(n: int, v: float, rng: RandomStream) -> float:
    """Kolmogorov's randomized outcome for the unbounded game (centered).

    For v < n^2: +/-n with probability v/(2n^2) each, else 0.
    For v >= n^2: +/-sqrt(v) with probability 1/2 each.
    """
    if n < 1:
        raise ValueError(f"round index must be >= 1, got {n}")
    if v < 0.0:
        raise ValueError(f"v = {v} violates v >= 0")
    u = rng.uniform()
    n2 = float(n * n)
    if v < n2:
        q = v / (2.0 * n2)
        if u < q:
            return float(n)
        if u < 2.0 * q:
            return -float(n)
        return 0.0
    root = math.sqrt(v)
    return root if u < 0.5 else -root


class BernoulliReality(Reality):
    """Coin-game Reality drawing heads at the announced price."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = RandomStream(seed)

    def reset(self, protocol: Protocol) -> None:
        require_game(protocol, self, *PRICE_GAMES)
        self.rng = RandomStream(self.seed)

    def outcome(self, n, forecast, bet, k_prev) -> float:
        return bernoulli_reality(forecast.p, self.rng)


class KolmogorovReality(Reality):
    """Unbounded-game Reality playing Kolmogorov's randomized strategy."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = RandomStream(seed)

    def reset(self, protocol: Protocol) -> None:
        require_game(protocol, self, *MEAN_VARIANCE_GAMES)
        self.rng = RandomStream(self.seed)

    def outcome(self, n, forecast, bet, k_prev) -> float:
        return forecast.m + kolmogorov_sample(n, forecast.v, self.rng)


class RandomBoundedSkeptic(Skeptic):
    """Adversary betting M uniform on [-bound, bound] (and V uniform on
    [0, bound] in mean-variance games) from a seeded stream."""

    def __init__(self, seed: int, bound: float = 10.0):
        self.seed = seed
        self.bound = bound
        self.rng = RandomStream(seed)

    def reset(self, protocol: Protocol) -> None:
        super().reset(protocol)
        self.rng = RandomStream(self.seed)

    def bet(self, n, forecast, k_prev) -> SkepticBet:
        m = self.bound * (2.0 * self.rng.uniform() - 1.0)
        if self.with_v:
            return SkepticBet(m, self.bound * self.rng.uniform())
        return SkepticBet(m)
