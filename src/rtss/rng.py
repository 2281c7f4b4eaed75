"""Deterministic pseudo-random streams (SplitMix64).

All randomness in this package flows through SplitMix64 so that instances,
experiment seeds, and sampled states regenerate bit-exactly from integer
seeds, on any platform.
"""
from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64_next(state: int) -> tuple[int, int]:
    """Advance a SplitMix64 state once; returns (new_state, output)."""
    state = (state + _GOLDEN) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return state, z ^ (z >> 31)


def mix64(x: int) -> int:
    """One-shot mix: the first output of a stream seeded with x."""
    return splitmix64_next(x & MASK64)[1]


class SplitMix64:
    """Stateful SplitMix64 stream."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def u64(self) -> int:
        self.state, out = splitmix64_next(self.state)
        return out

    def uniform(self) -> float:
        # 53-bit mantissa draw in [0, 1)
        return (self.u64() >> 11) * (1.0 / (1 << 53))

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        return self.u64() % n

    def shuffle(self, seq: list) -> None:
        for i in range(len(seq) - 1, 0, -1):
            j = self.u64() % (i + 1)
            seq[i], seq[j] = seq[j], seq[i]


def uniform_below(seed: int, count: int, p: float) -> np.ndarray:
    """`SplitMix64(seed).uniform() < p` for each of the first `count` draws,
    as a bool array, mixed in place in uint64 with no float block.

    The i-th state is seed + (i+1) * golden mod 2^64. A draw is x * 2^-53
    for a 53-bit integer x, and x * 2^-53 < p exactly when
    x < ceil(p * 2^53), since p * 2^53 is exact in floating point.
    """
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(seed & MASK64)
    t = np.empty_like(z)
    for shift, mix in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=t)
        z ^= t
        z *= np.uint64(mix)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    z >>= np.uint64(11)
    return z < np.uint64(math.ceil(p * (1 << 53)))
