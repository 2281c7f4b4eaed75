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
_BLOCK = 1 << 14  # draws per block of uniform_below: 128 KB per uint64 array


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
    for x = z >> 11 of the 64-bit mix z, and it lies below p exactly when
    x < T = ceil(p * 2^53) (p * 2^53 is exact in floating point), that is
    when z < T << 11, which fits in 64 bits for p < 1. The draws are mixed
    in blocks of `_BLOCK` in two reused work arrays that stay in cache; the
    block from draw lo adds seed + lo * golden to the first golden
    multiples and writes its comparison into its slice of the result.
    """
    out = np.empty(count, dtype=bool)
    limit = np.uint64(math.ceil(p * (1 << 53)) << 11)
    z, t = np.empty((2, min(count, _BLOCK)), dtype=np.uint64)
    steps = np.arange(1, len(z) + 1, dtype=np.uint64)
    steps *= np.uint64(_GOLDEN)
    for lo in range(0, count, _BLOCK):
        n = min(_BLOCK, count - lo)
        zb, tb = z[:n], t[:n]
        np.add(steps[:n], np.uint64((seed + lo * _GOLDEN) & MASK64), out=zb)
        for shift, mix in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(zb, np.uint64(shift), out=tb)
            zb ^= tb
            zb *= np.uint64(mix)
        np.right_shift(zb, np.uint64(31), out=tb)
        zb ^= tb
        np.less(zb, limit, out=out[lo:lo + n])
    return out
