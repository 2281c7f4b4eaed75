import math

import numpy as np

from rtss.rng import MASK64, SplitMix64, mix64, splitmix64_next, uniform_below


def test_scalar_stream_is_deterministic():
    a = [SplitMix64(42).u64() for _ in range(5)]
    b = [SplitMix64(42).u64() for _ in range(5)]
    assert a == b


def test_known_reference_output():
    # first output of the standard SplitMix64 for seed 0
    _, out = splitmix64_next(0)
    assert out == 0xE220A8397B1DCDAF


def test_vector_block_matches_scalar_stream():
    # 0.25 * 2^53 is an integer, so there the threshold sits on a draw value
    for seed in (0, 1, 2**63, 0xDEADBEEF):
        stream = SplitMix64(seed)
        scalar = [stream.uniform() for _ in range(500)]
        for p in (0.0, 0.05, 0.25, 0.5, 0.999):
            block = uniform_below(seed, 500, p)
            assert block.dtype == bool
            assert block.tolist() == [u < p for u in scalar]


def test_block_threshold_is_exact_at_a_draw():
    # p equal to a draw excludes it, the next float above includes it
    for seed in (3, 0xDEADBEEF):
        stream = SplitMix64(seed)
        scalar = [stream.uniform() for _ in range(200)]
        for i in (0, 57, 199):
            p = scalar[i]
            assert not uniform_below(seed, 200, p)[i]
            assert uniform_below(seed, 200, math.nextafter(p, 1.0))[i]
            assert uniform_below(seed, 200, p).tolist() == [u < p for u in scalar]


def test_empty_block():
    assert uniform_below(5, 0, 0.5).shape == (0,)


def test_uniform_range():
    stream = SplitMix64(7)
    vals = np.array([stream.uniform() for _ in range(10_000)])
    assert np.all(vals >= 0.0) and np.all(vals < 1.0)
    assert not uniform_below(7, 10_000, 0.0).any()


def test_mix64_matches_first_output():
    for x in (0, 5, 123456789):
        assert mix64(x) == SplitMix64(x).u64()
        assert 0 <= mix64(x) <= MASK64


def test_shuffle_and_randrange_deterministic():
    rng1, rng2 = SplitMix64(9), SplitMix64(9)
    seq1, seq2 = list(range(20)), list(range(20))
    rng1.shuffle(seq1)
    rng2.shuffle(seq2)
    assert seq1 == seq2
    assert [rng1.randrange(7) for _ in range(10)] == [rng2.randrange(7) for _ in range(10)]
