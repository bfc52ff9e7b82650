from __future__ import annotations

import numpy as np
import pytest

from remote_div import PointSet, RunConfig, mwm_offline, split_dataset
from remote_div.cli import _resolve_start
from remote_div.errors import PreconditionError
from remote_div.generators import make_clusters, make_uniform_cube
from remote_div.rng import SAMPLE_MAX_N, SPLIT_STREAM, START_POINT_STREAM, Stream, streams, uniforms
from oracles import even_subset_by_list, stream_rng

# 2**64 - 1 carries across every 32-bit half of the Philox products and keys.
STREAMS = [*range(300), 2**32 + 1, 2**64 - 1]
# Trial ids, the two one-off streams, and the largest id.
STREAM_IDS = [0, 1, 2**32, 2**32 + 1, 2**64 - 1]


@pytest.mark.parametrize("seed", [0, 1, 7, 2**63, 2**64 - 1])
def test_uniforms_equal_numpy_philox_streams(seed):
    # m = 5, 9 and 17 cross Philox's 4-word block boundaries.
    for m in (1, 4, 5, 9, 17):
        rows = uniforms(seed, STREAMS, m)
        expected = [stream_rng(seed, s).random(m) for s in STREAMS]
        assert rows.dtype == np.float64
        assert rows.tobytes() == np.array(expected).tobytes()


def test_uniforms_of_no_streams_or_no_draws_are_empty():
    assert uniforms(3, [], 4).shape == (0, 4)
    assert uniforms(3, range(2), 0).shape == (2, 0)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_uniforms_reject_a_seed_outside_64_bits(seed):
    with pytest.raises(PreconditionError, match="seed must fit in 64 unsigned bits"):
        uniforms(seed, range(3), 2)
    with pytest.raises(PreconditionError, match="seed must fit in 64 unsigned bits"):
        Stream(seed, 0)


def _same(ours, theirs) -> bool:
    return np.asarray(ours).tolist() == np.asarray(theirs).tolist()


# Each op is (name, args); the oracle runs the same generator method.
_ORACLE = {
    "random": lambda g, m: g.random(m),
    "integers": lambda g, lo, hi: int(g.integers(lo, hi)),
    "permutation": lambda g, n: g.permutation(n),
    "sample": lambda g, n, size: g.choice(n, size=size, replace=False),
}

_SEQUENCES = [
    # One 32-bit draw buffers a high half that a double leaves alone and the
    # next 32-bit draw returns.
    [("integers", (0, 10)), ("random", (3,)), ("integers", (0, 10)), ("integers", (0, 10))],
    [("integers", (5, 6)), ("random", (1,)), ("integers", (0, 2**32)), ("random", (2,))],
    # Ranges of 0 (nothing drawn), 2**32 - 2 (Lemire) and 2**32 - 1 (raw).
    [("integers", (7, 8)), ("integers", (-3, 2**32 - 4)), ("integers", (0, 2**32)), ("integers", (0, 2**32 - 1))],
    [("random", (1,)), ("integers", (0, 2**32 - 1)), ("integers", (3, 4)), ("integers", (1, 2**32 + 1))],
    # size = n skips the draw in [0, 0]; odd and even draw counts leave the
    # half buffered or not.
    [("sample", (8, 8)), ("random", (2,)), ("sample", (12, 3)), ("integers", (0, 7))],
    [("integers", (0, 3)), ("sample", (1, 1)), ("sample", (5, 0)), ("sample", (SAMPLE_MAX_N, 40)), ("random", (1,))],
    [("permutation", (0,)), ("permutation", (1,)), ("permutation", (2,)), ("random", (1,)), ("permutation", (7,))],
    # Permutations long enough that rejections run past the prefetched words.
    [("permutation", (5,)), ("permutation", (300,)), ("integers", (0, 1000)), ("permutation", (1025,))],
    [("random", (9,)), ("sample", (10, 4)), ("permutation", (33,)), ("random", (5,)), ("integers", (2, 11))],
]


@pytest.mark.parametrize("stream", STREAM_IDS)
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("prefetch", [None, 0, 3, 4, 36])
def test_stream_draws_equal_numpy_generator(seed, stream, prefetch):
    # prefetch 3 ends inside a block, so the first refill starts at its block.
    for ops in _SEQUENCES:
        ours = Stream(seed, stream) if prefetch is None else streams(seed, [stream], prefetch)[0]
        theirs = stream_rng(seed, stream)
        for name, args in ops:
            assert _same(getattr(ours, name)(*args), _ORACLE[name](theirs, *args)), (name, args)
        # Whatever the ops left buffered, the next draws agree too.
        assert ours.integers(0, 2**31) == int(theirs.integers(0, 2**31))
        assert _same(ours.random(3), theirs.random(3))


def test_stream_refills_in_whole_blocks_when_rejections_run_past_the_prefetch():
    # A range of 2**31 + 1 rejects about half its 32-bit draws, so runs of
    # rejections cross the 4 prefetched words and fetch block after block.
    ours = streams(11, [4], 4)[0]
    theirs = stream_rng(11, 4)
    assert [ours.integers(0, 2**31 + 1) for _ in range(40)] == [int(theirs.integers(0, 2**31 + 1)) for _ in range(40)]
    assert len(ours._buf) > 40 // 2
    assert _same(ours.permutation(50), theirs.permutation(50))


def test_stream_rejects_draws_outside_numpy_32_bit_paths():
    s = Stream(1, 0)
    with pytest.raises(ValueError):
        s.integers(3, 3)
    with pytest.raises(ValueError):
        s.integers(0, 2**32 + 1)
    with pytest.raises(ValueError):
        s.sample(SAMPLE_MAX_N + 1, 2)
    with pytest.raises(ValueError):
        s.sample(3, 4)


# -- call sites: each draw the package makes is numpy's generator's ------------------


@pytest.mark.parametrize("n", [1, 2, 17, 1000])
def test_random_split_is_the_numpy_permutation(n):
    ps = PointSet.from_coords(np.zeros((n, 1)))
    m = min(n, 3)
    perm = stream_rng(9, SPLIT_STREAM).permutation(n)
    expected = [sorted(int(perm[i]) for i in range(j, n, m)) for j in range(m)]
    assert split_dataset(ps, m, "random", seed=9) == expected


def test_generators_draw_the_numpy_uniforms():
    assert make_uniform_cube(25, 3, 8).coords.tobytes() == stream_rng(8, 0).random((25, 3)).tobytes()
    expected = stream_rng(4, 0).random((10, 2)) * 2.0 - 1.0
    expected[1::2, 0] += 100.0
    assert make_clusters(10, 2, 4, clusters=2, separation=100.0, width=2.0).coords.tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", [0, 3, 2**64 - 1])
def test_random_gmm_start_is_the_numpy_integer(seed):
    for n in (1, 2, 50, 2**20):
        assert _resolve_start("random", n, seed) == int(stream_rng(seed, START_POINT_STREAM).integers(n))


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_matching_trials_draw_their_stream_coins(seed):
    ps = PointSet.from_coords(stream_rng(31, 0).random((40, 2)))
    for repeats in (1, 6):
        _, trace = mwm_offline(ps, 6, RunConfig(k=6, seed=seed, repeats=repeats))
        coins = stream_rng(seed, trace.trial).random(len(trace.gmm.centers))
        assert trace.z_subset == even_subset_by_list(trace.gmm.centers, coins)
