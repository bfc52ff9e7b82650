from __future__ import annotations

import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from remote_div import PointSet, RunConfig, mwm_offline, split_dataset
from remote_div.cli import _resolve_start, _suite_hst, _suite_instances, canonicalize_report, main
from remote_div.errors import PreconditionError
from remote_div.generators import make_clusters, make_uniform_cube
from remote_div.rng import SPLIT_STREAM, START_POINT_STREAM, _words, integer, permutation, uniforms
from oracles import even_subset_by_list, stream_rng

# 2**64 - 1 carries across every 32-bit half of the Philox products and keys.
STREAMS = [*range(300), 2**32 + 1, 2**64 - 1]


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
        split_dataset(PointSet.from_coords(np.zeros((3, 1))), 2, "random", seed=seed)


def _word(seed: int, stream: int) -> int:
    """The first 64-bit word of numpy's Philox keyed by (seed, stream)."""
    return int(stream_rng(seed, stream).bit_generator.random_raw())


# -- the two draw rules ---------------------------------------------------------------


def test_permutation_is_the_stable_argsort_and_a_sample_its_prefix():
    # Ties (equal doubles) keep index order, so a sample of size s is the s
    # indices with the smallest (double, index) pairs.
    doubles = np.array([0.5, 0.25, 0.5, 0.0, 0.25, 0.75, 0.0])
    order = sorted(range(len(doubles)), key=lambda i: (doubles[i], i))
    perm = permutation(doubles)
    assert perm.tolist() == order == [3, 6, 1, 4, 0, 2, 5]
    for size in range(len(doubles) + 1):
        assert perm[:size].tolist() == order[:size]
    assert permutation(np.empty(0)).tolist() == []
    # About 100 distinct values among 2,000: numpy's default sort orders
    # most equal doubles otherwise, so the stable sort must decide them.
    many = uniforms(2, [0], 2000)[0].round(2)
    assert permutation(many).tolist() == np.argsort(many, kind="stable").tolist()


def test_permutations_of_three_come_out_equally_often():
    # 6,000 streams' first three doubles: each of the 6 orders about 1,000
    # times (a chi-square of 20.5 has p = 0.001 at 5 degrees of freedom).
    counts = Counter(tuple(permutation(row).tolist()) for row in uniforms(5, range(6000), 3))
    assert len(counts) == 6
    assert sum((c - 1000) ** 2 / 1000 for c in counts.values()) < 20.5


@pytest.mark.parametrize("lo, hi", [(0, 1), (0, 2), (4, 13), (-3, 2**32 - 4), (0, 2**32)])
def test_integer_spans_its_range_from_the_high_half(lo, hi):
    assert integer(0, lo, hi) == lo
    assert integer(2**32 - 1, lo, hi) == lo  # the low half is never read
    assert integer(2**64 - 1, lo, hi) == hi - 1
    assert integer(2**63, lo, hi) == lo + (hi - lo) // 2


def test_integers_below_ten_come_out_equally_often():
    words = _words(6, range(10_000), 1)[:, 0]
    counts = Counter(integer(w, 0, 10) for w in words)
    assert sorted(counts) == list(range(10))
    assert sum((c - 1000) ** 2 / 1000 for c in counts.values()) < 27.9  # p = 0.001 at 9 d.o.f.


# -- call sites: each draw the package makes is one of the rules ---------------------


@pytest.mark.parametrize("n", [1, 2, 17, 1000])
def test_random_split_is_the_stable_argsort_of_its_doubles(n):
    ps = PointSet.from_coords(np.zeros((n, 1)))
    m = min(n, 3)
    perm = np.argsort(stream_rng(9, SPLIT_STREAM).random(n), kind="stable")
    expected = [sorted(int(perm[i]) for i in range(j, n, m)) for j in range(m)]
    assert split_dataset(ps, m, "random", seed=9) == expected


@pytest.mark.parametrize("seed", [0, 3, 2**64 - 1])
def test_random_gmm_start_is_the_word_formula(seed):
    word = _word(seed, START_POINT_STREAM)
    for n in (1, 2, 50, 2**20, 2**32):
        start = _resolve_start("random", n, seed)
        assert 0 <= start < n
        assert start == ((word >> 32) * n) >> 32


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_verify_suites_read_each_trial_at_fixed_word_offsets(seed):
    # Word 0 gives n, words 1..24 the coordinates, words 25..36 the keys.
    for t, (n, ps, keys) in enumerate(_suite_instances(seed, 5, 4, 13)):
        doubles = stream_rng(seed, t).random(37)
        assert n == 4 + ((_word(seed, t) >> 32) * 9 >> 32)
        assert ps.coords.tobytes() == doubles[1 : 1 + 2 * n].reshape(n, 2).tobytes()
        assert keys.tobytes() == doubles[25 : 25 + n].tobytes()


def test_verify_hst_samples_are_prefixes_of_the_key_permutation(monkeypatch):
    import remote_div.hst as hst

    seen, odd_count = [], hst.hst_mwm_odd_count
    monkeypatch.setattr(hst, "hst_mwm_odd_count", lambda tree, mem: seen.append(mem) or odd_count(tree, mem))
    assert _suite_hst(5, 30)["pass"]
    instances = _suite_instances(5, 30, 4, 13)
    assert seen == [sorted(permutation(keys)[: min(n - n % 2, 8)].tolist()) for n, _ps, keys in instances]


# -- golden outputs: a change to a draw rule fails one of these by name ----------------


def test_random_split_matches_golden_parts():
    ps = PointSet.from_coords(np.zeros((17, 1)))
    assert split_dataset(ps, 3, "random", seed=9) == [[2, 4, 5, 8, 10, 16], [3, 6, 7, 9, 12, 14], [0, 1, 11, 13, 15]]


def test_random_gmm_start_matches_golden_index():
    assert _resolve_start("random", 50, 3) == 4


_GOLDEN_VERIFY = (
    '{"command": "verify", "flags": {"command": "verify", "output": null, "seed": 3, "suite": "all", "trials": 20}, '
    '"pass": true, "schema_version": 1, "suite": "all", "suites": {"hst": {"checked_pairs": 768, "checked_sets": 20, '
    '"max_identity_gap": 0.0, "pass": true, "stretch_bound": 4.0, "trials": 20, "worst_stretch": 3.997079254815599}, '
    '"lemma42": {"draws": 2000, "min_ratio": 0.2505, "pass": true, "trials": 20, "worst_margin": 0.050543000525515}, '
    '"mstcc": {"max_ratio": 0.9313506793166345, "min_ratio": 0.6019174105553149, "pass": true, "trials": 20}}, '
    '"timings": null}'
)


def test_verify_report_matches_golden_bytes(capsys):
    assert main(["verify", "--suite", "all", "--seed", "3", "--trials", "20"]) == 0
    report = canonicalize_report(json.loads(capsys.readouterr().out))
    assert json.dumps(report, sort_keys=True) == _GOLDEN_VERIFY


def test_generators_draw_the_numpy_uniforms():
    assert make_uniform_cube(25, 3, 8).coords.tobytes() == stream_rng(8, 0).random((25, 3)).tobytes()
    expected = stream_rng(4, 0).random((10, 2)) * 2.0 - 1.0
    expected[1::2, 0] += 100.0
    assert make_clusters(10, 2, 4, clusters=2, separation=100.0, width=2.0).coords.tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_matching_trials_draw_their_stream_coins(seed):
    ps = PointSet.from_coords(stream_rng(31, 0).random((40, 2)))
    for repeats in (1, 6):
        _, trace = mwm_offline(ps, 6, RunConfig(k=6, seed=seed, repeats=repeats))
        coins = stream_rng(seed, trace.trial).random(len(trace.gmm.centers))
        assert trace.z_subset == even_subset_by_list(trace.gmm.centers, coins)


def test_uniforms_free_their_scratch_before_the_output():
    # The rounds' six scratch arrays are gone before the words are stacked,
    # and the words are shifted in place into doubles.
    tracemalloc.start()
    try:
        doubles = uniforms(3, range(2000), 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert doubles.tobytes() == np.array([stream_rng(3, s).random(10) for s in range(2000)]).tobytes()
    assert peak < 600 * 1024


def test_verify_instances_draw_their_streams_a_chunk_at_a_time():
    # A million-trial verify holds one chunk's words, not every trial's:
    # the first instance of 20,000 trials comes from a small draw, and the
    # instances are those of one whole draw.
    tracemalloc.start()
    try:
        next(_suite_instances(0, 20000, 4, 13))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    words = _words(5, range(2100), 37)
    for t, (n, ps, keys) in enumerate(_suite_instances(5, 2100, 2, 13)):
        assert n == integer(words[t, 0], 2, 13)
        doubles = (words[t] >> 11) * 2.0**-53
        assert ps.coords.tobytes() == doubles[1 : 1 + 2 * n].tobytes()
        assert keys.tobytes() == doubles[25 : 25 + n].tobytes()
