from __future__ import annotations

import math

import pytest

from remote_div import (
    PointSet,
    PreconditionError,
    build_hst,
    embed_subset,
    hst_distance,
    hst_mwm_odd_count,
    threshold_components,
    verify_random_subset_bound,
)
from remote_div.costs import matching_value
from remote_div.hst import hst_distance_matrix, odd_component_counts
from conftest import line_pointset, random_euclidean
from oracles import random_subset_bound_by_draws, stream_rng


def test_two_points_split_at_level_one():
    ps = line_pointset([0.0, 0.6])
    hst = build_hst(ps, [0, 1], 2)
    assert hst.component_of[0][0] == hst.component_of[0][1]
    assert hst.component_of[1][0] != hst.component_of[1][1]  # 0.6 > 1/2


def test_single_point_chain():
    ps = line_pointset([0.3])
    hst = build_hst(ps, [0], 5)
    assert all(hst.component_of[t][0] == 0 for t in range(6))


def test_refinement_property():
    ps = random_euclidean(21, 10)
    hst, _ = embed_subset(ps, range(10), d=12)
    for t in range(hst.depth):
        coarse = hst.components(t)
        fine = hst.components(t + 1)
        for members in fine.values():
            parents = {hst.component_of[t][p] for p in members}
            assert len(parents) == 1
    # sanity: level-(t+1) components partition each level-t component
    for t in range(hst.depth):
        assert sorted(i for ms in hst.components(t).values() for i in ms) == hst.points


@pytest.mark.parametrize("seed", range(8))
def test_levels_equal_per_level_threshold_components(seed):
    rng = stream_rng(2400 + seed, 0)
    n = int(rng.integers(2, 14))
    # On a 1/16 grid many distances tie, some are 0, and many equal a level
    # radius 2^-t exactly.
    line = line_pointset(rng.integers(0, 17, n) / 16.0)
    plane = PointSet.from_coords(rng.random((n, 2)) / 2.0)
    for ps in (line, plane):
        members = sorted(int(v) for v in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        hst = build_hst(ps, members, 8)
        assert hst.component_of == [threshold_components(ps, members, 2.0 ** (-t)).component_of for t in range(9)]


def test_depth_check():
    ps = line_pointset([0.0, 2.0])
    with pytest.raises(PreconditionError, match="diameter"):
        build_hst(ps, [0, 1], 3)


def test_hst_distance_formula_at_root():
    ps = line_pointset([0.0, 0.9])
    hst = build_hst(ps, [0, 1], 1)
    assert hst_distance(hst, 0, 1) == pytest.approx(2.0 * (1.0 - 0.5))


def test_hst_distance_same_leaf_zero():
    ps = line_pointset([0.0, 1e-13])
    hst = build_hst(ps, [0, 1], 4)
    assert hst_distance(hst, 0, 1) == 0.0


@pytest.mark.parametrize("seed", range(10))
def test_hst_distance_within_4x_of_true(seed):
    ps = random_euclidean(1900 + seed, 9)
    hst, scaled = embed_subset(ps, range(9), d=40)
    dmat = scaled.distance_matrix()
    for a in range(9):
        for b in range(a + 1, 9):
            assert hst_distance(hst, a, b) <= 4.0 * dmat[a, b] + 1e-9


def test_odd_count_two_leaves_under_root():
    ps = line_pointset([0.0, 0.9])
    hst = build_hst(ps, [0, 1], 1)
    cost = hst_mwm_odd_count(hst, [0, 1])
    assert cost == pytest.approx(1.0)
    assert cost == pytest.approx(hst_distance(hst, 0, 1))


def test_odd_count_empty_set():
    ps = random_euclidean(5, 6)
    hst, _ = embed_subset(ps, range(6), d=10)
    assert hst_mwm_odd_count(hst, []) == 0.0


def test_odd_count_rejects_odd_sets():
    ps = random_euclidean(5, 6)
    hst, _ = embed_subset(ps, range(6), d=10)
    with pytest.raises(PreconditionError):
        hst_mwm_odd_count(hst, [0, 1, 2])


@pytest.mark.parametrize("seed", range(15))
def test_odd_count_equals_exact_matching_under_tree_metric(seed):
    rng = stream_rng(2000 + seed, 0)
    n = int(rng.integers(4, 11))
    ps = PointSet.from_coords(rng.random((n, 2)))
    hst, _ = embed_subset(ps, range(n), d=40)
    hmat = hst_distance_matrix(hst)
    size = min(n - n % 2, 8)
    members = sorted(int(v) for v in rng.choice(n, size=size, replace=False))
    rows = [[float(hmat[a, b]) for b in members] for a in members]
    assert hst_mwm_odd_count(hst, members) == pytest.approx(matching_value(rows), abs=1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_parity_fix_reduces_each_level_count_by_at_most_one(seed):
    rng = stream_rng(2100 + seed, 0)
    n = int(rng.integers(3, 12))
    ps = PointSet.from_coords(rng.random((n, 2)))
    hst, _ = embed_subset(ps, range(n), d=20)
    for draw in range(20):
        coins = stream_rng(2200 + seed, draw).random(n)
        raw = [i for i in range(n) if coins[i] < 0.5]
        fixed = list(raw)
        if len(fixed) % 2 == 1:
            fixed.remove(max(fixed))
        if len(raw) % 2 == 0:
            continue
        before = odd_component_counts(hst, raw)
        after = odd_component_counts(hst, fixed)
        for m_before, m_after in zip(before, after):
            assert m_after >= m_before - 1


def test_subset_bound_two_points_exact_quarter():
    d = 6.0
    ps = line_pointset([0.0, d])
    stats = verify_random_subset_bound(ps, [0, 1], 2000, seed=7)
    assert stats.best_even_value == d
    # Z = {both} with probability 1/4, else matching cost 0
    se = math.sqrt(0.25 * 0.75 / 2000) * d
    assert abs(stats.sample_mean - d / 4.0) <= 5 * se
    assert stats.sample_mean >= d / 16.0 - 3 * stats.std_error


def test_subset_bound_degenerate_coincident():
    ps = line_pointset([1.0, 1.0, 1.0])
    stats = verify_random_subset_bound(ps, [0, 1, 2], 200, seed=1)
    assert stats.best_even_value == 0.0
    assert stats.sample_mean == 0.0


def test_subset_bound_caps():
    ps = random_euclidean(3, 16)
    with pytest.raises(PreconditionError):
        verify_random_subset_bound(ps, range(16), 200, seed=0)
    with pytest.raises(PreconditionError):
        verify_random_subset_bound(ps, range(10), 50, seed=0)
    with pytest.raises(PreconditionError, match="1 to 14"):
        verify_random_subset_bound(ps, [], 200, seed=0)


@pytest.mark.parametrize("seed", range(10))
def test_subset_bound_randoms_clear_one_sixteenth(seed):
    rng = stream_rng(2300 + seed, 0)
    size = int(rng.integers(2, 11))
    ps = PointSet.from_coords(rng.random((size, 2)))
    stats = verify_random_subset_bound(ps, range(size), 2000, seed=seed)
    assert stats.sample_mean >= stats.best_even_value / 16.0 - 3 * stats.std_error


@pytest.mark.parametrize("seed", [0, 2**64 - 2001])
@pytest.mark.parametrize("trials", [100, 2000])
def test_subset_bound_equals_the_per_draw_loop_bit_for_bit(trials, seed):
    ps = random_euclidean(5, 24)
    rng = stream_rng(11, 0)
    for size in range(2, 15):
        members = [int(i) for i in rng.permutation(24)[:size]]  # unsorted, not a prefix
        stats = verify_random_subset_bound(ps, members, trials, seed)
        assert repr(stats) == repr(random_subset_bound_by_draws(ps, members, trials, seed))


@pytest.mark.parametrize("bad", [0.5, 2.7, float("nan"), "1"])
def test_hst_indices_are_rejected_not_truncated(bad):
    ps = random_euclidean(23, 6)
    hst, _ = embed_subset(ps, range(4), d=6)
    calls = (
        lambda: build_hst(line_pointset([0.0, 0.25, 0.5, 0.75]), [bad, 1, 3], 4),
        lambda: embed_subset(ps, [bad, 2, 3]),
        lambda: hst_mwm_odd_count(hst, [bad, 3]),
        lambda: odd_component_counts(hst, [bad, 3]),
        lambda: verify_random_subset_bound(ps, [bad, 2, 3], 100, 0),
    )
    for call in calls:
        with pytest.raises(PreconditionError, match="not an integer"):
            call()
    # An integral float still names its point.
    assert embed_subset(ps, [0.0, 2, 3])[0].points == [0, 1, 2]
    assert hst_mwm_odd_count(hst, [0.0, 3.0]) == hst_mwm_odd_count(hst, [0, 3])
