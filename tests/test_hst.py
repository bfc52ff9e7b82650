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
from oracles import (
    hst_distance_matrix_by_walk,
    random_subset_bound_by_draws,
    stream_rng,
    threshold_components_by_pairs,
)


def _components(hst, t: int) -> dict[int, list[int]]:
    """The level-t components, as {label: [points]}."""
    groups: dict[int, list[int]] = {}
    for p, label in zip(hst.points, hst.labels[t].tolist()):
        groups.setdefault(label, []).append(p)
    return groups


def _tie_heavy(seed: int):
    """(point set, subset) pairs of diameter at most 1: a 1/16-grid line and
    a coarse plane grid with coincident points, whose distances tie, are 0
    and equal level radii 2^-t exactly, and random points in the plane."""
    rng = stream_rng(2400 + seed, 0)
    n = int(rng.integers(2, 14))
    line = line_pointset(rng.integers(0, 17, n) / 16.0)
    plane = PointSet.from_coords(rng.random((n, 2)) / 2.0)
    grid = PointSet.from_coords(rng.integers(0, 5, (n, 2)) / 8.0)
    return [
        (ps, sorted(int(v) for v in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)))
        for ps in (line, plane, grid)
    ]


def test_two_points_split_at_level_one():
    ps = line_pointset([0.0, 0.6])
    hst = build_hst(ps, [0, 1], 2)
    assert hst.labels[0, 0] == hst.labels[0, 1]
    assert hst.labels[1, 0] != hst.labels[1, 1]  # 0.6 > 1/2


def test_single_point_chain():
    ps = line_pointset([0.3])
    hst = build_hst(ps, [0], 5)
    assert hst.labels.tolist() == [[0]] * 6


def test_refinement_property():
    ps = random_euclidean(21, 10)
    hst, _ = embed_subset(ps, range(10), d=12)
    for t in range(hst.depth):
        for members in _components(hst, t + 1).values():
            parents = {int(hst.labels[t, hst.points.index(p)]) for p in members}
            assert len(parents) == 1
    # sanity: level-(t+1) components partition each level-t component, and
    # each is labelled by the position of its lowest point
    for t in range(hst.depth):
        groups = _components(hst, t)
        assert sorted(i for ms in groups.values() for i in ms) == hst.points
        assert all(hst.points[label] == min(ms) for label, ms in groups.items())


@pytest.mark.parametrize("seed", range(8))
def test_levels_equal_per_level_threshold_components(seed):
    for ps, members in _tie_heavy(seed):
        hst = build_hst(ps, members, 8)
        levels = [{p: hst.points[label] for p, label in zip(hst.points, hst.labels[t].tolist())} for t in range(9)]
        assert levels == [threshold_components_by_pairs(ps, members, 2.0 ** (-t)) for t in range(9)]
        assert levels == [threshold_components(ps, members, 2.0 ** (-t)).component_of for t in range(9)]


@pytest.mark.parametrize("seed", range(8))
def test_distance_matrix_equals_the_level_walk_bit_for_bit(seed):
    for ps, members in _tie_heavy(seed):
        hst = build_hst(ps, members, 8)
        hmat = hst_distance_matrix(hst)
        assert hmat.tobytes() == hst_distance_matrix_by_walk(hst).tobytes()
        for a, v in enumerate(members):
            assert [hst_distance(hst, v, w).hex() for w in members] == [x.hex() for x in hmat[a].tolist()]
    hst, _ = embed_subset(random_euclidean(2500 + seed, 12), range(12), d=40)
    assert hst_distance_matrix(hst).tobytes() == hst_distance_matrix_by_walk(hst).tobytes()


def test_points_outside_the_hierarchy_are_rejected():
    hst = build_hst(line_pointset([0.0, 0.25, 0.5, 0.75]), [0, 1, 3], 4)
    calls = (
        (7, lambda: odd_component_counts(hst, [7])),
        (2, lambda: odd_component_counts(hst, [0, 2])),
        (7, lambda: hst_mwm_odd_count(hst, [0, 7])),
        (7, lambda: hst_distance(hst, 0, 7)),
        (-1, lambda: hst_distance(hst, -1, 0)),
    )
    for point, call in calls:
        with pytest.raises(PreconditionError, match=f"point {point} is not embedded"):
            call()


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
