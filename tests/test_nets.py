from __future__ import annotations

import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remote_div import (
    ClampedMetric,
    Objective,
    PointSet,
    PreconditionError,
    brute_force_diversity,
    build_net_tree,
    diameter,
    dp_antichain,
    pf_coreset,
    pf_cost,
    pf_offline,
    rescale_and_clamp,
)
from remote_div.nets import CLAMP_CONSTANT, NetTree
from conftest import line_pointset, random_euclidean, random_matrix_metric, two_clusters
from oracles import (
    cut_net_tree,
    max_antichain_value,
    net_tree_by_matrix,
    net_tree_of,
    padded_dp_antichain,
    stream_rng,
)


# -- rescale_and_clamp ---------------------------------------------------------

def test_rescale_diameter_40():
    ps = line_pointset([0.0, 40.0, 10.0])
    metric = rescale_and_clamp(ps, 4)
    assert metric.scale == pytest.approx(1.0 / 800.0)
    assert max(metric.distance(i, j) for i in range(3) for j in range(3)) == pytest.approx(0.05)


def test_rescale_clamp_floor():
    ps = line_pointset([0.0, 1e-9, 1.0])
    # n >= 2k floors at c/k; n < 2k with distinct points keeps floor 0
    for k, floor in [(1, CLAMP_CONSTANT), (4, 0.0)]:
        metric = rescale_and_clamp(ps, k)
        assert metric.floor == floor
        dmat = metric.distance_matrix()
        off = dmat[~np.eye(3, dtype=bool)]
        assert off.min() >= floor
    # n < 2k with coincident points floors again
    assert rescale_and_clamp(line_pointset([0.0, 0.0, 1.0]), 4).floor == CLAMP_CONSTANT / 4


def test_rescale_rejects_coincident_everything():
    ps = line_pointset([2.0, 2.0])
    with pytest.raises(PreconditionError, match="diameter"):
        rescale_and_clamp(ps, 2)


def test_rescale_names_underflow_when_distinct_points_have_zero_diameter():
    # 40 distinct points 1e-300 apart: every squared difference underflows,
    # so every distance, and the diameter, is 0 without any two coinciding.
    coords = stream_rng(58, 0).random((40, 2)) * 1e-300
    ps = PointSet.from_coords(coords)
    assert len(np.unique(coords, axis=0)) == 40 and diameter(ps) == 0.0
    with pytest.raises(PreconditionError, match="^diameter is zero: all points coincide, or their squared differences underflow"):
        rescale_and_clamp(ps, 2)


def test_clamped_pf_within_c_of_scaled_pf_all_subsets():
    ps = random_euclidean(909, 10)
    k = 3
    metric = rescale_and_clamp(ps, k)
    scaled = PointSet.from_matrix(ps.distance_matrix() * metric.scale)
    clamped = PointSet.from_matrix(metric.distance_matrix())
    for subset in combinations(range(10), k):
        a = pf_cost(scaled, subset).value
        b = pf_cost(clamped, subset).value
        assert b >= a - 1e-15
        assert b - a <= CLAMP_CONSTANT + 1e-15


# -- build_net_tree --------------------------------------------------------------

def test_two_points_at_exact_threshold_join_level_one():
    base = PointSet.from_matrix(np.array([[0.0, 0.05], [0.05, 0.0]]))
    tree = build_net_tree(ClampedMetric(base, 0.0))
    assert tree.levels[0] == [0]
    assert tree.levels[1] == [0, 1]


def test_single_point_tree():
    base = PointSet.from_matrix(np.array([[0.0]]))
    tree = build_net_tree(ClampedMetric(base, 0.0))
    assert tree.levels == [[0]]
    assert tree.depth == 0


def test_tree_rejects_oversized_diameter():
    base = PointSet.from_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(PreconditionError):
        build_net_tree(ClampedMetric(base, 0.0))


@pytest.mark.parametrize("matrix", [False, True])
def test_pf_offline_builds_the_cell_grid_once(monkeypatch, matrix):
    # n >= 2k, so the floor rule reads no smallest distance: the rescale's
    # diameter is the one reduction over all pairs, and the tree's bound
    # check reuses it, as does a second solve on the same point set.
    import remote_div.metric as metric

    ps = random_matrix_metric(31, 40) if matrix else random_euclidean(31, 40)
    original, built = metric._cell_grid, []
    monkeypatch.setattr(metric, "_cell_grid", lambda p: built.append(p.n) or original(p))
    first, _tree = pf_offline(ps, 4)
    assert built == [40]
    assert pf_offline(ps, 4)[0] == first
    assert built == [40]


@pytest.mark.parametrize("seed", range(15))
def test_net_separation_and_parent_distance(seed):
    n = 6 + (4 * seed) % 59  # exercises sizes up to 64
    ps = random_euclidean(1000 + seed, n)
    metric = rescale_and_clamp(ps, 4)
    tree = build_net_tree(metric)
    dmat = metric.distance_matrix()
    for level, members in enumerate(tree.levels):
        sep = 5.0 ** (-level) / 20.0
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                assert dmat[a, b] >= sep - 1e-15
    assert sorted(tree.levels[-1]) == list(range(n))
    for lvl in range(1, len(tree.levels)):
        for p, pos in zip(tree.levels[lvl], tree.parents[lvl - 1].tolist()):
            pp = tree.levels[lvl - 1][pos]
            assert dmat[p, pp] <= 5.0 ** (-(lvl - 1)) / 20.0 + 1e-15
    for level in range(1, len(tree.levels)):
        assert set(tree.levels[level - 1]) <= set(tree.levels[level])


# -- dp_antichain ------------------------------------------------------------------

def test_dp_k1_returns_root():
    tree = net_tree_of([[0], [0, 1]], {(1, 0): (0, 0), (1, 1): (0, 0)})
    value, nodes = dp_antichain(tree, 1)
    assert nodes == [(0, 0)]
    assert value == 1.0


def test_dp_star_three_children_k2():
    tree = net_tree_of(
        [[0], [0, 1, 2]],
        {(1, 0): (0, 0), (1, 1): (0, 0), (1, 2): (0, 0)},
    )
    value, nodes = dp_antichain(tree, 2)
    assert len(nodes) == 2
    assert all(lvl == 1 for lvl, _ in nodes)
    assert value == pytest.approx(2.0 / 5.0)


def test_dp_two_leaf_tree_k2_picks_both_leaves():
    tree = net_tree_of([[0], [0, 1]], {(1, 0): (0, 0), (1, 1): (0, 0)})
    _value, nodes = dp_antichain(tree, 2)
    assert sorted(nodes) == [(1, 0), (1, 1)]


def test_dp_rejects_k_above_point_count():
    tree = net_tree_of([[0], [0, 1]], {(1, 0): (0, 0), (1, 1): (0, 0)})
    with pytest.raises(PreconditionError):
        dp_antichain(tree, 3)


def _no_ancestor_pairs(tree: NetTree, nodes) -> bool:
    chosen = set(nodes)
    for lvl, p in nodes:
        pos = tree.levels[lvl].index(p)
        while lvl > 0:
            lvl, pos = lvl - 1, int(tree.parents[lvl - 1][pos])
            if (lvl, tree.levels[lvl][pos]) in chosen:
                return False
    return True


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("k", [2, 3, 5])
def test_dp_matches_bruteforce_antichain(seed, k):
    n = max(k, 5 + (seed % 8))
    ps = random_euclidean(1100 + seed, n)
    metric = rescale_and_clamp(ps, k)
    tree = build_net_tree(metric)
    _value, nodes = dp_antichain(tree, k)
    assert len(nodes) == k
    assert _no_ancestor_pairs(tree, nodes)
    dp_value = sum(5.0 ** (-lvl) for lvl, _ in nodes)
    assert dp_value == pytest.approx(max_antichain_value(tree, k), rel=1e-12)
    points = [p for _, p in nodes]
    assert len(set(points)) == k


@pytest.mark.parametrize("seed", range(6))
def test_selected_points_pf_clears_dp_value_over_80(seed):
    k = 4
    ps = random_euclidean(1150 + seed, 13)
    metric = rescale_and_clamp(ps, k)
    tree = build_net_tree(metric)
    value, nodes = dp_antichain(tree, k)
    dp_value = sum(5.0 ** (-lvl) for lvl, _ in nodes)
    clamped = PointSet.from_matrix(metric.distance_matrix())
    points = sorted(p for _, p in nodes)
    assert pf_cost(clamped, points).value >= dp_value / 80.0 - 1e-12
    # the selected nodes re-evaluate to the returned root value
    assert dp_value == pytest.approx(value)


def test_dp_matches_bruteforce_on_larger_tree():
    ps = random_euclidean(1199, 90)
    metric = rescale_and_clamp(ps, 3)
    tree = build_net_tree(metric)
    node_count = sum(len(members) for members in tree.levels)
    assert node_count >= 100  # a tree big enough to stress the fold
    _value, nodes = dp_antichain(tree, 3)
    dp_value = sum(5.0 ** (-lvl) for lvl, _ in nodes)
    assert dp_value == pytest.approx(max_antichain_value(tree, 3), rel=1e-12)


@st.composite
def antichain_trees(draw):
    """Nested levels over points 0..n-1, level l holding the first sizes[l]
    points. Each level adds up to about twice the points above it (at most
    21), or, at one level, 100-150 (a wide star); a level that adds none
    makes a chain of single children. A level's new points hang under random
    parents or all under one hub, and k is 1, n or anything between."""
    rng = stream_rng(draw(st.integers(0, 2**32)), 0)
    depth = int(rng.integers(0, 7))
    wide = int(rng.integers(depth)) if depth and rng.random() < 0.5 else None
    sizes = [1]
    for level in range(depth):
        grow = rng.integers(100, 151) if level == wide else rng.integers(0, min(2 * sizes[-1], 20) + 2)
        sizes.append(sizes[-1] + int(grow))
    parents = []
    for above, size in zip(sizes, sizes[1:]):
        hub = rng.random() < 0.5
        new = np.zeros(size - above, dtype=np.int64) if hub else rng.integers(0, above, size - above)
        parents.append(np.concatenate([np.arange(above), new]))
    n = sizes[-1]
    k = {"one": 1, "all": n, "between": int(rng.integers(1, n + 1))}[draw(st.sampled_from(["between", "one", "all"]))]
    return NetTree(levels=[list(range(size)) for size in sizes], parents=parents), k


@settings(max_examples=100)
@given(antichain_trees())
def test_dp_selects_what_the_padded_dp_selects(instance):
    tree, k = instance
    value, nodes = dp_antichain(tree, k)
    expected_value, expected_nodes = padded_dp_antichain(tree, k)
    assert (value.hex(), nodes) == (expected_value.hex(), expected_nodes)


@pytest.mark.parametrize(
    "ps, depth",
    [
        # 1e-150 apart: below about 1e-154 the squares underflow and the floor fires.
        (line_pointset([0.0, 1e-150, 1.0, 2.0]), 216),
        (PointSet.from_matrix(np.array([[0, 1e-290, 1, 2], [1e-290, 0, 1, 2], [1, 1, 0, 1], [2, 2, 1, 0.0]])), 416),
    ],
)
def test_dp_on_a_deep_tree_with_no_floor(ps, depth):
    # n < 2k keeps the floor at 0, so one close pair sets the depth, the
    # weights 5^(depth - level) run to hundreds of digits, and the
    # reconstruction recurses through every level.
    k = 3
    clamped = rescale_and_clamp(ps, k)
    assert clamped.floor == 0.0
    solution, tree = pf_offline(ps, k)
    assert tree.depth == depth
    assert tree.to_json() == cut_net_tree(net_tree_by_matrix(clamped), depth).to_json()
    value, nodes = dp_antichain(tree, k)
    assert value == pytest.approx(max_antichain_value(tree, k), rel=1e-12)
    assert sorted(p for _lvl, p in nodes) == solution.indices == [0, 2, 3]


# -- pf_offline -----------------------------------------------------------------------

def test_pf_offline_k_equals_n():
    ps = random_euclidean(7, 6)
    solution, _tree = pf_offline(ps, 6)
    assert solution.indices == list(range(6))
    assert solution.value == pytest.approx(pf_cost(ps, range(6)).value)


def test_pf_offline_two_far_clusters():
    ps = two_clusters(31, 8, separation=1000.0, width=1.0)
    solution, _tree = pf_offline(ps, 4)
    oracle = brute_force_diversity(ps, 4, Objective.REMOTE_PSEUDOFOREST)
    assert solution.value >= oracle.value / 80.0
    # with two huge clusters the solver should find a cross-cluster spread
    assert solution.value >= 1000.0


def test_pf_offline_rejects_bad_k():
    ps = random_euclidean(7, 6)
    with pytest.raises(PreconditionError):
        pf_offline(ps, 1)
    with pytest.raises(PreconditionError):
        pf_offline(ps, 7)


def test_pf_offline_small_n_with_coincident_points():
    # n < 2k and a coincident pair: the floor is forced to keep depth finite
    ps = line_pointset([0.0, 0.0, 1.0, 2.0, 7.0])
    solution, _tree = pf_offline(ps, 4)
    assert len(set(solution.indices)) == 4
    oracle = brute_force_diversity(ps, 4, Objective.REMOTE_PSEUDOFOREST)
    assert solution.value >= oracle.value / 80.0


def test_pf_offline_peaks_below_a_tenth_of_one_square_matrix():
    # The net tree reads one clamped row per joining point, never a matrix.
    n = 2000
    ps = random_euclidean(53, n)
    tracemalloc.start()
    try:
        pf_offline(ps, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * n * n * 8


def test_pf_offline_and_pf_coreset_peak_below_a_hundredth_of_one_square_matrix():
    # At n=20,000 in 2-D the grid's cell bounds, the candidate blocks, the
    # last net level's parent blocks and the tree's per-level arrays hold
    # O(n) values. pf_offline peaks near 0.0006 of the matrix, so a tree or
    # DP that goes back to per-node dicts (0.004) fails its own bound.
    n = 20000
    ps = random_euclidean(54, n)
    peaks = []
    for run in (lambda: pf_offline(ps, 10), lambda: pf_coreset(ps, 10, 1.0)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[-1] <= 0.01 * n * n * 8
    assert peaks[0] <= 0.001 * n * n * 8


@pytest.mark.parametrize("seed", range(30))
def test_pf_offline_guarantee_on_randoms(seed):
    rng = np.random.default_rng(1200 + seed)
    n = int(rng.integers(5, 15))
    k = int(rng.integers(2, min(6, n) + 1))
    ps = random_euclidean(1300 + seed, n)
    solution, _tree = pf_offline(ps, k)
    oracle = brute_force_diversity(ps, k, Objective.REMOTE_PSEUDOFOREST)
    assert solution.value >= oracle.value / 80.0 - 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_histogram_value_brackets_dp_value(seed):
    # For the clamp-metric optimum Z0, bucketing nearest-neighbor distances
    # by powers of five gives sum a_l 5^-l >= PF(Z0), and the DP value
    # dominates that sum.
    k = 4
    ps = random_euclidean(1400 + seed, 12)
    metric = rescale_and_clamp(ps, k)
    clamped = PointSet.from_matrix(metric.distance_matrix())
    oracle = brute_force_diversity(clamped, k, Objective.REMOTE_PSEUDOFOREST)
    report = pf_cost(clamped, oracle.indices)
    tree = build_net_tree(metric)
    _value, nodes = dp_antichain(tree, k)
    dp_value = sum(5.0 ** (-lvl) for lvl, _ in nodes)
    histogram_value = 0.0
    for a, b in report.witness:
        contribution = clamped.distance(a, b)
        level = math.floor(-math.log(contribution, 5) + 1e-12)
        assert 5.0 ** (-(level + 1)) < contribution * (1 + 1e-9)
        assert contribution <= 5.0 ** (-level) * (1 + 1e-9)
        histogram_value += 5.0 ** (-level)
    assert histogram_value >= report.value - 1e-12
    assert dp_value >= histogram_value - 1e-9
