"""Property tests: no solver, coreset or oracle may change what it selects
when every coordinate is scaled by a power of two (exact in floating point),
or when the same geometry is given as a distance matrix; and the matching
solver's and coreset's same-cell padding is the greedy that rescans the
cells for every pair; and the net tree is the matrix-built tree cut at its
first full level; and the pseudoforest coreset read in blocks is the one
read from the whole matrix; and every reduction over a cell grid (regular
cells, or runs of consecutive points) gives the bits of the one over whole
rows, at the n where the pseudoforest floor and the coreset's passthrough
switch too; and on tie-heavy grids the farthest-point traversal and its
Voronoi labels are the two-array traversal and the per-point list grouping
they replaced."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from remote_div import (
    Objective,
    PointSet,
    RunConfig,
    PreconditionError,
    StPair,
    brute_force_diversity,
    build_net_tree,
    diameter,
    dp_antichain,
    find_separated_sets,
    k_outlier_radius,
    gmm,
    mwm_coreset,
    mwm_offline,
    pf_coreset,
    pf_cost,
    pf_offline,
    rescale_and_clamp,
    run_pipeline,
    split_dataset,
    voronoi_partition,
)
from remote_div import cells
from remote_div.errors import InternalInvariantError
from remote_div.matching import same_cell_pairs
from remote_div.cells import min_offdiag_distance
from oracles import (
    cut_net_tree,
    diameter_by_rows,
    fill_same_cell_pairs,
    find_separated_sets_by_matrix,
    gmm_by_two_arrays,
    k_outlier_radius_by_matrix,
    min_offdiag_by_rows,
    net_tree_by_matrix,
    net_tree_of,
    pf_coreset_by_matrix,
    stream_rng,
    voronoi_cells_by_lists,
)


@st.composite
def instances(draw):
    n = draw(st.integers(4, 30))
    cell = st.integers(-64, 64)
    points = draw(st.lists(st.tuples(cell, cell), min_size=n, max_size=n))
    k = draw(st.integers(2, min(n, 4)))
    return np.asarray(points, dtype=np.float64) / 8.0, k


def _selections(ps: PointSet, k: int):
    solution, tree = pf_offline(ps, k)
    out = [solution.indices, tree.to_json(), pf_coreset(ps, k, 1.0).indices]
    k_even = k - k % 2
    candidates = range(min(ps.n, 12))  # keeps the enumeration small
    for objective, size in ((Objective.REMOTE_PSEUDOFOREST, k), (Objective.REMOTE_MATCHING, k_even)):
        out.append(brute_force_diversity(ps, size, objective, candidates).indices)
    if ps.n >= 3 * k_even:
        matching, _trace = mwm_offline(ps, k_even, RunConfig(k=k_even, repeats=5))
        out.append(matching.indices)
    return out


@given(instances(), st.integers(-20, 20))
def test_power_of_two_scaling_changes_no_selection(instance, j):
    coords, k = instance
    assume(np.ptp(coords, axis=0).max() > 0.0)  # pf_offline needs two distinct points
    scaled = PointSet.from_coords(coords * 2.0**j)
    assert _selections(scaled, k) == _selections(PointSet.from_coords(coords), k)


@given(instances())
def test_euclidean_and_matrix_kinds_select_alike(instance):
    coords, k = instance
    assume(np.ptp(coords, axis=0).max() > 0.0)
    ps = PointSet.from_coords(coords)
    as_matrix = PointSet.from_matrix(ps.distance_matrix())
    assert _selections(as_matrix, k) == _selections(ps, k)


@given(
    st.integers(4, 160),
    st.sampled_from([2, 4, 6]),
    st.integers(1, 4),
    st.sampled_from(["round_robin", "random"]),
    st.sampled_from(list(Objective)),
    st.integers(0, 2**64 - 1),
)
def test_file_parts_compose_like_the_strategy_that_made_them(n, k, m, strategy, objective, seed):
    # 2-D points on a coarse grid (coincident points among them); parts small
    # enough to pass through whole and large enough to be cut to a coreset;
    # unions that are enumerated, and pseudoforest unions only bounded.
    assume(k <= n and m <= n)
    ps = PointSet.from_coords(stream_rng(seed, 0).integers(0, 20, (n, 2)) / 8.0)
    cfg = RunConfig(k=k, epsilon=1.0, seed=seed, objective=objective)
    made = run_pipeline(ps, cfg, m, strategy).to_dict()
    parts = split_dataset(ps, m, strategy, seed)
    given_parts = run_pipeline(ps, cfg, m, "file", parts=parts).to_dict()
    for key in ("strategy", "seed", "timings"):
        del made[key], given_parts[key]
    assert given_parts == made


@st.composite
def padding_instances(draw):
    """n exactly 3k or 3k+1 on a grid of at most 16 locations, so points
    coincide and, for larger k, several centers share a location."""
    k = draw(st.sampled_from([2, 4, 6, 8]))
    n = 3 * k + draw(st.integers(0, 1))
    dim = draw(st.integers(1, 2))
    point = st.lists(st.integers(0, 3), min_size=dim, max_size=dim)
    points = draw(st.lists(point, min_size=n, max_size=n))
    return np.asarray(points, dtype=np.float64), k, draw(st.integers(0, n - 1))


@given(padding_instances())
def test_same_cell_padding_matches_the_rescanning_greedy(instance):
    coords, k, start = instance
    ps = PointSet.from_coords(coords)
    centers = gmm(ps, k, start).centers
    cell_of = voronoi_partition(ps, centers)
    cells = [np.flatnonzero(cell_of == rank).tolist() for rank in range(k)]
    pairs = same_cell_pairs(cell_of, centers, k // 2)
    for size in range(0, k + 1, 2):
        for z in itertools.combinations(sorted(centers), size):
            expected = fill_same_cell_pairs(list(z), set(centers), cells, k)
            assert sorted(list(z) + pairs[: k - size]) == sorted(expected)
    _solution, trace = mwm_offline(ps, k, RunConfig(k=k, repeats=5), gmm_start=start)
    assert trace.w_set == sorted(fill_same_cell_pairs(trace.z_subset, set(centers), cells, k))
    core = mwm_coreset(ps, k, gmm_start=start)
    assert core.passthrough == (ps.n == 3 * k)
    if not core.passthrough:
        expected = fill_same_cell_pairs(list(centers), set(centers), cells, 2 * k)[k:]
        assert core.blocks["pairs"] == sorted(expected)


@st.composite
def traversal_instances(draw):
    """1-3-D points on a grid of at most 3 steps a side, so points coincide,
    GMM runs out of positive distances and picks centers at one location,
    and Voronoi ties are everywhere; k reaches n."""
    n = draw(st.integers(1, 24))
    dim = draw(st.integers(1, 3))
    point = st.lists(st.integers(0, 2), min_size=dim, max_size=dim)
    points = draw(st.lists(point, min_size=n, max_size=n))
    k = draw(st.integers(1, n))
    return np.asarray(points, dtype=np.float64), k, draw(st.integers(0, n - 1))


@settings(max_examples=100)
@given(traversal_instances())
def test_traversal_and_labels_match_the_list_oracles(instance):
    coords, k, start = instance
    ps = PointSet.from_coords(coords)
    result = gmm(ps, k, start)
    centers, step_radii = gmm_by_two_arrays(ps, k, start)
    assert result.centers == centers
    assert [r.hex() for r in result.step_radii] == [r.hex() for r in step_radii]
    cell_of, cells = voronoi_cells_by_lists(ps, centers)
    labels = voronoi_partition(ps, centers)
    assert labels.tobytes() == cell_of.tobytes()
    assert [np.flatnonzero(labels == rank).tolist() for rank in range(k)] == cells


@st.composite
def net_instances(draw):
    """1-3-D points on a coarse grid (mostly coincident points) or a fine
    one, scaled by a power of two; k on both sides of n/2, so the floor is
    set by n >= 2k, by coincident points, or not at all."""
    n = draw(st.integers(2, 30))
    dim = draw(st.integers(1, 3))
    cell = st.integers(0, draw(st.sampled_from([3, 1000])))
    points = draw(st.lists(st.lists(cell, min_size=dim, max_size=dim), min_size=n, max_size=n))
    coords = np.asarray(points, dtype=np.float64) * 2.0 ** draw(st.integers(-60, 60))
    assume(np.ptp(coords, axis=0).max() > 0.0)
    return PointSet.from_coords(coords), draw(st.integers(2, n)), draw(st.integers(0, n - 1))


@given(net_instances())
def test_net_tree_is_the_matrix_tree_cut_at_its_first_full_level(instance):
    coords_ps, k, root = instance
    for ps in (coords_ps, PointSet.from_matrix(coords_ps.distance_matrix())):
        metric = rescale_and_clamp(ps, k)
        tree = build_net_tree(metric, root)
        full = net_tree_by_matrix(metric, root)
        assert len(tree.levels[-1]) == ps.n
        assert tree.depth == 0 or len(tree.levels[-2]) < ps.n
        assert tree.depth <= full.depth
        assert tree.to_json() == cut_net_tree(full, tree.depth).to_json()
        _value, nodes = dp_antichain(net_tree_of(full.levels, full.parent), k)
        points = sorted(p for _lvl, p in nodes)
        solution, solved_on = pf_offline(ps, k, root)
        assert solved_on.to_json() == tree.to_json()
        assert solution.indices == points
        assert solution.value.hex() == pf_cost(ps, points).value.hex()


@st.composite
def coreset_instances(draw):
    """Parts at the coreset's size threshold 2k^(1+eps)+k (exactly, where it
    is an integer) or a few points above it: 1-3-D grid points (the coarse
    grid makes coincident points), or clumps of points at the corners of a
    simplex or of a matrix of near-equal distances (no half-radius ball
    holds k points, so the peel runs, cutting through a clump when S fills
    up); a clump's points are of consecutive indices or scattered. Each
    Euclidean part may come as its distance matrix."""
    k = draw(st.sampled_from([3, 2, 4, 1]))
    epsilon = draw(st.sampled_from([1.0, 0.5, 0.25]))
    n = math.ceil(2.0 * k ** (1.0 + epsilon) + k) + draw(st.sampled_from([0, 0, 1, 5]))
    rng = stream_rng(draw(st.integers(0, 2**32)), 0)
    shape = draw(st.sampled_from(["grid", "simplex", "near-equal"]))
    corner = np.arange(n) // draw(st.integers(1, max(1, k - 1)))  # clumps of under k points
    if draw(st.booleans()):
        corner = rng.permutation(corner)
    if shape == "grid":
        side = draw(st.sampled_from([3, 1000]))
        coords = rng.integers(0, side + 1, (n, draw(st.integers(1, 3)))) * 2.0 ** draw(st.integers(-30, 30))
        ps = PointSet.from_coords(coords)
    elif shape == "simplex":
        ps = PointSet.from_coords(np.eye(n)[corner] + rng.integers(0, 4, (n, n)) / 256.0)
    else:
        across = np.triu(1.0 + rng.integers(0, 21, (n, n)) / 100.0, 1)
        across += across.T
        dmat = np.where(corner[:, None] == corner[None, :], 0.01, across[np.ix_(corner, corner)])
        np.fill_diagonal(dmat, 0.0)
        ps = PointSet.from_matrix(dmat)
    if ps.kind == "euclidean" and draw(st.booleans()):
        ps = PointSet.from_matrix(ps.distance_matrix())
    return ps, k, epsilon, draw(st.integers(0, n - 1))


def _pair_or_error(find, *args):
    try:
        pair = find(*args)
    except (PreconditionError, InternalInvariantError) as exc:
        return type(exc).__name__, str(exc)
    assert isinstance(pair, StPair)
    return pair.s, pair.t, pair.separation.hex(), pair.branch


@given(coreset_instances())
def test_pf_coreset_is_the_coreset_read_from_the_whole_matrix(instance):
    ps, k, epsilon, start = instance
    expected, pair = pf_coreset_by_matrix(ps, k, epsilon, start, part_id=3)
    assert pf_coreset(ps, k, epsilon, start, part_id=3).to_dict() == expected.to_dict()
    dmat = ps.distance_matrix()
    center, radius = k_outlier_radius(ps, k)
    assert (center, radius) == k_outlier_radius_by_matrix(dmat, k)
    assert _pair_or_error(find_separated_sets, ps, k, epsilon, radius) == (
        pair.s, pair.t, pair.separation.hex(), pair.branch
    )
    # The largest radius every row's far count admits, the next double and NaN.
    largest = float(np.sort(dmat, axis=1)[:, -k].min())
    for r in (largest, float(np.nextafter(largest, np.inf)), math.nan):
        got = _pair_or_error(find_separated_sets, ps, k, epsilon, r)
        assert got == _pair_or_error(find_separated_sets_by_matrix, ps, k, epsilon, r)
    with pytest.raises(PreconditionError, match="^radius guarantee violated"):
        find_separated_sets(ps, k, epsilon, float(np.nextafter(largest, np.inf)))


@st.composite
def grid_instances(draw):
    """Points in 1-3 dimensions, which reduce over a regular cell grid, or
    in 4 or 8 dimensions or as their distance matrix, which reduce over
    runs of about sqrt(n) consecutive points: a random cloud, a coarse
    integer grid (coincident points), duplicated rows, points on a line,
    or a constant first column (points on a line in 2-D); scaled by
    2^-500 .. 2^500, or by 2^-600 .. 2^-540, where squared differences
    underflow to 0. n runs from a grid of one or two cells to a few
    hundred points, a perfect square or one either side of it among them.
    Returns a `PointSet`."""
    dim = draw(st.sampled_from([1, 2, 3, 4, 8]))
    square = draw(st.integers(2, 20)) ** 2 + draw(st.sampled_from([-1, 0, 1]))
    n = draw(st.sampled_from([2, 3, 4]) | st.integers(5, 120) | st.integers(120, 400) | st.just(square))
    rng = stream_rng(draw(st.integers(0, 2**32)), 0)
    shape = draw(st.sampled_from(["cloud", "coarse", "duplicates", "line", "constant column"]))
    if shape == "coarse":
        coords = rng.integers(0, 4, (n, dim)).astype(np.float64)
    elif shape == "duplicates":
        rows = rng.random((draw(st.integers(1, n)), dim))
        coords = rows[rng.integers(0, len(rows), n)]
    elif shape == "line":
        coords = np.outer(rng.random(n), rng.standard_normal(dim))
    else:
        coords = rng.random((n, dim))
        if shape == "constant column":
            coords[:, 0] = 0.75
    ps = PointSet.from_coords(coords * 2.0 ** draw(st.integers(-500, 500) | st.integers(-600, -540)))
    return PointSet.from_matrix(ps.distance_matrix()) if draw(st.integers(0, 3)) == 3 else ps


# Twice the profile's examples, as the gridless draws (4-D, 8-D, matrix) take
# about a third of them.
@settings(max_examples=80)
@given(grid_instances(), st.integers(1, 12), st.sampled_from([1.0, 0.5]), st.integers(0, 400))
def test_grid_paths_are_the_row_and_matrix_paths_bit_for_bit(ps, k, epsilon, root):
    assert diameter(ps).hex() == diameter_by_rows(ps).hex()
    assert min_offdiag_distance(ps).hex() == min_offdiag_by_rows(ps).hex()
    dmat = ps.distance_matrix()
    if ps.n > k:
        center, radius = k_outlier_radius(ps, k)
        assert (center, radius) == k_outlier_radius_by_matrix(dmat, k)
        # The least k-th largest distance, which the far-count check reads.
        assert k_outlier_radius(ps, k - 1) == k_outlier_radius_by_matrix(dmat, k - 1)
        if ps.n >= 2.0 * k ** (1.0 + epsilon) + k:
            assert _pair_or_error(find_separated_sets, ps, k, epsilon, radius) == _pair_or_error(
                find_separated_sets_by_matrix, ps, k, epsilon, radius
            )
    k_net, root = min(k + 1, ps.n), root % ps.n
    try:
        clamped = rescale_and_clamp(ps, k_net)
    except PreconditionError as exc:
        assert "diameter is zero" in str(exc) and diameter(ps) == 0.0
        return
    try:
        full = net_tree_by_matrix(clamped, root)
    except PreconditionError:
        with pytest.raises(PreconditionError):
            build_net_tree(clamped, root)
        return
    tree = build_net_tree(clamped, root)
    assert tree.to_json() == cut_net_tree(full, tree.depth).to_json()


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 8, "matrix"])
@pytest.mark.parametrize("n", [7, 30, 63, 64, 65])
def test_order_statistics_with_k_plus_one_around_the_cell_count(n, dim):
    # A source cell ranks the farthest k+1 cells, or all of them when there
    # are no more: k+1 one below, at and one above the number of cells. In
    # 4-D and up and on a matrix (of the 2-D points), cells are runs of
    # isqrt(n) points.
    width = 2 if dim == "matrix" else dim
    ps = PointSet.from_coords(stream_rng(n + width, 0).random((n, width)))
    if dim == "matrix":
        ps = PointSet.from_matrix(ps.distance_matrix())
    count = cells._cell_grid(ps).size
    dmat = ps.distance_matrix()
    for k in range(max(1, count - 2), min(count, ps.n - 1) + 1):
        assert k_outlier_radius(ps, k) == k_outlier_radius_by_matrix(dmat, k)
        assert k_outlier_radius(ps, k - 1) == k_outlier_radius_by_matrix(dmat, k - 1)


@pytest.mark.parametrize("mirrored", [False, True])
def test_outlier_radius_ties_across_cells_go_to_the_lowest_index(mirrored):
    # The points at -1 and +1 tie on the least 2nd largest distance, 3, in
    # different cells. Mirrored, the higher index's cell has the lower floor
    # and is read first, and the other cell's floor equals the radius.
    ps = PointSet.from_coords(np.array([[-3.0], [-2.0], [-1.0], [1.0], [2.0], [3.0]]) * (-1.0 if mirrored else 1.0))
    grid = cells._cell_grid(ps)
    cell = {int(p): c for c in range(grid.size) for p in grid.members(c)}
    assert cell[2] != cell[3]
    assert k_outlier_radius(ps, 1) == (2, 3.0) == k_outlier_radius_by_matrix(ps.distance_matrix(), 1)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_pf_offline_around_n_2k_is_the_matrix_tree_solution(k, offset, dim):
    # A pair 1e-6 apart puts the last level at the first one whose
    # separation is at most the floor, where no row is read, once n >= 2k
    # switches the floor on; below 2k the floor is 0 and every row is read.
    n = 2 * k + offset
    coords = stream_rng(100 * k + dim, 0).random((n, dim))
    coords[-1] = coords[0] + 1e-6
    ps = PointSet.from_coords(coords)
    clamped = rescale_and_clamp(ps, k)
    assert (clamped.floor > 0.0) == (n >= 2 * k)
    solution, tree = pf_offline(ps, k)
    assert (5.0 ** (-tree.depth) / 20.0 <= clamped.floor) == (n >= 2 * k)
    full = net_tree_by_matrix(clamped)
    assert tree.to_json() == cut_net_tree(full, tree.depth).to_json()
    _value, nodes = dp_antichain(net_tree_of(full.levels, full.parent), k)
    assert solution.indices == sorted(p for _lvl, p in nodes)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("k, epsilon", [(1, 1.0), (2, 1.0), (3, 1.0), (4, 0.5), (9, 0.5)])
def test_pf_coreset_at_its_passthrough_threshold_is_the_matrix_coreset(k, epsilon, dim):
    threshold = 2 * k ** (1 + epsilon) + k
    assert threshold == int(threshold)
    coords = stream_rng(10 * k + dim, 0).random((int(threshold), dim))
    below = pf_coreset(PointSet.from_coords(coords[:-1]), k, epsilon, part_id=2)
    assert below.passthrough and below.indices == list(range(int(threshold) - 1))
    ps = PointSet.from_coords(coords)
    expected, _pair = pf_coreset_by_matrix(ps, k, epsilon, part_id=2)
    assert pf_coreset(ps, k, epsilon, part_id=2).to_dict() == expected.to_dict()
