"""Property tests: no solver, coreset or oracle may change what it selects
when every coordinate is scaled by a power of two (exact in floating point),
or when the same geometry is given as a distance matrix; and the matching
solver's and coreset's same-cell padding is the greedy that rescans the
cells for every pair; and the net tree is the matrix-built tree cut at its
first full level; and the pseudoforest coreset read in blocks of rows is
the one read from the whole matrix."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from remote_div import (
    Objective,
    PointSet,
    RunConfig,
    PreconditionError,
    StPair,
    brute_force_diversity,
    build_net_tree,
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
    voronoi_partition,
)
from remote_div.errors import InternalInvariantError
from remote_div.matching import same_cell_pairs
from remote_div.rng import stream_rng
from oracles import (
    cut_net_tree,
    fill_same_cell_pairs,
    find_separated_sets_by_matrix,
    k_outlier_radius_by_matrix,
    net_tree_by_matrix,
    pf_coreset_by_matrix,
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
    out = [solution.indices, tree, pf_coreset(ps, k, 1.0).indices]
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
    part = voronoi_partition(ps, centers)
    pairs = same_cell_pairs(part, centers, k // 2)
    for size in range(0, k + 1, 2):
        for z in itertools.combinations(sorted(centers), size):
            expected = fill_same_cell_pairs(list(z), set(centers), part.cells, k)
            assert sorted(list(z) + pairs[: k - size]) == sorted(expected)
    _solution, trace = mwm_offline(ps, k, RunConfig(k=k, repeats=5), gmm_start=start)
    assert trace.w_set == sorted(fill_same_cell_pairs(trace.z_subset, set(centers), part.cells, k))
    core = mwm_coreset(ps, k, gmm_start=start)
    assert core.passthrough == (ps.n == 3 * k)
    if not core.passthrough:
        expected = fill_same_cell_pairs(list(centers), set(centers), part.cells, 2 * k)[k:]
        assert core.blocks["pairs"] == sorted(expected)


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
        assert tree == cut_net_tree(full, tree.depth)
        _value, nodes = dp_antichain(full, k)
        points = sorted(p for _lvl, p in nodes)
        solution, solved_on = pf_offline(ps, k, root)
        assert solved_on == tree
        assert solution.indices == points
        assert solution.value.hex() == pf_cost(ps, points, with_witness=False).value.hex()


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
