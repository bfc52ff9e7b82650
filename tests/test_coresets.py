from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from remote_div import (
    PointSet,
    PreconditionError,
    find_separated_sets,
    k_outlier_radius,
    mwm_coreset,
    pf_coreset,
    voronoi_partition,
    gmm,
)
from conftest import line_pointset, random_euclidean
from oracles import stream_rng


def uniform_like_matrix(seed: int, n: int, lo: float = 1.0, hi: float = 1.2) -> PointSet:
    """A metric where every pairwise distance is nearly the same; dense balls
    at half scale hold only their own center."""
    rng = stream_rng(seed, 0)
    dmat = rng.uniform(lo, hi, size=(n, n))
    dmat = np.triu(dmat, 1)
    dmat = dmat + dmat.T
    return PointSet.from_matrix(dmat)


def clumped_matrix(seed: int, clumps: int, clump_size: int, inner: float = 0.01) -> PointSet:
    """Tight clumps, all far from one another at nearly-uniform distance.

    Cross distances are assigned per clump pair so the triangle inequality
    holds despite the tiny within-clump spread.
    """
    rng = stream_rng(seed, 0)
    across = rng.uniform(1.0, 1.1, size=(clumps, clumps))
    n = clumps * clump_size
    dmat = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            ca, cb = a // clump_size, b // clump_size
            dmat[a, b] = inner if ca == cb else float(across[min(ca, cb), max(ca, cb)])
            dmat[b, a] = dmat[a, b]
    return PointSet.from_matrix(dmat)


# -- k_outlier_radius -----------------------------------------------------------

def test_outlier_radius_line():
    ps = line_pointset([0.0, 1.0, 2.0, 3.0, 4.0])
    center, radius = k_outlier_radius(ps, 2)
    assert center == 1  # ties with index 2, lowest index wins
    assert radius == 1.0


def test_outlier_radius_coincident():
    ps = line_pointset([5.0] * 4)
    _center, radius = k_outlier_radius(ps, 2)
    assert radius == 0.0


def test_outlier_radius_k_is_n_minus_1():
    ps = line_pointset([0.0, 1.0, 2.0])
    _center, radius = k_outlier_radius(ps, 2)
    assert radius == 0.0  # self-distance puts the (k+1)-th largest at 0


def test_outlier_radius_needs_enough_points():
    ps = line_pointset([0.0, 1.0])
    with pytest.raises(PreconditionError):
        k_outlier_radius(ps, 2)


def test_outlier_radius_ball_guarantee():
    for seed in range(10):
        ps = random_euclidean(1500 + seed, 15)
        k = 3
        center, radius = k_outlier_radius(ps, k)
        dmat = ps.distance_matrix()
        strictly_outside = int((dmat[center] > radius).sum())
        assert strictly_outside <= k
        # every point keeps at least k points at distance >= radius
        assert int((dmat >= radius).sum(axis=1).min()) >= k


def test_outlier_radius_partitions_one_row_at_a_time():
    # The radii are the rows' order statistics, and the blocked pass never
    # holds the whole matrix. At n=400 one block's temporaries already
    # reach a tenth of the matrix, so n is larger.
    ps = random_euclidean(1520, 800)
    k = 7
    dmat = ps.distance_matrix()
    radii = np.sort(dmat, axis=1)[:, ps.n - k - 1]
    del dmat
    tracemalloc.start()
    try:
        center, radius = k_outlier_radius(ps, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (center, radius) == (int(np.argmin(radii)), float(radii.min()))
    assert peak < ps.n * ps.n * 8 / 10


def test_bad_k_is_a_precondition_error():
    ps = random_euclidean(14, 25)
    for k in (-1, 2.5, "3", None):
        with pytest.raises(PreconditionError, match="k must be an integer >= 0"):
            k_outlier_radius(ps, k)
    for k in (0, -1, 2.5):
        with pytest.raises(PreconditionError, match="k must be a positive integer"):
            find_separated_sets(ps, k, 1.0, 0.1)
    dmat = ps.distance_matrix()
    assert k_outlier_radius(ps, np.int64(0)) == (int(np.argmin(dmat.max(axis=1))), float(dmat.max(axis=1).min()))


# -- find_separated_sets -----------------------------------------------------------

def _assert_st_contract(ps, k, epsilon, radius, pair):
    assert len(pair.s) == k and len(pair.t) == k
    assert not (set(pair.s) & set(pair.t))
    dmat = ps.distance_matrix()
    cross = min(float(dmat[a, b]) for a in pair.s for b in pair.t)
    assert cross >= epsilon * radius / 2.0 - 1e-12
    assert pair.separation == pytest.approx(cross)


def test_find_st_dense_branch_two_clusters():
    # 18 points near the origin, 3 points far away: the half-radius ball
    # around a cluster point captures k immediately.
    k, eps = 3, 1.0
    rng = stream_rng(4, 0)
    coords = np.vstack([rng.random((18, 2)) * 0.01, rng.random((3, 2)) * 0.01 + 50.0])
    ps = PointSet.from_coords(coords)
    _x, radius = k_outlier_radius(ps, k)
    pair = find_separated_sets(ps, k, eps, radius)
    assert pair.branch == "dense"
    _assert_st_contract(ps, k, eps, radius, pair)


def test_find_st_peel_branch_uniform_metric():
    # All distances in [1, 1.2]: no half-radius ball ever reaches k points,
    # so the annulus peeling runs and removes singletons.
    k, eps = 3, 1.0
    ps = uniform_like_matrix(5, 22)
    _x, radius = k_outlier_radius(ps, k)
    pair = find_separated_sets(ps, k, eps, radius)
    assert pair.branch == "peel"
    _assert_st_contract(ps, k, eps, radius, pair)


def test_find_st_peel_branch_multipoint_shells():
    # eps = 1/2, clumps of size 3 < k: the first annulus is too steep, the
    # second one satisfies the growth bound and peels a whole clump.
    k, eps = 4, 0.5
    ps = clumped_matrix(6, clumps=7, clump_size=3)  # n = 21 >= 2*4^1.5+4 = 26.6? no
    # need n >= 2k^(1+eps)+k = 20; 21 qualifies
    _x, radius = k_outlier_radius(ps, k)
    pair = find_separated_sets(ps, k, eps, radius)
    assert pair.branch == "peel"
    _assert_st_contract(ps, k, eps, radius, pair)


def test_find_st_peel_branch_keeps_no_k_by_n_stack():
    # T is read off the least distance to S, a running minimum over S's rows
    # that holds one of them at a time, never all k.
    k, eps = 32, 0.5
    ps = uniform_like_matrix(7, 1500)
    _x, radius = k_outlier_radius(ps, k)
    tracemalloc.start()
    try:
        pair = find_separated_sets(ps, k, eps, radius)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pair.branch == "peel"
    _assert_st_contract(ps, k, eps, radius, pair)
    assert peak < k * ps.n * 8 / 2


def test_find_st_uniform_grid_at_exact_threshold():
    from remote_div.generators import make_grid

    k, eps = 4, 1.0
    ps = make_grid(2 * k * k + k, 2)  # n = 36, the bare minimum for eps = 1
    _x, radius = k_outlier_radius(ps, k)
    pair = find_separated_sets(ps, k, eps, radius)
    _assert_st_contract(ps, k, eps, radius, pair)
    dmat = ps.distance_matrix()
    cross = min(float(dmat[a, b]) for a in pair.s for b in pair.t)
    assert cross >= radius / 2.0 - 1e-12


def test_find_st_epsilon_one_threshold_check():
    ps = random_euclidean(7, 20)
    with pytest.raises(PreconditionError, match="2k"):
        find_separated_sets(ps, 3, 1.0, 0.1)  # needs n >= 21


def test_find_st_rejects_bad_radius_guarantee():
    ps = random_euclidean(8, 25)
    with pytest.raises(PreconditionError, match="radius guarantee"):
        find_separated_sets(ps, 3, 1.0, 10.0)  # nobody is 10 away in the unit square


@pytest.mark.parametrize("seed", range(20))
def test_find_st_contract_on_randoms(seed):
    k = 3
    eps = 1.0 if seed % 2 == 0 else 0.5
    n = int(np.ceil(2 * k ** (1 + eps) + k)) + seed
    ps = random_euclidean(1600 + seed, n)
    _x, radius = k_outlier_radius(ps, k)
    pair = find_separated_sets(ps, k, eps, radius)
    _assert_st_contract(ps, k, eps, radius, pair)


def test_find_st_determinism():
    ps = random_euclidean(77, 30)
    _x, radius = k_outlier_radius(ps, 3)
    a = find_separated_sets(ps, 3, 1.0, radius)
    b = find_separated_sets(ps, 3, 1.0, radius)
    assert a == b


# -- pf_coreset ----------------------------------------------------------------------

def test_pf_coreset_passthrough_below_threshold():
    # threshold for k=3, eps=1 is 2*9+3 = 21
    ps = random_euclidean(9, 20)
    core = pf_coreset(ps, 3, 1.0)
    assert core.passthrough
    assert core.indices == list(range(20))


def test_pf_coreset_blocks_at_threshold():
    ps = random_euclidean(10, 21)
    core = pf_coreset(ps, 3, 1.0)
    assert not core.passthrough
    assert len(core.indices) <= 15
    for name in ("P", "S", "T", "U", "Y"):
        assert len(core.blocks[name]) == 3
    assert sorted(set().union(*core.blocks.values())) == core.indices


def test_pf_coreset_counts_distinct_indices_once():
    ps = random_euclidean(11, 30)
    core = pf_coreset(ps, 3, 1.0)
    union = set()
    for ids in core.blocks.values():
        union.update(ids)
    assert len(core.indices) == len(union)


def test_pf_coreset_determinism():
    ps = random_euclidean(12, 40)
    assert pf_coreset(ps, 3, 1.0) == pf_coreset(ps, 3, 1.0)


def test_pf_coreset_peaks_below_a_tenth_of_one_square_matrix():
    # Radii, far counts and the dense-ball scan read blocks over the cell
    # grid; P, U, the peel and the separation read single rows.
    ps = random_euclidean(1530, 2000)
    tracemalloc.start()
    try:
        core = pf_coreset(ps, 10, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not core.passthrough
    assert peak < ps.n * ps.n * 8 / 10


def test_pf_coreset_rejects_bad_epsilon():
    ps = random_euclidean(13, 25)
    with pytest.raises(PreconditionError):
        pf_coreset(ps, 3, 1.5)
    with pytest.raises(PreconditionError):
        pf_coreset(ps, 3, 0.0)


# -- mwm_coreset ----------------------------------------------------------------------

def test_mwm_coreset_passthrough_at_3k():
    ps = random_euclidean(14, 12)
    core = mwm_coreset(ps, 4)
    assert core.passthrough
    assert core.indices == list(range(12))


def test_mwm_coreset_nonpassthrough_at_3k_plus_1():
    ps = random_euclidean(15, 13)
    core = mwm_coreset(ps, 4)
    assert not core.passthrough
    assert len(core.indices) == 8


def test_mwm_coreset_pairs_share_cells():
    ps = random_euclidean(16, 40)
    k = 4
    core = mwm_coreset(ps, k)
    centers = core.blocks["Y"]
    result = gmm(ps, k)
    assert sorted(result.centers) == centers
    cell_of = voronoi_partition(ps, result.centers)
    pairs = core.blocks["pairs"]
    # reconstruct the appended order: pairs were added two at a time
    chosen = [i for i in core.indices if i not in set(centers)]
    assert sorted(chosen) == sorted(pairs)
    assert (np.bincount(cell_of[pairs]) % 2 == 0).all()


def test_mwm_coreset_rejects_odd_k():
    ps = random_euclidean(17, 20)
    with pytest.raises(PreconditionError):
        mwm_coreset(ps, 3)


def test_coreset_serialization_shape():
    ps = random_euclidean(18, 25)
    d = pf_coreset(ps, 3, 1.0, part_id=2).to_dict()
    assert d["part"] == 2
    assert d["objective"] == "pseudoforest"
    assert set(d["blocks"]) == {"P", "S", "T", "U", "Y"}
    assert d["indices"] == sorted(d["indices"])
