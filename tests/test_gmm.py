from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from remote_div import PreconditionError, gmm, pf_cost, voronoi_partition
from remote_div.generators import make_uniform_cube
from remote_div.matching import same_cell_pairs
from conftest import line_pointset, random_euclidean


def test_gmm_hand_simulated_line():
    # points 0, 10, 3, 6 at indices 0..3
    ps = line_pointset([0.0, 10.0, 3.0, 6.0])
    result = gmm(ps, 3, start=0)
    assert result.centers == [0, 1, 3]
    assert result.radius == 3.0
    assert result.step_radii == [10.0, 4.0, 3.0]


def test_gmm_k1():
    ps = line_pointset([0.0, 10.0, 3.0])
    result = gmm(ps, 1, start=0)
    assert result.centers == [0]
    assert result.radius == 10.0


def test_gmm_exhaustion():
    ps = random_euclidean(7, 6)
    result = gmm(ps, 6, start=0)
    assert sorted(result.centers) == list(range(6))
    assert result.radius == 0.0


def test_gmm_rejects_bad_k():
    ps = line_pointset([0.0, 1.0])
    with pytest.raises(PreconditionError):
        gmm(ps, 3)
    with pytest.raises(PreconditionError):
        gmm(ps, 1, start=5)


def test_gmm_handles_duplicate_locations():
    ps = line_pointset([0.0, 0.0, 0.0, 5.0])
    result = gmm(ps, 4, start=0)
    assert sorted(result.centers) == [0, 1, 2, 3]
    assert result.radius == 0.0


@pytest.mark.parametrize("seed", range(30))
def test_gmm_separation_invariant(seed):
    # min pairwise center distance >= covering radius
    ps = random_euclidean(600 + seed, 8 + (seed % 40), dim=2)
    k = 2 + (seed % 8)
    result = gmm(ps, min(k, ps.n), start=0)
    centers = result.centers
    pairwise = min(
        ps.distance(a, b) for i, a in enumerate(centers) for b in centers[i + 1 :]
    )
    assert pairwise >= result.radius - 1e-12
    assert result.step_radii == sorted(result.step_radii, reverse=True)


@pytest.mark.parametrize("seed", range(10))
def test_gmm_pf_of_centers_at_least_k_radius(seed):
    ps = random_euclidean(700 + seed, 20)
    k = 4
    result = gmm(ps, k)
    assert pf_cost(ps, result.centers).value >= k * result.radius - 1e-12


def test_gmm_determinism():
    ps = random_euclidean(42, 30)
    a = gmm(ps, 7, start=2)
    b = gmm(ps, 7, start=2)
    assert a == b


def test_voronoi_line_example():
    ps = line_pointset([0.0, 10.0, 3.0, 6.0])
    cell_of = voronoi_partition(ps, [0, 1])
    assert cell_of.dtype == np.int64
    assert cell_of.tolist() == [0, 1, 0, 1]


def test_voronoi_tie_goes_to_lower_rank():
    ps = line_pointset([0.0, 4.0, 2.0])
    assert voronoi_partition(ps, [0, 1])[2] == 0


def test_voronoi_all_centers_singletons():
    ps = random_euclidean(3, 5)
    assert voronoi_partition(ps, list(range(5))).tolist() == [0, 1, 2, 3, 4]


def test_voronoi_duplicate_centers_rejected():
    ps = random_euclidean(3, 5)
    with pytest.raises(PreconditionError):
        voronoi_partition(ps, [1, 1])


def test_voronoi_center_owns_its_cell_even_when_coincident():
    ps = line_pointset([0.0, 0.0, 3.0])
    assert voronoi_partition(ps, [0, 1]).tolist() == [0, 1, 0]


def test_gmm_voronoi_and_pairs_on_2e4_points_peak_below_1_1_mb():
    # The distance rows and the label array set the peak; per-point Python
    # lists of the cells would add about 0.3 MB on top.
    ps = make_uniform_cube(20_000, 2, 1)
    tracemalloc.start()
    try:
        centers = gmm(ps, 20).centers
        same_cell_pairs(voronoi_partition(ps, centers), centers, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * 2**20
