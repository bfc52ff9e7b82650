"""Property tests: no solver, coreset or oracle may change what it selects
when every coordinate is scaled by a power of two (exact in floating point),
or when the same geometry is given as a distance matrix."""
from __future__ import annotations

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from remote_div import Objective, PointSet, RunConfig, brute_force_diversity, mwm_offline, pf_coreset, pf_offline


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
