"""Property tests: scaling every coordinate by a power of two is exact in
floating point, so no solver or coreset may change what it selects."""
from __future__ import annotations

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from remote_div import PointSet, RunConfig, mwm_offline, pf_coreset, pf_offline


@st.composite
def instances(draw):
    n = draw(st.integers(4, 30))
    cell = st.integers(-64, 64)
    points = draw(st.lists(st.tuples(cell, cell), min_size=n, max_size=n))
    k = draw(st.integers(2, min(n, 4)))
    return np.asarray(points, dtype=np.float64) / 8.0, k


def _selections(coords: np.ndarray, k: int):
    ps = PointSet.from_coords(coords)
    solution, tree = pf_offline(ps, k)
    out = [solution.indices, tree, pf_coreset(ps, k, 1.0).indices]
    k_even = k - k % 2
    if ps.n >= 3 * k_even:
        matching, _trace = mwm_offline(ps, k_even, RunConfig(k=k_even, repeats=5))
        out.append(matching.indices)
    return out


@given(instances(), st.integers(-20, 20))
def test_power_of_two_scaling_changes_no_selection(instance, j):
    coords, k = instance
    assume(np.ptp(coords, axis=0).max() > 0.0)  # pf_offline needs two distinct points
    assert _selections(coords * 2.0**j, k) == _selections(coords, k)
