from __future__ import annotations

import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from remote_div import (
    PointSet,
    PreconditionError,
    mst_component_sum,
    mst_cost,
    mwm_exact,
    pf_cost,
    threshold_components,
)
from remote_div import costs
from remote_div.costs import MATCHING_EXACT_CAP, matching_weights, pf_sum, threshold_labels
from remote_div.generators import make_grid
from conftest import line_pointset, random_euclidean, random_matrix_metric
from oracles import (
    matching_table,
    matching_tables_by_views,
    mst_by_pruefer,
    mwm_by_pairings,
    pf_sum_loop,
    stream_rng,
    threshold_components_by_pairs,
)


# -- matching ---------------------------------------------------------------

def test_mwm_line_pairs():
    ps = line_pointset([0.0, 1.0, 10.0, 11.0])
    report = mwm_exact(ps, [0, 1, 2, 3])
    assert report.value == 2.0
    assert report.witness == [(0, 1), (2, 3)]


def test_mwm_two_points():
    ps = line_pointset([2.0, 7.0])
    assert mwm_exact(ps, [0, 1]).value == 5.0


def test_mwm_empty_subset():
    ps = line_pointset([0.0, 1.0])
    report = mwm_exact(ps, [])
    assert report.value == 0.0
    assert report.witness == []


def test_mwm_odd_subset_rejected():
    ps = line_pointset([0.0, 1.0, 2.0])
    with pytest.raises(PreconditionError, match="even"):
        mwm_exact(ps, [0, 1, 2])


def test_mwm_cap():
    ps = random_euclidean(1, MATCHING_EXACT_CAP + 2)
    with pytest.raises(PreconditionError, match="cap"):
        mwm_exact(ps, list(range(MATCHING_EXACT_CAP + 2)))


def test_every_exact_matching_caller_names_the_one_cap():
    from remote_div import Objective, RunConfig, brute_force_diversity, mwm_offline, run_pipeline

    k = MATCHING_EXACT_CAP + 2
    ps = random_euclidean(1, 3 * k)
    calls = (
        lambda: mwm_exact(ps, range(k)),
        lambda: mwm_offline(ps, k, RunConfig(k=k)),
        lambda: brute_force_diversity(ps, k, Objective.REMOTE_MATCHING, candidates=range(k)),
        lambda: run_pipeline(ps, RunConfig(k=k), 2),
    )
    for call in calls:
        with pytest.raises(PreconditionError, match=f"^k={k} above exact matching cap {MATCHING_EXACT_CAP}$"):
            call()
    costs.check_matching_cap(MATCHING_EXACT_CAP)  # the cap itself is allowed


def _witness_instances():
    """(point set, even subset) pairs up to the exact matching cap, tie-heavy
    ones included: a grid's equal distances and every point twice."""
    yield random_euclidean(21, 10), range(8)
    for size in (2, 4, 10, 16, MATCHING_EXACT_CAP):
        yield random_euclidean(21, size), range(size)
    yield make_grid(MATCHING_EXACT_CAP, 2), range(MATCHING_EXACT_CAP)
    yield make_grid(16, 3), range(16)
    yield PointSet.from_coords(np.repeat(stream_rng(5, 0).random((10, 2)), 2, axis=0)), range(20)
    yield random_matrix_metric(21, 12), range(12)


def test_mwm_witness_reevaluates_to_value():
    # The DP's value is d(p1) + table[the rest], p1 the pair of the lowest
    # point, so the pairs in ascending order of their lowest point, summed
    # right-nested, give it bit for bit.
    for ps, subset in _witness_instances():
        report = mwm_exact(ps, list(subset))
        assert all(a < b for a, b in report.witness)
        assert report.witness == sorted(report.witness)
        assert sorted(i for e in report.witness for i in e) == list(subset)
        total = 0.0
        for a, b in reversed(report.witness):
            total = ps.distance(a, b) + total
        assert total == report.value


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("size", [2, 4, 6, 8])
def test_mwm_dp_matches_pairing_enumeration(seed, size):
    ps = random_euclidean(100 + seed, size)
    dmat = ps.distance_matrix()
    rows = [[float(dmat[i, j]) for j in range(size)] for i in range(size)]
    assert mwm_exact(ps, range(size)).value == pytest.approx(mwm_by_pairings(rows), rel=1e-12)


@pytest.mark.parametrize("twin_at", [[50.0, 3.0], [0.0, 0.0], [3.0, 1.0]])
def test_mwm_coincident_twin_pair_is_free(twin_at):
    # Adding two points at one shared location never changes the matching cost.
    base_pts = [[0.0, 0.0], [3.0, 1.0], [7.0, 2.0], [1.0, 5.0]]
    ps = PointSet.from_coords(base_pts + [twin_at, twin_at])
    base = mwm_exact(ps, [0, 1, 2, 3]).value
    with_twins = mwm_exact(ps, [0, 1, 2, 3, 4, 5]).value
    assert with_twins == pytest.approx(base, abs=1e-12)


@st.composite
def distance_batches(draw, sizes):
    """1-3 Euclidean distance matrices of one size, each over a few random
    points (so coincident points are common) at a scale in 2^-500 .. 2^500."""
    s = draw(sizes)
    batch = []
    for _ in range(draw(st.integers(1, 3))):
        pool = stream_rng(draw(st.integers(0, 2**32)), 0).random((max(s, 1), 2))
        picks = draw(st.lists(st.integers(0, draw(st.integers(0, max(s, 1) - 1))), min_size=s, max_size=s))
        coords = pool[picks].reshape(s, 2) * 2.0 ** draw(st.integers(-500, 500))
        batch.append(PointSet.from_coords(coords).distance_matrix() if s else np.zeros((0, 0)))
    return np.stack(batch)


def block_diagonal(d):
    """The batch `d` of shape (B, s, s) as one block-diagonal matrix and the
    (B, s) members array that reads instance b from block b."""
    batch, s = d.shape[0], d.shape[-1]
    dmat = np.full((batch * s, batch * s), np.nan)
    for b in range(batch):
        dmat[b * s : (b + 1) * s, b * s : (b + 1) * s] = d[b]
    return dmat, np.arange(batch * s).reshape(batch, s)


@given(distance_batches(st.integers(0, 14)))
@example(random_euclidean(7, 16).distance_matrix()[None])
@example(random_euclidean(7, 18).distance_matrix()[None])
@example(random_euclidean(7, MATCHING_EXACT_CAP).distance_matrix()[None])
@example(make_grid(16, 2).distance_matrix()[None])
@example(PointSet.from_coords(np.repeat(stream_rng(5, 0).random((8, 2)), 2, axis=0)).distance_matrix()[None])
@example(random_matrix_metric(21, 14).distance_matrix()[None])
def test_matching_weights_equal_the_whole_set_table_entry_bit_for_bit(d):
    # Odd sizes included: they have no perfect matching, and give +inf.
    dmat, members = block_diagonal(d)
    weights = matching_weights(dmat, members)
    if d.shape[1] <= 16:
        expected = np.array([matching_table(m.tolist())[-1] for m in d])
    else:  # the per-mask loop takes seconds here
        expected = matching_tables_by_views(dmat, members)[:, -1]
    assert weights.tobytes() == expected.tobytes()
    if d.shape[1] % 2:
        assert np.isinf(weights).all()


def test_matching_plan_reaches_fibonacci_many_masks():
    # A mask pairs its lowest point with one of the others, so a set of s
    # points reaches F(s + 1) masks, the empty one included.
    fib = [0, 1]
    while len(fib) <= MATCHING_EXACT_CAP + 1:
        fib.append(fib[-1] + fib[-2])
    for s in range(0, MATCHING_EXACT_CAP + 1, 2):
        assert 1 + sum(len(starts) for *_, starts in costs._matching_plan(s)) == fib[s + 1]
    assert (fib[17], fib[21]) == (1597, 10946)


@given(distance_batches(st.integers(2, 12)))
@example(np.stack([random_euclidean(seed, 12).distance_matrix() for seed in range(3)]))
def test_pf_sum_equals_the_per_member_loop_bit_for_bit(d):
    expected = [pf_sum_loop(m.tolist(), range(d.shape[1])) for m in d]
    assert pf_sum(*block_diagonal(d)).tobytes() == np.array(expected).tobytes()


def test_mwm_exact_at_16_points_peaks_below_4_mb():
    ps = random_euclidean(31, 16)
    tracemalloc.start()
    try:
        mwm_exact(ps, range(16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_mwm_exact_at_20_points_peaks_below_2_mib():
    # 10,946 reachable masks, not a 2^20-entry table (8 MiB).
    ps = random_euclidean(31, MATCHING_EXACT_CAP)
    mwm_exact(ps, range(MATCHING_EXACT_CAP))  # builds the plan, kept for the process
    tracemalloc.start()
    try:
        mwm_exact(ps, range(MATCHING_EXACT_CAP))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


# -- mst ----------------------------------------------------------------------

def test_mst_line():
    ps = line_pointset([0.0, 1.0, 10.0])
    report = mst_cost(ps, [0, 1, 2])
    assert report.value == 10.0
    assert report.witness == [(0, 1), (1, 2)]


def test_mst_singleton_and_pair():
    ps = line_pointset([0.0, 4.0])
    assert mst_cost(ps, [0]).value == 0.0
    assert mst_cost(ps, [0, 1]).value == 4.0


def test_mst_empty_rejected():
    ps = line_pointset([0.0, 4.0])
    with pytest.raises(PreconditionError):
        mst_cost(ps, [])


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("size", [3, 5, 6])
def test_mst_matches_pruefer_enumeration(seed, size):
    ps = random_euclidean(200 + seed, size)
    dmat = ps.distance_matrix()
    rows = [[float(dmat[i, j]) for j in range(size)] for i in range(size)]
    assert mst_cost(ps, range(size)).value == pytest.approx(mst_by_pruefer(rows), rel=1e-12)


def test_mst_witness_reevaluates():
    ps = random_euclidean(31, 9)
    report = mst_cost(ps, range(9))
    assert sum(ps.distance(a, b) for a, b in report.witness) == pytest.approx(report.value)
    assert len(report.witness) == 8


# -- pseudoforest -------------------------------------------------------------

def test_pf_line():
    ps = line_pointset([0.0, 1.0, 10.0])
    assert pf_cost(ps, [0, 1, 2]).value == 11.0


def test_pf_two_points():
    ps = line_pointset([0.0, 3.0])
    assert pf_cost(ps, [0, 1]).value == 6.0


def test_pf_coincident_pair_plus_far_point():
    ps = line_pointset([0.0, 0.0, 9.0])
    # twins contribute 0 each, far point contributes its distance to a twin
    assert pf_cost(ps, [0, 1, 2]).value == 9.0


def test_pf_requires_two_points():
    ps = line_pointset([0.0, 1.0])
    with pytest.raises(PreconditionError):
        pf_cost(ps, [0])


@pytest.mark.parametrize("bad", [0.5, 2.999, "1", float("nan"), float("inf"), None])
def test_non_integral_indices_are_rejected_not_truncated(bad):
    ps = line_pointset([0.0, 1.0, 5.0, 9.0])
    for evaluate in (pf_cost, mwm_exact, mst_cost):
        with pytest.raises(PreconditionError, match="not an integer"):
            evaluate(ps, [bad, 3])
    # An integral float or numpy integer still names its point.
    assert pf_cost(ps, [0.0, np.int64(3)]).value == pf_cost(ps, [0, 3]).value


def test_pf_witness_ties_to_lowest_index():
    ps = line_pointset([0.0, 1.0, 2.0])
    report = pf_cost(ps, [0, 1, 2])
    # point 1 is equidistant from 0 and 2; the witness picks 0
    assert (1, 0) in report.witness


def test_pf_witness_reevaluates_to_value():
    # Each member's nearest distance, added left to right from 0.0, as the
    # evaluator adds them.
    for ps, subset in [*_witness_instances(), (random_euclidean(37, 9), range(9))]:
        report = pf_cost(ps, subset)
        assert [a for a, _ in report.witness] == list(subset)
        total = 0.0
        for a, b in report.witness:
            total += ps.distance(a, b)
        assert total == report.value


# -- threshold components ------------------------------------------------------

def test_threshold_line(line3):
    comp = threshold_components(line3, [0, 1, 2], 1.0)
    assert comp.count == 2
    assert comp.component_of[0] == comp.component_of[1]
    assert comp.component_of[2] != comp.component_of[0]


def test_threshold_full_and_empty(line3):
    assert threshold_components(line3, [0, 1, 2], 10.0).count == 1
    assert threshold_components(line3, [0, 1, 2], 0.0).count == 3


def test_threshold_closed_at_radius():
    ps = line_pointset([0.0, 2.0])
    assert threshold_components(ps, [0, 1], 2.0).count == 1


@pytest.mark.parametrize("radius", [float("nan"), -1.0, -0.0 - 1e-300])
def test_threshold_rejects_a_radius_that_is_not_nonnegative(line3, radius):
    with pytest.raises(PreconditionError, match="nonnegative"):
        threshold_components(line3, [0, 1, 2], radius)


@pytest.mark.parametrize("seed", range(12))
def test_threshold_components_equal_all_pairs_union_find_at_every_distance(seed):
    rng = stream_rng(2600 + seed, 0)
    n = int(rng.integers(1, 16))
    # Grid coordinates tie many distances, with coincident points; the
    # matrix metric has no coordinates at all.
    for ps in (PointSet.from_coords(rng.integers(0, 4, (n, 2)) / 4.0), random_matrix_metric(2600 + seed, n)):
        members = sorted(int(v) for v in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        dmat = ps.restrict(members).distance_matrix()
        radii = sorted({0.0, math.inf, *dmat.ravel().tolist(), *(dmat.ravel() * 0.999).tolist()})
        labels = threshold_labels(dmat, radii)
        for r, label in zip(radii, labels.tolist()):
            expected = threshold_components_by_pairs(ps, members, r)
            comp = threshold_components(ps, members, r)
            assert comp.component_of == expected
            assert comp.count == len(set(expected.values()))
            assert [members[a] for a in label] == [expected[p] for p in members]


# -- dyadic component sum -------------------------------------------------------

def test_component_sum_two_points_at_power_of_two():
    for t in (-2, 0, 3):
        d = math.ldexp(1.0, t)
        ps = line_pointset([0.0, d])
        assert mst_component_sum(ps, [0, 1]) == pytest.approx(d, rel=1e-12)


def test_component_sum_coincident_rejected():
    ps = line_pointset([1.0, 1.0])
    with pytest.raises(PreconditionError, match="coincident"):
        mst_component_sum(ps, [0, 1])


@pytest.mark.parametrize("seed", range(10))
def test_component_sum_brackets_mst(seed):
    rng_n = 3 + seed
    ps = random_euclidean(300 + seed, rng_n)
    total = mst_component_sum(ps, range(rng_n))
    mst = mst_cost(ps, range(rng_n)).value
    assert total / 2.0 - 1e-9 <= mst <= total + 1e-9


# -- structural inequalities -----------------------------------------------------

@pytest.mark.parametrize("seed", range(10))
def test_mwm_at_most_mst_even_subsets(seed):
    ps = random_matrix_metric(400 + seed, 8)
    for size in (2, 4, 6, 8):
        for subset in combinations(range(8), size):
            assert (
                mwm_exact(ps, subset).value
                <= mst_cost(ps, subset).value + 1e-9
            )


@pytest.mark.parametrize("seed", range(10))
def test_nested_mst_doubling(seed):
    ps = random_euclidean(500 + seed, 8)
    full = list(range(8))
    mst_full = mst_cost(ps, full).value
    for size in range(2, 8):
        for subset in combinations(full, size):
            assert mst_cost(ps, subset).value <= 2.0 * mst_full + 1e-9


def test_subset_report_serialization():
    ps = line_pointset([0.0, 1.0, 10.0, 11.0])
    d = mwm_exact(ps, [0, 1, 2, 3]).to_dict()
    assert d["objective"] == "mwm"
    assert d["value"] == 2.0
    assert d["witness"] == [[0, 1], [2, 3]]
