from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from remote_div import (
    Objective,
    PreconditionError,
    RunConfig,
    brute_force_diversity,
    compose_coresets,
    run_pipeline,
    split_dataset,
)
from conftest import line_pointset, random_euclidean, two_clusters
from oracles import brute_force_loop
from remote_div import composition, costs
from remote_div.composition import build_part_coreset


def test_split_round_robin():
    ps = random_euclidean(1, 6)
    part = split_dataset(ps, 2, "round_robin")
    assert part == [[0, 2, 4], [1, 3, 5]]


def test_split_single_part():
    ps = random_euclidean(1, 5)
    part = split_dataset(ps, 1, "round_robin")
    assert part == [[0, 1, 2, 3, 4]]


def test_split_random_reproducible():
    ps = random_euclidean(2, 17)
    a = split_dataset(ps, 3, "random", seed=5)
    b = split_dataset(ps, 3, "random", seed=5)
    c = split_dataset(ps, 3, "random", seed=6)
    assert a == b
    assert a != c
    flat = sorted(i for p in a for i in p)
    assert flat == list(range(17))
    assert all(p for p in a)


def test_split_file_strategy_validates():
    ps = random_euclidean(3, 4)
    ok = split_dataset(ps, 2, "file", parts=[[0, 3], [1, 2]])
    assert ok == [[0, 3], [1, 2]]
    with pytest.raises(PreconditionError):
        split_dataset(ps, 2, "file", parts=[[0, 1], [1, 2, 3]])
    with pytest.raises(PreconditionError):
        split_dataset(ps, 2, "file", parts=[[0, 1, 2, 3], []])


def test_split_file_parts_must_be_integers():
    ps = random_euclidean(3, 6)
    with pytest.raises(PreconditionError, match="not an integer"):
        split_dataset(ps, 2, "file", parts=[[0.5, 1, 2], [3, 4, 5]])
    assert split_dataset(ps, 2, "file", parts=[[0.0, 1, 2], [3, 4, 5]]) == [[0, 1, 2], [3, 4, 5]]


def test_split_rejects_m_above_n():
    ps = random_euclidean(4, 3)
    with pytest.raises(PreconditionError):
        split_dataset(ps, 4)


def test_compose_passthrough_union_is_everything():
    ps = random_euclidean(5, 10)
    partition = split_dataset(ps, 2, "round_robin")
    cores = []
    for pid, part in enumerate(partition):
        core, global_idx = build_part_coreset(ps, part, Objective.REMOTE_MATCHING, 2, 1.0, pid)
        assert core.passthrough  # parts of size 5 <= 3k = 6
        cores.append(global_idx)
    union = compose_coresets(partition, cores)
    assert union == list(range(10))


def test_compose_sizes_add_up():
    ps = random_euclidean(6, 30)
    partition = split_dataset(ps, 2, "round_robin")
    globals_ = []
    total = 0
    for pid, part in enumerate(partition):
        core, global_idx = build_part_coreset(ps, part, Objective.REMOTE_MATCHING, 2, 1.0, pid)
        globals_.append(global_idx)
        total += len(global_idx)
    union = compose_coresets(partition, globals_)
    assert len(union) == total


def test_compose_rejects_foreign_indices():
    ps = random_euclidean(7, 6)
    partition = split_dataset(ps, 2, "round_robin")
    with pytest.raises(PreconditionError):
        compose_coresets(partition, [[0, 1], [1, 3]])  # 1 belongs to part 1


# -- brute force ------------------------------------------------------------------

def test_brute_pf_line(line3):
    sol = brute_force_diversity(line3, 2, Objective.REMOTE_PSEUDOFOREST)
    assert sol.value == 20.0
    assert sol.indices == [0, 2]


def test_brute_matching_line(line3):
    sol = brute_force_diversity(line3, 2, Objective.REMOTE_MATCHING)
    assert sol.value == 10.0
    assert sol.indices == [0, 2]


def test_brute_k_equals_n(line3):
    sol = brute_force_diversity(line3, 3, Objective.REMOTE_PSEUDOFOREST)
    assert sol.indices == [0, 1, 2]
    assert sol.value == 11.0


def test_brute_cap_enforced():
    ps = random_euclidean(8, 40)
    with pytest.raises(PreconditionError, match="cap"):
        brute_force_diversity(ps, 10, Objective.REMOTE_PSEUDOFOREST)  # C(40,10) > ENUMERATION_CAP


@pytest.mark.parametrize("seed", range(6))
def test_brute_invariant_under_shuffled_order(seed):
    ps = random_euclidean(1700 + seed, 12)
    rows = ps.distance_matrix().tolist()
    for objective, k in ((Objective.REMOTE_MATCHING, 4), (Objective.REMOTE_PSEUDOFOREST, 3)):
        plain = brute_force_diversity(ps, k, objective)
        indices, value, _ties = brute_force_loop(rows, k, objective.value, order_seed=seed)
        assert plain.indices == indices
        assert plain.value == value


@pytest.mark.parametrize("order_seed", [None, 3])
@pytest.mark.parametrize("objective, k", [(Objective.REMOTE_MATCHING, 4), (Objective.REMOTE_PSEUDOFOREST, 3)])
def test_brute_blocks_agree_with_a_per_subset_loop(monkeypatch, objective, k, order_seed):
    # Blocks of 6 (matching) or 10 (pseudoforest) subsets: neither divides
    # the subset count, and the first of several tied optima lies past the
    # first block.
    ps = line_pointset([5.0, 5.0, 5.0, 5.0, 0.0, 0.0, 20.0, 20.0])
    monkeypatch.setattr(composition, "BLOCK_ENTRIES", 96)
    sizes = []
    for name in ("matching_weights", "pf_sum"):
        evaluate = getattr(costs, name)
        monkeypatch.setattr(
            costs, name, lambda dmat, members, evaluate=evaluate: sizes.append(len(members)) or evaluate(dmat, members)
        )
    sol = brute_force_diversity(ps, k, objective)
    indices, value, ties = brute_force_loop(ps.distance_matrix().tolist(), k, objective.value, order_seed)
    assert (sol.indices, sol.value.hex()) == (indices, value.hex())
    assert sum(sizes) == math.comb(ps.n, k) and sizes[-1] < sizes[0]
    assert ties > 1
    assert list(itertools.combinations(range(ps.n), k)).index(tuple(indices)) >= sizes[0]


@pytest.mark.parametrize("m", range(1, 11))
def test_subset_blocks_run_through_the_combinations_in_order(m):
    for k in range(1, m + 1):
        total = math.comb(m, k)
        block = next(b for b in itertools.count(2) if total % b)
        combos = np.array(list(itertools.combinations(range(m), k)))
        blocks = list(composition._subset_blocks(m, k, block))
        assert [len(members) for members in blocks[:-1]] == [block] * (len(blocks) - 1)
        assert np.array_equal(np.concatenate(blocks), combos)


def test_brute_candidates_must_be_integers():
    ps = line_pointset([0.0, 1.0, 10.0, 30.0])
    with pytest.raises(PreconditionError, match="not an integer"):
        brute_force_diversity(ps, 2, Objective.REMOTE_PSEUDOFOREST, candidates=[0, 1.5, 2])


def test_brute_matching_k6_on_22_points_peaks_below_4_mb():
    ps = random_euclidean(41, 22)
    tracemalloc.start()
    try:
        brute_force_diversity(ps, 6, Objective.REMOTE_MATCHING)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_brute_matching_k6_on_22_points_peaks_below_three_quarters_of_a_mib():
    # A block of 1,024 subsets holds 13 reachable masks per subset, not a
    # 2^6-entry table each.
    ps = random_euclidean(41, 22)
    tracemalloc.start()
    try:
        brute_force_diversity(ps, 6, Objective.REMOTE_MATCHING)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * 2**20


def test_brute_pseudoforest_k5_on_40_points_peaks_below_4_mb():
    ps = random_euclidean(41, 40)
    tracemalloc.start()
    try:
        brute_force_diversity(ps, 5, Objective.REMOTE_PSEUDOFOREST)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_brute_candidates_restriction():
    ps = line_pointset([0.0, 1.0, 10.0, 30.0])
    sol = brute_force_diversity(ps, 2, Objective.REMOTE_PSEUDOFOREST, candidates=[0, 1, 2])
    assert sol.indices == [0, 2]


# -- pipelines ---------------------------------------------------------------------

def test_pipeline_matching_passthrough_ratio_one():
    ps = random_euclidean(9, 12)
    cfg = RunConfig(k=4, objective=Objective.REMOTE_MATCHING)
    report = run_pipeline(ps, cfg, 1, with_oracle=True)
    assert report.ratio == 1.0
    assert report.union_size == 12
    assert not report.lower_bound


def test_pipeline_pf_passthrough_ratio_one():
    ps = random_euclidean(10, 20)
    cfg = RunConfig(k=3, objective=Objective.REMOTE_PSEUDOFOREST)
    report = run_pipeline(ps, cfg, 1, with_oracle=True)
    assert report.ratio == 1.0


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("strategy", ["round_robin", "random"])
def test_pipeline_matching_ratio_bound(m, strategy):
    ps = random_euclidean(11 + m, 24)
    cfg = RunConfig(k=4, seed=3, objective=Objective.REMOTE_MATCHING)
    report = run_pipeline(ps, cfg, m, strategy, with_oracle=True)
    assert report.ratio >= 1.0 / 10.0
    assert report.value_on_union <= report.oracle_value + 1e-12
    for size, passthrough in zip(report.coreset_sizes, report.passthrough_flags):
        assert size <= 3 * cfg.k
        if not passthrough:
            assert size == 2 * cfg.k


def test_pipeline_pf_ratio_bound():
    ps = random_euclidean(12, 42)
    cfg = RunConfig(k=3, epsilon=1.0, seed=1, objective=Objective.REMOTE_PSEUDOFOREST)
    report = run_pipeline(ps, cfg, 2, with_oracle=True)
    assert report.ratio >= 1.0 / 150.0
    assert all(size <= 5 * cfg.k for size, p in zip(report.coreset_sizes, report.passthrough_flags) if not p)


def test_pipeline_adversarial_file_splits():
    # all far points in one part, the rest singleton-ish parts
    ps = two_clusters(13, 20, separation=500.0)
    parts = [[i for i in range(10)], [i for i in range(10, 19)], [19]]
    cfg = RunConfig(k=4, seed=2, objective=Objective.REMOTE_MATCHING)
    report = run_pipeline(ps, cfg, 3, "file", with_oracle=True, parts=parts)
    assert report.ratio >= 1.0 / 10.0
    assert report.value_on_union <= report.oracle_value + 1e-12


def test_pipeline_monotonicity_union_at_most_oracle():
    for seed in range(5):
        ps = random_euclidean(1800 + seed, 26)
        cfg = RunConfig(k=4, seed=seed, objective=Objective.REMOTE_MATCHING)
        report = run_pipeline(ps, cfg, 2, "random", with_oracle=True)
        assert report.value_on_union <= report.oracle_value + 1e-12


def test_pipeline_falls_back_to_lower_bound_when_union_is_huge():
    # 21 parts of ~12 points pass through whole, so the union is the full
    # dataset and C(250, 4) blows the enumeration cap.
    ps = random_euclidean(15, 250)
    cfg = RunConfig(k=4, seed=1, objective=Objective.REMOTE_MATCHING)
    report = run_pipeline(ps, cfg, 21, "round_robin", with_oracle=False)
    assert report.union_size == 250
    assert report.lower_bound
    assert report.value_on_union > 0
    assert report.to_dict()["bound_kind"] == "lower_bound"
    assert len(report.solution_indices) == 4


def test_pipeline_report_dict_shape():
    ps = random_euclidean(14, 24)
    cfg = RunConfig(k=4, seed=0, objective=Objective.REMOTE_MATCHING)
    d = run_pipeline(ps, cfg, 2, with_oracle=True).to_dict()
    assert d["bound_kind"] == "exact"
    assert d["union_size"] == sum(d["coreset_sizes"])
    assert d["ratio"] is not None
    assert set(d["elapsed"]) >= {"split", "coresets", "solve_union"}
