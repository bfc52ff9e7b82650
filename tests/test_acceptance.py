"""Acceptance suite: every guarantee the toolkit advertises, checked
against brute-force oracles at desk scale with pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""
from __future__ import annotations

import json
import math
from itertools import combinations

import numpy as np

from remote_div import (
    Objective,
    PointSet,
    RunConfig,
    brute_force_diversity,
    find_separated_sets,
    gmm,
    hst_mwm_odd_count,
    k_outlier_radius,
    mst_component_sum,
    mst_cost,
    mwm_exact,
    mwm_offline,
    pf_offline,
    run_pipeline,
    split_dataset,
    verify_random_subset_bound,
)
from remote_div.cli import canonicalize_report, main as cli_main
from remote_div.costs import matching_value
from remote_div.hst import embed_subset, hst_distance_matrix
from oracles import brute_force_loop, mwm_by_pairings, stream_rng

from test_coresets import clumped_matrix, uniform_like_matrix


def _report(criterion: int, detail: str) -> None:
    print(f"[PASS] criterion {criterion}: {detail}")


def test_criterion_1_offline_matching_guarantee():
    # 500 random Euclidean instances, n in [3k, 14], k in {2, 4}, repeats=20:
    # the solver clears 1/65 of the brute-force optimum on every instance.
    worst = math.inf
    for i in range(500):
        rng = stream_rng(101, i)
        k = 2 if i % 2 == 0 else 4
        n = int(rng.integers(3 * k, 15))
        ps = PointSet.from_coords(rng.random((n, 2)))
        cfg = RunConfig(k=k, seed=int(rng.integers(2**32)), repeats=20)
        solution, _ = mwm_offline(ps, k, cfg)
        oracle = brute_force_diversity(ps, k, Objective.REMOTE_MATCHING)
        ratio = solution.value / oracle.value
        worst = min(worst, ratio)
        assert ratio >= 1.0 / 65.0, f"instance {i}: ratio {ratio} below 1/65"
    _report(1, f"500/500 instances at ratio >= 1/65 (worst {worst:.3f})")


def test_criterion_2_random_even_subset_bound():
    # 200 random center sets (k <= 10), 2000 draws each: the sample mean
    # clears (1/16) * best-even-subset matching cost minus 3 standard errors.
    worst_margin = math.inf
    for i in range(200):
        rng = stream_rng(202, i)
        size = int(rng.integers(2, 11))
        ps = PointSet.from_coords(rng.random((size, 2)))
        stats = verify_random_subset_bound(ps, range(size), 2000, seed=1000 + i)
        floor = stats.best_even_value / 16.0 - 3.0 * stats.std_error
        margin = stats.sample_mean - floor
        worst_margin = min(worst_margin, margin)
        assert stats.sample_mean >= floor, f"instance {i}: mean {stats.sample_mean} below floor {floor}"
    _report(2, f"200/200 center sets clear the 1/16 bound (worst margin {worst_margin:.4f})")


def test_criterion_3_offline_pseudoforest_guarantee():
    # 500 random instances (n <= 14, k <= 6): nets solver clears 1/80 of optimum.
    worst = math.inf
    for i in range(500):
        rng = stream_rng(303, i)
        k = int(rng.integers(2, 7))
        n = int(rng.integers(max(k, 3), 15))
        ps = PointSet.from_coords(rng.random((n, 2)))
        solution, _tree = pf_offline(ps, k)
        oracle = brute_force_diversity(ps, k, Objective.REMOTE_PSEUDOFOREST)
        ratio = solution.value / oracle.value
        worst = min(worst, ratio)
        assert ratio >= 1.0 / 80.0, f"instance {i}: ratio {ratio} below 1/80"
    _report(3, f"500/500 instances at ratio >= 1/80 (worst {worst:.3f})")


def test_criterion_4_matching_coreset_composability():
    # 200 trials (n <= 24, k = 4, m in {1,2,3}, both split strategies):
    # composed-coreset optimum >= 1/10 of the full optimum, both brute force.
    worst = math.inf
    k = 4
    for i in range(200):
        rng = stream_rng(404, i)
        n = int(rng.integers(3 * k, 25))
        m = int(rng.integers(1, 4))
        strategy = "round_robin" if i % 2 == 0 else "random"
        ps = PointSet.from_coords(rng.random((n, 2)))
        cfg = RunConfig(k=k, seed=i, objective=Objective.REMOTE_MATCHING)
        report = run_pipeline(ps, cfg, m, strategy, with_oracle=True)
        assert not report.lower_bound
        ratio = report.ratio
        worst = min(worst, ratio)
        assert ratio >= 1.0 / 10.0, f"trial {i}: ratio {ratio} below 1/10"
        part_sizes = [len(p) for p in split_dataset(ps, m, strategy, cfg.seed)]
        for size, passthrough, part_size in zip(
            report.coreset_sizes, report.passthrough_flags, part_sizes
        ):
            assert size <= 3 * k
            if part_size > 3 * k:
                assert not passthrough and size == 2 * k
    _report(4, f"200/200 matching pipelines at ratio >= 1/10 (worst {worst:.3f})")


def test_criterion_5_pseudoforest_coreset_composability():
    # eps=1, k=3, m=2, part sizes >= 21 (non-passthrough), 100 trials:
    # composed-coreset optimum >= 1/150 of the full optimum, both brute force.
    worst = math.inf
    k = 3
    for i in range(100):
        rng = stream_rng(505, i)
        n = int(rng.integers(42, 49))
        ps = PointSet.from_coords(rng.random((n, 2)))
        cfg = RunConfig(k=k, epsilon=1.0, seed=i, objective=Objective.REMOTE_PSEUDOFOREST)
        report = run_pipeline(ps, cfg, 2, "round_robin", with_oracle=True)
        assert not report.lower_bound
        ratio = report.ratio
        worst = min(worst, ratio)
        assert ratio >= 1.0 / 150.0, f"trial {i}: ratio {ratio} below 1/150"
        for size, passthrough in zip(report.coreset_sizes, report.passthrough_flags):
            assert not passthrough, "part sizes >= 21 must take the construction branch"
            assert size <= 5 * k
    _report(5, f"100/100 pseudoforest pipelines at ratio >= 1/150 (worst {worst:.3f})")


def test_criterion_6_find_st_contract():
    # 200 instances meeting the precondition (random and adversarial):
    # disjoint size-k sets with exhaustively verified separation.
    checked = 0
    for i in range(200):
        kind = i % 5
        rng = stream_rng(606, i)
        if kind == 0:
            k, eps = 3, 1.0
            n = 21 + int(rng.integers(0, 20))
            ps = PointSet.from_coords(rng.random((n, 2)))
        elif kind == 1:
            k, eps = 4, 0.5
            n = 20 + int(rng.integers(0, 20))
            ps = PointSet.from_coords(rng.random((n, 2)))
        elif kind == 2:
            # two tight clusters: dense branch
            k, eps = 3, 1.0
            near = rng.random((18 + int(rng.integers(0, 6)), 2)) * 0.01
            far = rng.random((3, 2)) * 0.01 + 50.0
            ps = PointSet.from_coords(np.vstack([near, far]))
        elif kind == 3:
            # near-uniform metric: singleton peeling
            k, eps = 3, 1.0
            ps = uniform_like_matrix(6060 + i, 21 + int(rng.integers(0, 8)))
        else:
            # tight clumps below k: multi-point shells
            k, eps = 4, 0.5
            ps = clumped_matrix(6061 + i, clumps=7 + int(rng.integers(0, 3)), clump_size=3)
        if ps.n < 2 * k ** (1 + eps) + k:
            continue
        _x, radius = k_outlier_radius(ps, k)
        pair = find_separated_sets(ps, k, eps, radius)
        assert len(pair.s) == k and len(pair.t) == k
        assert not (set(pair.s) & set(pair.t))
        dmat = ps.distance_matrix()
        cross = min(float(dmat[a, b]) for a in pair.s for b in pair.t)
        assert cross >= eps * radius / 2.0 - 1e-12, f"instance {i}: separation {cross}"
        checked += 1
    assert checked == 200
    _report(6, f"{checked}/200 instances satisfy the separated-set contract")


def test_criterion_7_structural_identities():
    # (a) dyadic component sum brackets the MST cost within [1/2, 1].
    for i in range(200):
        rng = stream_rng(707, i)
        n = int(rng.integers(2, 13))
        ps = PointSet.from_coords(rng.random((n, 2)))
        total = mst_component_sum(ps, range(n))
        mst = mst_cost(ps, range(n)).value
        assert total / 2.0 - 1e-9 * total <= mst <= total * (1.0 + 1e-9)

    # (b) odd-occupancy formula equals exact matching under the tree metric.
    for i in range(200):
        rng = stream_rng(708, i)
        n = int(rng.integers(4, 11))
        ps = PointSet.from_coords(rng.random((n, 2)))
        hst, _ = embed_subset(ps, range(n), d=40)
        hmat = hst_distance_matrix(hst)
        size = min(n - n % 2, 8)
        members = sorted(int(v) for v in rng.choice(n, size=size, replace=False))
        rows = [[float(hmat[a, b]) for b in members] for a in members]
        formula = hst_mwm_odd_count(hst, members)
        exact = matching_value(rows)
        assert math.isclose(formula, exact, rel_tol=1e-9, abs_tol=1e-9)

    # (c) matching <= spanning tree, and nested spanning trees double at worst.
    for i in range(25):
        rng = stream_rng(709, i)
        ps = PointSet.from_coords(rng.random((8, 2)))
        mst_full = mst_cost(ps, range(8)).value
        for size in range(2, 9):
            for subset in combinations(range(8), size):
                sub_mst = mst_cost(ps, subset).value
                assert sub_mst <= 2.0 * mst_full * (1.0 + 1e-9)
                if size % 2 == 0:
                    sub_mwm = mwm_exact(ps, subset).value
                    assert sub_mwm <= sub_mst * (1.0 + 1e-9)
    _report(7, "MST bracket, odd-count identity, and matching/MST inequalities hold")


def test_criterion_8_gmm_separation():
    # 500 random instances (n <= 64, k <= 16): min pairwise center distance
    # is at least the covering radius.
    for i in range(500):
        rng = stream_rng(808, i)
        k = int(rng.integers(2, 17))
        n = int(rng.integers(k, 65))
        ps = PointSet.from_coords(rng.random((n, 2)))
        result = gmm(ps, k)
        dmat = ps.distance_matrix()
        centers = result.centers
        pairwise = min(dmat[a, b] for ai, a in enumerate(centers) for b in centers[ai + 1 :])
        assert pairwise >= result.radius - 1e-12, f"instance {i}"
    _report(8, "500/500 instances keep centers separated by the covering radius")


def test_criterion_9_oracle_self_consistency():
    # Bitmask DP equals permutation enumeration up to size 8, and the
    # brute-force optimizer is invariant under enumeration order.
    for i in range(100):
        rng = stream_rng(909, i)
        size = int(rng.integers(1, 5)) * 2
        ps = PointSet.from_coords(rng.random((size, 2)))
        dmat = ps.distance_matrix()
        rows = [[float(dmat[a, b]) for b in range(size)] for a in range(size)]
        assert math.isclose(
            mwm_exact(ps, range(size)).value, mwm_by_pairings(rows), rel_tol=1e-12, abs_tol=1e-12
        )
    for i in range(20):
        rng = stream_rng(910, i)
        n = int(rng.integers(8, 13))
        ps = PointSet.from_coords(rng.random((n, 2)))
        rows = ps.distance_matrix().tolist()
        for objective, k in ((Objective.REMOTE_MATCHING, 4), (Objective.REMOTE_PSEUDOFOREST, 3)):
            plain = brute_force_diversity(ps, k, objective)
            indices, value, _ties = brute_force_loop(rows, k, objective.value, order_seed=i)
            assert plain.indices == indices and plain.value == value
    _report(9, "matching DP = pairing enumeration; enumeration order is irrelevant")


def test_criterion_10_cli_determinism(tmp_path):
    data = tmp_path / "data.json"
    assert cli_main(["gen", "--kind", "uniform_cube", "--n", "18", "--seed", "4", "--output", str(data)]) == 0
    command_sets = [
        ["solve", "--objective", "matching", "--k", "4", "--seed", "9", "--repeats", "10", "--input", str(data)],
        ["solve", "--objective", "pseudoforest", "--k", "3", "--input", str(data)],
        ["coreset", "--objective", "pseudoforest", "--k", "3", "--epsilon", "1.0", "--input", str(data)],
        ["coreset", "--objective", "matching", "--k", "4", "--input", str(data)],
        ["compose", "--objective", "matching", "--k", "4", "--parts", "2", "--strategy", "random",
         "--seed", "3", "--oracle", "--input", str(data)],
        ["eval", "--objective", "pseudoforest", "--k", "3", "--input", str(data)],
        ["verify", "--suite", "all", "--seed", "2", "--trials", "15"],
    ]
    for args in command_sets:
        out = tmp_path / "report.json"
        assert cli_main(args + ["--output", str(out)]) == 0
        first = json.dumps(canonicalize_report(json.loads(out.read_text())), sort_keys=True)
        assert cli_main(args + ["--output", str(out)]) == 0
        second = json.dumps(canonicalize_report(json.loads(out.read_text())), sort_keys=True)
        assert first == second, f"nondeterministic report for {args}"
    _report(10, f"{len(command_sets)} CLI commands reproduce byte-identical reports")
