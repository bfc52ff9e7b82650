from __future__ import annotations

import numpy as np
import pytest

from remote_div import (
    Objective,
    PreconditionError,
    RunConfig,
    brute_force_diversity,
    gmm,
    mwm_exact,
    mwm_offline,
    voronoi_partition,
)
from remote_div.errors import InternalInvariantError
from remote_div.matching import even_subset_masks, same_cell_pairs
from conftest import random_euclidean, two_clusters
from oracles import even_subset_by_list, stream_rng


def _one_draw(centers, coins):
    """The subset `even_subset_masks` keeps for one row of coins, sorted."""
    keep = even_subset_masks(centers, np.asarray([coins]))[0]
    return sorted(c for c, joined in zip(centers, keep) if joined)


def test_random_even_subset_all_heads_even_count():
    centers = [3, 5, 8, 11]
    assert _one_draw(centers, [0.1] * 4) == centers


def test_random_even_subset_all_tails():
    centers = [3, 5, 8]
    assert _one_draw(centers, [0.9] * 3) == []


def test_random_even_subset_parity_fix_drops_highest_index():
    centers = [3, 5, 8]
    assert _one_draw(centers, [0.1] * 3) == [3, 5]


def test_parity_fix_drops_the_largest_index_not_the_last_position():
    # GMM hands centers over unsorted, so the last head is not the one dropped.
    assert _one_draw([9, 2, 5], [0.1] * 3) == [2, 5]


@pytest.mark.parametrize("size", [1, 2, 5, 9, 14])
def test_even_subset_masks_equal_the_single_draw_rule_on_unsorted_centers(size):
    rng = stream_rng(40 + size, 0)
    centers = [int(c) for c in rng.permutation(50)[:size]]
    coins = rng.random((100, size))
    coins[::7, 0] = 0.5  # a coin at exactly 1/2 is tails
    keep = even_subset_masks(centers, coins)
    for row, mask in zip(coins, keep):
        expected = even_subset_by_list(centers, row)
        assert sorted(c for c, joined in zip(centers, mask) if joined) == expected


def test_fill_noop_when_already_at_target():
    ps = random_euclidean(1, 12)
    centers = gmm(ps, 4).centers
    assert same_cell_pairs(voronoi_partition(ps, centers), centers, 0) == []


def test_fill_picks_lowest_index_pair_in_first_eligible_cell():
    from conftest import line_pointset

    # one center at 0; its cell holds everything
    ps = line_pointset([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    assert same_cell_pairs(voronoi_partition(ps, [0]), [0], 1) == [1, 2]


def test_fill_preserves_cell_parities_per_step():
    ps = random_euclidean(5, 24)
    centers = gmm(ps, 4).centers
    cell_of = voronoi_partition(ps, centers)
    filled = same_cell_pairs(cell_of, centers, 3)
    # every augmentation is one same-cell pair of non-centers, so no step
    # flips a parity
    assert len(filled) == 6
    assert not set(filled) & set(centers)
    for at in range(0, 6, 2):
        a, b = filled[at], filled[at + 1]
        assert cell_of[a] == cell_of[b]
    assert (np.bincount(cell_of[filled]) % 2 == 0).all()
    # prefixes agree: fewer pairs are a prefix of more
    assert same_cell_pairs(cell_of, centers, 2) == filled[:4]


def test_fill_raises_when_no_pair_exists():
    from conftest import line_pointset

    ps = line_pointset([0.0, 1.0])
    with pytest.raises(InternalInvariantError):
        same_cell_pairs(voronoi_partition(ps, [0, 1]), [0, 1], 1)


def test_mwm_offline_preconditions():
    ps = random_euclidean(2, 12)
    cfg = RunConfig(k=4, seed=1, repeats=2)
    with pytest.raises(PreconditionError, match="even"):
        mwm_offline(ps, 3, cfg)
    with pytest.raises(PreconditionError, match="3k"):
        mwm_offline(random_euclidean(2, 11), 4, cfg)


def test_mwm_offline_boundary_n_equals_3k():
    ps = random_euclidean(3, 12)
    solution, trace = mwm_offline(ps, 4, RunConfig(k=4, seed=9, repeats=5))
    assert len(solution.indices) == 4
    assert len(set(solution.indices)) == 4
    assert solution.value > 0


def test_mwm_offline_beats_gmm_candidate():
    ps = random_euclidean(13, 20)
    cfg = RunConfig(k=4, seed=3, repeats=10)
    solution, trace = mwm_offline(ps, 4, cfg)
    y_value = mwm_exact(ps, sorted(trace.gmm.centers)).value
    assert solution.value >= y_value - 1e-12


def test_mwm_offline_two_clusters_within_factor_two_of_oracle():
    ps = two_clusters(7, 12, separation=100.0, width=1.0)
    cfg = RunConfig(k=4, seed=5, repeats=20)
    solution, _ = mwm_offline(ps, 4, cfg)
    oracle = brute_force_diversity(ps, 4, Objective.REMOTE_MATCHING)
    assert solution.value >= oracle.value / 2.0
    assert solution.value >= 100.0 * (1.0 - 0.05)


def test_mwm_offline_trace_shape():
    ps = random_euclidean(17, 15)
    cfg = RunConfig(k=4, seed=11, repeats=6)
    _solution, trace = mwm_offline(ps, 4, cfg)
    assert trace.chosen in ("Y", "W")
    assert len(trace.w_set) == 4
    assert set(trace.z_subset) <= set(trace.gmm.centers)
    assert len(trace.z_subset) % 2 == 0
    assert set(trace.z_subset) <= set(trace.w_set)


def test_mwm_offline_deterministic_given_seed():
    ps = random_euclidean(19, 18)
    cfg = RunConfig(k=4, seed=123, repeats=8)
    a, ta = mwm_offline(ps, 4, cfg)
    b, tb = mwm_offline(ps, 4, cfg)
    assert a.indices == b.indices and a.value == b.value
    assert ta.w_set == tb.w_set and ta.z_subset == tb.z_subset


@pytest.mark.parametrize("seed", range(25))
def test_mwm_offline_clears_guarantee_on_randoms(seed):
    rng_n = 12 + (seed % 3)
    ps = random_euclidean(800 + seed, rng_n)
    cfg = RunConfig(k=4, seed=seed, repeats=20)
    solution, _ = mwm_offline(ps, 4, cfg)
    oracle = brute_force_diversity(ps, 4, Objective.REMOTE_MATCHING)
    assert solution.value >= oracle.value / 65.0
