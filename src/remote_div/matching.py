"""Offline remote-matching solver with a constant-factor guarantee.

The solver runs the farthest-point traversal to get k centers, labels every
point with the rank of its Voronoi cell, and then compares two candidates: the
center set itself, and a set W built from a random even subset Z of the
centers padded back up to k points with pairs of non-centers that share a
Voronoi cell. Padding with same-cell pairs keeps the parity of every
cell's intersection with W unchanged, which is what makes the random
subset's matching cost carry over to W.

The pairs never depend on Z, since every center is excluded from them:
one solve reads the pair list off the label array once, cell by cell, and
each W takes a prefix of it.
A single trial already achieves a constant fraction of the optimum with
constant probability; the driver repeats with independent randomness and
keeps the best candidate seen.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalInvariantError, PreconditionError
from .gmm import GmmResult, gmm, voronoi_partition
from .metric import PointSet, RunConfig
from .results import DiversitySolution


@dataclass(frozen=True, eq=False)
class MatchingOfflineTrace:
    """The winning trial of `mwm_offline`. `==` is identity."""

    gmm: GmmResult
    z_subset: list[int]
    w_set: list[int]
    chosen: str  # "Y" or "W"
    trial: int


def even_subset_masks(centers: list[int], coins: np.ndarray) -> np.ndarray:
    """Membership masks of the parity-fixed subsets drawn by the rows of
    `coins` (draws, len(centers)): a center joins when its coin is below 1/2,
    and an odd row drops its largest center, wherever that sits in `centers`."""
    heads = coins < 0.5
    top = np.where(heads, centers, -1).max(axis=1, initial=-1, keepdims=True)
    return heads & ((heads.sum(axis=1, keepdims=True) % 2 == 0) | (np.asarray(centers) != top))


def same_cell_pairs(cell_of: np.ndarray, centers: list[int], count: int) -> list[int]:
    """The first `count` same-cell pairs of non-centers, flattened.

    Cells are scanned in center-rank order and each cell's non-centers in
    index order, two at a time; a cell's odd leftover is never paired.
    Appending any prefix of whole pairs to a set leaves every cell parity
    unchanged.
    """
    free = np.ones(len(cell_of), dtype=bool)
    free[centers] = False
    flat: list[int] = []
    for rank in range(len(centers)):
        if len(flat) >= 2 * count:
            break
        members = np.flatnonzero(free & (cell_of == rank))
        flat.extend(members[: len(members) - len(members) % 2].tolist())
    if len(flat) < 2 * count:
        raise InternalInvariantError(
            "no same-cell pair available; pigeonhole precondition violated"
        )
    return flat[: 2 * count]


def mwm_offline(
    ps: PointSet,
    k: int,
    cfg: RunConfig,
    gmm_start: int = 0,
) -> tuple[DiversitySolution, MatchingOfflineTrace]:
    """Best-of-`cfg.repeats` randomized remote-matching solver.

    Requires even k with 2 <= k <= n/3 and k within the exact matching cap.
    Returns the winning subset plus a trace of the winning trial. Ties in
    value favor the center set, then the earliest trial.
    """
    # Imported here, not at module level: a pseudoforest coreset imports
    # this module for `same_cell_pairs` alone.
    from .costs import MATCHING_EXACT_CAP, mwm_exact
    from .rng import uniforms

    n = ps.n
    if k % 2 != 0 or k < 2:
        raise PreconditionError(f"remote-matching needs an even k >= 2; got k={k}")
    if n < 3 * k:
        raise PreconditionError(f"need n >= 3k (n={n}, k={k})")
    if k > MATCHING_EXACT_CAP:
        raise PreconditionError(f"k={k} above exact matching cap {MATCHING_EXACT_CAP}")

    g = gmm(ps, k, gmm_start)
    cell_of = voronoi_partition(ps, g.centers)
    y_sorted = sorted(g.centers)
    y_value = mwm_exact(ps, y_sorted).value

    pairs = same_cell_pairs(cell_of, g.centers, k // 2)
    keep = even_subset_masks(g.centers, uniforms(cfg.seed, range(cfg.repeats), len(g.centers)))
    for t in range(cfg.repeats):
        z = sorted(c for c, joined in zip(g.centers, keep[t]) if joined)
        w = sorted(z + pairs[: k - len(z)])
        value = mwm_exact(ps, w).value
        if t == 0 or value > best_value:
            best_trial, best_value, best_z, best_w = t, value, z, w

    if y_value >= best_value:
        chosen, chosen_set, value = "Y", y_sorted, y_value
    else:
        chosen, chosen_set, value = "W", best_w, best_value

    trace = MatchingOfflineTrace(gmm=g, z_subset=best_z, w_set=best_w, chosen=chosen, trial=best_trial)
    solution = DiversitySolution(indices=chosen_set, value=value, algorithm="mwm-offline")
    return solution, trace
