"""Offline remote-matching solver with a constant-factor guarantee.

The solver runs the farthest-point traversal to get k centers, partitions
the data into their Voronoi cells, and then compares two candidates: the
center set itself, and a set W built from a random even subset of the
centers padded back up to k points by repeatedly appending two spare
points that share a Voronoi cell. Padding with same-cell pairs keeps the
parity of every cell's intersection with W unchanged, which is what makes
the random subset's matching cost carry over to W.

A single trial already achieves a constant fraction of the optimum with
constant probability; the driver repeats with independent randomness and
keeps the best candidate seen.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .costs import MATCHING_EXACT_CAP, mwm_exact
from .errors import InternalInvariantError, PreconditionError
from .gmm import GmmResult, VoronoiPartition, gmm, voronoi_partition
from .metric import PointSet, RunConfig
from .results import DiversitySolution
from .rng import stream_rng


@dataclass(frozen=True)
class MatchingOfflineTrace:
    gmm: GmmResult
    partition: VoronoiPartition
    z_subset: list[int]
    w_set: list[int]
    chosen: str  # "Y" or "W"
    value: float
    trial: int


def random_even_subset(centers: list[int], rng: np.random.Generator) -> list[int]:
    """Each center joins independently with probability 1/2; if the draw has
    odd size the highest-index member is dropped to restore even parity."""
    if len(centers) == 0:
        raise PreconditionError("need at least one center")
    coins = rng.random(len(centers))
    drawn = [c for c, coin in zip(centers, coins) if coin < 0.5]
    if len(drawn) % 2 == 1:
        drawn.remove(max(drawn))
    return sorted(drawn)


def fill_same_cell_pairs(
    selected: list[int],
    blocked: set[int],
    partition: VoronoiPartition,
    target: int,
) -> list[int]:
    """Append same-cell pairs drawn from outside `blocked` until `selected`
    reaches `target` points.

    Cells are scanned in center-rank order and points in index order, so the
    augmentation is deterministic. Each appended pair adds 2 to one cell's
    count, leaving every cell parity unchanged.
    """
    result = list(selected)
    blocked = set(blocked) | set(result)
    if (target - len(result)) % 2 != 0:
        raise PreconditionError("parity mismatch: cannot reach target with pairs")
    while len(result) < target:
        pair = None
        for members in partition.cells:
            free = [i for i in members if i not in blocked]
            if len(free) >= 2:
                pair = free[:2]
                break
        if pair is None:
            raise InternalInvariantError(
                "no same-cell pair available; pigeonhole precondition violated"
            )
        result.extend(pair)
        blocked.update(pair)
    return result


def _run_trial(
    ps: PointSet,
    k: int,
    centers: list[int],
    partition: VoronoiPartition,
    seed: int,
    trial: int,
) -> tuple[float, list[int], list[int]]:
    rng = stream_rng(seed, trial)
    z = random_even_subset(centers, rng)
    w = fill_same_cell_pairs(z, set(centers), partition, k)
    value = mwm_exact(ps, w, with_witness=False).value
    return value, z, sorted(w)


def mwm_offline(
    ps: PointSet,
    k: int,
    cfg: RunConfig,
    gmm_start: int = 0,
    threads: int = 1,
) -> tuple[DiversitySolution, MatchingOfflineTrace]:
    """Best-of-`cfg.repeats` randomized remote-matching solver.

    Requires even k with 2 <= k <= n/3 and k within the exact matching cap.
    Returns the winning subset plus a trace of the winning trial. Ties in
    value favor the center set, then the earliest trial.
    """
    n = ps.n
    if k % 2 != 0 or k < 2:
        raise PreconditionError(f"remote-matching needs an even k >= 2; got k={k}")
    if n < 3 * k:
        raise PreconditionError(f"need n >= 3k (n={n}, k={k})")
    if k > MATCHING_EXACT_CAP:
        raise PreconditionError(f"k={k} above exact matching cap {MATCHING_EXACT_CAP}")

    g = gmm(ps, k, gmm_start)
    partition = voronoi_partition(ps, g.centers)
    y_sorted = sorted(g.centers)
    y_value = mwm_exact(ps, y_sorted, with_witness=False).value

    def trial(t: int):
        return _run_trial(ps, k, g.centers, partition, cfg.seed, t)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(trial, range(cfg.repeats)))
    else:
        outcomes = [trial(t) for t in range(cfg.repeats)]

    best_trial = 0
    best_value, best_z, best_w = outcomes[0]
    for t in range(1, cfg.repeats):
        value, z, w = outcomes[t]
        if value > best_value:
            best_trial, best_value, best_z, best_w = t, value, z, w

    if y_value >= best_value:
        chosen, chosen_set, value = "Y", y_sorted, y_value
    else:
        chosen, chosen_set, value = "W", best_w, best_value

    trace = MatchingOfflineTrace(
        gmm=g,
        partition=partition,
        z_subset=best_z,
        w_set=best_w,
        chosen=chosen,
        value=value,
        trial=best_trial,
    )
    solution = DiversitySolution(
        indices=chosen_set,
        value=value,
        objective="matching",
        algorithm="mwm-offline",
        seed=cfg.seed,
    )
    return solution, trace
