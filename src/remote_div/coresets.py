"""Composable coreset builders for remote-pseudoforest and remote-matching.

Each builder maps one dataset part to a small index subset such that
solving the objective on the union of per-part subsets stays within a
constant factor of solving on the union of the parts, for any partition.
Parts below the construction's size threshold pass through whole.

The pseudoforest coreset combines five blocks of at most k points each:
the k points covering the dataset best (P, inside the smallest ball that
excludes at most k outliers), the k outliers themselves (U), the greedy
farthest-point centers (Y), and two well-separated sets S and T found by a
density/peeling argument. The radii, the far counts and the dense-ball
scan reduce over every pair: in blocks of rows, or, on the cell grid of
low-dimensional Euclidean input, over the candidate cells its bounds
leave, reading the same distances bit for bit. The matching coreset is the
farthest-point centers plus k/2 spare same-cell pairs.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InternalInvariantError, PreconditionError
from .gmm import gmm, voronoi_partition
from .matching import same_cell_pairs
from .metric import PointSet, _CellGrid, _cell_grid

PF_BLOCKS = ("P", "S", "T", "U", "Y")


@dataclass(frozen=True)
class Coreset:
    source_part: int
    indices: list[int]
    objective: str
    k: int
    passthrough: bool
    blocks: dict[str, list[int]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "part": self.source_part,
            "k": self.k,
            "objective": self.objective,
            "indices": list(self.indices),
            "passthrough": self.passthrough,
            "blocks": {name: list(ids) for name, ids in self.blocks.items()},
        }


@dataclass(frozen=True)
class StPair:
    s: list[int]
    t: list[int]
    separation: float
    branch: str = "dense"  # which construction fired: "dense" or "peel"


def k_outlier_radius(ps: PointSet, k: int, *, kth_largest: np.ndarray | None = None) -> tuple[int, float]:
    """Smallest radius (over all centers) of a ball that leaves at most k
    points strictly outside.

    For each candidate center the radius is its (k+1)-th largest distance,
    self-distance included; the minimizing center wins, lowest index on
    ties. Returns (center index, radius). If `kth_largest` (length n) is
    given, it receives each point's k-th largest distance from the same
    pass, which `find_separated_sets` takes in place of its own.
    """
    n = ps.n
    if n < k + 1:
        raise PreconditionError(f"need n >= k+1 (n={n}, k={k})")
    radii = np.empty(n)
    if kth_largest is None:
        kth_largest = np.empty(n)
    _order_statistics(ps, k, radii, kth_largest)
    center = int(np.argmin(radii))
    return center, float(radii[center])


def _order_statistics(ps: PointSet, k: int, radii: np.ndarray, kth_largest: np.ndarray) -> None:
    """Fill each row's (k+1)-th and k-th largest distances. One partition
    per block of rows at position m-k-1 (ascending) of its m columns puts the
    (k+1)-th largest there and the k largest after it.

    Without a cell grid the blocks are whole rows. On a grid, a source
    cell's rows need only the columns of cells whose upper bound reaches L:
    the lower bounds of the farthest cells, taken in falling order until
    their points number k+1, make L a lower bound on every one of its
    rows' (k+1)-th largest distance, and no column left out reaches it."""
    grid = _cell_grid(ps)
    if grid is None:
        blocks = ((slice(start, start + len(block)), block) for start, block in ps.row_blocks())
    else:
        blocks = _far_blocks(ps, grid, k)
    for rows, block in blocks:
        m = block.shape[1]
        part = np.partition(block, m - k - 1, axis=1)
        radii[rows] = part[:, m - k - 1]
        kth_largest[rows] = part[:, m - k :].min(axis=1, initial=np.inf)  # inf for k=0


def _far_blocks(ps: PointSet, grid: _CellGrid, k: int):
    """Yield (rows, block) covering every point once: the distances from
    `rows` (one source cell's points, or a slice of them) to every point
    that can be among a row's k+1 largest."""
    everything = np.arange(grid.size)
    for c in range(grid.size):
        lower, upper = grid.bounds(c)
        top = everything if grid.size <= k + 1 else np.argpartition(-lower, k)[: k + 1]
        top = top[np.argsort(-lower[top], kind="stable")]
        enough = np.searchsorted(np.cumsum(grid.counts[top]), k + 1)
        rows = grid.members(c)
        for start, block in ps.blocks_between(rows, grid.gather(np.flatnonzero(upper >= lower[top[enough]]))):
            yield rows[start : start + len(block)], block


def find_separated_sets(
    ps: PointSet,
    k: int,
    epsilon: float,
    radius: float,
    *,
    kth_largest: np.ndarray | None = None,
) -> StPair:
    """Find disjoint S, T of k points each with cross distance >= epsilon*radius/2.

    `radius` must satisfy the guarantee of `k_outlier_radius`: every point
    has at least k points at distance >= radius from it. Two branches: if
    some point has k neighbors within radius/2, those neighbors and the far
    points around that point already separate; otherwise annuli of width
    epsilon*radius/2 are peeled off, always cutting where the ball's growth
    ratio is small, which bounds how many points can sit near the peel.
    `kth_largest` is each point's k-th largest distance, as
    `k_outlier_radius` fills it; without it a pass of its own finds it.
    """
    n = ps.n
    if not (0.0 < epsilon <= 1.0):
        raise PreconditionError("epsilon must lie in (0, 1]")
    if radius < 0.0:
        raise PreconditionError("radius must be nonnegative")
    threshold = 2.0 * k ** (1.0 + epsilon) + k
    if n < threshold:
        raise PreconditionError(f"need n >= 2k^(1+eps)+k = {threshold}; got n={n}")
    if kth_largest is None:
        kth_largest = np.empty(n)
        _order_statistics(ps, k, np.empty(n), kth_largest)
    # A row has >= k entries >= radius exactly when its k-th largest is.
    if not float(kth_largest.min()) >= radius:
        raise PreconditionError(
            "radius guarantee violated: some point has fewer than k points at distance >= radius"
        )

    r_sep = epsilon * radius / 2.0

    # Dense branch: first point (index order) whose radius/2 ball holds >= k points.
    dense = _first_dense(ps, k, radius / 2.0)
    if dense is not None:
        row = ps.distances_from(dense)
        near = np.nonzero(row <= radius / 2.0)[0]
        s = [int(i) for i in near[:k]]
        s_set = set(s)
        t = [int(i) for i in np.nonzero(row >= radius)[0] if int(i) not in s_set][:k]
        if len(t) < k:
            raise InternalInvariantError("far-point pool shrank below k in dense branch")
        return StPair(sorted(s), sorted(t), _cross_separation(ps, s, t), "dense")

    # Peeling branch.
    growth_cap = float(k) ** epsilon
    max_step = int(np.floor(1.0 / epsilon + 1e-12))
    alive = np.ones(n, dtype=bool)
    peeled: list[int] = []
    while len(peeled) < k:
        alive_idx = np.nonzero(alive)[0]
        if len(alive_idx) == 0:
            raise InternalInvariantError("peeling exhausted the dataset before k points")
        pivot = int(alive_idx[0])
        drow = ps.distances_from(pivot)
        counts = [
            int(np.count_nonzero(alive & (drow <= step * r_sep)))
            for step in range(max_step + 2)
        ]
        chosen_step = -1
        for step in range(max_step + 1):
            if counts[step + 1] <= growth_cap * counts[step]:
                chosen_step = step
                break
        if chosen_step < 0:
            raise InternalInvariantError("no annulus with bounded growth; peeling cannot proceed")
        if counts[chosen_step] > k:
            raise InternalInvariantError("annulus unexpectedly larger than k")
        shell = np.nonzero(alive & (drow <= chosen_step * r_sep))[0]
        for i in shell:
            alive[i] = False
            peeled.append(int(i))
    s = peeled[:k]
    # Distances are bitwise symmetric, so S's rows give its columns.
    min_to_s = np.min([ps.distances_from(i) for i in s], axis=0)
    s_set = set(s)
    t = [int(i) for i in np.nonzero(min_to_s >= r_sep)[0] if int(i) not in s_set][:k]
    if len(t) < k:
        raise InternalInvariantError("fewer than k points stayed clear of the peeled set")
    return StPair(sorted(s), sorted(t), _cross_separation(ps, s, t), "peel")


def _first_dense(ps: PointSet, k: int, half: float) -> int | None:
    """The lowest-index point with at least k points (itself included) at
    distance <= half, or None.

    Without a cell grid, blocks of rows are scanned in order. On a grid,
    cells are taken in the order of their lowest point until that passes
    the best found; a cell counts the points of cells wholly inside the
    ball in full, skips cells wholly outside, and reads distances only to
    the points of cells that straddle its boundary."""
    grid = _cell_grid(ps)
    if grid is None:
        for start, block in ps.row_blocks():
            dense = np.flatnonzero(np.count_nonzero(block <= half, axis=1) >= k)
            if dense.size:
                return start + int(dense[0])
        return None
    best = None
    for c in np.argsort(grid.order[grid.starts[:-1]]).tolist():
        rows = grid.members(c)
        if best is not None and rows[0] > best:
            break
        lower, upper = grid.bounds(c)
        inside = int(grid.counts[upper <= half].sum())
        for start, block in ps.blocks_between(rows, grid.gather(np.flatnonzero((lower <= half) & (upper > half)))):
            dense = np.flatnonzero(inside + np.count_nonzero(block <= half, axis=1) >= k)
            if dense.size:
                found = int(rows[start + dense[0]])
                best = found if best is None else min(best, found)
                break
    return best


def _cross_separation(ps: PointSet, s: list[int], t: list[int]) -> float:
    return min(float(ps.distances_from(i)[t].min()) for i in s)


def pf_coreset(ps: PointSet, k: int, epsilon: float, gmm_start: int = 0, part_id: int = 0) -> Coreset:
    """Remote-pseudoforest coreset of at most 5k points (or the whole part
    when it is smaller than 2k^(1+eps)+k). Distances are read in blocks of
    rows and single rows; no n-by-n matrix is built."""
    if k < 1:
        raise PreconditionError("k must be a positive integer")
    if not (0.0 < epsilon <= 1.0):
        raise PreconditionError("epsilon must lie in (0, 1]")
    n = ps.n
    threshold = 2.0 * k ** (1.0 + epsilon) + k
    if n < threshold:
        return Coreset(
            source_part=part_id,
            indices=list(range(n)),
            objective="pseudoforest",
            k=k,
            passthrough=True,
        )
    centers = gmm(ps, k, gmm_start).centers
    kth_largest = np.empty(n)
    x, radius = k_outlier_radius(ps, k, kth_largest=kth_largest)
    row_x = ps.distances_from(x)
    # U: the k points furthest from x, ties to the lowest index.
    order = np.lexsort((np.arange(n), -row_x))
    u_block = sorted(int(i) for i in order[:k])
    # P: the k lowest-index points inside the ball.
    p_block = [int(i) for i in np.nonzero(row_x <= radius)[0][:k]]
    if len(p_block) < k:
        raise InternalInvariantError("ball around the outlier center holds fewer than k points")
    st = find_separated_sets(ps, k, epsilon, radius, kth_largest=kth_largest)
    blocks = {
        "P": p_block,
        "S": st.s,
        "T": st.t,
        "U": u_block,
        "Y": sorted(centers),
    }
    indices = sorted(set().union(*blocks.values()))
    return Coreset(
        source_part=part_id,
        indices=indices,
        objective="pseudoforest",
        k=k,
        passthrough=False,
        blocks=blocks,
    )


def mwm_coreset(ps: PointSet, k: int, gmm_start: int = 0, part_id: int = 0) -> Coreset:
    """Remote-matching coreset: exactly 2k points (the greedy centers plus
    k/2 same-cell pairs), or the whole part when n <= 3k."""
    if k < 2 or k % 2 != 0:
        raise PreconditionError(f"remote-matching coreset needs an even k >= 2; got k={k}")
    n = ps.n
    if n <= 3 * k:
        return Coreset(
            source_part=part_id,
            indices=list(range(n)),
            objective="matching",
            k=k,
            passthrough=True,
        )
    centers = gmm(ps, k, gmm_start).centers
    partition = voronoi_partition(ps, centers)
    pairs = same_cell_pairs(partition, centers, k // 2)
    blocks = {
        "Y": sorted(centers),
        "pairs": sorted(pairs),
    }
    indices = sorted(centers + pairs)
    if len(indices) != 2 * k:
        raise InternalInvariantError("matching coreset must have exactly 2k distinct points")
    return Coreset(
        source_part=part_id,
        indices=indices,
        objective="matching",
        k=k,
        passthrough=False,
        blocks=blocks,
    )
