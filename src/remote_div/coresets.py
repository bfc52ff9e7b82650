"""Composable coreset builders for remote-pseudoforest and remote-matching.

Each builder maps one dataset part to a small index subset such that
solving the objective on the union of per-part subsets stays within a
constant factor of solving on the union of the parts, for any partition.
Parts below the construction's size threshold pass through whole.

The pseudoforest coreset combines five blocks of at most k points each:
the k points covering the dataset best (P, inside the smallest ball that
excludes at most k outliers), the k outliers themselves (U), the greedy
farthest-point centers (Y), and two well-separated sets S and T found by a
density/peeling argument. The outlier radius and the far-count check are
one best-first search over the metric's cell grid; it and the dense-ball
scan read only the candidate cells the grid's bounds leave (every cell,
on matrix input and in high dimensions), bit for bit the distances of
whole rows. The matching coreset is the farthest-point centers plus k/2
spare same-cell pairs.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InternalInvariantError, PreconditionError
from .gmm import gmm, voronoi_partition
from .matching import same_cell_pairs
from .metric import PointSet, _cell_grid


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


def k_outlier_radius(ps: PointSet, k: int) -> tuple[int, float]:
    """Smallest radius (over all centers) of a ball that leaves at most k
    points strictly outside.

    For each candidate center the radius is its (k+1)-th largest distance,
    self-distance included; the minimizing center wins, lowest index on
    ties. Returns (center index, radius).
    """
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise PreconditionError(f"k must be an integer >= 0; got k={k!r}")
    if ps.n < k + 1:
        raise PreconditionError(f"need n >= k+1 (n={ps.n}, k={k})")
    return _least_order_statistic(ps, k, np.inf)


def _least_order_statistic(ps: PointSet, j: int, best: float) -> tuple[int | None, float]:
    """The lowest-index row whose (j+1)-th largest distance is smallest and
    at most `best`, with that distance; (None, best) if no row's is.

    Best-first over the cell grid (Fukunaga & Narendra, 1975). A cell's
    floor L is the lower bound at which its farthest cells, in falling
    order of lower bound, hold j+1 points, so L bounds its rows' (j+1)-th
    largest distance from below and only cells whose upper bound reaches L
    are read. Cells go in stable ascending order of L until an L exceeds
    the best found, so ties go to the lowest index."""
    grid = _cell_grid(ps)
    everything = np.arange(grid.size)
    floors = np.empty(grid.size)
    for c in range(grid.size):
        lower = grid.bounds(c)[0]
        top = everything if grid.size <= j + 1 else np.argpartition(-lower, j)[: j + 1]
        top = top[np.argsort(-lower[top], kind="stable")]
        floors[c] = lower[top[np.searchsorted(np.cumsum(grid.counts[top]), j + 1)]]
    center = None
    for c in np.argsort(floors, kind="stable").tolist():
        if floors[c] > best:
            break
        rows = grid.members(c)
        for start, block in ps.blocks_between(rows, grid.gather(np.flatnonzero(grid.bounds(c)[1] >= floors[c]))):
            m = block.shape[1]
            values = np.partition(block, m - j - 1, axis=1)[:, m - j - 1]
            i = int(np.argmin(values))
            if values[i] < best or (values[i] == best and (center is None or rows[start + i] < center)):
                center, best = int(rows[start + i]), float(values[i])
    return center, best


def find_separated_sets(ps: PointSet, k: int, epsilon: float, radius: float) -> StPair:
    """Find disjoint S, T of k points each with cross distance >= epsilon*radius/2.

    `radius` must satisfy the guarantee of `k_outlier_radius`: every point
    has at least k points at distance >= radius from it. Two branches: if
    some point has k neighbors within radius/2, those neighbors and the far
    points around that point already separate; otherwise annuli of width
    epsilon*radius/2 are peeled off, always cutting where the ball's growth
    ratio is small, which bounds how many points can sit near the peel.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise PreconditionError("k must be a positive integer")
    if not (0.0 < epsilon <= 1.0):
        raise PreconditionError("epsilon must lie in (0, 1]")
    if radius < 0.0:
        raise PreconditionError("radius must be nonnegative")
    threshold = 2.0 * k ** (1.0 + epsilon) + k
    if ps.n < threshold:
        raise PreconditionError(f"need n >= 2k^(1+eps)+k = {threshold}; got n={ps.n}")
    # A row has >= k entries >= radius exactly when its k-th largest is;
    # written `not >=`, so a NaN radius fails too.
    if not _least_order_statistic(ps, k - 1, radius)[1] >= radius:
        raise PreconditionError(
            "radius guarantee violated: some point has fewer than k points at distance >= radius"
        )
    return _separated_sets(ps, k, epsilon, radius)


def _separated_sets(ps: PointSet, k: int, epsilon: float, radius: float) -> StPair:
    """`find_separated_sets` past its checks."""
    n = ps.n
    r_sep = epsilon * radius / 2.0

    # Dense branch: first point (index order) whose radius/2 ball holds >= k points.
    dense = _first_dense(ps, k, radius / 2.0)
    if dense is not None:
        row = ps.distances_from(dense)
        s = np.flatnonzero(row <= radius / 2.0)[:k].tolist()
        far = row >= radius
        far[s] = False
        t = np.flatnonzero(far)[:k].tolist()
        if len(t) < k:
            raise InternalInvariantError("far-point pool shrank below k in dense branch")
        return StPair(sorted(s), sorted(t), float(_nearest_in(ps, s)[t].min()), "dense")

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
        shell = np.flatnonzero(alive & (drow <= chosen_step * r_sep))
        alive[shell] = False
        peeled.extend(shell.tolist())
    s = peeled[:k]
    nearest = _nearest_in(ps, s)
    far = nearest >= r_sep
    far[s] = False
    t = np.flatnonzero(far)[:k].tolist()
    if len(t) < k:
        raise InternalInvariantError("fewer than k points stayed clear of the peeled set")
    return StPair(sorted(s), sorted(t), float(nearest[t].min()), "peel")


def _first_dense(ps: PointSet, k: int, half: float) -> int | None:
    """The lowest-index point with at least k points (itself included) at
    distance <= half, or None.

    Cells are taken in the order of their lowest point until that passes
    the best found; a cell counts the points of cells wholly inside the
    ball in full, skips cells wholly outside, and reads distances only to
    the points of cells that straddle its boundary."""
    grid = _cell_grid(ps)
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


def _nearest_in(ps: PointSet, s: list[int]) -> np.ndarray:
    """Each point's least distance to a point of `s`, as a running minimum
    over their rows, one row at a time. Distances are bitwise symmetric, so
    S's rows give its columns; min is exact, so the least entry at T is the
    cross separation."""
    nearest = ps.distances_from(s[0])
    for i in s[1:]:
        np.minimum(nearest, ps.distances_from(i), out=nearest)
    return nearest


def pf_coreset(ps: PointSet, k: int, epsilon: float, gmm_start: int = 0, part_id: int = 0) -> Coreset:
    """Remote-pseudoforest coreset of at most 5k points (or the whole part
    when it is smaller than 2k^(1+eps)+k). Distances are read in blocks
    over the cell grid and in single rows; no n-by-n matrix is built."""
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
    x, radius = k_outlier_radius(ps, k)
    row_x = ps.distances_from(x)
    # U: the k points furthest from x, ties to the lowest index.
    order = np.lexsort((np.arange(n), -row_x))
    u_block = sorted(int(i) for i in order[:k])
    # P: the k lowest-index points inside the ball.
    p_block = [int(i) for i in np.nonzero(row_x <= radius)[0][:k]]
    if len(p_block) < k:
        raise InternalInvariantError("ball around the outlier center holds fewer than k points")
    # Every row's k-th largest distance is at least its (k+1)-th largest,
    # so at least `radius`: the far counts hold without a check.
    st = _separated_sets(ps, k, epsilon, radius)
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
    pairs = same_cell_pairs(voronoi_partition(ps, centers), centers, k // 2)
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
