"""The cell index of a point set and the reductions over all pairs.

A reduction over all pairs (`diameter`, `min_offdiag_distance`, the
coreset's radii and dense-ball scan) builds no n-by-n matrix: it runs over
the cells of a `_CellGrid`, whose box-distance bounds, widened by a margin
and computed one source cell at a time, only propose candidate cells.
Euclidean input of at most `_GRID_MAX_DIM` dimensions is bucketed by a
regular grid with the tight bounding box of each cell's points; matrix
input and higher dimensions by runs of about sqrt(n) consecutive indices
with unbounded boxes, whose bounds propose every pair. Every distance a
decision rests on comes from `PointSet.blocks_between`, the one blocked
read, so the bits, and ties to the lowest index, are those of whole rows.

Only the commands that run such a reduction import this module: `nets`
at its top, `coresets` inside its pseudoforest searches, and
`metric.diameter`, which keeps the result on the point set, on first use.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import PreconditionError
from .metric import PointSet

_GRID_MAX_DIM = 3  # Euclidean dimensions up to this one reduce over a cell grid
# A cell-pair bound widens by this much, relative and absolute, so that it
# also bounds the kernel's rounded distances, underflowed squares included.
_BOUND_RTOL = 1e-9
_BOUND_ATOL = 2.0**-530


def _diameter(ps: PointSet) -> float:
    """Maximum pairwise distance; 0 for a single point. Distances are
    symmetric, so only the cell pairs (c, c') with c <= c' whose upper
    bound reaches the best distance so far are read."""
    grid = _cell_grid(ps)
    # The double sweep from point 0 gives a pair's distance to start from.
    best, far = 0.0, 0
    for _ in range(2):
        row = ps.distances_from(far)
        far = int(np.argmax(row))
        best = max(best, float(row[far]))
    cells = np.flatnonzero(grid.reach() >= best)
    for pos, c in enumerate(cells.tolist()):
        later = cells[pos:]
        _lower, upper = grid.bounds(c, later)
        for _start, block in ps.blocks_between(grid.members(c), grid.gather(later[upper >= best])):
            best = float(block.max(initial=best))
    return best


def min_offdiag_distance(ps: PointSet) -> float:
    """Smallest distance between two distinct points, from the cell pairs
    (c, c') with c <= c' whose lower bound is within the best distance so
    far."""
    if ps.n < 2:
        raise PreconditionError("need at least 2 points")
    best = math.inf
    grid = _cell_grid(ps)
    for c in range(grid.size):
        later = np.arange(c, grid.size)
        lower, _upper = grid.bounds(c, later)
        rows, cols = grid.members(c), grid.gather(later[lower <= best])
        for start, block in ps.blocks_between(rows, cols):
            block[rows[start : start + len(block), None] == cols] = math.inf
            best = float(block.min(initial=best))
    return best


class _CellGrid:
    """Points bucketed by cell, ascending index within a cell; only
    occupied cells are kept, each with a box that holds its members.

    Cells only propose candidates. Their bounds are widened to cover the
    kernel's rounding, and every distance a caller decides on comes from
    `PointSet.blocks_between`, so which cell a point lands in moves work,
    never a result. A cell with an unbounded box has lower bounds of at
    most 0 and upper bounds of inf, so callers read all of its pairs.
    """

    __slots__ = ("order", "starts", "counts", "lo", "hi")

    def __init__(self, ids: np.ndarray, coords: np.ndarray | None):
        """Cells of the points with equal `ids`, each boxed tightly around
        its members' `coords`, or unbounded when there are none."""
        self.order = np.argsort(ids, kind="stable")
        first = np.concatenate(([0], np.flatnonzero(np.diff(ids[self.order])) + 1))
        self.starts = np.append(first, len(ids))
        self.counts = np.diff(self.starts)
        if coords is None:
            self.hi = np.full((len(first), 1), np.inf)
            self.lo = -self.hi
        else:
            grouped = coords[self.order]
            self.lo = np.minimum.reduceat(grouped, first, axis=0)
            self.hi = np.maximum.reduceat(grouped, first, axis=0)

    @property
    def size(self) -> int:
        return len(self.counts)

    def members(self, c: int) -> np.ndarray:
        """Cell c's points, ascending."""
        return self.order[self.starts[c] : self.starts[c + 1]]

    def gather(self, cells: np.ndarray) -> np.ndarray:
        """The points of `cells`, ascending."""
        lens = self.counts[cells]
        shift = np.repeat(self.starts[cells] - (np.cumsum(lens) - lens), lens)
        return np.sort(self.order[shift + np.arange(len(shift))])

    def bounds(self, c: int, cells: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper bounds on the kernel's distance from a point of
        cell c to a point of each of `cells` (of every cell by default)."""
        lo, hi = (self.lo, self.hi) if cells is None else (self.lo[cells], self.hi[cells])
        gap = np.maximum(lo - self.hi[c], self.lo[c] - hi)
        np.maximum(gap, 0.0, out=gap)
        far = np.maximum(hi - self.lo[c], self.hi[c] - lo)
        return _widened(gap)[0], _widened(far)[1]

    def reach(self) -> np.ndarray:
        """An upper bound, per cell, on the distance from one of its points
        to any point."""
        far = np.maximum(self.hi.max(axis=0) - self.lo, self.hi - self.lo.min(axis=0))
        return _widened(far)[1]


def _widened(sides: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The norms of the rows of `sides`, less and more a margin that covers
    the kernel's rounding and underflow on either side."""
    norm = np.sqrt(np.einsum("ij,ij->i", sides, sides))
    return norm * (1.0 - _BOUND_RTOL) - _BOUND_ATOL, norm * (1.0 + _BOUND_RTOL) + _BOUND_ATOL


def _cell_grid(ps: PointSet) -> _CellGrid:
    """The cells the reductions over all pairs run on. Matrix input and
    Euclidean input of more than `_GRID_MAX_DIM` dimensions go in runs of
    about sqrt(n) consecutive indices with unbounded boxes, whose bounds
    propose every pair: every row is read whole, or, where symmetry is
    used, the upper triangle with sqrt(n)-sized diagonal blocks. Other
    points are bucketed by a regular grid whose side is picked for about
    n^(1/3) points per cell, which balances the callers' cells-squared
    bound work against the distances they read from candidate cells, and
    halved while the points fill under a quarter of that many cells (they
    lie near a line)."""
    if ps.kind != "euclidean" or ps.dim > _GRID_MAX_DIM:
        return _CellGrid(np.arange(ps.n) // math.isqrt(ps.n), None)
    coords, n = ps.coords, ps.n
    low = coords.min(axis=0)
    extent = coords.max(axis=0) - low
    wanted = max(1, round(n ** (2.0 / 3.0)))
    spread = extent[extent > 0.0]
    ids = np.zeros(n, dtype=np.int64)
    if spread.size:
        side = math.exp((float(np.log(spread).sum()) - math.log(wanted)) / spread.size)
        while side > 0.0:
            shape = np.floor(extent / side) + 1.0
            if not float(np.prod(shape)) < 2.0**62:
                break
            cell = np.minimum(np.floor((coords - low) / side), shape - 1.0).astype(np.int64)
            ids = cell @ np.cumprod(np.concatenate(([1.0], shape[:-1]))).astype(np.int64)
            # Distinct cells, counted without `np.unique` (which imports numpy.ma).
            if (np.count_nonzero(np.diff(np.sort(ids))) + 1) * 4 >= wanted:
                break
            side /= 2.0
    return _CellGrid(ids, coords)
