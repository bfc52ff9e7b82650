"""Finite metric spaces: point sets, distance evaluation, and file I/O.

A `PointSet` is either a set of coordinate vectors under the Euclidean
distance or an explicit symmetric distance matrix. Matrix inputs are
validated on load (symmetry, zero diagonal, nonnegativity, triangle
inequality) within 1e-9 times the largest entry, so the tolerance follows
the data's scale; algorithms themselves compare distances exactly, since
they only need a consistent total order. A matrix with an entry so large
that twice it overflows is rejected. The triangle check walks the upper
triangle in row blocks with a running minimum over pivots, deciding exactly
as a per-pivot scan would. A matrix-csv file is parsed by `np.loadtxt`;
a file it cannot take as a square matrix, or one with a '#' after a field,
is parsed again line by line, which names the offending line.
Every Euclidean distance, single, in a row or in a block of rows, comes
from one kernel (`_euclidean`), so the same pair always gets the same bits;
the kernel is bitwise symmetric, so a column read equals a row read.
A reduction over all pairs (`diameter`, `min_offdiag_distance`, the
coreset's radii and dense-ball scan) builds no n-by-n matrix. On Euclidean
input of at most `_GRID_MAX_DIM` dimensions it runs over a cell grid
(`_CellGrid`): points bucketed by cell, each cell with the tight bounding
box of its points, whose box-distance bounds, widened by a margin and
computed one source cell at a time, only propose candidate cells; every
distance a decision rests on comes from the kernel through
`PointSet.blocks_between`, so the bits, and ties to the lowest index, are
those of whole rows. Matrix input and higher dimensions walk
`PointSet.row_blocks`. Every block's largest temporary stays within
`_BLOCK_ENTRIES` floats.

Point identity is by index into the original dataset. Every subset that
the algorithms pass around is a list of indices, never a copy of the
coordinates, so coresets can be composed across dataset parts. Distances
among a subset have one route, `ps.restrict(indices).distance_matrix()`,
which gives exactly the bits of the whole dataset's matrix at those indices.
"""
from __future__ import annotations

import enum
import io
import json
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InternalInvariantError, PreconditionError

VALIDATION_RTOL = 1e-9
_ROW_BLOCK = 64  # rows per block of the triangle check
_BLOCK_ENTRIES = 1 << 12  # floats in the largest temporary of one row block
_GRID_MAX_DIM = 3  # Euclidean dimensions up to this one reduce over a cell grid
# A cell-pair bound widens by this much, relative and absolute, so that it
# also bounds the kernel's rounded distances, underflowed squares included.
_BOUND_RTOL = 1e-9
_BOUND_ATOL = 2.0**-530


class Objective(enum.Enum):
    REMOTE_MATCHING = "matching"
    REMOTE_PSEUDOFOREST = "pseudoforest"

    @classmethod
    def parse(cls, name: str) -> "Objective":
        for member in cls:
            if member.value == name:
                return member
        raise PreconditionError(f"unknown objective {name!r}; expected 'matching' or 'pseudoforest'")


class PointSet:
    """An immutable finite metric space over points 0..n-1.

    Construct through `from_coords` (Euclidean) or `from_matrix` (explicit
    distances). Euclidean distances are computed on demand: one row by
    `distances_from`, or consecutive blocks of rows by `row_blocks`, which
    a reduction over all pairs scans. Distances among a subset come from
    `restrict(indices).distance_matrix()`, never from a slice of the whole
    dataset's matrix.
    """

    __slots__ = ("kind", "n", "dim", "_coords", "_matrix")

    def __init__(self, kind: str, coords: np.ndarray | None, matrix: np.ndarray | None):
        self.kind = kind
        self._coords = coords
        self._matrix = matrix
        if kind == "euclidean":
            assert coords is not None
            self.n = coords.shape[0]
            self.dim = coords.shape[1]
        else:
            assert matrix is not None
            self.n = matrix.shape[0]
            self.dim = None

    @classmethod
    def from_coords(cls, coords) -> "PointSet":
        arr = np.asarray(coords, dtype=np.float64)
        if arr.ndim != 2:
            raise PreconditionError("coordinates must be a 2-D array of shape (n, dim)")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise PreconditionError("need n >= 1 points of dimension >= 1")
        if not np.all(np.isfinite(arr)):
            raise PreconditionError("coordinates must be finite")
        # Every squared difference is at most extent^2, so the kernel's sum
        # stays finite (with a factor 2 of slack for rounding) below this.
        with np.errstate(over="ignore"):
            extent = float(np.max(arr.max(axis=0) - arr.min(axis=0)))
        if not math.isfinite(2.0 * arr.shape[1] * extent * extent):
            raise PreconditionError("coordinates too far apart: pairwise distances overflow")
        arr = arr.copy()
        arr.flags.writeable = False
        return cls("euclidean", arr, None)

    @classmethod
    def from_matrix(cls, matrix) -> "PointSet":
        arr = np.asarray(matrix, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise PreconditionError("distance matrix must be square")
        if arr.shape[0] < 1:
            raise PreconditionError("need n >= 1 points")
        # Validation only reads the caller's array and returns a fresh one.
        arr = _validate_matrix(arr)
        arr.flags.writeable = False
        return cls("matrix", None, arr)

    @property
    def coords(self) -> np.ndarray:
        if self._coords is None:
            raise PreconditionError("point set has no coordinates (matrix kind)")
        return self._coords

    def distance(self, i: int, j: int) -> float:
        _check_index(i, self.n)
        _check_index(j, self.n)
        if i == j:
            return 0.0
        if self.kind == "euclidean":
            return float(_euclidean(self._coords[j : j + 1], self._coords[i : i + 1])[0, 0])
        return float(self._matrix[i, j])

    def distances_from(self, i: int) -> np.ndarray:
        """All distances from point i, as a length-n array."""
        _check_index(i, self.n)
        if self.kind == "euclidean":
            return _euclidean(self._coords, self._coords[i : i + 1])[0]
        return self._matrix[i].copy()

    def row_blocks(self, *, upper: bool = False):
        """Yield (start, block) for consecutive blocks of rows covering 0..n-1:
        block[r] holds the distances from point start + r to every point, or,
        when `upper`, to points start..n-1 only (the block's part of the upper
        triangle, diagonal included). Each block holds as many rows as keep its
        largest temporary within `_BLOCK_ENTRIES` floats, at least one.
        Euclidean blocks are fresh arrays, bit for bit the rows
        `distances_from` gives; a matrix kind's are read-only views of the
        stored matrix."""
        n = self.n
        rows = max(1, _BLOCK_ENTRIES // (n * (self.dim or 1)))
        for start in range(0, n, rows):
            first = start if upper else 0
            if self.kind == "euclidean":
                yield start, _euclidean(self._coords[first:], self._coords[start : start + rows])
            else:
                yield start, self._matrix[start : start + rows, first:]

    def blocks_between(self, rows: np.ndarray, cols: np.ndarray):
        """Yield (start, block) for consecutive slices of the index array
        `rows`: block[r, j] is the distance from point rows[start + r] to
        point cols[j], bit for bit the entry `distances_from` gives. Blocks
        are fresh arrays, each holding as many rows as keep its largest
        temporary within `_BLOCK_ENTRIES` floats, at least one."""
        step = max(1, _BLOCK_ENTRIES // (max(1, len(cols)) * (self.dim or 1)))
        points = self._coords[cols] if self.kind == "euclidean" else None
        for start in range(0, len(rows), step):
            chunk = rows[start : start + step]
            if points is not None:
                yield start, _euclidean(points, self._coords[chunk])
            else:
                yield start, self._matrix[np.ix_(chunk, cols)]

    def distance_matrix(self) -> np.ndarray:
        """Dense n-by-n distance matrix. O(n^2) memory; caller keeps it."""
        if self.kind == "matrix":
            return self._matrix
        out = np.empty((self.n, self.n), dtype=np.float64)
        for start, block in self.row_blocks():
            out[start : start + len(block)] = block
        return out

    def restrict(self, indices: list[int]) -> "PointSet":
        """Sub-point-set over `indices`; local index p maps to indices[p]."""
        idx = list(indices)
        if len(idx) == 0:
            raise PreconditionError("cannot restrict to an empty index list")
        if len(set(idx)) != len(idx):
            raise PreconditionError("restriction indices must be distinct")
        for i in idx:
            _check_index(i, self.n)
        if self.kind == "euclidean":
            return PointSet.from_coords(self._coords[idx])
        sub = self._matrix[np.ix_(idx, idx)].copy()
        sub.flags.writeable = False
        return PointSet("matrix", None, sub)

    def __repr__(self) -> str:
        return f"PointSet(kind={self.kind!r}, n={self.n})"


class ClampedMetric:
    """A scaled metric with all off-diagonal distances floored at a constant.

    d(i, j) = max(scale * base distance, floor) for i != j, and d(i, i) = 0.
    Scale and floor are scalars over the base point set, so no scaled copy
    of its distances is kept. The floor preserves the triangle inequality
    whenever the base satisfies it.
    """

    __slots__ = ("base", "floor", "scale")

    def __init__(self, base: PointSet, floor: float, scale: float = 1.0):
        if floor < 0:
            raise PreconditionError("clamp floor must be nonnegative")
        self.base = base
        self.floor = float(floor)
        self.scale = float(scale)

    @property
    def n(self) -> int:
        return self.base.n

    def distance(self, i: int, j: int) -> float:
        _check_index(j, self.n)
        return float(self.distances_from(i)[j])

    def distances_from(self, i: int) -> np.ndarray:
        """All clamped distances from point i, as a fresh length-n array."""
        row = self._clamp(self.base.distances_from(i))
        row[i] = 0.0
        return row

    def blocks_between(self, rows: np.ndarray, cols: np.ndarray):
        """`PointSet.blocks_between` of the clamped distances."""
        for start, block in self.base.blocks_between(rows, cols):
            block = self._clamp(block)
            block[rows[start : start + len(block), None] == cols] = 0.0
            yield start, block

    def _clamp(self, distances: np.ndarray) -> np.ndarray:
        """Scale and floor a fresh array of base distances in place: the one
        place they are applied."""
        distances *= self.scale
        return np.maximum(distances, self.floor, out=distances)

    def distance_matrix(self) -> np.ndarray:
        """A fresh dense matrix, one `distances_from` row at a time."""
        out = np.empty((self.n, self.n), dtype=np.float64)
        for i in range(self.n):
            out[i] = self.distances_from(i)
        return out


@dataclass(frozen=True)
class RunConfig:
    """Parameters shared by the randomized pipelines."""

    k: int
    epsilon: float = 1.0
    seed: int = 0
    repeats: int = 20
    objective: Objective = Objective.REMOTE_MATCHING

    def __post_init__(self):
        if self.k < 1:
            raise PreconditionError("k must be a positive integer")
        if not (0.0 < self.epsilon <= 1.0):
            raise PreconditionError("epsilon must lie in (0, 1]")
        if self.repeats < 1:
            raise PreconditionError("repeats must be a positive integer")
        if self.seed < 0 or self.seed >= 2**64:
            raise PreconditionError("seed must fit in 64 unsigned bits")


def diameter(ps: PointSet) -> float:
    """Maximum pairwise distance; 0 for a single point. Distances are
    symmetric, so only the upper triangle is scanned, or, on a cell grid,
    the cell pairs whose upper bound reaches the best distance so far."""
    grid = _cell_grid(ps)
    if grid is None:
        return max(float(block.max()) for _start, block in ps.row_blocks(upper=True))
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
    """Smallest distance between two distinct points, from the upper
    triangle without its diagonal, or, on a cell grid, from the cell pairs
    whose lower bound is within the best distance so far."""
    if ps.n < 2:
        raise PreconditionError("need at least 2 points")
    best = math.inf
    grid = _cell_grid(ps)
    if grid is None:
        for _start, block in ps.row_blocks(upper=True):
            # Column c of the block's row r is off the diagonal when c > r.
            off_diagonal = block[np.arange(block.shape[1]) > np.arange(len(block))[:, None]]
            if off_diagonal.size:
                best = min(best, float(off_diagonal.min()))
        return best
    for c in range(grid.size):
        later = np.arange(c, grid.size)
        lower, _upper = grid.bounds(c, later)
        rows, cols = grid.members(c), grid.gather(later[lower <= best])
        for start, block in ps.blocks_between(rows, cols):
            block[rows[start : start + len(block), None] == cols] = math.inf
            best = float(block.min(initial=best))
    return best


class _CellGrid:
    """Euclidean points bucketed by the cells of a regular grid, ascending
    index within a cell; only occupied cells are kept, each with the tight
    bounding box of its members.

    Cells only propose candidates. Their bounds are widened to cover the
    kernel's rounding, and every distance a caller decides on comes from
    `PointSet.blocks_between`, so which cell a point lands in moves work,
    never a result. The side is picked for about n^(1/3) points per cell,
    which balances the callers' cells-squared bound work against the
    distances they read from candidate cells, and halved while the points
    fill under a quarter of that many cells (they lie near a line).
    """

    __slots__ = ("order", "starts", "counts", "lo", "hi")

    def __init__(self, coords: np.ndarray):
        n = coords.shape[0]
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
                if np.unique(ids).size * 4 >= wanted:
                    break
                side /= 2.0
        self.order = np.argsort(ids, kind="stable")
        first = np.concatenate(([0], np.flatnonzero(np.diff(ids[self.order])) + 1))
        self.starts = np.append(first, n)
        self.counts = np.diff(self.starts)
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


def _cell_grid(ps: PointSet) -> _CellGrid | None:
    """The cell grid of a Euclidean point set of at most `_GRID_MAX_DIM`
    dimensions; None for the others, whose reductions scan blocks of rows."""
    if ps.kind != "euclidean" or ps.dim > _GRID_MAX_DIM:
        return None
    return _CellGrid(ps.coords)


# ---------------------------------------------------------------------------
# File formats. Three on-disk forms are supported:
#   json       {"dim": d, "points": [[f64, ...], ...]}
#   csv        one point per row, optional header line "# dim=<d>"
#   matrix-csv n rows of n comma-separated decimals, zero diagonal
# ---------------------------------------------------------------------------

FORMATS = ("json", "csv", "matrix-csv")


def load_pointset(document: str | bytes, format: str) -> PointSet:
    """Parse and validate a point file. See module docstring for grammars."""
    if isinstance(document, bytes):
        document = document.decode("utf-8")
    if format == "json":
        return _load_json(document)
    if format == "csv":
        return _load_csv(document)
    if format == "matrix-csv":
        return _load_matrix_csv(document)
    raise PreconditionError(f"unknown format {format!r}; expected one of {FORMATS}")


def dump_pointset(ps: PointSet, format: str) -> str:
    """Serialize so that load_pointset(dump_pointset(ps)) preserves distances."""
    if format == "json":
        if ps.kind != "euclidean":
            raise PreconditionError("json format stores coordinates; point set has none")
        points = [[float(v) for v in row] for row in ps.coords]
        return json.dumps({"dim": ps.dim, "points": points})
    if format == "csv":
        if ps.kind != "euclidean":
            raise PreconditionError("csv format stores coordinates; point set has none")
        lines = [f"# dim={ps.dim}"]
        lines.extend(",".join(repr(float(v)) for v in row) for row in ps.coords)
        return "\n".join(lines) + "\n"
    if format == "matrix-csv":
        dmat = ps.distance_matrix()
        lines = [",".join(repr(float(v)) for v in row) for row in dmat]
        return "\n".join(lines) + "\n"
    raise PreconditionError(f"unknown format {format!r}; expected one of {FORMATS}")


def _load_json(text: str) -> PointSet:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PreconditionError(f"invalid JSON point file: {exc}") from exc
    if not isinstance(obj, dict) or "points" not in obj:
        raise PreconditionError("JSON point file must be an object with a 'points' field")
    points = obj["points"]
    dim = obj.get("dim")
    try:
        arr = np.asarray(points, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise PreconditionError(f"invalid point rows: {exc}") from exc
    if arr.ndim != 2:
        raise PreconditionError("points must be a list of equal-length coordinate rows")
    if dim is not None and int(dim) != arr.shape[1]:
        raise PreconditionError(f"declared dim={dim} but rows have {arr.shape[1]} fields")
    return PointSet.from_coords(arr)


def _load_csv(text: str) -> PointSet:
    declared_dim = None
    rows = []
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            stripped = line.lstrip("#").strip()
            if stripped.startswith("dim="):
                declared_dim = int(stripped[4:])
            continue
        try:
            rows.append([float(fieldval) for fieldval in line.split(",")])
        except ValueError as exc:
            raise PreconditionError(f"csv line {lineno}: {exc}") from exc
    if not rows:
        raise PreconditionError("csv point file contains no points")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise PreconditionError(f"csv rows have inconsistent field counts: {sorted(widths)}")
    if declared_dim is not None and declared_dim != len(rows[0]):
        raise PreconditionError(f"declared dim={declared_dim} but rows have {len(rows[0])} fields")
    return PointSet.from_coords(np.asarray(rows, dtype=np.float64))


def _load_matrix_csv(text: str) -> PointSet:
    return PointSet.from_matrix(_parse_matrix_csv(text))


# A '#' after a field on its line: `np.loadtxt` would drop the rest of the
# line, where the line parser rejects the field.
_INLINE_COMMENT = re.compile(r"[^\s#][^\S\n]*#")


def _parse_matrix_csv(text: str) -> np.ndarray:
    """The matrix a matrix-csv file holds, parsed by `np.loadtxt` (every
    field converted as `float()` converts it). Whatever it cannot take as a
    square matrix is parsed again line by line, to raise that parser's
    message."""
    if "#" not in text or not _INLINE_COMMENT.search(text):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a file with no rows
                arr = np.loadtxt(io.StringIO(text), dtype=np.float64, delimiter=",", comments="#", ndmin=2)
        except ValueError:
            pass
        else:
            if arr.size and arr.shape[0] == arr.shape[1]:
                return arr
    return _parse_matrix_csv_lines(text)


def _parse_matrix_csv_lines(text: str) -> np.ndarray:
    rows = {}  # line number -> values
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows[lineno] = [float(fieldval) for fieldval in line.split(",")]
        except ValueError as exc:
            raise PreconditionError(f"matrix-csv line {lineno}: {exc}") from exc
    if not rows:
        raise PreconditionError("matrix-csv file contains no rows")
    n = len(rows)
    for lineno, row in rows.items():
        if len(row) != n:
            raise PreconditionError(f"matrix-csv must be square; got {n} rows, but line {lineno} has {len(row)} fields")
    return np.asarray(list(rows.values()), dtype=np.float64)


def _validate_matrix(arr: np.ndarray) -> np.ndarray:
    n = arr.shape[0]
    if not np.all(np.isfinite(arr)):
        raise PreconditionError("distance matrix entries must be finite")
    top = float(arr.max())
    tol = VALIDATION_RTOL * max(top, -float(arr.min()))
    bad = np.argwhere(arr < -tol)
    if bad.size:
        i, j = (int(v) for v in bad[0])
        raise PreconditionError(f"negative distance at ({i},{j}): {arr[i, j]}")
    asym = arr - arr.T
    np.abs(asym, out=asym)
    bad = np.argwhere(asym > tol)
    if bad.size:
        i, j = sorted(int(v) for v in bad[0])
        raise PreconditionError(
            f"asymmetric distances at ({i},{j}): {arr[i, j]} vs {arr[j, i]}"
        )
    diag = np.abs(np.diagonal(arr))
    if diag.max(initial=0.0) > tol:
        i = int(np.argmax(diag))
        raise PreconditionError(f"nonzero diagonal at ({i},{i}): {arr[i, i]}")
    # No entry is below -tol now, so if twice the largest is finite, so is
    # every sum below: the cleaning's and each pivot sum of the triangle check.
    if not math.isfinite(2.0 * top):
        raise PreconditionError("distance matrix entries too large: sums of two distances overflow")
    # Normalize round-trip noise, then check the triangle inequality exactly
    # once on the cleaned matrix, which is exactly symmetric.
    arr = np.add(arr, arr.T, out=asym)
    arr /= 2.0
    np.maximum(arr, 0.0, out=arr)
    np.fill_diagonal(arr, 0.0)
    if _violates_triangle(arr, tol):
        for j in range(n):  # name the first violation: lowest j, then row-major (i, l)
            bad = np.argwhere(arr - (arr[:, j, None] + arr[j]) > tol)
            if bad.size:
                i, l = (int(v) for v in bad[0])
                raise PreconditionError(
                    f"triangle inequality violated for ({i},{j},{l}): "
                    f"{arr[i, l]} > {arr[i, j]} + {arr[j, l]}"
                )
        raise InternalInvariantError("blocked triangle check found a violation the pivot scan does not")
    return arr


def _violates_triangle(arr: np.ndarray, tol: float) -> bool:
    """Whether arr[i, l] - (arr[i, j] + arr[j, l]) > tol for some i, j, l.

    `arr` is exactly symmetric, so (i, j, l) violates iff (l, j, i) does and
    only pairs i <= l are checked, a block of rows at a time. Rounded
    subtraction is monotone, so arr[i, l] minus the minimum over pivots j of
    arr[i, j] + arr[j, l] exceeds tol exactly when one pivot's difference does.
    """
    n = arr.shape[0]
    for s in range(0, n, _ROW_BLOCK):
        rows = arr[s : s + _ROW_BLOCK]
        block = rows[:, s:]
        low = block.copy()
        pivot_sum = np.empty_like(low)
        for j in range(n):
            np.add(rows[:, j, None], arr[j, s:], out=pivot_sum)
            np.minimum(low, pivot_sum, out=low)
        np.subtract(block, low, out=low)
        if np.any(low > tol):
            return True
    return False


def _euclidean(coords: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Distances from each row of `centers` to each row of `coords`, as a
    (len(centers), len(coords)) array. A row's bits do not depend on how
    many centers share the call."""
    diff = coords[None, :, :] - centers[:, None, :]
    squares = np.einsum("bij,bij->bi", diff, diff)
    return np.sqrt(squares, out=squares)


def _check_index(i: int, n: int) -> None:
    if not (0 <= i < n):
        raise PreconditionError(f"point index {i} out of range for n={n}")
