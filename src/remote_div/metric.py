"""Finite metric spaces: point sets, distance evaluation, and file I/O.

A `PointSet` is either a set of coordinate vectors under the Euclidean
distance or an explicit symmetric distance matrix. Matrix inputs are
validated on load (symmetry, zero diagonal, nonnegativity, triangle
inequality) within 1e-9 times the largest entry, so the tolerance follows
the data's scale; algorithms themselves compare distances exactly, since
they only need a consistent total order. A matrix with an entry so large
that twice it overflows is rejected. A matrix-kind set keeps only its upper
triangle, row-major, with one trailing 0.0 that every diagonal read takes,
and no n-by-n array is built to validate or load one. One pass over the
rows checks and cleans them: each entry right of the diagonal is stored as
it arrives, each one left of it is compared with its stored mirror, which
takes the cleaned mean. `from_matrix` reads the caller's array a few rows
at a time and never writes or copies it whole. A matrix-csv file is parsed
a chunk of lines at a time by `np.loadtxt` (a document, or a pipe read
once, through a buffer over its bytes), as ASCII with no comments, and fed
to that pass. A file it cannot take as n rows of n fields (a '#', a
non-ASCII byte), or a matrix the pass rejects, is read again whole and
parsed by csv's line parser, and the dense checks name the first defect.
The triangle check walks the triangle in row blocks with a running minimum
over pivots, deciding exactly as a per-pivot scan would. A block skips
every pivot j for which, in each of its rows i != j, d(i, j) plus row j's
least off-diagonal entry comes within the tolerance of row i's largest
entry: such a pivot cannot violate. In high dimensions, where distances
concentrate, that is almost every pivot.
Only json and csv input is decoded as a whole. Every source, a str or
bytes document or an open file, binary or text, is read as UTF-8 text
with the line ends a text-mode read gives, so the same bytes load alike
from each.
Every Euclidean distance, single, in a row or in a block, comes from one
kernel (`_euclidean`), so the same pair always gets the same bits; the
kernel is bitwise symmetric, so a column read equals a row read.
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
Every block's largest temporary stays within `_BLOCK_ENTRIES` floats.

Point identity is by index into the original dataset. Every subset that
the algorithms pass around is a list of indices, never a copy of the
coordinates, so coresets can be composed across dataset parts. Distances
among a subset have one route, `ps.restrict(indices).distance_matrix()`,
which gives exactly the bits of the whole dataset's matrix at those indices;
`restrict` takes one copy of the subset's coordinates or triangle entries
and checks them no further, since a subset of validated points is valid.
Every dense matrix, clamped or not, is filled from `blocks_between`.
"""
from __future__ import annotations

import enum
import json
import math
import warnings
from dataclasses import dataclass
from typing import IO

import numpy as np

from .errors import PreconditionError

VALIDATION_RTOL = 1e-9
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
    distances, kept as their upper triangle, which no caller indexes).
    Euclidean distances are computed on demand: one row by
    `distances_from`, or the block between two index lists by
    `blocks_between`, which a reduction over all pairs reads. Distances
    among a subset come from
    `restrict(indices).distance_matrix()`, never from a slice of the whole
    dataset's matrix.
    """

    __slots__ = ("kind", "n", "dim", "_coords", "_upper", "_diameter")

    def __init__(self, kind: str, coords: np.ndarray | None, upper: np.ndarray | None):
        """Take over a validated array, which is made read-only: the
        coordinates, or a matrix's upper triangle, row-major, with one
        trailing 0.0 for the diagonal."""
        self.kind = kind
        self._coords = coords
        self._upper = upper
        self._diameter = None  # set by the first `diameter(self)`
        data = coords if kind == "euclidean" else upper
        assert data is not None
        data.flags.writeable = False
        self.n = data.shape[0] if kind == "euclidean" else (1 + math.isqrt(8 * len(upper) - 7)) // 2
        self.dim = data.shape[1] if kind == "euclidean" else None

    @classmethod
    def from_coords(cls, coords) -> "PointSet":
        arr = _float_array(coords, "coordinates must be an array of real numbers")
        if arr.ndim != 2:
            raise PreconditionError("coordinates must be a 2-D array of shape (n, dim)")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise PreconditionError("need n >= 1 points of dimension >= 1")
        # NaN propagates through both extremes, and an infinity shows in one.
        hi, lo = arr.max(axis=0), arr.min(axis=0)
        if not (np.all(np.isfinite(hi)) and np.all(np.isfinite(lo))):
            raise PreconditionError("coordinates must be finite")
        # Every squared difference is at most extent^2, so the kernel's sum
        # stays finite (with a factor 2 of slack for rounding) below this.
        with np.errstate(over="ignore"):
            extent = float(np.max(hi - lo))
        if not math.isfinite(2.0 * arr.shape[1] * extent * extent):
            raise PreconditionError("coordinates too far apart: pairwise distances overflow")
        return cls("euclidean", arr, None)

    @classmethod
    def from_matrix(cls, matrix) -> "PointSet":
        """The metric of a distance matrix, validated and cleaned by one
        pass over a few rows at a time; the caller's array is never written
        or, when it is float64, copied whole."""
        arr = _float_array(matrix, "distance matrix must be an array of real numbers", copy=None)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise PreconditionError("distance matrix must be square")
        n = arr.shape[0]
        if n < 1:
            raise PreconditionError("need n >= 1 points")
        from .matrices import checked_upper, name_violation

        step = max(1, _BLOCK_ENTRIES // n)
        upper = checked_upper(arr[s : s + step] for s in range(0, n, step))
        if upper is None:
            name_violation(arr)
        return cls("matrix", None, upper)

    @classmethod
    def _of_rows(cls, n: int, blocks) -> "PointSet":
        """The matrix kind, taken unchecked, of an exactly symmetric n-by-n
        matrix with a zero diagonal, whose rows `blocks` yields as (start,
        rows) pairs."""
        upper = np.empty(n * (n - 1) // 2 + 1)
        upper[-1] = 0.0
        for s, rows in blocks:
            _put_upper(upper, n, s, rows)
        return cls("matrix", None, upper)

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
        return float(_gather(self._upper, self.n, np.array([i]), np.array([j]))[0, 0])

    def distances_from(self, i: int) -> np.ndarray:
        """All distances from point i, as a length-n array."""
        _check_index(i, self.n)
        if self.kind == "euclidean":
            return _euclidean(self._coords, self._coords[i : i + 1])[0]
        return _gather(self._upper, self.n, np.array([i]), np.arange(self.n))[0]

    def blocks_between(self, rows: np.ndarray, cols: np.ndarray):
        """Yield (start, block) for consecutive slices of the index array
        `rows`: block[r, j] is the distance from point rows[start + r] to
        point cols[j], bit for bit the entry `distances_from` gives. Blocks
        are fresh arrays, each holding as many rows as keep its largest
        temporary within `_BLOCK_ENTRIES` floats, at least one."""
        step = max(1, _BLOCK_ENTRIES // (max(1, len(cols)) * (self.dim or 1)))
        if self.kind == "matrix":
            for start in range(0, len(rows), step):
                yield start, _gather(self._upper, self.n, rows[start : start + step], cols)
            return
        first = int(cols[0]) if len(cols) else 0
        if np.array_equal(cols, np.arange(first, first + len(cols))):
            cols = slice(first, first + len(cols))  # a run of points is read in place, not copied
        points = self._coords[cols]
        for start in range(0, len(rows), step):
            yield start, _euclidean(points, self._coords[rows[start : start + step]])

    def distance_matrix(self) -> np.ndarray:
        """A fresh dense n-by-n distance matrix. O(n^2) memory; caller keeps it."""
        return _dense(self)

    def restrict(self, indices: list[int]) -> "PointSet":
        """Sub-point-set over `indices` (local index p maps to indices[p]), one unchecked copy."""
        idx = list(indices)
        if len(idx) == 0:
            raise PreconditionError("cannot restrict to an empty index list")
        if len(set(idx)) != len(idx):
            raise PreconditionError("restriction indices must be distinct")
        for i in idx:
            _check_index(i, self.n)
        if self.kind == "euclidean":
            return PointSet("euclidean", self._coords[idx], None)
        points = np.array(idx)
        return PointSet._of_rows(len(idx), self.blocks_between(points, points))

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
        """A fresh dense matrix of the clamped distances."""
        return _dense(self)


def _dense(metric: PointSet | ClampedMetric) -> np.ndarray:
    """A fresh n-by-n matrix of `metric`'s distances, filled from its
    `blocks_between`, whose block rows are its rows bit for bit."""
    out = np.empty((metric.n, metric.n), dtype=np.float64)
    everything = np.arange(metric.n)
    for start, block in metric.blocks_between(everything, everything):
        out[start : start + len(block)] = block
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
    symmetric, so only the cell pairs (c, c') with c <= c' whose upper
    bound reaches the best distance so far are read. The point set is
    immutable, so it keeps the result for later calls."""
    if ps._diameter is None:
        ps._diameter = _diameter(ps)
    return ps._diameter


def _diameter(ps: PointSet) -> float:
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


# ---------------------------------------------------------------------------
# File formats. Three on-disk forms are supported:
#   json       {"dim": d, "points": [[f64, ...], ...]}
#   csv        one point per row, optional header line "# dim=<d>"
#   matrix-csv n rows of n comma-separated decimals, zero diagonal
# ---------------------------------------------------------------------------

FORMATS = ("json", "csv", "matrix-csv")


def load_pointset(source: str | bytes | IO, format: str) -> PointSet:
    """Parse and validate a point file, given as a document or as an open
    file, binary or text. See module docstring for grammars."""
    if format not in FORMATS:
        raise PreconditionError(f"unknown format {format!r}; expected one of {FORMATS}")
    try:
        if format == "matrix-csv":
            from .matrices import load_matrix_csv

            return load_matrix_csv(source)
        text = _text(source)
    except UnicodeDecodeError as exc:  # from a decode or a text-mode read
        raise PreconditionError(f"point file is not UTF-8: {exc}") from exc
    return _load_json(text) if format == "json" else _load_csv(text)


def _text(source: str | bytes | IO) -> str:
    """A document, or the rest of an open file, as UTF-8 text with \\r\\n
    and lone \\r line ends turned into \\n, as a text-mode read gives them."""
    data = source if isinstance(source, (str, bytes)) else source.read()
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def dump_pointset(ps: PointSet, format: str) -> str:
    """Serialize so that load_pointset(dump_pointset(ps)) preserves distances."""
    if format not in FORMATS:
        raise PreconditionError(f"unknown format {format!r}; expected one of {FORMATS}")
    if format != "matrix-csv" and ps.kind != "euclidean":
        raise PreconditionError(f"{format} format stores coordinates; point set has none")
    if format == "json":
        return json.dumps({"dim": ps.dim, "points": ps.coords.tolist()})
    lines = [f"# dim={ps.dim}"] if format == "csv" else []
    everything = np.arange(ps.n)
    blocks = [(0, ps.coords)] if format == "csv" else ps.blocks_between(everything, everything)
    for _start, rows in blocks:
        lines.extend(",".join(map(repr, row.tolist())) for row in rows)
    return "\n".join(lines) + "\n"


def _load_json(text: str) -> PointSet:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PreconditionError(f"invalid JSON point file: {exc}") from exc
    if not isinstance(obj, dict) or "points" not in obj:
        raise PreconditionError("JSON point file must be an object with a 'points' field")
    points = obj["points"]
    dim = obj.get("dim")
    arr = _float_array(points, "invalid point rows")
    if arr.ndim != 2:
        raise PreconditionError("points must be a list of equal-length coordinate rows")
    if dim is not None and type(dim) is not int:
        raise PreconditionError(f"dim must be an integer; got {dim!r}")
    if dim is not None and dim != arr.shape[1]:
        raise PreconditionError(f"declared dim={dim} but rows have {arr.shape[1]} fields")
    return PointSet.from_coords(arr)


def _csv_rows(text: str, format: str) -> tuple[list[list[float]], dict[int, int], int | None]:
    """The rows of a csv or matrix-csv text, the line on which each row
    width first occurs, and, for csv, the dimension its last `# dim=` line
    declares. Blank lines and other '#' lines are skipped; an unreadable
    field or csv dimension is a PreconditionError that names its line."""
    rows, widths, declared_dim = [], {}, None
    start, lineno = 0, 0
    while start < len(text):  # one \n-ended line at a time, not a buffer of all
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        line = text[start:end].strip()
        start, lineno = end + 1, lineno + 1
        if not line:
            continue
        if line.startswith("#"):
            stripped = line.lstrip("#").strip()
            if format == "csv" and stripped.startswith("dim="):
                try:
                    declared_dim = int(stripped[4:])
                except ValueError as exc:
                    raise PreconditionError(f"csv line {lineno}: dim must be an integer: {exc}") from exc
            continue
        try:
            rows.append([float(fieldval) for fieldval in line.split(",")])
        except ValueError as exc:
            raise PreconditionError(f"{format} line {lineno}: {exc}") from exc
        widths.setdefault(len(rows[-1]), lineno)
    return rows, widths, declared_dim


def _load_csv(text: str) -> PointSet:
    rows, widths, declared_dim = _csv_rows(text, "csv")
    if not rows:
        raise PreconditionError("csv point file contains no points")
    if len(widths) != 1:
        raise PreconditionError(f"csv rows have inconsistent field counts: {sorted(widths)}")
    if declared_dim is not None and declared_dim != len(rows[0]):
        raise PreconditionError(f"declared dim={declared_dim} but rows have {len(rows[0])} fields")
    return PointSet.from_coords(np.asarray(rows, dtype=np.float64))


def _float_array(values, message: str, copy: bool | None = True) -> np.ndarray:
    """A C-ordered float64 array of `values`, fresh unless copy is None and
    they are one, or a PreconditionError led by `message` when they are
    ragged, not numbers, or complex."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            return np.array(values, dtype=np.float64, order="C", copy=copy)
    except (TypeError, ValueError, np.exceptions.ComplexWarning) as exc:
        raise PreconditionError(f"{message}: {exc}") from exc


def _row_start(i, n: int):
    """Where row i's entries right of the diagonal start in the upper
    triangle of an n-by-n matrix, row-major; i may be an array."""
    return i * (2 * n - 1 - i) // 2


def _put_upper(upper: np.ndarray, n: int, s: int, rows: np.ndarray) -> None:
    """Write the entries right of the diagonal of rows s, s+1, ... of an
    n-by-n matrix into its triangle `upper`."""
    i = np.arange(s, s + len(rows))[:, None]
    upper[_row_start(s, n) : _row_start(s + len(rows), n)] = rows[i < np.arange(n)]


def _gather(upper: np.ndarray, n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """A fresh (len(rows), len(cols)) array of the entries of the exactly
    symmetric n-by-n matrix whose triangle `upper` holds, with a trailing
    0.0 for the diagonal, positions found `_BLOCK_ENTRIES` at a time."""
    out = np.empty((len(rows), len(cols)))
    step = max(1, _BLOCK_ENTRIES // max(1, len(cols)))
    for a in range(0, len(rows), step):
        lo = np.minimum(rows[a : a + step, None], cols)
        pos = np.maximum(rows[a : a + step, None], cols)
        diagonal = pos == lo
        pos -= lo
        pos -= 1
        start = 2 * n - 1 - lo  # lo's row start, as `_row_start` gives it, in place
        start *= lo
        start //= 2
        pos += start
        pos[diagonal] = len(upper) - 1
        upper.take(pos, out=out[a : a + step], mode="clip")  # every position is in range: no buffer
    return out


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
