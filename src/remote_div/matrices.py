"""Matrix input: the one validation pass, the dense checks that name a
defect, the pruned triangle check, and the matrix-csv reader.

Only matrix input imports this module, so a command on coordinates never
compiles it. See `metric` for the storage it fills and the rules it checks.
"""
from __future__ import annotations

import io
import math
import warnings
from typing import IO

import numpy as np

from .errors import InternalInvariantError, PreconditionError
from .metric import _BLOCK_ENTRIES, VALIDATION_RTOL, PointSet, _csv_rows, _gather, _put_upper, _row_start, _text

_ROW_BLOCK = 64  # rows per block of the triangle check


def load_matrix_csv(source: str | bytes | IO) -> PointSet:
    """The metric a matrix-csv document or open file holds, validated as
    `_csv_blocks` parses it. Whatever that does not take as n rows of n
    fields (a '#', a non-ASCII byte, a line of spaces, a lone \\r line end),
    and any matrix the pass rejects, is read again whole as text and parsed
    line by line, to give that parser's result or message."""
    if not isinstance(source, (str, bytes)) and not source.seekable():
        source = source.read()  # a pipe cannot be read twice
    if isinstance(source, str):
        # Any non-ASCII character stays non-ASCII, a lone surrogate too, so
        # the ASCII parse rejects it.
        stream = io.BytesIO(source.encode("utf-8", "surrogatepass"))
    elif isinstance(source, bytes):
        stream = io.BytesIO(source)
    else:
        stream, start = source, source.tell()
    try:
        upper = checked_upper(_csv_blocks(stream))
    except MemoryError:  # a first row too wide for its triangle to fit
        upper = None
    if upper is not None:
        return PointSet("matrix", None, upper)
    if stream is source:
        source.seek(start)
    return PointSet.from_matrix(_parse_matrix_csv_lines(_text(source)))


def _csv_blocks(stream: IO):
    """The rows of a matrix-csv stream, parsed about 8 * `_BLOCK_ENTRIES`
    bytes of whole lines at a time by `np.loadtxt` as ASCII with no
    comments, which converts every field as `float()` does; None in place
    of the first chunk it rejects."""
    try:
        for lines in iter(lambda: stream.readlines(8 * _BLOCK_ENTRIES), []):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a chunk of blank lines
                block = np.loadtxt(lines, dtype=np.float64, delimiter=",", comments=None, ndmin=2, encoding="ascii")
            del lines  # not held while the block is validated
            yield block
    except ValueError:  # UnicodeDecodeError included
        yield None


def _parse_matrix_csv_lines(text: str) -> np.ndarray:
    rows, widths, _declared_dim = _csv_rows(text, "matrix-csv")
    if not rows:
        raise PreconditionError("matrix-csv file contains no rows")
    n = len(rows)
    odd = sorted((lineno, width) for width, lineno in widths.items() if width != n)
    if odd:
        lineno, width = odd[0]
        raise PreconditionError(f"matrix-csv must be square; got {n} rows, but line {lineno} has {width} fields")
    return np.asarray(rows, dtype=np.float64)


def checked_upper(blocks) -> np.ndarray | None:
    """The cleaned triangle of the square matrix whose rows `blocks` yields
    in order, n wide as the first row; None when a block is None, the rows
    are not n rows of n, or the matrix fails a check. Right of the diagonal
    each row is stored as it arrives; left of it each entry is compared
    with its stored mirror, which takes max((a_ij + a_ji) / 2, 0), the
    cleaning `name_violation` applies. The largest and least entry, the
    largest asymmetry and |diagonal| decide every check before the
    triangle inequality, as they do there."""
    upper, done = None, 0
    top, least, asymmetry, diagonal = -math.inf, math.inf, 0.0, 0.0
    for block in blocks:
        if block is None:
            return None
        if not len(block):  # a chunk of blank lines
            continue
        if upper is None:
            n = block.shape[1]
            upper = np.empty(n * (n - 1) // 2 + 1)
            upper[-1] = 0.0
        end = done + len(block)
        if block.shape[1] != n or end > n:
            return None
        high, low = float(block.max()), float(block.min())
        if not (math.isfinite(high) and math.isfinite(low)):
            return None
        top, least = max(top, high), min(least, low)
        _put_upper(upper, n, done, block)
        r, j = np.nonzero(np.arange(done, end)[:, None] > np.arange(end))
        left = block[r, j]
        mirror = _row_start(j, n) + (r + done - j - 1)
        stored = upper[mirror]
        with np.errstate(over="ignore"):  # sums past the overflow check's bound
            asymmetry = max(asymmetry, float(np.abs(left - stored).max(initial=0.0)))
            np.add(left, stored, out=left)
        left /= 2.0
        upper[mirror] = np.maximum(left, 0.0, out=left)
        diagonal = max(diagonal, float(np.abs(block[np.arange(len(block)), np.arange(done, end)]).max()))
        done = end
    if upper is None or done != n:
        return None
    tol = VALIDATION_RTOL * max(top, -least)
    if least < -tol or asymmetry > tol or diagonal > tol or not math.isfinite(2.0 * top):
        return None
    return None if _violating_blocks(lambda rows, cols: _gather(upper, n, rows, cols), n, tol) else upper


def name_violation(arr: np.ndarray) -> None:
    """Raise a PreconditionError naming the first defect of the square
    float64 matrix `arr`, checked in order: finiteness, a negative entry,
    asymmetry (the first pair in row-major order), the diagonal, overflow,
    and the triangle inequality of the cleaned matrix. Finding none is an
    InternalInvariantError: `checked_upper` rejected a valid matrix."""
    n = arr.shape[0]
    top, least = float(arr.max()), float(arr.min())
    # NaN propagates through both extremes, and an infinity shows in one.
    if not (math.isfinite(top) and math.isfinite(least)):
        raise PreconditionError("distance matrix entries must be finite")
    tol = VALIDATION_RTOL * max(top, -least)
    if least < -tol:
        i, j = (int(v) for v in np.argwhere(arr < -tol)[0])
        raise PreconditionError(f"negative distance at ({i},{j}): {arr[i, j]}")
    asymmetric = np.argwhere(np.abs(arr - arr.T) > tol)
    if asymmetric.size:
        i, j = (int(v) for v in asymmetric[0])
        raise PreconditionError(f"asymmetric distances at ({i},{j}): {arr[i, j]} vs {arr[j, i]}")
    diag = np.abs(np.diagonal(arr))
    if diag.max(initial=0.0) > tol:
        i = int(np.argmax(diag))
        raise PreconditionError(f"nonzero diagonal at ({i},{i}): {arr[i, i]}")
    # No entry is below -tol now, so if twice the largest is finite, so is
    # every sum below: the cleaning's and each pivot sum of the triangle check.
    if not math.isfinite(2.0 * top):
        raise PreconditionError("distance matrix entries too large: sums of two distances overflow")
    cleaned = arr + arr.T
    cleaned /= 2.0
    np.maximum(cleaned, 0.0, out=cleaned)
    np.fill_diagonal(cleaned, 0.0)
    flagged = _violating_blocks(lambda rows, cols: cleaned[np.ix_(rows, cols)], n, tol)
    if flagged:
        # Name the first violation: lowest j, then row-major (i, l). Its pair
        # has i < l (the difference is never positive for i = l), and the
        # i <= l copy of every violating pair lies in a flagged block, so the
        # flagged rows, read in order, hold it.
        rows = np.concatenate([np.arange(s, min(s + _ROW_BLOCK, n)) for s in flagged])
        flagged_rows = cleaned[rows]
        for j in range(n):
            bad = np.argwhere(flagged_rows - (flagged_rows[:, j, None] + cleaned[j]) > tol)
            if bad.size:
                i, l = int(rows[bad[0, 0]]), int(bad[0, 1])
                raise PreconditionError(
                    f"triangle inequality violated for ({i},{j},{l}): "
                    f"{cleaned[i, l]} > {cleaned[i, j]} + {cleaned[j, l]}"
                )
    raise InternalInvariantError("matrix validation rejected a matrix that no check names")


def _violating_blocks(read, n: int, tol: float) -> list[int]:
    """Starts s of the blocks of `_ROW_BLOCK` rows holding a row i with
    d(i, l) - (d(i, j) + d(j, l)) > tol for some pivot j and some l >= s;
    empty when the triangle inequality holds within tol. `read(rows, cols)`
    gives a fresh block of the n-by-n matrix d.

    d is exactly symmetric, so (i, j, l) violates iff (l, j, i) does and
    only pairs i <= l are checked, a block of rows at a time. Rounded
    subtraction is monotone, so d(i, l) minus the minimum over pivots j of
    d(i, j) + d(j, l) exceeds tol exactly when one pivot's difference
    does; the minimum runs over the block's live pivots only.
    """
    return [s for s, pivots in _live_pivots(read, n, tol) if _block_violates(read, n, s, pivots, tol)]


def _block_violates(read, n: int, s: int, pivots: list[int], tol: float) -> bool:
    """Whether the block of rows from s holds a violation through one of
    `pivots`. Its rows go in parts of 2 * `_BLOCK_ENTRIES` entries, and the
    pivots' rows a few at a time; pivot j's row from column s on starts
    with d(j, i) = d(i, j) for the block's rows i."""
    cols = np.arange(s, n)
    step = max(1, _BLOCK_ENTRIES // len(cols))
    part = max(1, 2 * _BLOCK_ENTRIES // len(cols))
    for h in range(s, min(s + _ROW_BLOCK, n), part):
        rows = np.arange(h, min(h + part, s + _ROW_BLOCK, n))
        low = read(rows, cols)
        pivot_sum = np.empty_like(low)
        for c in range(0, len(pivots), step):
            for pivot_row in read(np.array(pivots[c : c + step]), cols):
                np.add(pivot_row[h - s : h - s + len(rows), None], pivot_row, out=pivot_sum)
                np.minimum(low, pivot_sum, out=low)
        del pivot_sum
        np.subtract(read(rows, cols), low, out=low)
        if low.max() > tol:
            return True
    return False


def _live_pivots(read, n: int, tol: float):
    """Yield (s, pivots) for each block of `_ROW_BLOCK` rows from s: the
    pivots j, ascending, that can make some d(i, l) - (d(i, j) + d(j, l))
    with i in the block and l >= s exceed tol. Rows are read
    `_BLOCK_ENTRIES` entries at a time.

    d has an exactly zero diagonal, so the difference is exactly 0 for
    l = j and for j = i. For l != j it is at most the largest d(i, l),
    l >= s, minus (d(i, j) + nn[j]), nn[j] being the least off-diagonal
    entry of row j, since rounded + and - are monotone. A pivot is live if
    this bound exceeds tol for some row i != j of the block.
    """
    everything = np.arange(n)
    step = max(1, _BLOCK_ENTRIES // n)
    nn = np.empty(n)
    for c in range(0, n, step):
        rows = read(everything[c : c + step], everything)
        np.fill_diagonal(rows[:, c:], np.inf)
        rows.min(axis=1, out=nn[c : c + step])
    for s in range(0, n, _ROW_BLOCK):
        live = np.zeros(n, dtype=bool)
        for c in range(s, min(s + _ROW_BLOCK, n), step):
            rows = read(everything[c : min(c + step, s + _ROW_BLOCK, n)], everything)
            bound = np.add(rows, nn)
            np.subtract(rows[:, s:].max(axis=1)[:, None], bound, out=bound)
            np.fill_diagonal(bound[:, c:], -np.inf)
            live |= np.any(bound > tol, axis=0)
        yield s, np.flatnonzero(live).tolist()
