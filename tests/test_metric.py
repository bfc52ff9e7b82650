from __future__ import annotations

import contextlib
import io
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from remote_div import (
    ClampedMetric,
    Objective,
    PointSet,
    PreconditionError,
    RunConfig,
    diameter,
    dump_pointset,
    load_pointset,
    pf_cost,
)
from remote_div import matrices, metric
from remote_div.hst import EMBED_DIAMETER
from remote_div.metric import VALIDATION_RTOL, min_offdiag_distance
from conftest import line_pointset, random_euclidean, random_matrix_metric
from oracles import (
    dense_validated,
    diameter_by_rows,
    euclidean_rows,
    min_offdiag_by_rows,
    stream_rng,
    symmetrized,
    triangle_violation_scan,
)


def test_distance_345_triangle():
    ps = PointSet.from_coords([[0.0, 0.0], [3.0, 4.0]])
    assert ps.distance(0, 1) == 5.0
    assert ps.distance(1, 0) == 5.0


def test_distance_identity_is_zero():
    ps = random_euclidean(3, 7)
    for i in range(ps.n):
        assert ps.distance(i, i) == 0.0


def test_matrix_entry_readback():
    m = np.array([[0.0, 4.0, 5.0], [4.0, 0.0, 7.25], [5.0, 7.25, 0.0]])
    ps = PointSet.from_matrix(m)
    assert ps.distance(1, 2) == 7.25


def test_distance_index_out_of_range():
    ps = line_pointset([0.0, 1.0])
    with pytest.raises(PreconditionError):
        ps.distance(0, 2)


def test_diameter_line(line3):
    assert diameter(line3) == 10.0


def test_diameter_single_point():
    assert diameter(PointSet.from_coords([[4.2]])) == 0.0


def test_diameter_two_points():
    assert diameter(line_pointset([1.0, 3.5])) == 2.5


def test_load_json_basic():
    ps = load_pointset('{"dim":1,"points":[[0],[5]]}', "json")
    assert ps.n == 2
    assert ps.distance(0, 1) == 5.0


def test_load_matrix_symmetry_error_names_indices():
    doc = "0,3,1\n4,0,1\n1,1,0\n"
    with pytest.raises(PreconditionError, match=r"\(0,1\)"):
        load_pointset(doc, "matrix-csv")


def test_load_matrix_triangle_error():
    doc = "0,1,10\n1,0,2\n10,2,0\n"
    with pytest.raises(PreconditionError, match="triangle"):
        load_pointset(doc, "matrix-csv")


def test_load_matrix_negative_entry():
    doc = "0,-1\n-1,0\n"
    with pytest.raises(PreconditionError, match="negative"):
        load_pointset(doc, "matrix-csv")


def test_load_matrix_not_square_names_the_first_odd_line():
    doc = "# three points\n0,1,2\n1,0\n2,1,0,4\n"
    with pytest.raises(PreconditionError, match=r"got 3 rows, but line 3 has 2 fields$"):
        load_pointset(doc, "matrix-csv")


def test_load_csv_with_header():
    ps = load_pointset("# dim=2\n0,0\n3,4\n", "csv")
    assert ps.dim == 2
    assert ps.distance(0, 1) == 5.0


def test_roundtrip_matrix_bit_exact():
    ps = random_matrix_metric(11, 9)
    doc = dump_pointset(ps, "matrix-csv")
    again = load_pointset(doc, "matrix-csv")
    assert np.array_equal(ps.distance_matrix(), again.distance_matrix())
    # a second round trip is also stable
    assert dump_pointset(again, "matrix-csv") == doc


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_roundtrip_euclidean(fmt):
    ps = random_euclidean(5, 8, dim=3)
    again = load_pointset(dump_pointset(ps, fmt), fmt)
    assert np.array_equal(ps.coords, again.coords)


def test_clamp_applies_floor():
    ps = line_pointset([0.0, 0.001])
    cm = ClampedMetric(ps, 0.4 / 4)
    assert cm.distance(0, 1) == pytest.approx(0.1)
    assert cm.distance(0, 0) == 0.0


def test_clamp_inactive_above_floor():
    ps = line_pointset([0.0, 5.0])
    cm = ClampedMetric(ps, 0.1)
    assert cm.distance(0, 1) == 5.0


def test_clamp_changes_pf_by_at_most_c():
    from itertools import combinations

    ps = random_euclidean(17, 8, scale=0.05)
    k = 3
    c = 0.02
    cm = ClampedMetric(ps, c / k)
    base = ps.distance_matrix()
    clamped = PointSet.from_matrix(cm.distance_matrix())
    for subset in combinations(range(ps.n), k):
        before = pf_cost(ps, list(subset)).value
        after = pf_cost(clamped, list(subset)).value
        assert after >= before - 1e-12
        assert after - before <= c + 1e-12


def test_triangle_inequality_exhaustive():
    for seed, n in [(1, 12), (2, 25), (3, 50)]:
        ps = random_euclidean(seed, n, dim=3)
        dmat = ps.distance_matrix()
        for j in range(n):
            assert np.all(dmat <= dmat[:, j][:, None] + dmat[None, j, :] + 1e-9)


def test_clamped_metric_preserves_triangle():
    ps = random_matrix_metric(23, 20)
    cm = ClampedMetric(ps, 0.3)
    dmat = cm.distance_matrix()
    n = ps.n
    for j in range(n):
        assert np.all(dmat <= dmat[:, j][:, None] + dmat[None, j, :] + 1e-9)


def test_clamped_matrix_leaves_stored_matrix_untouched():
    ps = random_matrix_metric(29, 12)
    before = ps.distance_matrix().copy()
    cm = ClampedMetric(ps, 0.3, 0.5)
    assert np.array_equal(cm.distance_matrix(), np.maximum(before * 0.5, 0.3) * ~np.eye(12, dtype=bool))
    assert np.array_equal(ps.distance_matrix(), before)


def test_single_distances_match_rows_bit_for_bit():
    # One Euclidean kernel: a single distance is exactly its row entry. A
    # clamped row is exactly the whole matrix scaled and floored (about half
    # of the entries here), and so are its single distances and its matrix.
    ps = PointSet.from_coords(np.random.default_rng(0).random((200, 37)))
    cm = ClampedMetric(ps, 0.83, 1.0 / 3.0)
    clamped = np.maximum(ps.distance_matrix() * cm.scale, cm.floor)
    np.fill_diagonal(clamped, 0.0)
    for metric, expected in ((ps, ps.distance_matrix()), (cm, clamped)):
        rows = [metric.distances_from(i) for i in range(ps.n)]
        assert np.array_equal(rows, expected)
        assert all(metric.distance(i, j) == rows[i][j] for i in range(ps.n) for j in range(ps.n))
    assert np.array_equal(cm.distance_matrix(), clamped)
    # Distances among a subset are exactly the whole matrix's entries.
    full = ps.distance_matrix()
    for idx in ([5], [7, 3], list(range(0, 200, 7)), list(range(199, -1, -3))):
        assert np.array_equal(ps.restrict(idx).distance_matrix(), full[np.ix_(idx, idx)])


def test_diameter_and_min_distance_allocate_no_square_matrix():
    # Row reductions: same bits as the dense matrix's max and off-diagonal
    # min, with a peak far below one n-by-n matrix.
    ps = random_euclidean(31, 500)
    dmat = ps.distance_matrix()
    diam = float(dmat.max())
    np.fill_diagonal(dmat, np.inf)
    expected = (diam, float(dmat.min()))
    del dmat
    tracemalloc.start()
    try:
        got = (diameter(ps), min_offdiag_distance(ps))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expected
    assert peak < ps.n * ps.n * 8 / 10


@st.composite
def block_instances(draw):
    """Points in 1, 2, 3, 8 or 37 dimensions: n of 1, 2, one below, at or one
    above the largest n whose rows fit one block, or up to three such
    blocks' worth; coincident points in half the draws; scales 2^-500 ..
    2^500."""
    dim = draw(st.sampled_from([1, 2, 3, 8, 37]))
    one_block = max(n for n in range(1, 200) if metric._BLOCK_ENTRIES // (n * dim) >= n)
    n = draw(st.sampled_from([1, 2, one_block - 1, one_block, one_block + 1]) | st.integers(1, 3 * one_block))
    rng = stream_rng(draw(st.integers(0, 2**32)), 0)
    coords = rng.standard_normal((n, dim))
    if draw(st.booleans()):
        coords = coords[rng.integers(0, draw(st.integers(1, n)), n)]
    return coords * 2.0 ** draw(st.integers(-500, 500))


@given(block_instances())
def test_blocks_between_are_the_rows_bit_for_bit(coords):
    ps = PointSet.from_coords(coords)
    rows = euclidean_rows(ps.coords)
    assert np.array([ps.distances_from(i) for i in range(ps.n)]).tobytes() == rows.tobytes()
    assert ps.distance_matrix().tobytes() == rows.tobytes()
    as_matrix = PointSet.from_matrix(rows)
    everything = np.arange(ps.n)
    # Whole rows, the upper triangle's tail, and index lists out of order.
    for r, c in ((everything, everything), (everything[ps.n // 2 :], everything[ps.n // 2 :]),
                 (everything[::-1], everything[1::2]), (everything[::2], everything[::-1])):
        for points in (ps, as_matrix):
            covered = 0
            for start, block in points.blocks_between(r, c):
                assert start == covered
                assert block.tobytes() == rows[np.ix_(r[start : start + len(block)], c)].tobytes()
                assert block.flags.writeable and not np.shares_memory(block, as_matrix.distance_matrix())
                covered += len(block)
            assert covered == len(r)
    for points in (ps, as_matrix):
        assert diameter(points).hex() == diameter_by_rows(points).hex()
        if ps.n >= 2:
            assert min_offdiag_distance(points).hex() == min_offdiag_by_rows(points).hex()


_SUBNORMALS = st.sampled_from([5e-324, -5e-324, 1e-310, 2.225073858507201e-308, -0.0])


@st.composite
def matrix_csv_texts(draw):
    """A square matrix-csv text: each double written as its repr, in
    exponent form (either case) or with 3 or 17 significant digits, with an
    optional sign and spaces or tabs around it; \\n or \\r\\n line ends,
    comment and blank lines between rows. Returns (text, fields)."""
    n = draw(st.integers(1, 6))
    fields = []
    for _ in range(n * n):
        x = draw(st.floats() | _SUBNORMALS)
        form = draw(st.sampled_from(["{!r}", "{:.17e}", "{:.17E}", "{:+.17g}", "{:.3g}", "{:+e}"]))
        pad = st.sampled_from(["", " ", "\t", "  "])
        fields.append(draw(pad) + form.format(x) + draw(pad))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = []
    for i in range(n):
        lines.extend(draw(st.lists(st.sampled_from(["", "# dim=3", "#, 1, 2"]), max_size=2)))
        lines.append(",".join(fields[i * n : (i + 1) * n]))
    return newline.join(lines) + draw(st.sampled_from(["", newline])), fields


@given(matrix_csv_texts())
def test_matrix_csv_fields_parse_as_python_floats(instance):
    text, fields = instance
    n = int(len(fields) ** 0.5)
    expected = np.array([float(f) for f in fields]).reshape(n, n)
    text_mode = text.replace("\r\n", "\n")
    assert matrices._parse_matrix_csv_lines(text_mode).tobytes() == expected.tobytes()
    for stream in (io.BytesIO(text.encode()), io.StringIO(text_mode)):
        blocks = list(matrices._csv_blocks(stream))
        if all(block is not None for block in blocks):  # np.loadtxt took every chunk: no comment lines
            assert np.concatenate(blocks).tobytes() == expected.tobytes()


def _parsed_or_error(parse, text):
    try:
        arr = parse(text)
    except PreconditionError as exc:
        return str(exc)
    return arr.shape, arr.tobytes()


def _loaded_or_error(load, data):
    """A matrix-kind set's distance bits, or the message it is refused with."""
    try:
        return load(data).distance_matrix().tobytes()
    except PreconditionError as exc:
        return str(exc)


_NUMBERS = st.sampled_from(["0", "1.5", " 2e-3 ", "-0", "+.5", "inf", "nan", "1e999", "5e-324"])
_ODD_FIELDS = st.sampled_from(["", " ", "\t", "\xa0", "1 # c", "1#", "x", "1_0", "0x1p3", "\u0661", "1 2"])


@st.composite
def messy_matrix_csv_texts(draw):
    """Mostly square files of 1-3 rows, with odd fields, comments after a
    row's last field, rows one field short or long (all of them or one),
    comment lines (indented or not), lines of spaces, and \\n, \\r\\n or
    lone \\r line ends."""
    n = draw(st.integers(1, 3))
    field = _NUMBERS | _NUMBERS | _NUMBERS | _ODD_FIELDS
    width = max(1, n + draw(st.sampled_from([0, 0, 0, 1, -1])))
    lines = []
    for _ in range(n):
        row_width = max(1, width + draw(st.sampled_from([0, 0, 0, 0, 0, 1, -1])))
        line = ",".join(draw(st.lists(field, min_size=row_width, max_size=row_width)))
        lines.append(line + draw(st.sampled_from(["", "", "", "", " # c", "#"])))
    for line in draw(st.lists(st.sampled_from(["", "# c", "  # c", "   "]), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    newline = st.sampled_from(["\n", "\n", "\r\n", "\r"])
    return "".join(line + draw(newline) for line in lines)


@given(messy_matrix_csv_texts())
def test_matrix_csv_parse_agrees_with_the_line_parser(text):
    # Whatever np.loadtxt would take differently (a comment after a field,
    # a lone \r, a line of spaces, a ragged or non-square file) must end
    # in the line parser's result or message, as must a non-ASCII text
    # ("\xa0", "\u0661"). Every source is read with the line ends a
    # text-mode read gives, so it must agree with the line parser there.
    text_mode = text.replace("\r\n", "\n").replace("\r", "\n")
    expected = _parsed_or_error(matrices._parse_matrix_csv_lines, text_mode)
    blocks = [block for block in matrices._csv_blocks(io.BytesIO(text.encode())) if block is None or len(block)]
    if blocks and all(block is not None for block in blocks) and len({block.shape[1] for block in blocks}) == 1:
        whole = np.concatenate(blocks)
        if whole.shape[0] == whole.shape[1]:  # the streamed route keeps it
            assert (whole.shape, whole.tobytes()) == expected
    try:
        outcome = _loaded_or_error(PointSet.from_matrix, matrices._parse_matrix_csv_lines(text_mode))
    except PreconditionError as exc:
        outcome = str(exc)
    for data in (text, text.encode(), io.BytesIO(text.encode())):
        assert _loaded_or_error(lambda d: load_pointset(d, "matrix-csv"), data) == outcome


def test_matrix_csv_from_a_pipe_is_read_once():
    # A file that cannot be read twice (a pipe) is read whole, so the line
    # parser can still take what np.loadtxt rejects (here, a comment line).
    read, write = os.pipe()
    os.write(write, b"# c\r\n0,1\r\n1,0\r\n")
    os.close(write)
    with os.fdopen(read, "rb") as pipe:
        assert load_pointset(pipe, "matrix-csv").distance(0, 1) == 1.0


# Per format, documents as lines: good ones, then one with an error.
_DOCUMENTS = {
    "json": [
        ['{"dim": 2,', ' "points": [[0.0, 0.0], [3.0, 4.0], [1.5, -2.0]]}'],
        ['{"dim": 2,', ' "points": [[0.0, 0.0],', " [3.0, x]]}"],
    ],
    "csv": [
        ["# dim=2", "0.0,0.0", "3.0,4.0", "1.5,-2.0"],
        ["# dim=2", "0.0,0.0", "3.0,x"],
    ],
    "matrix-csv": [
        ["0,5,1", "5,0,4.5", "1,4.5,0"],
        ["# a comment sends the file to the line parser", "0,5,1", "5,0,4.5", "1,4.5,0"],
        ["# c", "0,5,1", "5,0", "1,4.5,0"],
    ],
}


def _loaded(tmp_path, data: bytes, fmt: str, source: str):
    """The kind, size and distance bits of `data` loaded from `source` (a
    str or bytes document, or a file or pipe opened "rb" or "r"), or the
    message it is refused with."""
    if source in ("str", "bytes"):
        opened = contextlib.nullcontext(data.decode() if source == "str" else data)
    else:
        mode, _, kind = source.partition("-")
        encoding = "utf-8" if mode == "r" else None
        if kind == "file":
            path = tmp_path / "points"
            path.write_bytes(data)
            opened = open(path, mode, encoding=encoding)
        else:
            read, write = os.pipe()
            os.write(write, data)
            os.close(write)
            opened = os.fdopen(read, mode, encoding=encoding)
        assert opened.seekable() is (kind == "file")
    with opened as document_or_file:
        try:
            ps = load_pointset(document_or_file, fmt)
        except PreconditionError as exc:
            return str(exc)
    return ps.kind, ps.n, ps.distance_matrix().tobytes()


@pytest.mark.parametrize("source", ["rb-file", "rb-pipe", "r-file", "r-pipe", "str", "bytes"])
@pytest.mark.parametrize("fmt", sorted(_DOCUMENTS))
def test_every_format_loads_from_a_binary_or_text_file(tmp_path, fmt, source):
    # The same bytes give the same distances or the same message from every
    # source, with \n, \r\n or lone \r line ends alike.
    *good, bad = _DOCUMENTS[fmt]
    kind = "matrix" if fmt == "matrix-csv" else "euclidean"
    for lines in [*good, bad]:
        outcomes = set()
        for newline in ("\n", "\r\n", "\r"):
            data = (newline.join(lines) + newline).encode()
            outcome = _loaded(tmp_path, data, fmt, source)
            assert outcome == _loaded(tmp_path, data, fmt, "rb-file"), (lines, newline)
            outcomes.add(outcome)
        (outcome,) = outcomes
        if lines is bad:
            assert isinstance(outcome, str)
        else:
            assert outcome[:2] == (kind, 3)


@pytest.mark.parametrize("fmt", sorted(_DOCUMENTS))
def test_a_text_file_that_is_not_utf8_is_a_precondition_error(tmp_path, fmt):
    path = tmp_path / "points"
    path.write_bytes(b"0,1\n1,\xff\n")
    with open(path, encoding="utf-8") as file, pytest.raises(PreconditionError, match="not UTF-8"):
        load_pointset(file, fmt)


def test_matrix_csv_fallback_rereads_from_where_the_file_was():
    file = io.BytesIO(b"header\n0,1\n# c\n1,0\n")
    file.readline()
    assert load_pointset(file, "matrix-csv").distance(0, 1) == 1.0


def test_matrix_validation_accepts_large_scale_rounding():
    # 40 collinear points at scale 1e9: the rounding slack of |x_i - x_j|
    # exceeds an absolute 1e-9 but is no triangle violation.
    x = np.sort(np.random.default_rng(3).random(40)) * 1e9
    ps = PointSet.from_matrix(np.abs(x[:, None] - x[None, :]))
    assert ps.distance(0, 39) == x[39] - x[0]


@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[0.0, 1e-10, 7e-10], [1e-10, 0.0, 1e-10], [7e-10, 1e-10, 0.0]], "triangle"),
        ([[0.0, 1e-10], [5e-10, 0.0]], "asymmetric"),
        ([[0.0, -5e-10], [-5e-10, 0.0]], "negative"),
        ([[5e-10, 1e-10], [1e-10, 0.0]], "diagonal"),
    ],
)
def test_matrix_validation_rejects_small_scale_defects(matrix, message):
    # Each defect is below an absolute 1e-9 but large against the entries.
    with pytest.raises(PreconditionError, match=message):
        PointSet.from_matrix(matrix)


def test_matrix_entries_whose_sums_overflow_are_rejected():
    # Halving a sum of two entries would give inf, and the solvers NaN.
    with pytest.raises(PreconditionError, match="overflow"):
        PointSet.from_matrix([[0.0, 1.5e308, 1e308], [1.5e308, 0.0, 1e308], [1e308, 1e308, 0.0]])
    with pytest.raises(PreconditionError, match="negative"):
        PointSet.from_matrix([[0.0, -1e308], [-1e308, 0.0]])
    ps = PointSet.from_matrix([[0.0, 8e307, 8e307], [8e307, 0.0, 8e307], [8e307, 8e307, 0.0]])
    assert ps.distance(0, 2) == 8e307


@st.composite
def near_metrics(draw, dims=st.integers(1, 3)):
    """Euclidean distance matrices of 1 to 150 points in `dims` dimensions
    (1-3 by default), often with coincident points, at a scale in
    2^-500 .. 2^500, so the triangle check runs one or more row blocks,
    often a partial last one.
    Optionally one pair is raised by a relative 1e-12 .. 1 past a pivot
    put at its midpoint (the pair in the last two rows, the pivot last, or
    anywhere), and optionally each entry gets round-trip noise of a
    relative 1e-13, below the validation tolerance."""
    n = draw(st.sampled_from([100, 66, 65, 64, 63, 3, 2, 1]) | st.integers(1, 150))
    rng = stream_rng(draw(st.integers(0, 2**32)), 0)
    coords = rng.random((n, draw(dims)))
    if draw(st.booleans()):
        coords = coords[rng.integers(0, draw(st.integers(1, n)), n)]
    where = draw(st.sampled_from(["last rows", "last pivot", "anywhere", None])) if n >= 3 else None
    if where is not None:
        i, j, l = {"last rows": (n - 2, 0, n - 1), "last pivot": (0, n - 1, 1)}.get(where, rng.permutation(n)[:3])
        coords[j] = (coords[i] + coords[l]) / 2.0
    d = PointSet.from_coords(coords * 2.0 ** draw(st.integers(-500, 500))).distance_matrix()
    if where is not None:
        d[i, l] = d[l, i] = d[i, l] * (1.0 + 10.0 ** draw(st.floats(-12.0, 0.0)))
    if draw(st.booleans()):
        d *= 1.0 + 1e-13 * rng.standard_normal(d.shape)
    return d


@given(near_metrics())
def test_matrix_validation_decides_as_the_per_pivot_scan(d):
    _assert_validation_decides_as_the_scan(d)


@given(near_metrics(dims=st.integers(8, 32)))
def test_pruned_triangle_check_decides_as_the_per_pivot_scan(d):
    # In 8-32 dimensions the distances concentrate, so the prune skips most
    # pivots; a planted violation must keep its pivot live.
    _assert_validation_decides_as_the_scan(d)


def _assert_validation_decides_as_the_scan(d):
    cleaned = symmetrized(d)
    violation = triangle_violation_scan(cleaned, VALIDATION_RTOL * float(np.abs(d).max()))
    if violation is None:
        stored = PointSet.from_matrix(d).distance_matrix()
        assert stored.tobytes() == cleaned.tobytes()
    else:
        triple = ",".join(str(v) for v in violation)
        with pytest.raises(PreconditionError, match="^" + re.escape(f"triangle inequality violated for ({triple}):")):
            PointSet.from_matrix(d)


def _dense_read(d):
    """The triangle check's reader of blocks of the dense matrix d."""
    return lambda rows, cols: d[np.ix_(rows, cols)]


def test_the_one_live_pivot_is_the_violating_one():
    # Points 3, 70 and 90 form the only bad triangle, 2.5 > 1 + 1, across
    # both row blocks; every other distance is 2. Pivot 70 is the only one
    # the prune keeps, and the check still finds it.
    d = np.full((100, 100), 2.0)
    np.fill_diagonal(d, 0.0)
    d[3, 70] = d[70, 3] = d[70, 90] = d[90, 70] = 1.0
    d[3, 90] = d[90, 3] = 2.5
    live = [(s, pivots) for s, pivots in matrices._live_pivots(_dense_read(d), 100, VALIDATION_RTOL * 2.5) if pivots]
    assert live == [(0, [70])]
    with pytest.raises(PreconditionError, match=re.escape("triangle inequality violated for (3,70,90): 2.5 > 1.0 + 1.0")):
        PointSet.from_matrix(d)


@pytest.mark.parametrize(
    "planted",
    [
        [(150, 2, 190)],  # low pivot, pair in the last row block
        [(1, 199, 40)],  # high pivot, pair in the first row block
        [(1, 199, 40), (150, 2, 190)],  # the lowest pivot's pair is in a later flagged block
        [(130, 5, 170), (10, 5, 60)],  # one pivot, pairs in two flagged blocks
        [(190, 100, 20)],  # planted as i > l: named from its i < l copy in block 0
        [(63, 64, 64 + 63)],  # pair on the last row of a block and the pivot on the next block's first
    ],
)
def test_triangle_violation_is_named_from_the_flagged_rows_as_the_full_scan_names_it(planted):
    # Each planted pair is raised just past its detour through a midpoint
    # pivot; the message names the same triple and bits as the per-pivot
    # scan over every row.
    n = 200
    coords = stream_rng(77, 0).random((n, 2))
    for i, j, l in planted:
        coords[j] = (coords[i] + coords[l]) / 2.0
    d = PointSet.from_coords(coords).distance_matrix()
    for i, _, l in planted:
        d[i, l] = d[l, i] = d[i, l] * (1.0 + 1e-6)
    cleaned = symmetrized(d)
    i, j, l = triangle_violation_scan(cleaned, VALIDATION_RTOL * float(d.max()))
    assert j == min(p[1] for p in planted)
    expected = f"triangle inequality violated for ({i},{j},{l}): {cleaned[i, l]} > {cleaned[i, j]} + {cleaned[j, l]}"
    with pytest.raises(PreconditionError) as err:
        PointSet.from_matrix(d)
    assert str(err.value) == expected


def test_triangle_prune_skips_most_pivots_of_a_32d_matrix():
    d = random_euclidean(37, 500, dim=32).distance_matrix()
    blocks = list(matrices._live_pivots(_dense_read(d), 500, VALIDATION_RTOL * float(d.max())))
    assert len(blocks) == 8
    assert sum(len(pivots) for _, pivots in blocks) < 0.1 * 8 * 500


def test_matrix_csv_load_peaks_below_twice_the_file():
    # ASCII bytes are parsed in place and a str is encoded once; neither is
    # copied into a text buffer of 4 bytes per character.
    text = dump_pointset(random_euclidean(37, 500, dim=32), "matrix-csv")
    for data in (text.encode(), text):
        tracemalloc.start()
        try:
            load_pointset(data, "matrix-csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * len(data), type(data).__name__


def test_csv_load_of_a_hundred_thousand_points_peaks_below_20_mib():
    # The line loop slices one line at a time out of the text (3.9 MB), with
    # no buffer of it at 4 bytes per character: the rows' float lists
    # (about 13.7 MiB) and their array set the peak.
    text = dump_pointset(random_euclidean(1, 10**5), "csv")
    tracemalloc.start()
    try:
        ps = load_pointset(text, "csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ps.n == 10**5
    assert peak < 20 * 2**20


@pytest.mark.parametrize("sep", ["\x0b", "\x1c", "\u2028"])
def test_only_newline_ends_a_csv_line(sep):
    # str.splitlines would also end a line at these; a float field cannot
    # hold them, so the line that does is named.
    with pytest.raises(PreconditionError, match="^csv line 3: could not convert"):
        load_pointset(f"# dim=2\n0,0\n1,1{sep}2,2\n3,3\n", "csv")


def test_matrix_validation_peaks_below_two_square_matrices():
    # The upper triangle, half a matrix, is the one new array the size of
    # the input: the caller's matrix is read a few rows at a time, and the
    # triangle check keeps only a few blocks of rows.
    dmat = random_euclidean(37, 500, dim=32).distance_matrix()
    tracemalloc.start()
    try:
        PointSet.from_matrix(dmat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.8 * dmat.nbytes


def test_matrix_csv_load_from_an_open_file_peaks_below_a_square_matrix():
    # Chunks of lines are parsed into the triangle as they arrive: no n-by-n
    # array is built for a valid file.
    ps = random_euclidean(37, 500, dim=32)
    data = dump_pointset(ps, "matrix-csv").encode()
    with io.BytesIO(data) as file:
        tracemalloc.start()
        try:
            loaded = load_pointset(file, "matrix-csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert loaded.distance_matrix().tobytes() == ps.distance_matrix().tobytes()
    assert peak < 0.8 * ps.n * ps.n * 8


def _validated_or_error(validate, matrix):
    """The stored matrix's bits, or the message a matrix is refused with."""
    try:
        return validate(matrix).tobytes()
    except PreconditionError as exc:
        return str(exc)


def _matrix_kinds(n: int, rng) -> dict:
    """Matrices of n points: a metric and one with each defect the checks
    name, within the tolerance and past it."""
    base = PointSet.from_coords(rng.random((n, 3))).distance_matrix()
    tol = VALIDATION_RTOL * float(base.max(initial=0.0))
    kinds = {"valid": base}
    if n >= 2:
        i, j = int(rng.integers(0, n - 1)), n - 1
        for name, value, both in [
            ("asymmetric within", base[i, j] + tol / 2, False),
            ("asymmetric past", base[i, j] + 0.5, False),
            ("negative within", -tol / 2, True),
            ("negative past", -0.25, True),
            ("non-finite", np.nan, False),
            ("infinite", np.inf, True),
            ("overflowing", 1.6e308, True),
        ]:
            d = base.copy()
            d[i, j] = value
            if both:
                d[j, i] = value
            kinds[name] = d
    d = base.copy()
    d[n // 2, n // 2] = 0.5
    kinds["nonzero diagonal"] = d
    if n >= 3:
        d = base.copy()
        d[0, n - 1] = d[n - 1, 0] = float(base.max()) * 3.0
        kinds["triangle"] = d
    return kinds


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
def test_every_matrix_source_gives_the_dense_validators_triangle_or_message(tmp_path, n):
    # One route for matrix input: from_matrix, and load_pointset from a
    # binary or text file, a pipe, a str and a bytes document, each give the
    # bits the dense validator stores or its message, byte for byte.
    for name, d in _matrix_kinds(n, stream_rng(n, 5)).items():
        expected = _validated_or_error(dense_validated, d)
        assert _validated_or_error(lambda m: PointSet.from_matrix(m).distance_matrix(), d) == expected, name
        data = ("\n".join(",".join(map(repr, row)) for row in d.tolist()) + "\n").encode()
        # A pipe is written whole before it is read, so only within its buffer.
        pipe = ["rb-pipe"] if len(data) < 2**15 else []
        for source in ["rb-file", "r-file", "str", "bytes", *pipe]:
            outcome = _loaded(tmp_path, data, "matrix-csv", source)
            outcome = outcome if isinstance(outcome, str) else outcome[2]
            assert outcome == expected, (name, source)


def test_every_matrix_read_is_the_dense_cleaned_matrix(tmp_path):
    # Rows, blocks over runs, index lists and repeated indices, single
    # distances, restrictions, the matrix-csv text and the hst embedding
    # all read the cleaned dense matrix bit for bit.
    from remote_div.hst import embed_subset

    bench_like = dump_pointset(random_euclidean(37, 500, dim=32), "matrix-csv")
    for ps in (random_matrix_metric(3, 70), load_pointset(bench_like, "matrix-csv")):
        full = dense_validated(ps.distance_matrix())
        n = ps.n
        assert ps.distance_matrix().tobytes() == full.tobytes()
        assert np.array([ps.distances_from(i) for i in range(n)]).tobytes() == full.tobytes()
        rng = stream_rng(n, 9)
        picks = rng.integers(0, n, 40)
        assert all(ps.distance(int(i), int(j)) == full[i, j] for i, j in zip(picks, picks[::-1]))
        for rows, cols in ((np.arange(n), np.arange(5, n - 3)), (picks, picks), (np.array([4, 4, 1]), picks)):
            got = np.concatenate([block for _start, block in ps.blocks_between(rows, cols)])
            assert got.tobytes() == full[np.ix_(rows, cols)].tobytes()
        idx = sorted(set(picks.tolist()))
        assert ps.restrict(idx).distance_matrix().tobytes() == full[np.ix_(idx, idx)].tobytes()
        doc = dump_pointset(ps, "matrix-csv")
        assert doc == "".join(",".join(map(repr, row)) + "\n" for row in full.tolist())
        _hst, scaled = embed_subset(ps, idx)
        sub = full[np.ix_(idx, idx)]
        assert scaled.distance_matrix().tobytes() == (sub * (EMBED_DIAMETER / float(sub.max()))).tobytes()


def test_from_matrix_is_unaffected_by_later_writes_to_the_input():
    dmat = random_euclidean(38, 6).distance_matrix()
    ps = PointSet.from_matrix(dmat)
    before = ps.distance_matrix().copy()
    dmat[0, 1] = dmat[1, 0] = 123.0
    dmat[2] = 7.0
    assert np.array_equal(ps.distance_matrix(), before)


@pytest.mark.parametrize(
    "values",
    [
        [[0, 1], [1]],
        [["a"]],
        [[0, 1j], [1j, 0]],
        np.array([[0, 1j], [1j, 0]]),
        np.array([[0, 1j], [1j, 0]], dtype=object),
    ],
    ids=["ragged", "string", "complex list", "complex array", "complex objects"],
)
def test_inputs_that_are_not_real_arrays_are_precondition_errors(values):
    with pytest.raises(PreconditionError, match="^distance matrix must be an array of real numbers: "):
        PointSet.from_matrix(values)
    with pytest.raises(PreconditionError, match="^coordinates must be an array of real numbers: "):
        PointSet.from_coords(values)


def test_from_matrix_never_writes_into_its_input():
    # Points on a line, 140 coincident with 3, with a sub-tolerance
    # asymmetry, a tiny negative and a tiny diagonal planted: the cleaning
    # changes those entries, so a write into the input would show. Every
    # plant is a power of two, exact in float32 too.
    x = np.arange(150.0)
    x[140] = x[3]
    line = np.abs(x[:, None] - x[None, :])
    d = line.copy()
    d[0, 1] += 2.0**-23  # the tolerance is 149e-9
    d[3, 140] = d[140, 3] = -(2.0**-27)
    d[77, 77] = 2.0**-27
    assert not np.array_equal(symmetrized(d), d)
    read_only = d.copy()
    read_only.flags.writeable = False
    inputs = {
        "float64": d,
        "read-only": read_only,
        "float32": d.astype(np.float32),
        "int": line.astype(np.int64),
        "nested list": d.tolist(),
    }
    for name, values in inputs.items():
        before = values.tobytes() if isinstance(values, np.ndarray) else repr(values)
        ps = PointSet.from_matrix(values)
        stored = ps.distance_matrix()
        after = values.tobytes() if isinstance(values, np.ndarray) else repr(values)
        assert after == before, name
        as_floats_cleaned = symmetrized(np.asarray(values, dtype=np.float64))
        assert stored.tobytes() == as_floats_cleaned.tobytes(), name
        stored[0, 1] = -1.0  # a fresh matrix: writing it changes no later read
        assert ps.distance(0, 1) == as_floats_cleaned[0, 1], name


def _three_block_metric(n: int = 150) -> np.ndarray:
    """A writeable metric on n >= 130 points: three or more row blocks."""
    return random_euclidean(41, n, dim=2).distance_matrix()


@pytest.mark.parametrize(
    "plant",
    [
        {(149, 5): np.nan, (0, 7): -1.0},  # NaN in the last row, negative in row 0
        {(140, 20): np.inf},
        {(20, 140): -np.inf},
    ],
    ids=["nan-after-negative", "inf", "minus-inf"],
)
def test_finiteness_is_checked_before_anything_else_across_row_blocks(plant):
    d = _three_block_metric()
    for (i, j), value in plant.items():
        d[i, j] = value
    with pytest.raises(PreconditionError, match="^distance matrix entries must be finite$"):
        PointSet.from_matrix(d)


def test_a_negative_in_a_later_block_is_reported_before_asymmetry_in_block_zero():
    d = _three_block_metric()
    d[2, 9] += 0.5  # asymmetric, in block 0
    d[135, 140] = d[140, 135] = -0.25  # negative, in block 2
    with pytest.raises(PreconditionError, match=re.escape("negative distance at (135,140): -0.25")):
        PointSet.from_matrix(d)


@pytest.mark.parametrize("lower, first", [((140, 20), (20, 140)), ((140, 70), (70, 140))])
def test_the_row_major_first_asymmetric_pair_is_named_across_row_blocks(lower, first):
    # A plant in block 2's lower triangle names its mirror pair, in row 20
    # of block 0 or row 70 of block 1, before the upper-triangle plant at
    # (100, 120) in block 1.
    d = _three_block_metric()
    d[lower] += 0.5
    d[100, 120] += 0.5
    i, j = first
    with pytest.raises(PreconditionError) as err:
        PointSet.from_matrix(d)
    assert str(err.value) == f"asymmetric distances at ({i},{j}): {d[i, j]} vs {d[j, i]}"


def test_a_nonzero_diagonal_is_reported_before_an_overflow():
    d = _three_block_metric()
    d *= 1.5e308 / d.max()
    d[131, 131] = 1e300
    with pytest.raises(PreconditionError, match=re.escape("nonzero diagonal at (131,131): 1e+300")):
        PointSet.from_matrix(d)
    np.fill_diagonal(d, 0.0)
    with pytest.raises(PreconditionError, match="overflow"):
        PointSet.from_matrix(d)


def test_coords_whose_distances_overflow_are_rejected():
    with pytest.raises(PreconditionError, match="overflow"):
        PointSet.from_coords([[0.0, 0.0], [1e200, 1e200]])
    with pytest.raises(PreconditionError, match="overflow"):
        PointSet.from_coords([[-1.7e308], [1.7e308]])
    ps = PointSet.from_coords([[0.0, 0.0], [3e150, 4e150]])
    assert ps.distance(0, 1) == 5e150


def test_restrict_preserves_distances():
    ps = random_euclidean(9, 10)
    sub = ps.restrict([1, 4, 7])
    assert sub.n == 3
    assert sub.distance(0, 2) == pytest.approx(ps.distance(1, 7))


def test_runconfig_validation():
    RunConfig(k=2, epsilon=1.0, seed=0, repeats=1)
    with pytest.raises(PreconditionError):
        RunConfig(k=0)
    with pytest.raises(PreconditionError):
        RunConfig(k=2, epsilon=0.0)
    with pytest.raises(PreconditionError):
        RunConfig(k=2, epsilon=1.5)
    with pytest.raises(PreconditionError):
        RunConfig(k=2, repeats=0)


def test_objective_parse():
    assert Objective.parse("matching") is Objective.REMOTE_MATCHING
    assert Objective.parse("pseudoforest") is Objective.REMOTE_PSEUDOFOREST
    with pytest.raises(PreconditionError):
        Objective.parse("clique")
