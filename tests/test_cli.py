from __future__ import annotations

import argparse
import errno
import importlib.util
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import remote_div
from remote_div import (
    InternalInvariantError,
    Objective,
    PointSet,
    PreconditionError,
    RunConfig,
    dump_pointset,
    pf_offline,
    run_pipeline,
)
from remote_div.cli import _emit, _read_pointset, canonicalize_report, main
from remote_div.generators import make_clusters, make_grid, make_line, make_uniform_cube
from remote_div.metric import load_pointset
from conftest import random_euclidean, run_fresh
from oracles import clusters_by_loop, grid_by_loops


def run_cli(args):
    return main(args)


def read_json(path):
    return json.loads(path.read_text())


@pytest.fixture
def dataset(tmp_path):
    path = tmp_path / "points.json"
    code = run_cli(["gen", "--kind", "uniform_cube", "--n", "20", "--dim", "2", "--seed", "1", "--output", str(path)])
    assert code == 0
    return path


# -- generators -------------------------------------------------------------------

def test_make_uniform_cube_in_range():
    ps = make_uniform_cube(20, 2, 1)
    assert ps.n == 20
    assert np.all(ps.coords >= 0.0) and np.all(ps.coords <= 1.0)


def test_make_clusters_reproducible():
    a = make_clusters(12, 2, 7, clusters=2, separation=100.0, width=1.0)
    b = make_clusters(12, 2, 7, clusters=2, separation=100.0, width=1.0)
    assert np.array_equal(a.coords, b.coords)
    # two blobs separated by about 100
    first = a.coords[::2, 0]
    second = a.coords[1::2, 0]
    assert abs(first.mean() - second.mean()) > 90


def test_make_grid_counts():
    ps = make_grid(10, 2)
    assert ps.n == 10
    assert len({tuple(row) for row in ps.coords}) == 10


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_make_grid_places_the_points_of_the_per_point_loops(dim):
    for n in range(1, 101):
        assert make_grid(n, dim, 0.75).coords.tobytes() == grid_by_loops(n, dim, 0.75).coords.tobytes()


@pytest.mark.parametrize(("n", "dim", "clusters", "separation", "width"), [
    (1, 1, 1, 100.0, 1.0), (12, 2, 2, 100.0, 1.0), (50, 3, 7, 2.5, 0.0), (101, 2, 4, 1e-3, 10.0),
])
def test_make_clusters_places_the_points_of_the_per_point_loop(n, dim, clusters, separation, width):
    made = make_clusters(n, dim, 3, clusters=clusters, separation=separation, width=width)
    assert made.coords.tobytes() == clusters_by_loop(n, dim, 3, clusters, separation, width).coords.tobytes()


def test_make_line_explicit():
    ps = make_line(3, [0.0, 1.0, 10.0])
    assert ps.coords.flatten().tolist() == [0.0, 1.0, 10.0]


# -- gen --------------------------------------------------------------------------

def test_gen_line_explicit_params(tmp_path):
    out = tmp_path / "line.json"
    code = run_cli(["gen", "--kind", "line", "--n", "3", "--params", "0,1,10", "--output", str(out)])
    assert code == 0
    ps = load_pointset(out.read_text(), "json")
    assert ps.n == 3
    assert ps.distance(0, 2) == 10.0


def test_gen_clusters_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "--kind", "clusters", "--n", "12", "--params", "c=2,sep=100,width=1", "--seed", "7"]
    assert run_cli(args + ["--output", str(a)]) == 0
    assert run_cli(args + ["--output", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_gen_takes_an_integral_float_count_and_a_one_d_line(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    base = ["gen", "--kind", "clusters", "--n", "12", "--seed", "7"]
    assert run_cli(base + ["--params", "c=3.0", "--output", str(a)]) == 0
    assert run_cli(base + ["--params", "c=3", "--output", str(b)]) == 0
    assert a.read_text() == b.read_text()
    assert run_cli(["gen", "--kind", "line", "--n", "3", "--dim", "1", "--output", str(a)]) == 0
    assert load_pointset(a.read_text(), "json").dim == 1


@pytest.mark.parametrize("kind", ["grid", "line"])
def test_gen_grid_and_line_ignore_a_valid_seed(kind, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(["gen", "--kind", kind, "--n", "9", "--output", str(a)]) == 0
    assert run_cli(["gen", "--kind", kind, "--n", "9", "--seed", "5", "--output", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_gen_bad_params_exit_code(tmp_path):
    code = run_cli(["gen", "--kind", "line", "--n", "3", "--params", "0,x,10", "--output", str(tmp_path / "f.json")])
    assert code == 1


@pytest.mark.parametrize(("kind", "params"), [
    ("clusters", "width=inf"), ("clusters", "sep=inf"), ("clusters", "width=nan"), ("grid", "spacing=inf"),
])
def test_gen_non_finite_params_fail_before_any_arithmetic(kind, params, tmp_path):
    package_root = Path(remote_div.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "remote_div", "gen", "--kind", kind, "--n", "8", "--params", params,
         "--output", str(tmp_path / "f.json")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(package_root)}, timeout=120,
    )
    assert done.returncode == 1
    assert done.stderr.startswith("remote-div: error:")
    assert "Warning" not in done.stderr
    assert not (tmp_path / "f.json").exists()


# -- solve ------------------------------------------------------------------------

def test_solve_matching_report(dataset, tmp_path):
    out = tmp_path / "report.json"
    code = run_cli([
        "solve", "--objective", "matching", "--k", "4", "--seed", "11",
        "--repeats", "5", "--input", str(dataset), "--output", str(out),
    ])
    assert code == 0
    report = read_json(out)
    assert report["schema_version"] == 1
    assert report["command"] == "solve"
    assert report["flags"]["k"] == 4
    assert len(report["indices"]) == 4
    assert report["trace"]["chosen"] in ("Y", "W")
    assert "total_seconds" in report["timings"]


def test_solve_odd_k_is_precondition_error(dataset, capsys):
    code = run_cli(["solve", "--objective", "matching", "--k", "3", "--input", str(dataset)])
    assert code == 1
    err = capsys.readouterr().err
    assert "even" in err


def test_solve_pseudoforest_with_tree_dump(dataset, tmp_path):
    out = tmp_path / "report.json"
    tree_path = tmp_path / "tree.json"
    code = run_cli([
        "solve", "--objective", "pseudoforest", "--k", "3",
        "--input", str(dataset), "--output", str(out),
        "--dump-net-tree", str(tree_path),
    ])
    assert code == 0
    tree = read_json(tree_path)
    assert "levels" in tree and "parents" in tree
    assert tree["levels"][0] == [0]
    for child, parent in tree["parents"].items():
        c_idx, c_lvl = child.split("@")
        p_idx, p_lvl = parent.split("@")
        assert int(c_lvl) == int(p_lvl) + 1


def test_dumped_net_tree_is_the_solver_tree(tmp_path):
    data, tree_path = tmp_path / "points.json", tmp_path / "tree.json"
    for seed in range(200):
        ps = PointSet.from_coords(np.random.default_rng(seed).random((12, 2)))
        data.write_text(dump_pointset(ps, "json"))
        code = run_cli([
            "solve", "--objective", "pseudoforest", "--k", "8", "--input", str(data),
            "--output", str(tmp_path / "report.json"), "--dump-net-tree", str(tree_path),
        ])
        assert code == 0
        _solution, tree = pf_offline(ps, 8)
        assert tree_path.read_text() == tree.to_json() + "\n", f"seed {seed}"


_GOLDEN_NET_TREE = (
    b'{"levels": [[0], [0, 3, 5], [0, 1, 2, 3, 4, 5, 6], [0, 1, 2, 3, 4, 5, 6, 7], [0, 1, 2, 3, 4, 5, '
    b'6, 7, 8]], "parents": {"0@1": "0@0", "3@1": "0@0", "5@1": "0@0", "0@2": "0@1", "1@2": "0@1", "2@'
    b'2": "0@1", "3@2": "3@1", "4@2": "3@1", "5@2": "5@1", "6@2": "5@1", "0@3": "0@2", "1@3": "1@2", "'
    b'2@3": "2@2", "3@3": "3@2", "4@3": "4@2", "5@3": "5@2", "6@3": "6@2", "7@3": "2@2", "0@4": "0@3",'
    b' "1@4": "1@3", "2@4": "2@3", "3@4": "3@3", "4@4": "4@3", "5@4": "5@3", "6@4": "6@3", "7@4": "7@3'
    b'", "8@4": "3@3"}}\n'
)


def test_dumped_net_tree_matches_golden_bytes(tmp_path):
    # n < 2k, so the floor is 0: the close pairs (2, 7) and (3, 8) add
    # levels 3 and 4, where 7 and 8 join under parents other than themselves.
    data, tree_path = tmp_path / "points.json", tmp_path / "tree.json"
    points = [[0, 0], [1, 0], [0, 1], [5, 5], [5, 6], [9, 0], [8, 1], [0.1, 0.9], [5.02, 5]]
    data.write_text(json.dumps({"dim": 2, "points": points}))
    code = run_cli([
        "solve", "--objective", "pseudoforest", "--k", "5", "--input", str(data),
        "--output", str(tmp_path / "report.json"), "--dump-net-tree", str(tree_path),
    ])
    assert code == 0
    assert tree_path.read_bytes() == _GOLDEN_NET_TREE


def test_solve_overflowing_coordinates_exit_one(tmp_path, capsys):
    data = tmp_path / "huge.json"
    data.write_text(json.dumps({"dim": 2, "points": [[1e200 * i, 1e200] for i in range(5)]}))
    code = run_cli(["solve", "--objective", "pseudoforest", "--k", "2", "--input", str(data)])
    assert code == 1
    assert "overflow" in capsys.readouterr().err


def test_solve_overflowing_matrix_entries_exit_one(tmp_path, capsys):
    data = tmp_path / "huge.csv"
    data.write_text("0,1.5e308,1e308\n1.5e308,0,1e308\n1e308,1e308,0\n")
    code = run_cli([
        "solve", "--objective", "pseudoforest", "--k", "2", "--input", str(data), "--input-format", "matrix-csv",
    ])
    assert code == 1
    assert "overflow" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["matrix-csv", "csv"])
@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_input_line_ends_read_as_a_text_mode_read_gives_them(fmt, newline, tmp_path):
    text = dump_pointset(make_uniform_cube(12, 3, 5), fmt)
    solutions = []
    for name, content in (("lf", text), ("other", text.replace("\n", newline))):
        (tmp_path / name).write_bytes(content.encode())
        out = tmp_path / f"{name}.json"
        argv = ["solve", "--objective", "pseudoforest", "--k", "3", "--input-format", fmt]
        assert run_cli(argv + ["--input", str(tmp_path / name), "--output", str(out)]) == 0
        report = read_json(out)
        solutions.append((report["indices"], report["value"]))
    assert solutions[0] == solutions[1]


def test_solve_subnormal_net_distance_exit_one(tmp_path, capsys):
    # n < 2k keeps floor 0, so the smallest scaled distance (~5e-312) is
    # subnormal: more net levels than float(5 ** depth) can hold.
    data = tmp_path / "subnormal.json"
    data.write_text(json.dumps({"dim": 1, "points": [[0.0], [1e-160], [1e150]]}))
    code = run_cli(["solve", "--objective", "pseudoforest", "--k", "2", "--input", str(data)])
    assert code == 1
    assert "net levels" in capsys.readouterr().err
    # ~5e-306 still fits (435 levels below the root).
    data.write_text(json.dumps({"dim": 1, "points": [[0.0], [1e-154], [1e150]]}))
    code = run_cli(["solve", "--objective", "pseudoforest", "--k", "2", "--input", str(data)])
    assert code == 0


def test_emit_refuses_non_finite_numbers(tmp_path):
    args = argparse.Namespace(command="eval", output=str(tmp_path / "report.json"))
    with pytest.raises(InternalInvariantError, match="non-finite"):
        _emit(args, {"value": float("inf")}, 0.0)
    assert not (tmp_path / "report.json").exists()


_COMPOSE_FILE = ["compose", "--objective", "matching", "--k", "2", "--parts", "2", "--strategy", "file",
                 "--input", "{tmp}/points.json", "--parts-file", "{tmp}/parts.json"]
_SOLVE = ["solve", "--objective", "pseudoforest", "--k", "2", "--input", "{tmp}/points.json"]
_GEN_CLUSTERS = ["gen", "--kind", "clusters", "--n", "6", "--params"]


@pytest.mark.parametrize(
    "files, argv",
    [
        pytest.param({}, _COMPOSE_FILE, id="parts-file-missing"),
        pytest.param({"parts.json": "[[0, 1"}, _COMPOSE_FILE, id="parts-file-not-json"),
        pytest.param({"parts.json": '{"a": 1}'}, _COMPOSE_FILE, id="parts-file-object"),
        pytest.param({"parts.json": '[[0, "x"], [1]]'}, _COMPOSE_FILE, id="parts-file-string-index"),
        pytest.param({"parts.json": "[5, 6]"}, _COMPOSE_FILE, id="parts-file-flat-list"),
        pytest.param({"points.csv": "# dim=x\n0,1\n1,0\n"}, _SOLVE[:-1] + ["{tmp}/points.csv", "--input-format", "csv"],
                     id="csv-dim-not-integer"),
        pytest.param({"points.json": '{"dim": "x", "points": [[0, 1], [1, 0]]}'}, _SOLVE, id="json-dim-string"),
        pytest.param({"points.json": '{"dim": 2.5, "points": [[0, 1], [1, 0]]}'}, _SOLVE, id="json-dim-fraction"),
        pytest.param({}, ["gen", "--kind", "uniform_cube", "--n", "5", "--seed", "-1"], id="gen-negative-seed"),
        pytest.param({}, _GEN_CLUSTERS + ["c=nan"], id="gen-cluster-count-nan"),
        pytest.param({}, _GEN_CLUSTERS + ["c=inf"], id="gen-cluster-count-inf"),
        pytest.param({}, _GEN_CLUSTERS + ["c=2.5"], id="gen-cluster-count-fraction"),
        pytest.param({}, _GEN_CLUSTERS + ["c=2,c=3"], id="gen-params-key-twice"),
        pytest.param({}, _GEN_CLUSTERS + ["sides=3"], id="gen-params-unknown-key"),
        pytest.param({}, ["gen", "--kind", "uniform_cube", "--n", "5", "--params", "1,2"], id="gen-bare-values-off-line"),
        pytest.param({}, ["gen", "--kind", "line", "--n", "1", "--params", "values=1"], id="gen-line-named-values"),
        pytest.param({}, ["gen", "--kind", "line", "--n", "3", "--dim", "3"], id="gen-line-dim-3"),
        pytest.param({}, ["gen", "--kind", "line", "--n", "3", "--seed", "-1"], id="gen-line-negative-seed"),
        pytest.param({}, ["gen", "--kind", "grid", "--n", "4", "--seed", "-1"], id="gen-grid-negative-seed"),
        pytest.param({}, _SOLVE + ["--gmm-start", "99"], id="pseudoforest-gmm-start-out-of-range"),
        pytest.param({}, ["verify", "--suite", "hst", "--seed", "-1", "--trials", "1"], id="verify-negative-seed"),
        pytest.param({}, _SOLVE[:-1] + ["{tmp}"], id="input-directory"),
        pytest.param({"points.json": b'{"dim": 1, "points": [[0], [1]]} \xff'}, _SOLVE, id="input-not-utf8"),
        pytest.param({"points.csv": b"0,1\n1,0 \xff\n"}, _SOLVE[:-1] + ["{tmp}/points.csv", "--input-format", "matrix-csv"],
                     id="matrix-input-not-utf8"),
        pytest.param({}, ["coreset", "--objective", "pseudoforest", "--k", "4", "--gmm-start", "99",
                          "--input", "{tmp}/points.json"], id="gmm-start-past-a-passthrough-part"),
        pytest.param({}, ["gen", "--kind", "uniform_cube", "--n", "5", "--output", "{tmp}/nodir/x.json"],
                     id="gen-output-in-a-missing-directory"),
        pytest.param({}, _SOLVE + ["--dump-net-tree", "{tmp}/nodir/t.json"], id="net-tree-dump-in-a-missing-directory"),
        pytest.param({}, ["verify", "--suite", "mstcc", "--trials", "1", "--output", "{tmp}/nodir/v.json"],
                     id="report-output-in-a-missing-directory"),
    ],
)
def test_bad_input_exits_one_with_an_error_line(files, argv, tmp_path, capsys):
    (tmp_path / "points.json").write_text(json.dumps({"dim": 2, "points": [[i, i % 7] for i in range(30)]}))
    for name, content in files.items():
        (tmp_path / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    try:
        code = run_cli([arg.format(tmp=tmp_path) for arg in argv])
    except Exception as exc:  # would reach the user as a traceback
        pytest.fail(f"traceback: {type(exc).__name__}: {exc}")
    assert code == 1
    assert "remote-div: error:" in capsys.readouterr().err


def test_matrix_csv_with_a_lone_non_ascii_byte_is_not_utf8(tmp_path, capsys):
    # Decoded as latin-1, numpy's default for a binary file, the 0xA0 byte
    # would read as whitespace and give a valid 2x2 matrix.
    data = tmp_path / "points.csv"
    data.write_bytes(b"0,1\xa0\n1,0\n")
    code = run_cli(_SOLVE[:-1] + [str(data), "--input-format", "matrix-csv"])
    assert code == 1
    assert "not UTF-8" in capsys.readouterr().err


class _FailingRead(io.RawIOBase):
    """A seekable file at offset 0 whose every read fails."""

    def readable(self):
        return True

    def seekable(self):
        return True

    def seek(self, offset, whence=io.SEEK_SET):
        return 0

    def readinto(self, buffer):
        raise OSError(errno.EIO, "Input/output error")


@pytest.mark.parametrize("fmt", ["matrix-csv", "json"])
def test_input_read_error_exits_one(fmt, tmp_path, monkeypatch, capsys):
    data = tmp_path / "points"
    data.write_text("0,1\n1,0\n")
    opened = Path.open

    def failing_open(self, mode="r", *args, **kwargs):
        return io.BufferedReader(_FailingRead()) if mode == "rb" else opened(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", failing_open)
    code = run_cli(_SOLVE[:-1] + [str(data), "--input-format", fmt])
    assert code == 1
    assert "cannot read input file" in capsys.readouterr().err


def test_matrix_csv_input_read_peaks_below_two_square_matrices(tmp_path):
    # The file (4.6 MB) is streamed, never held whole, and the parsed matrix
    # is validated in place: the peak is that matrix and a few row blocks.
    n = 500
    data = tmp_path / "points.csv"
    data.write_text(dump_pointset(random_euclidean(37, n, dim=32), "matrix-csv"))
    args = argparse.Namespace(input=str(data), input_format="matrix-csv")
    tracemalloc.start()
    try:
        _read_pointset(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * n * 8


def test_solve_missing_input(tmp_path):
    code = run_cli(["solve", "--objective", "matching", "--k", "4", "--input", str(tmp_path / "nope.json")])
    assert code == 1


def test_solve_gmm_start_random_is_reproducible(dataset, tmp_path):
    out = tmp_path / "a.json"
    args = [
        "solve", "--objective", "matching", "--k", "4", "--seed", "3",
        "--gmm-start", "random", "--input", str(dataset), "--output", str(out),
    ]
    assert run_cli(args) == 0
    first = read_json(out)
    assert run_cli(args) == 0
    second = read_json(out)
    assert canonicalize_report(first) == canonicalize_report(second)


# -- coreset ------------------------------------------------------------------------

def test_coreset_report_shape(dataset, tmp_path):
    out = tmp_path / "coreset.json"
    code = run_cli([
        "coreset", "--objective", "pseudoforest", "--k", "3", "--epsilon", "1.0",
        "--part-id", "4", "--input", str(dataset), "--output", str(out),
    ])
    assert code == 0
    report = read_json(out)
    assert report["part"] == 4
    assert report["k"] == 3
    assert report["passthrough"] is True  # n=20 < 21
    assert report["indices"] == list(range(20))


def test_coreset_matching_blocks(tmp_path):
    data = tmp_path / "p.json"
    run_cli(["gen", "--kind", "uniform_cube", "--n", "30", "--seed", "2", "--output", str(data)])
    out = tmp_path / "c.json"
    code = run_cli(["coreset", "--objective", "matching", "--k", "4", "--input", str(data), "--output", str(out)])
    assert code == 0
    report = read_json(out)
    assert len(report["indices"]) == 8
    assert set(report["blocks"]) == {"Y", "pairs"}


# -- compose / eval ------------------------------------------------------------------

def test_compose_with_oracle(dataset, tmp_path):
    out = tmp_path / "pipeline.json"
    code = run_cli([
        "compose", "--objective", "matching", "--k", "4", "--parts", "2",
        "--strategy", "round_robin", "--seed", "5", "--oracle",
        "--input", str(dataset), "--output", str(out),
    ])
    assert code == 0
    report = read_json(out)
    assert report["ratio"] >= 0.1
    assert report["bound_kind"] == "exact"
    assert report["union_size"] == sum(report["coreset_sizes"])


def test_compose_oracle_cap_exit_one(tmp_path, capsys):
    data = tmp_path / "big.json"
    run_cli(["gen", "--kind", "uniform_cube", "--n", "300", "--seed", "1", "--output", str(data)])
    code = run_cli([
        "compose", "--objective", "matching", "--k", "12", "--parts", "2",
        "--oracle", "--input", str(data),
    ])
    assert code == 1
    assert "cap" in capsys.readouterr().err


def test_compose_over_cap_matching_k_fails_before_any_coreset(tmp_path, capsys, monkeypatch):
    import remote_div.coresets

    def refuse(*args, **kwargs):
        raise AssertionError("a coreset was built")

    monkeypatch.setattr(remote_div.coresets, "mwm_coreset", refuse)
    data = tmp_path / "big.json"
    run_cli(["gen", "--kind", "uniform_cube", "--n", "400", "--seed", "1", "--output", str(data)])
    with pytest.raises(PreconditionError, match="k=22 above exact matching cap 20"):
        run_pipeline(load_pointset(data.read_text(), "json"), RunConfig(k=22, objective=Objective.REMOTE_MATCHING), 4)
    code = run_cli(["compose", "--objective", "matching", "--k", "64", "--parts", "4", "--input", str(data)])
    assert code == 1
    assert "k=64 above exact matching cap 20" in capsys.readouterr().err


def test_compose_file_strategy(dataset, tmp_path):
    parts_path = tmp_path / "parts.json"
    parts_path.write_text(json.dumps([list(range(0, 10)), list(range(10, 20))]))
    out = tmp_path / "report.json"
    code = run_cli([
        "compose", "--objective", "pseudoforest", "--k", "3", "--parts", "2",
        "--strategy", "file", "--parts-file", str(parts_path), "--oracle",
        "--input", str(dataset), "--output", str(out),
    ])
    assert code == 0
    report = read_json(out)
    assert report["m"] == 2
    assert report["ratio"] >= 1.0 / 150.0


def test_eval_line(tmp_path):
    data = tmp_path / "line.json"
    run_cli(["gen", "--kind", "line", "--n", "3", "--params", "0,1,10", "--output", str(data)])
    out = tmp_path / "eval.json"
    code = run_cli(["eval", "--objective", "pseudoforest", "--k", "2", "--input", str(data), "--output", str(out)])
    assert code == 0
    report = read_json(out)
    assert report["value"] == 20.0
    assert report["indices"] == [0, 2]


# -- verify ---------------------------------------------------------------------------

def test_verify_all_suites_pass(tmp_path):
    out = tmp_path / "verify.json"
    code = run_cli(["verify", "--suite", "all", "--seed", "3", "--trials", "20", "--output", str(out)])
    assert code == 0
    report = read_json(out)
    assert report["pass"] is True
    assert set(report["suites"]) == {"hst", "mstcc", "lemma42"}
    assert report["suites"]["mstcc"]["min_ratio"] >= 0.5


def test_verify_lemma42_accepts_the_largest_seed(tmp_path):
    # Trial i seeds its bound with seed + i + 1 modulo 2^64.
    out = tmp_path / "verify.json"
    code = run_cli(["verify", "--suite", "lemma42", "--seed", str(2**64 - 1), "--trials", "3", "--output", str(out)])
    assert code == 0
    assert read_json(out)["pass"] is True


# -- cross-cutting -----------------------------------------------------------------------

def test_reports_byte_identical_modulo_timing(dataset, tmp_path):
    for args in (
        ["solve", "--objective", "matching", "--k", "4", "--seed", "9", "--input", str(dataset)],
        ["solve", "--objective", "pseudoforest", "--k", "3", "--input", str(dataset)],
        ["coreset", "--objective", "pseudoforest", "--k", "3", "--input", str(dataset)],
        ["compose", "--objective", "matching", "--k", "4", "--parts", "2", "--oracle", "--input", str(dataset)],
        ["eval", "--objective", "matching", "--k", "4", "--input", str(dataset)],
        ["verify", "--suite", "mstcc", "--seed", "1", "--trials", "10"],
    ):
        out = tmp_path / "report.json"
        assert run_cli(args + ["--output", str(out)]) == 0
        first = json.dumps(canonicalize_report(read_json(out)), sort_keys=True)
        assert run_cli(args + ["--output", str(out)]) == 0
        second = json.dumps(canonicalize_report(read_json(out)), sort_keys=True)
        assert first == second, f"report differs for {args}"


def test_schema_flag(capsys):
    assert run_cli(["--schema"]) == 0
    out = capsys.readouterr().out
    schema = json.loads(out)
    assert "solve" in schema and "verify" in schema


def test_schema_names_exactly_the_report_keys(dataset, tmp_path, capsys):
    assert run_cli(["--schema"]) == 0
    schema = json.loads(capsys.readouterr().out)
    points = ["--input", str(dataset)]
    shapes = [
        ["solve", "--objective", "matching", "--k", "4", "--repeats", "2", *points],
        ["solve", "--objective", "pseudoforest", "--k", "4", *points],
        ["solve", "--objective", "pseudoforest", "--k", "4", "--dump-net-tree", str(tmp_path / "tree.json"), *points],
        ["coreset", "--objective", "matching", "--k", "4", *points],
        ["coreset", "--objective", "pseudoforest", "--k", "4", *points],
        ["compose", "--objective", "matching", "--k", "4", "--parts", "2", *points],
        ["compose", "--objective", "pseudoforest", "--k", "2", "--parts", "2", "--oracle", *points],
        ["eval", "--objective", "pseudoforest", "--k", "2", *points],
        ["verify", "--suite", "all", "--trials", "2"],
    ]
    for argv in shapes:
        out = tmp_path / "report.json"
        assert run_cli(argv + ["--output", str(out)]) == 0, argv
        report = read_json(out)
        assert set(report) == set(schema["common_fields"]) | set(schema[argv[0]]), argv


def test_usage_error_exit_one(capsys):
    assert run_cli(["solve", "--objective", "bogus", "--k", "4", "--input", "x"]) == 1
    assert "error" in capsys.readouterr().err


def test_no_command_prints_help(capsys):
    assert run_cli([]) == 1
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,flags",
    [
        ("gen", ["--kind", "--n", "--dim", "--seed", "--params", "--output"]),
        ("solve", ["--objective", "--k", "--seed", "--repeats", "--gmm-start",
                   "--net-root", "--dump-net-tree", "--input", "--output"]),
        ("coreset", ["--objective", "--k", "--epsilon", "--part-id", "--input", "--output"]),
        ("compose", ["--objective", "--k", "--epsilon", "--parts", "--strategy", "--seed",
                     "--oracle", "--input", "--output"]),
        ("eval", ["--objective", "--k", "--input", "--output"]),
        ("verify", ["--suite", "--seed", "--trials", "--output"]),
    ],
)
def test_help_lists_documented_flags(command, flags, capsys):
    with pytest.raises(SystemExit):
        import remote_div.cli as cli_module

        cli_module._build_parser().parse_args([command, "--help"])
    text = capsys.readouterr().out
    for flag in flags:
        assert flag in text, f"{command} help is missing {flag}"


def test_bench_trace_targets_exist():
    # The benchmark's tracer wraps src functions and methods by name, so a
    # rename must fail here rather than in a `--trace 1` run.
    path = Path(__file__).resolve().parent.parent / "bench" / "inproc.py"
    spec = importlib.util.spec_from_file_location("bench_inproc", path)
    inproc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inproc)
    for module, name, _span, _count in inproc.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"remote_div.{module}"), name, None)), f"{module}.{name}"
    metric = importlib.import_module("remote_div.metric")
    for class_name, method, _span, _count in inproc.METHODS:
        assert method in vars(getattr(metric, class_name)), f"{class_name}.{method}"


_COMMANDS_WITHOUT_NUMPY_RANDOM = r"""
import sys
from remote_div.cli import main

out, points = sys.argv[1] + "/report.json", sys.argv[1] + "/points.json"
assert main(["gen", "--kind", "clusters", "--n", "30", "--dim", "2", "--seed", "4", "--output", points]) == 0
runs = [
    ["solve", "--objective", "matching", "--k", "4", "--seed", "2", "--gmm-start", "random", "--input", points],
    ["solve", "--objective", "matching", "--k", "4", "--seed", "2", "--input", points],
    ["compose", "--objective", "matching", "--k", "4", "--parts", "2", "--seed", "2", "--input", points],
    ["compose", "--objective", "pseudoforest", "--k", "3", "--parts", "3", "--strategy", "random", "--input", points],
    ["verify", "--suite", "all", "--seed", "5", "--trials", "3"],
]
for argv in runs:
    assert main(argv + ["--output", out]) == 0, argv
print("numpy.random" in sys.modules)
"""


def test_no_command_imports_numpy_random(tmp_path):
    # The package draws from its own Philox block; importing numpy's random
    # module would add megabytes to every command's peak memory.
    assert run_fresh(_COMMANDS_WITHOUT_NUMPY_RANDOM, str(tmp_path)).strip() == "False"


_PSEUDOFOREST_COMMANDS = r"""
import sys
from remote_div.cli import main

out, points = sys.argv[1] + "/report.json", sys.argv[1] + "/points.json"
assert main(["gen", "--kind", "uniform_cube", "--n", "400", "--dim", "2", "--seed", "4", "--output", points]) == 0
runs = [
    ["solve", "--objective", "pseudoforest", "--k", "5", "--input", points],
    ["coreset", "--objective", "pseudoforest", "--k", "5", "--input", points],
    ["compose", "--objective", "pseudoforest", "--k", "5", "--parts", "2", "--input", points],
]
for argv in runs:
    assert main(argv + ["--output", out]) == 0, argv
print("numpy.ma" in sys.modules)
"""


def test_no_command_imports_numpy_ma(tmp_path):
    # numpy.ma (about 15 ms to import) comes in through np.unique; the
    # Euclidean cell grid that pseudoforest commands build must not use it.
    assert run_fresh(_PSEUDOFOREST_COMMANDS, str(tmp_path)).strip() == "False"


# Each command runs from an empty package: the remote_div modules are
# dropped from sys.modules before it, so the set it leaves is what its own
# imports reach. The shapes are the benchmark's commands (both composes at
# k=10 take the lower-bound path there and here), plus gen, --version,
# --schema, and the package's loader on its own.
_IMPORT_BUDGET = r"""
import contextlib, io, json, sys

out, points, matrix = (sys.argv[1] + name for name in ("/report.json", "/points.json", "/dist.csv"))

def purge():
    for name in [m for m in sys.modules if m == "remote_div" or m.startswith("remote_div.")]:
        del sys.modules[name]

def fresh_main():
    purge()
    from remote_div.cli import main
    return main

def loaded():
    return sorted(m[len("remote_div."):] for m in sys.modules if m.startswith("remote_div."))

main = fresh_main()
assert main(["gen", "--kind", "uniform_cube", "--n", "60", "--dim", "2", "--seed", "3", "--output", points]) == 0
import remote_div
with open(matrix, "w") as file:
    file.write(remote_div.dump_pointset(remote_div.load_pointset(open(points).read(), "json"), "matrix-csv"))
runs = {
    "gen": ["gen", "--kind", "grid", "--n", "9", "--output", out],
    "--version": ["--version"],
    "--schema": ["--schema"],
    "solve matching": ["solve", "--objective", "matching", "--k", "10", "--input", points, "--output", out],
    "solve pseudoforest": ["solve", "--objective", "pseudoforest", "--k", "10", "--input", points, "--output", out],
    "solve pseudoforest matrix-csv": [
        "solve", "--objective", "pseudoforest", "--k", "10", "--input", matrix, "--input-format", "matrix-csv",
        "--output", out,
    ],
    "coreset pseudoforest": ["coreset", "--objective", "pseudoforest", "--k", "8", "--input", points, "--output", out],
    "compose matching": ["compose", "--objective", "matching", "--k", "10", "--parts", "2", "--input", points, "--output", out],
    "compose pseudoforest": [
        "compose", "--objective", "pseudoforest", "--k", "10", "--parts", "2", "--input", points, "--output", out,
    ],
    "compose matching --oracle": [
        "compose", "--objective", "matching", "--k", "2", "--parts", "3", "--oracle", "--input", points, "--output", out,
    ],
    "eval matching": ["eval", "--objective", "matching", "--k", "2", "--input", points, "--output", out],
    "eval pseudoforest": ["eval", "--objective", "pseudoforest", "--k", "2", "--input", points, "--output", out],
    "verify": ["verify", "--suite", "all", "--trials", "2", "--output", out],
}
sets = {}
for name, argv in runs.items():
    main = fresh_main()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    sets[name] = loaded()
purge()
import remote_div
remote_div.load_pointset(open(points).read(), "json")
sets["load_pointset"] = loaded()
print(json.dumps(sets))
"""


def test_each_command_imports_only_its_layers(tmp_path):
    # Without a bytecode cache, every module a command imports is compiled
    # on each run, and each layer's tables add to peak memory, so a command
    # loads the modules it runs and no others.
    sets = json.loads(run_fresh(_IMPORT_BUDGET, str(tmp_path)))
    parser = {"cli", "errors", "gmm", "metric"}
    solver = parser | {"costs", "results"}
    composed = solver | {"composition", "coresets", "matching", "rng"}
    expected = {
        "gen": parser | {"generators", "rng"},
        "--version": parser,
        "--schema": parser,
        "solve matching": solver | {"matching", "rng"},
        "solve pseudoforest": solver | {"nets"},
        "solve pseudoforest matrix-csv": solver | {"matrices", "nets"},
        "coreset pseudoforest": parser | {"coresets", "matching", "results"},
        "compose matching": composed,
        "compose pseudoforest": composed | {"nets"},
        "compose matching --oracle": composed,
        "eval matching": solver | {"composition", "rng"},
        "eval pseudoforest": solver | {"composition", "rng"},
        "verify": solver | {"hst", "matching", "rng"},
        "load_pointset": {"errors", "gmm", "metric"},
    }
    assert {name: set(modules) for name, modules in sets.items()} == expected


_PSEUDOFOREST_IMPORTS = r"""
import contextlib, io, json, sys
from remote_div.cli import main

out, points = sys.argv[1] + "/report.json", sys.argv[1] + "/points.json"
with open(points, "w") as file:
    file.write(json.dumps({"points": [[float(i % 7), float(i // 7)] for i in range(40)]}))
argv = [sys.argv[2], "--objective", "pseudoforest", "--k", "4", "--input", points, "--output", out]
with contextlib.redirect_stdout(io.StringIO()):
    assert main(argv) == 0, argv
print(" ".join(m for m in ("costs", "generators", "rng") if "remote_div." + m in sys.modules))
"""


def test_pseudoforest_commands_skip_the_matching_and_generator_modules(tmp_path):
    # Neither the parser's --kind choices nor the pair list a pf coreset
    # reads from `matching` pulls in the generators, the Philox words or
    # the exact evaluators.
    assert run_fresh(_PSEUDOFOREST_IMPORTS, str(tmp_path), "coreset").split() == []
    assert run_fresh(_PSEUDOFOREST_IMPORTS, str(tmp_path), "solve").split() == ["costs"]
