"""End-to-end runs at the north star's sizes (10^5 points; brute force at
the enumeration cap), marked `slow` and left out of the default run
(`pyproject.toml` deselects the marker); run them with `-m slow`."""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import remote_div
from remote_div import load_pointset, pf_cost

_SRC = str(Path(remote_div.__file__).resolve().parent.parent)


def _cli(*args: str) -> float:
    """Run the CLI in a fresh interpreter; return its wall time."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "remote_div", *args], check=True, env=env, capture_output=True)
    return time.perf_counter() - start


@pytest.mark.slow
def test_pseudoforest_on_a_hundred_thousand_points_runs_in_seconds(tmp_path):
    # The coreset's outlier radius reads only the cells whose floors reach
    # the best radius, so clustered and 3-D points take seconds too.
    for kind, dim, commands, bound in (
        ("uniform_cube", 2, ("solve", "coreset"), 60.0),
        ("clusters", 2, ("coreset",), 8.0),
        ("uniform_cube", 3, ("coreset",), 8.0),
    ):
        points = tmp_path / f"{kind}-{dim}.json"
        _cli("gen", "--kind", kind, "--n", "100000", "--dim", str(dim), "--seed", "1", "--output", str(points))
        for command in commands:
            report = tmp_path / f"{command}.json"
            elapsed = _cli(command, "--objective", "pseudoforest", "--k", "10", "--input", str(points), "--output", str(report))
            assert elapsed < bound, f"{command} on {dim}-D {kind} took {elapsed:.1f} s"
            assert len(json.loads(report.read_text())["indices"]) <= 50


@pytest.mark.slow
def test_pseudoforest_brute_force_at_the_enumeration_cap_runs_in_seconds(tmp_path):
    # C(40, 6) = 3,838,380 subsets, under ENUMERATION_CAP: brute force
    # scores them in blocks of consecutive ranks, never one tuple each.
    points = tmp_path / "points.json"
    _cli("gen", "--kind", "uniform_cube", "--n", "40", "--dim", "2", "--seed", "1", "--output", str(points))
    report = tmp_path / "eval.json"
    elapsed = _cli("eval", "--objective", "pseudoforest", "--k", "6", "--input", str(points), "--output", str(report))
    assert elapsed < 10.0, f"eval took {elapsed:.1f} s"
    result = json.loads(report.read_text())
    ps = load_pointset(points.read_text(), "json")
    assert result["value"].hex() == pf_cost(ps, result["indices"]).value.hex()
