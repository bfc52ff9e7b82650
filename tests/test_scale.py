"""End-to-end runs at 10^5 points, marked `slow` and left out of the default
run (`pyproject.toml` deselects the marker); run them with `-m slow`."""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import remote_div

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
