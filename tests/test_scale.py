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
def test_pseudoforest_solve_and_coreset_on_a_hundred_thousand_points_take_under_a_minute(tmp_path):
    points = tmp_path / "cube.json"
    _cli("gen", "--kind", "uniform_cube", "--n", "100000", "--dim", "2", "--seed", "1", "--output", str(points))
    for command in ("solve", "coreset"):
        report = tmp_path / f"{command}.json"
        elapsed = _cli(command, "--objective", "pseudoforest", "--k", "10", "--input", str(points), "--output", str(report))
        assert elapsed < 60.0, f"{command} took {elapsed:.1f} s"
        assert len(json.loads(report.read_text())["indices"]) <= 50
