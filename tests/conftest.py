from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import remote_div
from remote_div import PointSet
from oracles import stream_rng


def run_fresh(script: str, *args: str) -> str:
    """Run `script` in a fresh interpreter that imports the package under
    test, with `args` as sys.argv[1:]; return its stdout once it exits 0."""
    package_root = Path(remote_div.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(package_root), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def random_euclidean(seed: int, n: int, dim: int = 2, scale: float = 1.0) -> PointSet:
    rng = stream_rng(seed, 0)
    return PointSet.from_coords(rng.random((n, dim)) * scale)


def random_matrix_metric(seed: int, n: int) -> PointSet:
    """A validated matrix-kind metric (distances of random planar points)."""
    rng = stream_rng(seed, 0)
    coords = rng.random((n, 2))
    diff = coords[:, None, :] - coords[None, :, :]
    dmat = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(dmat, 0.0)
    return PointSet.from_matrix(dmat)


def line_pointset(values) -> PointSet:
    return PointSet.from_coords(np.asarray(values, dtype=np.float64).reshape(-1, 1))


def two_clusters(seed: int, n: int, separation: float = 100.0, width: float = 1.0) -> PointSet:
    rng = stream_rng(seed, 0)
    coords = rng.random((n, 2)) * width
    coords[n // 2 :, 0] += separation
    return PointSet.from_coords(coords)


@pytest.fixture
def line3() -> PointSet:
    return line_pointset([0.0, 1.0, 10.0])


# Property tests run the same fixed examples on every run.
settings.register_profile("repo", derandomize=True, max_examples=40, deadline=None, database=None)
settings.load_profile("repo")
