"""Deterministic dataset generators for experiments and acceptance runs."""
from __future__ import annotations

import math

import numpy as np

from .errors import PreconditionError
from .metric import PointSet
from .rng import uniforms


def make_uniform_cube(n: int, dim: int, seed: int) -> PointSet:
    """n points drawn uniformly from the unit cube."""
    if n < 1 or dim < 1:
        raise PreconditionError("need n >= 1 and dim >= 1")
    return PointSet.from_coords(uniforms(seed, [0], n * dim).reshape(n, dim))


def make_clusters(
    n: int,
    dim: int,
    seed: int,
    clusters: int = 2,
    separation: float = 100.0,
    width: float = 1.0,
) -> PointSet:
    """n points split round-robin over clusters spaced `separation` apart
    along the first axis, each cluster a cube of side `width`."""
    if n < 1 or dim < 1:
        raise PreconditionError("need n >= 1 and dim >= 1")
    if clusters < 1 or clusters > n:
        raise PreconditionError("need 1 <= clusters <= n")
    if not (0 < separation < math.inf and 0 <= width < math.inf):
        raise PreconditionError("need finite separation > 0 and width >= 0")
    coords = uniforms(seed, [0], n * dim).reshape(n, dim) * width - width / 2.0
    coords[:, 0] += np.arange(n) % clusters * separation
    return PointSet.from_coords(coords)


def make_grid(n: int, dim: int, spacing: float = 1.0) -> PointSet:
    """First n lattice points of the smallest dim-dimensional cube grid."""
    if n < 1 or dim < 1:
        raise PreconditionError("need n >= 1 and dim >= 1")
    if not 0 < spacing < math.inf:
        raise PreconditionError("spacing must be positive and finite")
    side = math.ceil(n ** (1.0 / dim))
    while side**dim < n:
        side += 1
    # Point p's coordinate on axis a is digit a of p in base `side`.
    rest = np.arange(n)
    coords = np.empty((n, dim))
    for axis in range(dim):
        coords[:, axis] = rest % side * spacing
        rest //= side
    return PointSet.from_coords(coords)


def make_line(n: int, values: list[float] | None = None) -> PointSet:
    """1-D points; explicit coordinates when given, else 0..n-1."""
    if values is not None:
        if len(values) != n:
            raise PreconditionError(f"expected {n} values, got {len(values)}")
        coords = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    else:
        coords = np.arange(n, dtype=np.float64).reshape(-1, 1)
    return PointSet.from_coords(coords)
