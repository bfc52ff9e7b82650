"""Deterministic dataset generators for experiments and acceptance runs."""
from __future__ import annotations

import math

import numpy as np

from .errors import PreconditionError
from .metric import PointSet
from .rng import uniforms

KINDS = ("uniform_cube", "clusters", "grid", "line")


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
    if separation <= 0 or width < 0:
        raise PreconditionError("need separation > 0 and width >= 0")
    offsets = uniforms(seed, [0], n * dim).reshape(n, dim) * width - width / 2.0
    coords = offsets.copy()
    for i in range(n):
        coords[i, 0] += (i % clusters) * separation
    return PointSet.from_coords(coords)


def make_grid(n: int, dim: int, spacing: float = 1.0) -> PointSet:
    """First n lattice points of the smallest dim-dimensional cube grid."""
    if n < 1 or dim < 1:
        raise PreconditionError("need n >= 1 and dim >= 1")
    if spacing <= 0:
        raise PreconditionError("spacing must be positive")
    side = math.ceil(n ** (1.0 / dim))
    while side**dim < n:
        side += 1
    coords = []
    for flat in range(n):
        point = []
        rest = flat
        for _ in range(dim):
            point.append((rest % side) * spacing)
            rest //= side
        coords.append(point)
    return PointSet.from_coords(np.asarray(coords, dtype=np.float64))


def make_line(n: int, values: list[float] | None = None) -> PointSet:
    """1-D points; explicit coordinates when given, else 0..n-1."""
    if values is not None:
        if len(values) != n:
            raise PreconditionError(f"expected {n} values, got {len(values)}")
        coords = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    else:
        coords = np.arange(n, dtype=np.float64).reshape(-1, 1)
    return PointSet.from_coords(coords)
