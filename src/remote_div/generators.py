"""Deterministic dataset generators for experiments and acceptance runs.

`generate` is `remote-div gen`: it checks the `--params` each kind takes
(`_GEN_PARAMS`) and the seed and dimension, then calls the kind's
`make_*`.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import PreconditionError
from .metric import PointSet
from .rng import check_seed, uniforms

# The named settings each kind takes; only line takes bare numbers.
_GEN_PARAMS = {"uniform_cube": (), "clusters": ("c", "sep", "width"), "grid": ("spacing",), "line": ()}


def generate(kind: str, n: int, dim: int | None, seed: int, raw_params: str) -> PointSet:
    """The dataset `gen --kind kind` makes from the `--params` text
    `raw_params`; dim None is 2, and line takes only 1."""
    if kind not in _GEN_PARAMS:
        raise PreconditionError(f"unknown kind {kind!r}; expected one of {tuple(_GEN_PARAMS)}")
    params, values = _parse_params(raw_params, kind)
    check_seed(seed)
    if kind == "line":
        if dim not in (None, 1):
            raise PreconditionError(f"--kind line makes 1-D points; got --dim {dim}")
        return make_line(n, values or None)
    dim = 2 if dim is None else dim
    if kind == "uniform_cube":
        return make_uniform_cube(n, dim, seed)
    if kind == "grid":
        return make_grid(n, dim, spacing=params.get("spacing", 1.0))
    clusters = params.get("c", 2.0)
    if not clusters.is_integer():  # never truncated
        raise PreconditionError(f"c={clusters!r} is not an integer")
    return make_clusters(
        n, dim, seed, clusters=int(clusters), separation=params.get("sep", 100.0), width=params.get("width", 1.0)
    )


def _parse_params(raw: str, kind: str) -> tuple[dict[str, float], list[float]]:
    """The named settings and the bare numbers in `raw`. A name `kind` does
    not take, a name given twice, or bare numbers for a kind other than line
    is a PreconditionError."""
    named: dict[str, float] = {}
    bare: list[float] = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        key, eq, value = item.partition("=")
        key = key.strip()
        try:
            number = float(value if eq else item)
        except ValueError as exc:
            raise PreconditionError(f"bad parameter {item!r}: {exc}") from exc
        if not eq:
            bare.append(number)
        elif key not in _GEN_PARAMS[kind]:
            names = ", ".join(_GEN_PARAMS[kind]) or "none"
            raise PreconditionError(f"--kind {kind} takes no parameter {key!r} (its parameters: {names})")
        elif key in named:
            raise PreconditionError(f"parameter {key!r} given twice")
        else:
            named[key] = number
    if bare and kind != "line":
        raise PreconditionError(f"--kind {kind} takes no bare values; only line does")
    return named, bare


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
