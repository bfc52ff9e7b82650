"""Greedy farthest-point traversal (GMM) and its Voronoi partition.

GMM picks k centers one at a time, always taking the point farthest from
the centers chosen so far. After k steps the covering radius r (max
distance from any point to the centers) is a lower bound on every pairwise
center distance, which is what every downstream algorithm leans on.

All argmax/argmin ties break to the lowest point index so the whole
pipeline is deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .metric import PointSet


@dataclass(frozen=True)
class GmmResult:
    centers: list[int]
    radius: float
    step_radii: list[float]


@dataclass(frozen=True, eq=False)
class VoronoiPartition:
    """cell_of[i] is the rank of point i's center; cells[r] lists the
    points of rank r's cell in ascending order. `==` is identity."""

    cell_of: np.ndarray
    cells: list[list[int]]


def gmm(ps: PointSet, k: int, start: int = 0) -> GmmResult:
    """Run the farthest-point traversal for k steps from `start`.

    step_radii[p-1] is the covering radius after p centers; the (p+1)-th
    center is a point realizing that radius.
    """
    n = ps.n
    if not (1 <= k <= n):
        raise PreconditionError(f"k must satisfy 1 <= k <= n; got k={k}, n={n}")
    if not (0 <= start < n):
        raise PreconditionError(f"start index {start} out of range for n={n}")
    centers = [start]
    dist_to_centers = ps.distances_from(start)
    dist_to_centers[start] = 0.0
    # Selection uses a masked copy so an already-chosen index is never
    # re-picked, even when duplicate locations drive every distance to 0.
    selectable = dist_to_centers.copy()
    selectable[start] = -np.inf
    step_radii = [float(dist_to_centers.max())]
    for _ in range(1, k):
        nxt = int(np.argmax(selectable))  # first occurrence = lowest index
        centers.append(nxt)
        d = ps.distances_from(nxt)
        d[nxt] = 0.0
        np.minimum(dist_to_centers, d, out=dist_to_centers)
        np.minimum(selectable, d, out=selectable)
        selectable[nxt] = -np.inf
        step_radii.append(float(dist_to_centers.max()))
    return GmmResult(centers, step_radii[-1], step_radii)


def voronoi_partition(ps: PointSet, centers: list[int]) -> VoronoiPartition:
    """Assign every point to its closest center, lowest rank on ties."""
    if len(centers) == 0:
        raise PreconditionError("need at least one center")
    if len(set(centers)) != len(centers):
        raise PreconditionError("duplicate centers")
    n = ps.n
    best = ps.distances_from(centers[0])
    cell = np.zeros(n, dtype=np.int64)
    for rank, c in enumerate(centers[1:], start=1):
        d = ps.distances_from(c)
        better = d < best  # strict: ties stay with the lower rank
        cell[better] = rank
        np.minimum(best, d, out=best)
    # A center always lands in its own cell, even when another center
    # coincides with it; for non-centers the strict < above already breaks
    # ties toward the lowest rank.
    for rank, c in enumerate(centers):
        cell[c] = rank
    cells = [[] for _ in centers]
    for i in range(n):
        cells[int(cell[i])].append(i)
    return VoronoiPartition(cell, cells)
