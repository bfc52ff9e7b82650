"""Greedy farthest-point traversal (GMM) and its Voronoi partition.

GMM picks k centers one at a time, always taking the point farthest from
the centers chosen so far. After k steps the covering radius r (max
distance from any point to the centers) is a lower bound on every pairwise
center distance, which is what every downstream algorithm leans on.

All argmax/argmin ties break to the lowest point index so the whole
pipeline is deterministic; a Voronoi partition is the label array of each
point's center rank.
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
    # Each point's distance to its closest center, -inf at the centers, so a
    # chosen index is never re-picked even when duplicate locations drive
    # every distance to 0; the covering radius is the max over the rest.
    dist = ps.distances_from(start)
    dist[start] = -np.inf
    step_radii = [float(dist.max(initial=0.0))]
    for _ in range(1, k):
        nxt = int(np.argmax(dist))  # first occurrence = lowest index
        centers.append(nxt)
        np.minimum(dist, ps.distances_from(nxt), out=dist)
        dist[nxt] = -np.inf
        step_radii.append(float(dist.max(initial=0.0)))
    return GmmResult(centers, step_radii[-1], step_radii)


def voronoi_partition(ps: PointSet, centers: list[int]) -> np.ndarray:
    """The rank of every point's closest center, lowest rank on ties."""
    if len(centers) == 0:
        raise PreconditionError("need at least one center")
    best = ps.distances_from(centers[0])
    cell = np.zeros(ps.n, dtype=np.int64)
    for rank, c in enumerate(centers[1:], start=1):
        d = ps.distances_from(c)
        cell[d < best] = rank  # strict: ties stay with the lower rank
        np.minimum(best, d, out=best)
    # A center always lands in its own cell, even when another center
    # coincides with it; a center listed twice cannot own both ranks.
    ranks = np.arange(len(centers))
    cell[centers] = ranks
    if (cell[centers] != ranks).any():
        raise PreconditionError("duplicate centers")
    return cell
