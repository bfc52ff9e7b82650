"""Threshold-component hierarchies and matching costs on tree metrics.

For a point set of diameter at most 1, the hierarchy at depth d places, at
each level t, one node per connected component of the graph joining points
at distance <= 2^-t. Level t+1 components refine level t components, so
the hierarchy is a tree; with edge weights 2^-t from a depth-t node to its
parent it becomes a hierarchically well-separated tree whose leaf distance
depends only on the depth of the least common ancestor. The hierarchy is
one array of labels, every level from one `costs.threshold_labels` pass,
and the tree distances and odd-occupancy counts are array operations over
it.

Two executable identities live here: the matching cost of an even leaf set
under the tree metric equals a weighted count of odd-occupancy nodes, and
a parity-fixed random subset of any point set achieves, in expectation, at
least 1/16 of the best even-subset matching cost. Both are exercised by
the verification CLI and the acceptance suite.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .costs import as_indices, matching_tables, threshold_labels
from .errors import PreconditionError
from .matching import even_subset_masks
from .metric import PointSet
from .rng import uniforms

DEFAULT_DEPTH = 40
EMBED_DIAMETER = 1.0 - 1e-12


@dataclass(frozen=True, eq=False)
class Hst:
    """Component hierarchy over an embedded subset.

    labels[t, a] is the position in `points` of the lowest point in the
    level-t component of points[a]; levels run t = 0..depth. Levels nest,
    so two points share exactly the levels 0..t for some t. `==` is
    identity: the hierarchy holds an array.
    """

    depth: int
    points: list[int]
    labels: np.ndarray


@dataclass(frozen=True)
class SubsetBoundStats:
    trials: int
    sample_mean: float
    std_error: float
    best_even_value: float
    ratio: float


def build_hst(ps: PointSet, subset, d: int) -> Hst:
    """Component hierarchy for radii 2^0 .. 2^-d over `subset`.

    The subset's diameter must already be at most 1; use `embed_subset` to
    rescale first.
    """
    if d < 1:
        raise PreconditionError("depth must be at least 1")
    members = sorted(as_indices(subset))
    if not members:
        raise PreconditionError("subset must be nonempty")
    return _hierarchy(ps.restrict(members).distance_matrix(), members, d)


def embed_subset(ps: PointSet, subset, d: int = DEFAULT_DEPTH) -> tuple[Hst, PointSet]:
    """Rescale `subset` to diameter just under 1 and build its hierarchy.

    Returns the hierarchy and the rescaled sub-point-set (local indices
    follow the sorted subset order) used to build it.
    """
    members = sorted(as_indices(subset))
    if len(members) < 2:
        raise PreconditionError("need at least 2 points to embed")
    sub = ps.restrict(members).distance_matrix()
    diam = float(sub.max())
    if diam > 0.0:
        sub = sub * (EMBED_DIAMETER / diam)
    if d < 1:
        raise PreconditionError("depth must be at least 1")
    # A positive multiple of a metric is a metric, so it is not validated
    # again: the subset's own scale could make the parent's rounding fail.
    return _hierarchy(sub, list(range(len(members))), d), PointSet._of_rows(len(members), [(0, sub)])


def _hierarchy(dmat: np.ndarray, points: list[int], d: int) -> Hst:
    """The hierarchy over `points`, whose distance matrix is `dmat`."""
    if float(dmat.max()) > 1.0:
        raise PreconditionError("subset diameter exceeds 1; rescale before embedding")
    # Radii rise from 2^-d to 2^0, so the labels come out deepest level first.
    labels = threshold_labels(dmat, [2.0 ** (-t) for t in range(d, -1, -1)])[::-1]
    return Hst(depth=d, points=points, labels=labels)


def _positions(hst: Hst, z) -> list[int]:
    """The positions in `hst.points` of the points `z`."""
    out = []
    for p in as_indices(z):
        a = bisect.bisect_left(hst.points, p)
        if a == len(hst.points) or hst.points[a] != p:
            raise PreconditionError(f"point {p} is not embedded in the hierarchy")
        out.append(a)
    return out


def hst_distance(hst: Hst, v: int, w: int) -> float:
    """Tree distance between two embedded points: 2*(2^-t - 2^-d) where t is
    the deepest level at which they still share a component."""
    a, b = _positions(hst, (v, w))
    # Levels nest, so the points share levels 0..t: t+1 of them.
    shared = int(np.count_nonzero(hst.labels[:, a] == hst.labels[:, b]))
    return 2.0 * (2.0 ** (1 - shared) - 2.0 ** (-hst.depth))


def hst_distance_matrix(hst: Hst) -> np.ndarray:
    """`hst_distance` between every two embedded points, by position."""
    shared = np.count_nonzero(hst.labels[:, :, None] == hst.labels[:, None, :], axis=0)
    return 2.0 * (2.0 ** (1 - shared) - 2.0 ** (-hst.depth))


def odd_component_counts(hst: Hst, z) -> list[int]:
    """Per level, the number of components holding an odd number of z's."""
    pos = sorted(set(_positions(hst, z)))
    size = len(hst.points)
    # Level t's labels are offset by t*size, so one count covers every level.
    offset = hst.labels[:, pos] + size * np.arange(hst.depth + 1)[:, None]
    occupancy = np.bincount(offset.ravel(), minlength=size * (hst.depth + 1))
    return np.count_nonzero(occupancy.reshape(hst.depth + 1, size) % 2, axis=1).tolist()


def hst_mwm_odd_count(hst: Hst, z) -> float:
    """Matching cost of the even set z under the tree metric, computed as
    sum over levels of 2^-level times the number of odd-occupancy nodes."""
    zlist = as_indices(z)
    if len(zlist) % 2 != 0:
        raise PreconditionError("odd-count matching formula needs an even set")
    if len(set(zlist)) != len(zlist):
        raise PreconditionError("z must hold distinct points")
    return sum(2.0 ** (-t) * m for t, m in enumerate(odd_component_counts(hst, zlist)))


def verify_random_subset_bound(
    ps: PointSet,
    members,
    trials: int,
    seed: int,
) -> SubsetBoundStats:
    """Monte-Carlo check that a parity-fixed random subset's expected
    matching cost clears 1/16 of the best even-subset matching cost.

    Uses one matching DP table over all sub-multisets of `members`, so both
    the per-draw values and the brute-force maximum are exact.
    """
    mem = sorted(as_indices(members))
    if not 1 <= len(mem) <= 14:
        raise PreconditionError("member set must hold 1 to 14 points for the even-subset brute force")
    if trials < 100:
        raise PreconditionError("need at least 100 trials for a stable mean")
    table = matching_tables(ps.restrict(mem).distance_matrix(), np.arange(len(mem))[None])[0]
    best = float(table[table != math.inf].max())
    keep = even_subset_masks(mem, uniforms(seed, range(trials), len(mem)))
    values = table[keep @ (1 << np.arange(len(mem)))]
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    ratio = mean / best if best > 0 else 1.0
    return SubsetBoundStats(
        trials=trials,
        sample_mean=mean,
        std_error=stderr,
        best_even_value=best,
        ratio=ratio,
    )
