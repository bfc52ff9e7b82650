"""Threshold-component hierarchies and matching costs on tree metrics.

For a point set of diameter at most 1, the hierarchy at depth d places, at
each level t, one node per connected component of the graph joining points
at distance <= 2^-t. Level t+1 components refine level t components, so
the hierarchy is a tree; with edge weights 2^-t from a depth-t node to its
parent it becomes a hierarchically well-separated tree whose leaf distance
depends only on the depth of the least common ancestor.

Two executable identities live here: the matching cost of an even leaf set
under the tree metric equals a weighted count of odd-occupancy nodes, and
a parity-fixed random subset of any point set achieves, in expectation, at
least 1/16 of the best even-subset matching cost. Both are exercised by
the verification CLI and the acceptance suite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costs import UnionFind, as_indices, matching_tables, mst_value_and_edges
from .errors import PreconditionError
from .matching import even_subset_masks
from .metric import PointSet
from .rng import uniforms

DEFAULT_DEPTH = 40
EMBED_DIAMETER = 1.0 - 1e-12


@dataclass(frozen=True)
class Hst:
    """Component hierarchy over an embedded subset.

    component_of[t] maps each embedded point to its level-t component id
    (the smallest member index); levels run t = 0..depth.
    """

    depth: int
    points: list[int]
    component_of: list[dict[int, int]]

    def components(self, t: int) -> dict[int, list[int]]:
        groups: dict[int, list[int]] = {}
        for p in self.points:
            groups.setdefault(self.component_of[t][p], []).append(p)
        return groups


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
    dmat = ps.restrict(members).distance_matrix()
    if float(dmat.max()) > 1.0:
        raise PreconditionError("subset diameter exceeds 1; rescale before embedding")
    # The graph joining pairs at distance <= r has the components of the MST
    # edges <= r, so one MST, merged in order of weight, gives every level.
    _value, edges = mst_value_and_edges(dmat.tolist())
    edges.sort(key=lambda e: dmat[e])
    uf = UnionFind(len(members))
    component_of = []
    for t in range(d, -1, -1):
        while edges and dmat[edges[0]] <= 2.0 ** (-t):
            uf.union(*edges.pop(0))
        # union() keeps the smaller local index as root: the smallest member.
        component_of.append({p: members[uf.find(a)] for a, p in enumerate(members)})
    component_of.reverse()
    return Hst(depth=d, points=members, component_of=component_of)


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
    sub.flags.writeable = False
    # A positive multiple of a metric is a metric, so it is not validated
    # again: the subset's own scale could make the parent's rounding fail.
    scaled = PointSet("matrix", None, sub)
    hst = build_hst(scaled, range(len(members)), d)
    return hst, scaled


def hst_distance(hst: Hst, v: int, w: int) -> float:
    """Tree distance between two embedded points: 2*(2^-t - 2^-d) where t is
    the deepest level at which they still share a component."""
    for p in (v, w):
        if p not in hst.component_of[0]:
            raise PreconditionError(f"point {p} is not embedded in the hierarchy")
    if hst.component_of[hst.depth][v] == hst.component_of[hst.depth][w]:
        return 0.0
    t = 0
    while t + 1 <= hst.depth and hst.component_of[t + 1][v] == hst.component_of[t + 1][w]:
        t += 1
    return 2.0 * (2.0 ** (-t) - 2.0 ** (-hst.depth))


def hst_distance_matrix(hst: Hst) -> np.ndarray:
    pts = hst.points
    out = np.zeros((len(pts), len(pts)))
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            out[a, b] = out[b, a] = hst_distance(hst, pts[a], pts[b])
    return out


def odd_component_counts(hst: Hst, z) -> list[int]:
    """Per level, the number of components holding an odd number of z's."""
    zset = set(as_indices(z))
    counts = []
    for t in range(hst.depth + 1):
        parity: dict[int, int] = {}
        for p in zset:
            cid = hst.component_of[t][p]
            parity[cid] = parity.get(cid, 0) ^ 1
        counts.append(sum(parity.values()))
    return counts


def hst_mwm_odd_count(hst: Hst, z) -> float:
    """Matching cost of the even set z under the tree metric, computed as
    sum over levels of 2^-level times the number of odd-occupancy nodes."""
    zlist = as_indices(z)
    if len(zlist) % 2 != 0:
        raise PreconditionError("odd-count matching formula needs an even set")
    if len(set(zlist)) != len(zlist):
        raise PreconditionError("z must hold distinct points")
    for p in zlist:
        if p not in hst.component_of[0]:
            raise PreconditionError(f"point {p} is not embedded in the hierarchy")
    counts = odd_component_counts(hst, zlist)
    return sum(2.0 ** (-t) * m for t, m in enumerate(counts))


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
