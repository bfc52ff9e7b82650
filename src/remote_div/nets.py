"""Offline remote-pseudoforest solver built on hierarchical nets.

The input metric is rescaled so its diameter is exactly 1/20 and then
floored by one rule, applied in `rescale_and_clamp` and nowhere else: every
off-diagonal distance is floored at CLAMP_CONSTANT/k when n >= 2k or when
some scaled distance is 0 (coincident points); otherwise the floor is 0
and the rescaled metric is kept as it is. The floor caps the aspect ratio,
so the number of net levels stays logarithmic in k no matter how skewed
the input scale is, while changing any k-subset's pseudoforest cost by at
most the constant.

On the clamped metric we grow nested greedy nets: level l keeps a maximal
set of points pairwise separated by 5^-l/20, each level extending the one
above, down to the first level that holds every point. Linking every net
point to its closest point one level up gives a tree, stored level by
level: each level's points in ascending order, and for each point its
parent's position in the level above. Each point's clamped row is read
once, when it joins a net, so no n-by-n matrix is formed; at a level whose
separation is at most the floor every remaining point joins without
reading its row, and its parent comes from blocks of distances to the
level above. Selecting k
nodes that form an antichain (no node an ancestor of another) and
maximizing the sum of 5^-level values is solved exactly by a
knapsack-style dynamic program over children, each row stopping at
min(k, leaves in its subtree) so that no entry is infeasible; the selected
nodes map to k distinct points whose pseudoforest cost is within a
constant factor of the best possible.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .costs import pf_cost
from .errors import InternalInvariantError, PreconditionError
from .metric import ClampedMetric, PointSet, diameter, min_offdiag_distance
from .results import DiversitySolution

CLAMP_CONSTANT = 1.0 / 160.0
TARGET_DIAMETER = 1.0 / 20.0
_MAX_DEPTH = 441  # the largest d with float(5 ** d) finite

Node = tuple[int, int]  # (level, point index)


@dataclass(frozen=True, eq=False)
class NetTree:
    """levels[l] holds the level-l points in ascending order; parents[l][i] is
    the position in levels[l] of the parent of levels[l + 1][i] (a point that
    continues is its own parent). Compare trees by `to_json()`: `==` is identity."""

    levels: list[list[int]]
    parents: list[np.ndarray]

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def to_json(self) -> str:
        parents = {
            f"{p}@{lvl + 1}": f"{above[pos]}@{lvl}"
            for lvl, (above, below) in enumerate(zip(self.levels, self.levels[1:]))
            for p, pos in zip(below, self.parents[lvl].tolist())
        }
        return json.dumps({"levels": self.levels, "parents": parents})


def rescale_and_clamp(ps: PointSet, k: int) -> ClampedMetric:
    """The metric the net tree is built on: `ps` scaled to diameter 1/20
    and floored by the module's floor rule, as scalars over `ps`."""
    if k < 1:
        raise PreconditionError("k must be a positive integer")
    if ps.n < 2:
        raise PreconditionError("need at least 2 points to rescale")
    diam = diameter(ps)
    if diam <= 0.0:
        raise PreconditionError("diameter is zero: all points coincide, or their squared differences underflow to zero")
    scale = TARGET_DIAMETER / diam
    # Scaling is monotone, so this is the smallest scaled distance.
    if ps.n >= 2 * k or min_offdiag_distance(ps) * scale <= 0.0:
        return ClampedMetric(ps, CLAMP_CONSTANT / k, scale)
    return ClampedMetric(ps, 0.0, scale)


def build_net_tree(metric: ClampedMetric, root: int = 0) -> NetTree:
    """Grow nested greedy nets and link each point to its closest coarser
    net point, stopping at the first level that holds every point.

    Candidate points are scanned in ascending index order, and a point joins
    level l as soon as it is at distance >= 5^-l/20 from everything already
    in the level. A point's clamped row is read once, when it joins: it
    lowers every point's distance to the net and names the point's parent,
    its closest member of the level above (ties to the lowest index). At a
    level whose separation is at most the floor, every clamped distance
    clears it, so all remaining points join without reading their rows, and
    their parents come from blocks of distances to the level above.
    """
    n = metric.n
    if not (0 <= root < n):
        raise PreconditionError(f"root index {root} out of range for n={n}")
    # Clamping is monotone, so this is the largest entry of every row.
    if n >= 2 and max(metric.scale * diameter(metric.base), metric.floor) > TARGET_DIAMETER * (1.0 + 1e-12):
        raise PreconditionError("net tree expects a metric rescaled to diameter <= 1/20")
    in_net = np.zeros(n, dtype=bool)
    in_net[root] = True
    mind = _net_row(metric, root)  # distance to the current net
    levels = [[root]]
    parents = []
    while len(levels[-1]) < n:
        level = len(levels)
        # dp_antichain divides by float(5 ** depth), which must stay finite.
        if level > _MAX_DEPTH:
            raise PreconditionError(
                f"scaled distance {float(mind[~in_net].min())!r} needs more than {_MAX_DEPTH} net levels"
            )
        sep = 5.0 ** (-level) / 20.0
        above = np.asarray(levels[-1])
        parent = np.arange(n)
        if sep <= metric.floor:
            # Every clamped distance is at least the floor: all the rest join.
            joining = np.flatnonzero(~in_net)
            for start, block in metric.blocks_between(joining, above):
                parent[joining[start : start + len(block)]] = above[np.argmin(block, axis=1)]
            in_net[:] = True
        # mind only falls, so no point outside this candidate list can join.
        for q in np.flatnonzero(~in_net & (mind >= sep)).tolist():
            if mind[q] >= sep:
                row = _net_row(metric, q)
                in_net[q] = True
                np.minimum(mind, row, out=mind)
                parent[q] = above[np.argmin(row[above])]
        members = np.flatnonzero(in_net)
        levels.append(members.tolist())
        parents.append(np.searchsorted(above, parent[members]))
    return NetTree(levels=levels, parents=parents)


def _net_row(metric: ClampedMetric, q: int) -> np.ndarray:
    """Clamped distances from q with its own entry at +inf, after checking
    that they are positive."""
    row = metric.distances_from(q)
    row[q] = np.inf
    if float(row.min()) <= 0.0:
        raise PreconditionError("net tree needs all pairwise distances positive (clamp first)")
    return row


def dp_antichain(tree: NetTree, k: int) -> tuple[float, list[Node]]:
    """Select k tree nodes, none an ancestor of another, maximizing the sum
    of 5^-level values. Returns that sum and the selected nodes.

    The table is computed with exact integer weights (5^(depth-level)), so
    reconstruction can test equality safely. table[l][i] is the row of
    levels[l][i]: entry j is the best sum of j nodes under it, for each j up
    to min(k, its leaves), so no entry is infeasible. kids[l][i] holds its
    children's positions in levels[l + 1].
    """
    n = len(tree.levels[-1])
    if not (1 <= k <= n):
        raise PreconditionError(f"k must satisfy 1 <= k <= n; got k={k}, n={n}")
    depth = tree.depth
    # Every leaf is on the last level and shares one row.
    table: list[list[list[int]]] = [[] for _ in range(depth)] + [[[0, 1]] * n]
    kids: list[list[np.ndarray]] = [[] for _ in range(depth)]
    for level in range(depth - 1, -1, -1):
        below = tree.parents[level]
        order = np.argsort(below, kind="stable")
        kids[level] = np.split(order, np.searchsorted(below[order], np.arange(1, len(tree.levels[level]))))
        for group in kids[level]:
            # The last fold is a fresh list even for one child, never its row.
            row = _fold_children([table[level + 1][j] for j in group.tolist()], k)[-1]
            row[1] = 5 ** (depth - level)
            table[level].append(row)

    if len(table[0][0]) <= k:
        raise InternalInvariantError("antichain of size k must exist when k <= n")
    return table[0][0][k] / float(5 ** depth), _reconstruct(tree, table, kids, 0, 0, k)


def _fold_children(child_rows: list[list[int]], k: int) -> list[list[int]]:
    """Best totals over the first 1, 2, ... children: entry j of fold i is
    the best sum of j nodes taken from the children 0..i, for every j up to
    min(k, their leaves)."""
    folds = [child_rows[0][:]]
    for child_row in child_rows[1:]:
        fold = folds[-1]
        # Entries past the fold take at least one node, so 0 is always beaten.
        nxt = fold + [0] * (min(len(fold) + len(child_row) - 1, k + 1) - len(fold))
        for take in range(1, len(child_row)):
            add = child_row[take]
            for j, base in enumerate(fold[: len(nxt) - take], take):
                if base + add > nxt[j]:
                    nxt[j] = base + add
        folds.append(nxt)
    return folds


def _reconstruct(
    tree: NetTree, table: list[list[list[int]]], kids: list[list[np.ndarray]], level: int, pos: int, count: int
) -> list[Node]:
    if count == 0:
        return []
    if count == 1:  # the node outweighs anything under it
        return [(level, tree.levels[level][pos])]
    group = kids[level][pos].tolist()
    child_rows = [table[level + 1][j] for j in group]
    folds = _fold_children(child_rows, len(table[level][pos]) - 1)
    chosen: list[Node] = []
    remaining = count
    for i in range(len(group) - 1, 0, -1):
        child_row = child_rows[i]
        prev = folds[i - 1]
        for take in range(max(0, remaining - len(prev) + 1), min(remaining + 1, len(child_row))):
            if child_row[take] + prev[remaining - take] == folds[i][remaining]:
                if take:
                    chosen.extend(_reconstruct(tree, table, kids, level + 1, group[i], take))
                remaining -= take
                break
        else:
            raise InternalInvariantError("dp reconstruction failed to split the fold")
    chosen.extend(_reconstruct(tree, table, kids, level + 1, group[0], remaining))
    chosen.sort()
    return chosen


def pf_offline(ps: PointSet, k: int, root: int = 0) -> tuple[DiversitySolution, NetTree]:
    """Constant-factor offline solver for remote-pseudoforest.

    Returns the solution and the net tree it was selected from, built on
    `rescale_and_clamp(ps, k)`.
    """
    n = ps.n
    if not (2 <= k <= n):
        raise PreconditionError(f"need 2 <= k <= n; got k={k}, n={n}")
    tree = build_net_tree(rescale_and_clamp(ps, k), root)
    _value, nodes = dp_antichain(tree, k)
    points = sorted(p for _lvl, p in nodes)
    if len(set(points)) != k:
        raise InternalInvariantError("antichain nodes must map to distinct points")
    return DiversitySolution(indices=points, value=pf_cost(ps, points).value, algorithm="nets"), tree
