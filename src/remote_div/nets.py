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
point to its closest point one level up gives a tree whose nodes are
(point, level) pairs. Each point's clamped row is read once, when it joins
a net, so no n-by-n matrix is formed. Selecting k nodes that form an
antichain (no node an ancestor of another) and maximizing the sum of
5^-level values is solved exactly by a knapsack-style dynamic program over
children; the selected nodes map to k distinct points whose pseudoforest
cost is within a constant factor of the best possible.
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


@dataclass(frozen=True)
class NetTree:
    levels: list[list[int]]
    parent: dict[Node, Node]
    children: dict[Node, list[Node]]
    depth: int

    @property
    def root(self) -> Node:
        return (0, self.levels[0][0])

    def nodes(self):
        for level, members in enumerate(self.levels):
            for p in members:
                yield (level, p)

    def to_json(self) -> str:
        parents = {
            f"{p}@{lvl}": f"{pp}@{plvl}" for (lvl, p), (plvl, pp) in sorted(self.parent.items())
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
        raise PreconditionError("all points coincide; diameter is zero")
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
    its closest member of the level above (ties to the lowest index).
    """
    n = metric.n
    if not (0 <= root < n):
        raise PreconditionError(f"root index {root} out of range for n={n}")
    in_net = np.zeros(n, dtype=bool)
    in_net[root] = True
    mind = _net_row(metric, root)  # distance to the current net
    levels = [[root]]
    parent: dict[Node, Node] = {}
    while len(levels[-1]) < n:
        level = len(levels)
        # dp_antichain divides by float(5 ** depth), which must stay finite.
        if level > _MAX_DEPTH:
            raise PreconditionError(
                f"scaled distance {float(mind[~in_net].min())!r} needs more than {_MAX_DEPTH} net levels"
            )
        sep = 5.0 ** (-level) / 20.0
        above = np.asarray(levels[-1])
        for p in levels[-1]:
            parent[(level, p)] = (level - 1, p)
        # mind only falls, so no point outside this candidate list can join.
        for q in np.flatnonzero(~in_net & (mind >= sep)).tolist():
            if mind[q] >= sep:
                row = _net_row(metric, q)
                in_net[q] = True
                np.minimum(mind, row, out=mind)
                parent[(level, q)] = (level - 1, int(above[np.argmin(row[above])]))
        levels.append(np.flatnonzero(in_net).tolist())

    children: dict[Node, list[Node]] = {(lvl, p): [] for lvl, members in enumerate(levels) for p in members}
    for level in range(1, len(levels)):
        for p in levels[level]:
            children[parent[(level, p)]].append((level, p))
    return NetTree(levels=levels, parent=parent, children=children, depth=len(levels) - 1)


def _net_row(metric: ClampedMetric, q: int) -> np.ndarray:
    """Clamped distances from q with its own entry at +inf, after checking
    the row against build_net_tree's preconditions."""
    row = metric.distances_from(q)
    if float(row.max()) > TARGET_DIAMETER * (1.0 + 1e-12):
        raise PreconditionError("net tree expects a metric rescaled to diameter <= 1/20")
    row[q] = np.inf
    if float(row.min()) <= 0.0:
        raise PreconditionError("net tree needs all pairwise distances positive (clamp first)")
    return row


def dp_antichain(tree: NetTree, k: int) -> tuple[float, list[Node]]:
    """Select k tree nodes, none an ancestor of another, maximizing the sum
    of 5^-level values. Returns that sum and the selected nodes.

    The table is computed with exact integer weights (5^(depth-level)), so
    reconstruction can test equality safely.
    """
    n = len(tree.levels[-1])
    if not (1 <= k <= n):
        raise PreconditionError(f"k must satisfy 1 <= k <= n; got k={k}, n={n}")
    depth = tree.depth
    table: dict[Node, list[int]] = {}

    for level in range(depth, -1, -1):
        for p in tree.levels[level]:
            node = (level, p)
            kids = tree.children[node]
            row = [0, 5 ** (depth - level)] + [-1] * (k - 1)
            if kids and k >= 2:
                row[2:] = _fold_children(table, kids, k)[-1][2:]
            table[node] = row

    root = tree.root
    if table[root][k] < 0:
        raise InternalInvariantError("antichain of size k must exist when k <= n")
    return table[root][k] / float(5 ** depth), _reconstruct(tree, table, root, k)


def _fold_children(table: dict[Node, list[int]], kids: list[Node], k: int) -> list[list[int]]:
    """Best totals over the first 1, 2, ... children: entry j of fold i is
    the best sum of j nodes taken from kids[0..i]."""
    folds = [table[kids[0]][:]]
    for child in kids[1:]:
        fold = folds[-1]
        child_row = table[child]
        nxt = [-1] * (k + 1)
        for have in range(k + 1):
            base = fold[have]
            if base < 0:
                continue
            for take in range(0, k + 1 - have):
                add = child_row[take]
                if add < 0:
                    continue
                if base + add > nxt[have + take]:
                    nxt[have + take] = base + add
        folds.append(nxt)
    return folds


def _reconstruct(tree: NetTree, table: dict[Node, list[int]], node: Node, count: int) -> list[Node]:
    if count == 0:
        return []
    level, _ = node
    if count == 1 and table[node][1] == 5 ** (tree.depth - level):
        return [node]
    kids = tree.children[node]
    folds = _fold_children(table, kids, len(table[node]) - 1)
    chosen: list[Node] = []
    remaining = count
    for pos in range(len(kids) - 1, 0, -1):
        child_row = table[kids[pos]]
        prev = folds[pos - 1]
        for take in range(0, remaining + 1):
            if child_row[take] < 0 or prev[remaining - take] < 0:
                continue
            if child_row[take] + prev[remaining - take] == folds[pos][remaining]:
                if take:
                    chosen.extend(_reconstruct(tree, table, kids[pos], take))
                remaining -= take
                break
        else:
            raise InternalInvariantError("dp reconstruction failed to split the fold")
    chosen.extend(_reconstruct(tree, table, kids[0], remaining))
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
    value = pf_cost(ps, points, with_witness=False).value
    solution = DiversitySolution(
        indices=points,
        value=value,
        objective="pseudoforest",
        algorithm="nets",
        seed=None,
    )
    return solution, tree
