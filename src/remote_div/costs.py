"""Exact evaluators for the three subset cost functions.

* minimum-weight perfect matching, via a bitmask dynamic program over the
  F(s+1) masks (a Fibonacci number) that pairing each mask's lowest point
  reaches from the whole set of s points, filled one layer of equal size at
  a time for a batch of subsets at once,
* minimum spanning tree, via a dense Prim scan,
* pseudoforest cost (sum of nearest-neighbor distances), batched likewise,

plus threshold-graph components and the dyadic component sum that
brackets the MST cost, both read off one MST: `threshold_labels` merges
its edges in order of weight to label the components at every radius of
an ascending list. Each cost has one evaluator over distances
(`matching_weights`, `mst_value_and_edges`, `pf_sum`), shared by the subset
reports and the brute-force search. `matching_tables` fills the matching
DP over every mask instead; only `hst`, which reads every even sub-mask,
uses it. The batched evaluators take a square distance matrix `dmat` and
a (B, s) array `members` of row indices into it, one subset per row, and
read the distances they need for the whole batch with one `take` from the
flattened matrix per step; a subset report passes its own s-by-s matrix
and the single row `arange(s)`, the brute-force search its candidates'
matrix and a block of subsets. All evaluators are pure functions over an
immutable point set and an index subset; they read the subset's distances
through `ps.restrict(subset)`, never through the whole dataset's matrix,
and each returns a `SubsetCostReport` with its witness: the matching's
pairs, whose right-nested sum is exactly the value, the MST's edges, or
each member's nearest other member, whose distances summed left to right
are exactly the value.
"""
from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalInvariantError, PreconditionError
from .metric import PointSet

MATCHING_EXACT_CAP = 20


@dataclass(frozen=True)
class SubsetCostReport:
    subset: list[int]
    objective: str
    value: float
    witness: list

    def to_dict(self) -> dict:
        witness = [list(w) for w in self.witness]
        return {"objective": self.objective, "value": self.value, "subset": list(self.subset), "witness": witness}


@dataclass(frozen=True)
class ThresholdComponents:
    radius: float
    component_of: dict[int, int]
    count: int


def as_indices(values) -> list[int]:
    """The entries of `values` as ints; an entry that is not an integral
    number is a PreconditionError, never truncated."""
    out = []
    for v in values:
        try:
            i = int(v)
        except (TypeError, ValueError, OverflowError):
            i = None
        if i is None or i != v:
            raise PreconditionError(f"index {v!r} is not an integer")
        out.append(i)
    return out


def _as_subset(subset, n: int) -> list[int]:
    idx = sorted(as_indices(subset))
    if any(i < 0 or i >= n for i in idx):
        raise PreconditionError(f"subset index out of range for n={n}")
    if len(set(idx)) != len(idx):
        raise PreconditionError("subset indices must be distinct")
    return idx


# ---------------------------------------------------------------------------
# Minimum-weight perfect matching
# ---------------------------------------------------------------------------

def matching_tables(dmat: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Batched DP over every vertex mask: for a (B, s) array `members` of
    row indices into the square matrix `dmat`, tables[b, mask] = min
    perfect-matching weight of the points members[b, p] over the bits p set
    in `mask`. Odd-popcount masks stay at +inf. Only
    `hst.verify_random_subset_bound` reads more than the whole set's entry;
    `matching_weights` gives that entry alone from a small fraction of the
    masks.

    Each mask pairs its lowest point i with every other point j of the mask:
    the candidate is d[i, j] + table[mask without i and j]. Filling masks by
    lowest point from the top down, every candidate's mask is final when read,
    and the masks with lowest point i that hold j are one strided view of the
    table (bits below i clear, bits i and j set), so the DP indexes its table
    with no index arrays. Each candidate is one float addition and min is exact, so every
    entry is the same float whatever order the candidates are visited in.
    Position i's distances to the later positions are read for the whole
    batch with one `take` from the flattened `dmat`, along rows members[:, i].
    """
    batch, s = members.shape
    flat, n, cols = dmat.ravel(), dmat.shape[1], members.T
    tables = np.full((1 << s, batch), np.inf)
    tables[0] = 0.0
    for i in range(s - 2, -1, -1):
        later = flat.take(cols[i] * n + cols[i + 1 :])  # row i: d[i, j] for j > i
        for j in range(i + 1, s):
            # axes: bits above j, bit j, bits between, bit i, bits below i
            view = tables.reshape(1 << (s - 1 - j), 2, 1 << (j - 1 - i), 2, 1 << i, batch)
            target = view[:, 1, :, 1, 0]
            np.minimum(target, later[j - i - 1] + view[:, 0, :, 0, 0], out=target)
    return tables.T


@functools.lru_cache(maxsize=None)
def _matching_plan(s: int) -> tuple:
    """The masks that the recursion from the whole set of s points reaches,
    layer by layer from the pairs up to the whole set: each mask R pairs its
    lowest point i with every other point j of R, so R reaches R without i
    and j. There are F(s+1) of them over all layers, a Fibonacci number.

    A layer is (first, second, child, starts): its candidates (i, j, the
    position of R without i and j in the layer below), grouped by state in
    ascending j, and the offset of each state's group, each in the smallest
    unsigned dtype that holds it; the whole set is the top layer's state 0
    and the empty set the bottom layer's. Built over Python ints, once per
    process per even s.
    """
    masks, layers = [(1 << s) - 1], []
    for _ in range(s // 2):
        first, second, child, starts, below = [], [], [], [], {}
        for mask in masks:
            starts.append(len(first))
            i = (mask & -mask).bit_length() - 1
            rest = sub = mask ^ (1 << i)
            while sub:
                bit = sub & -sub
                sub ^= bit
                first.append(i)
                second.append(bit.bit_length() - 1)
                child.append(below.setdefault(rest ^ bit, len(below)))
        layers.append(tuple(np.array(a, dtype=np.min_scalar_type(max(a))) for a in (first, second, child, starts)))
        masks = list(below)
    return tuple(reversed(layers))


def _matching_layers(dmat: np.ndarray, members: np.ndarray):
    """Yield, from the empty set up to the whole set, the (B, states) min
    perfect-matching weights of the masks `_matching_plan` reaches, for a
    (B, s) array `members` of row indices into the square matrix `dmat`.

    Each reachable mask takes min over j of d[i, j] + f(R without i and j),
    the float addition and the exact min of `matching_tables`, so every
    value is that table's entry bit for bit. A layer reads its candidates'
    distances for the whole batch with one `take` from the flattened `dmat`.
    """
    flat, n = dmat.ravel(), dmat.shape[1]
    values = np.zeros((members.shape[0], 1))
    yield values
    for first, second, child, starts in _matching_plan(members.shape[1]):
        at = members[:, first]
        at *= n
        at += members[:, second]
        candidates = flat.take(at)
        candidates += values[:, child]
        values = np.minimum.reduceat(candidates, starts, axis=1)
        yield values


def matching_weights(dmat: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Batched min perfect-matching weight: for a (B, s) array `members` of
    row indices into the square matrix `dmat`, the weight of each row's
    points; +inf for odd s, which has no perfect matching."""
    if members.shape[1] % 2:
        return np.full(members.shape[0], np.inf)
    for values in _matching_layers(dmat, members):  # holds one layer at a time
        pass
    return values[:, 0]


def _matching_witness(d: np.ndarray, layers: list[np.ndarray]) -> list[tuple[int, int]]:
    """Recover one optimal pairing (local indices) by replaying the
    recursion from the whole set: at each reached mask, the first j,
    ascending, whose d[i, j] plus its remainder's weight gives the mask's."""
    plan, state, pairs = _matching_plan(d.shape[0]), 0, []
    for m in range(len(plan), 0, -1):
        first, second, child, starts = plan[m - 1]
        end = starts[state + 1] if state + 1 < len(starts) else len(first)
        for c in range(starts[state], end):
            i, j, rest = first[c], second[c], child[c]
            if d[i, j] + layers[m - 1][0, rest] == layers[m][0, state]:
                break
        else:
            raise InternalInvariantError("matching witness reconstruction failed")
        pairs.append((int(i), int(j)))
        state = int(rest)
    return pairs


def matching_value(rows) -> float:
    """Min perfect-matching weight of the points whose distance rows are given."""
    s = len(rows)
    dmat = np.asarray(rows, dtype=np.float64).reshape(s, s)
    return float(matching_weights(dmat, np.arange(s)[None])[0])


def mwm_exact(ps: PointSet, subset) -> SubsetCostReport:
    """Exact minimum-weight perfect matching cost of an even subset.

    Raises on odd subsets and on subsets above MATCHING_EXACT_CAP, which
    signals the caller to shrink the instance.
    """
    idx = _as_subset(subset, ps.n)
    if len(idx) % 2 != 0:
        raise PreconditionError(f"matching needs an even subset; got size {len(idx)}")
    if len(idx) > MATCHING_EXACT_CAP:
        raise PreconditionError(
            f"subset size {len(idx)} exceeds exact matching cap {MATCHING_EXACT_CAP}"
        )
    if len(idx) == 0:
        return SubsetCostReport(idx, "mwm", 0.0, [])
    d = ps.restrict(idx).distance_matrix()
    layers = list(_matching_layers(d, np.arange(len(idx))[None]))
    # Pairs come lowest point first, in ascending order, over a sorted idx, so
    # the witness is sorted and its right-nested sum is exactly the value.
    witness = [(idx[a], idx[b]) for a, b in _matching_witness(d, layers)]
    return SubsetCostReport(idx, "mwm", float(layers[-1][0, 0]), witness)


# ---------------------------------------------------------------------------
# Minimum spanning tree
# ---------------------------------------------------------------------------

def mst_value_and_edges(rows: list[list[float]]) -> tuple[float, list[tuple[int, int]]]:
    """Dense Prim over a complete graph given as distance rows."""
    s = len(rows)
    if s == 1:
        return 0.0, []
    in_tree = [False] * s
    best = rows[0][:]
    best_from = [0] * s
    in_tree[0] = True
    best[0] = math.inf
    total = 0.0
    edges = []
    for _ in range(s - 1):
        u = -1
        u_key = math.inf
        for v in range(s):
            if not in_tree[v] and best[v] < u_key:
                u_key = best[v]
                u = v
        if u < 0:
            raise InternalInvariantError("Prim scan ran out of reachable vertices")
        in_tree[u] = True
        total += u_key
        edges.append((min(u, best_from[u]), max(u, best_from[u])))
        row = rows[u]
        for v in range(s):
            if not in_tree[v] and row[v] < best[v]:
                best[v] = row[v]
                best_from[v] = u
    return total, edges


def mst_cost(ps: PointSet, subset) -> SubsetCostReport:
    """Minimum spanning tree weight over the induced complete graph."""
    idx = _as_subset(subset, ps.n)
    if len(idx) < 1:
        raise PreconditionError("mst needs a nonempty subset")
    rows = ps.restrict(idx).distance_matrix().tolist()
    value, edges = mst_value_and_edges(rows)
    return SubsetCostReport(idx, "mst", value, sorted((idx[a], idx[b]) for a, b in edges))


# ---------------------------------------------------------------------------
# Pseudoforest cost
# ---------------------------------------------------------------------------

def pf_sum(dmat: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Batched pseudoforest cost: for a (B, s) array `members` of row
    indices into the square matrix `dmat`, the sum over each row's points
    of the distance to its nearest other point. Position a's distances are
    read for the whole batch with one `take` from the flattened `dmat`,
    along rows members[:, a], and the positions are added left to right,
    one float addition each."""
    batch, s = members.shape
    flat, n, cols = dmat.ravel(), dmat.shape[1], members.T
    total = np.zeros(batch)
    for a in range(s):
        row = flat.take(cols[a] * n + cols)  # (s, B): d[a, b] for every b
        row[a] = np.inf
        total += row.min(axis=0)
    return total


def pf_cost(ps: PointSet, subset) -> SubsetCostReport:
    """Sum over subset members of the distance to the nearest other member."""
    idx = _as_subset(subset, ps.n)
    if len(idx) < 2:
        raise PreconditionError("pseudoforest cost needs at least 2 points")
    d = ps.restrict(idx).distance_matrix()
    # The nearest other member, lowest position on ties, a row at a time, so
    # the witness adds no second s-by-s array.
    witness = []
    for a, row in enumerate(d):
        row = row.copy()
        row[a] = np.inf
        witness.append((idx[a], idx[int(row.argmin())]))
    return SubsetCostReport(idx, "pf", float(pf_sum(d, np.arange(len(idx))[None])[0]), witness)


# ---------------------------------------------------------------------------
# Threshold graphs
# ---------------------------------------------------------------------------

def threshold_labels(dmat: np.ndarray, radii) -> np.ndarray:
    """labels[i, a] is the lowest position joined to position a in the graph
    that joins pairs at distance <= radii[i], for ascending `radii`.

    That graph has the components of the MST edges of weight <= r, so one
    Prim pass answers every radius: its edges are merged in order of weight
    while the radii rise, each merge relabelling the higher label to the lower.
    """
    rows = dmat.tolist()
    edges = sorted(mst_value_and_edges(rows)[1], key=lambda e: rows[e[0]][e[1]])
    label = np.arange(len(rows))
    labels = np.empty((len(radii), len(rows)), dtype=np.int64)
    for i, r in enumerate(radii):
        while edges and rows[edges[0][0]][edges[0][1]] <= r:
            lo, hi = sorted(label[list(edges.pop(0))])
            label[label == hi] = lo
        labels[i] = label
    return labels


def threshold_components(ps: PointSet, subset, r: float) -> ThresholdComponents:
    """Connected components of the graph joining pairs at distance <= r.

    Component ids are the smallest member index of each component.
    """
    idx = _as_subset(subset, ps.n)
    if len(idx) < 1:
        raise PreconditionError("need at least one point")
    if not r >= 0:
        raise PreconditionError("radius must be nonnegative")
    label = threshold_labels(ps.restrict(idx).distance_matrix(), [r])[0]
    component_of = {p: idx[a] for p, a in zip(idx, label.tolist())}
    return ThresholdComponents(float(r), component_of, len(set(component_of.values())))


def mst_component_sum(ps: PointSet, subset) -> float:
    """Sum over dyadic radii 2^i of 2^i * (components(2^i) - 1).

    The threshold graph at radius r has s - #{MST edges <= r} components,
    so one Prim pass gives every count. The window of radii that can change
    the count runs from just below the lightest MST edge (the minimum
    pairwise distance) up to the heaviest; radii below the window all leave
    every point isolated and contribute a closed-form geometric tail, radii
    above contribute zero. The MST weight of the subset always lies in
    [1/2, 1] times this sum.
    """
    idx = _as_subset(subset, ps.n)
    if len(idx) < 2:
        raise PreconditionError("component sum needs at least 2 points")
    rows = ps.restrict(idx).distance_matrix().tolist()
    s = len(idx)
    _value, edges = mst_value_and_edges(rows)
    weights = sorted(rows[a][b] for a, b in edges)
    if weights[0] <= 0.0:
        raise PreconditionError("component sum undefined for coincident points")
    lo = math.floor(math.log2(weights[0])) - 1
    hi = math.ceil(math.log2(weights[-1]))
    total = math.ldexp(1.0, lo) * (s - 1)  # tail: all radii below 2^lo leave s singletons
    for i in range(lo, hi + 1):
        radius = math.ldexp(1.0, i)
        total += radius * (s - bisect.bisect_right(weights, radius) - 1)
    return total
