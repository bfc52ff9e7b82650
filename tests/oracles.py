"""Independent reference implementations used to check the package.

These deliberately use different algorithms from the library code: perfect
matchings are enumerated pairing by pairing, spanning trees come from
Prüfer sequences, and antichain selection is a pruned exhaustive search.
The per-mask matching DP, the per-subset pseudoforest sum and the
per-subset brute force are the pure-Python loops the batched evaluators
replaced; they do the same float additions, so results must agree bit for
bit. The per-subset brute force can also visit the subsets in a shuffled
order, so the batched one is checked against an order it never uses. The
triangle scan checks one pivot at a time over the whole matrix, as matrix
validation did before it ran in row blocks. The same-cell
padding is the greedy that rescans the cells for every pair it appends.
The farthest-point traversal keeps a distance array with the centers at 0
beside a masked copy it selects from, and the Voronoi cells are Python
lists grouped point by point, as `gmm` and `voronoi_partition` did before
one array held each. The grid and cluster generators place points one at a
time, as `generators` did before it placed them with array arithmetic.
The net tree is grown on the whole clamped matrix to a depth taken from the
smallest distance, with a separate parent pass, as the solver grew it
before it read one row per joining point and stopped at the first full
level; it keeps its parents in a dict keyed by (level, point) and encodes
its own JSON, which `NetTree.to_json` must match byte for byte. Euclidean
rows come one at a time from the row kernel that blocks of rows replaced,
and `diameter` and the smallest distance reduce over them. The
pseudoforest coreset reads the whole n-by-n matrix: radii and far counts
over its rows, the dense-ball scan row by row and the peel's
distances to S as columns, as it did before it read blocks of rows.
Threshold-graph components come from a union-find over every pair within
the radius, not from an MST, and tree distances from walking each pair of
points down the hierarchy's levels one at a time, as `costs` and `hst`
computed them before every radius was read off one MST pass and every
distance off one broadcast over the labels.
The antichain DP pads every row to k+1 entries with -1 where a subtree has
too few leaves and skips those entries in its fold and reconstruction, as
`dp_antichain` did before its rows stopped at the subtree's leaf count; the
two must select the same nodes for the same value bits.
The random-subset bound builds one generator per trial and fixes each
draw's parity on a list, as `verify` did before it drew every trial's coins
in one Philox block and fixed parity with masks. `stream_rng` is numpy's own
generator over Philox keyed by (seed, stream), which the package once drew
from: the tests draw their data from it, and `rng.uniforms` and the raw
words the integer rule reads are pinned against it.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from remote_div.coresets import Coreset, StPair
from remote_div.errors import InternalInvariantError, PreconditionError
from remote_div.gmm import gmm
from remote_div.hst import Hst, SubsetBoundStats
from remote_div.nets import _MAX_DEPTH, TARGET_DIAMETER, NetTree
from remote_div.metric import VALIDATION_RTOL, PointSet
from remote_div.rng import SPLIT_STREAM, uniforms


def stream_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """numpy's Generator over Philox keyed by (seed, stream)."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def mwm_by_pairings(rows: list[list[float]]) -> float:
    """Minimum perfect-matching weight by enumerating all pairings."""
    points = list(range(len(rows)))
    if len(points) % 2 != 0:
        raise ValueError("need an even number of points")

    def recurse(remaining: tuple[int, ...]) -> float:
        if not remaining:
            return 0.0
        first = remaining[0]
        rest = remaining[1:]
        best = math.inf
        for pos, partner in enumerate(rest):
            sub = rest[:pos] + rest[pos + 1 :]
            cost = rows[first][partner] + recurse(sub)
            if cost < best:
                best = cost
        return best

    return recurse(tuple(points))


def matching_table(rows: list[list[float]]) -> list[float]:
    """Matching DP one mask at a time: table[mask] = min perfect-matching
    weight of the points selected by `mask`; odd-popcount masks stay +inf."""
    s = len(rows)
    table = [math.inf] * (1 << s)
    table[0] = 0.0
    for mask in range(1, 1 << s):
        if mask.bit_count() % 2 == 1:
            continue
        i = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << i)
        best = math.inf
        sub = rest
        while sub:
            j = (sub & -sub).bit_length() - 1
            sub ^= 1 << j
            cand = rows[i][j] + table[rest ^ (1 << j)]
            if cand < best:
                best = cand
        table[mask] = best
    return table


def even_subset_by_list(centers: list[int], coins) -> list[int]:
    """Centers whose coin is below 1/2; an odd draw drops its largest index."""
    drawn = [c for c, coin in zip(centers, coins) if coin < 0.5]
    if len(drawn) % 2 == 1:
        drawn.remove(max(drawn))
    return sorted(drawn)


def random_subset_bound_by_draws(ps, members, trials: int, seed: int) -> SubsetBoundStats:
    """`verify_random_subset_bound` one trial at a time: stream t's coins, the
    list parity fix, and a bitmask into the per-mask matching table."""
    mem = sorted(int(i) for i in members)
    table = matching_table(ps.restrict(mem).distance_matrix().tolist())
    best = max(v for v in table if v != math.inf)
    pos = {p: i for i, p in enumerate(mem)}
    values = np.empty(trials, dtype=np.float64)
    for t in range(trials):
        z = even_subset_by_list(mem, stream_rng(seed, t).random(len(mem)))
        values[t] = table[sum(1 << pos[p] for p in z)]
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(trials))
    return SubsetBoundStats(trials, mean, stderr, best, mean / best if best > 0 else 1.0)


class UnionFind:
    """Array-based union-find with path compression; a root is the smallest
    index of its set."""

    __slots__ = ("parent",)

    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, a: int) -> int:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


def threshold_components_by_pairs(ps, subset, r: float) -> dict[int, int]:
    """Components of the graph joining the pairs of `subset` at distance <= r,
    as {point: smallest point of its component}."""
    idx = sorted(subset)
    rows = ps.restrict(idx).distance_matrix().tolist()
    uf = UnionFind(len(idx))
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            if rows[a][b] <= r:
                uf.union(a, b)
    return {p: idx[uf.find(a)] for a, p in enumerate(idx)}


def hst_distance_matrix_by_walk(hst: Hst) -> np.ndarray:
    """Tree distances by position: each pair walks down the levels while it
    shares a component, to the deepest shared level t, and is 2*(2^-t - 2^-d)
    apart, or 0 if it shares the last level."""
    labels, depth = hst.labels.tolist(), hst.depth
    out = np.zeros((len(hst.points), len(hst.points)))
    for a in range(len(hst.points)):
        for b in range(a + 1, len(hst.points)):
            if labels[depth][a] == labels[depth][b]:
                continue
            t = 0
            while t + 1 <= depth and labels[t + 1][a] == labels[t + 1][b]:
                t += 1
            out[a, b] = out[b, a] = 2.0 * (2.0 ** (-t) - 2.0 ** (-depth))
    return out


def pf_sum_loop(rows: list[list[float]], members) -> float:
    """Sum over `members` of the distance to the nearest other member."""
    total = 0.0
    for a in members:
        nn = math.inf
        for b in members:
            if b != a and rows[a][b] < nn:
                nn = rows[a][b]
        total += nn
    return total


def brute_force_loop(
    rows: list[list[float]], k: int, objective: str, order_seed: int | None = None
) -> tuple[list[int], float, int]:
    """Best k-subset (positions into `rows`) by scoring one subset at a
    time, in lexicographic order or, with `order_seed`, in the order of
    numpy's shuffle keyed by (order_seed, SPLIT_STREAM); ties go to the
    lexicographically first subset either way. Also returns how many
    subsets attain the best value."""
    combos = list(itertools.combinations(range(len(rows)), k))
    order = range(len(combos))
    if order_seed is not None:
        order = stream_rng(order_seed, SPLIT_STREAM).permutation(len(combos)).tolist()
    best_value, best_rank, ties = -math.inf, len(combos), 0
    for rank in order:
        combo = combos[rank]
        if objective == "matching":
            value = matching_table([[rows[a][b] for b in combo] for a in combo])[-1]
        else:
            value = pf_sum_loop(rows, combo)
        if value > best_value:
            best_value, best_rank, ties = value, rank, 0
        if value == best_value:
            best_rank, ties = min(best_rank, rank), ties + 1
    return list(combos[best_rank]), best_value, ties


def mst_by_pruefer(rows: list[list[float]]) -> float:
    """Minimum spanning tree weight by enumerating all labeled trees.

    Feasible for up to ~7 points (s^(s-2) trees).
    """
    s = len(rows)
    if s == 1:
        return 0.0
    if s == 2:
        return rows[0][1]
    best = math.inf
    for seq in itertools.product(range(s), repeat=s - 2):
        edges = _pruefer_to_edges(seq, s)
        cost = sum(rows[a][b] for a, b in edges)
        if cost < best:
            best = cost
    return best


def _pruefer_to_edges(seq: tuple[int, ...], s: int) -> list[tuple[int, int]]:
    degree = [1] * s
    for v in seq:
        degree[v] += 1
    edges = []
    remaining = list(seq)
    leaves = sorted(v for v in range(s) if degree[v] == 1)
    for v in remaining:
        leaf = leaves.pop(0)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            # Keep the leaf pool sorted so the construction is canonical.
            lo, hi = 0, len(leaves)
            while lo < hi:
                mid = (lo + hi) // 2
                if leaves[mid] < v:
                    lo = mid + 1
                else:
                    hi = mid
            leaves.insert(lo, v)
    edges.append((leaves[0], leaves[1]))
    return edges


def max_antichain_value(tree: NetTree, k: int) -> float:
    """Best sum of 5^-level over k-node antichains, by pruned search."""
    nodes = [(lvl, pos) for lvl, members in enumerate(tree.levels) for pos in range(len(members))]
    values = [5.0 ** (-lvl) for lvl, _ in nodes]

    ancestors: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for node in nodes:
        chain = set()
        lvl, pos = node
        while lvl > 0:
            lvl, pos = lvl - 1, int(tree.parents[lvl - 1][pos])
            chain.add((lvl, pos))
        ancestors[node] = chain

    order = sorted(range(len(nodes)), key=lambda i: -values[i])
    best = -math.inf
    # Depth-first with an explicit stack (a deep tree has more nodes than
    # the recursion limit), taking each node before skipping it.
    stack: list[tuple[int, tuple[int, ...], float]] = [(0, (), 0.0)]
    while stack:
        pos, taken, total = stack.pop()
        if len(taken) == k:
            best = max(best, total)
            continue
        need = k - len(taken)
        if len(order) - pos < need:
            continue
        # Optimistic bound: grab the next `need` values ignoring structure.
        bound = total + sum(values[order[i]] for i in range(pos, pos + need))
        if bound <= best:
            continue
        idx = order[pos]
        node = nodes[idx]
        stack.append((pos + 1, taken, total))
        compatible = all(
            node not in ancestors[nodes[t]] and nodes[t] not in ancestors[node] and nodes[t] != node
            for t in taken
        )
        if compatible:
            stack.append((pos + 1, taken + (idx,), total + values[idx]))
    return best


def padded_dp_antichain(tree: NetTree, k: int) -> tuple[float, list[tuple[int, int]]]:
    """The antichain DP over rows of k+1 entries, -1 marking a count its
    subtree cannot reach."""
    n = len(tree.levels[-1])
    if not (1 <= k <= n):
        raise PreconditionError(f"k must satisfy 1 <= k <= n; got k={k}, n={n}")
    depth = tree.depth
    table: list[list[list[int]]] = [[] for _ in range(depth)] + [[[0, 1] + [-1] * (k - 1)] * n]
    kids: list[list[np.ndarray]] = [[] for _ in range(depth)]
    for level in range(depth - 1, -1, -1):
        below = tree.parents[level]
        order = np.argsort(below, kind="stable")
        kids[level] = np.split(order, np.searchsorted(below[order], np.arange(1, len(tree.levels[level]))))
        for group in kids[level]:
            row = [0, 5 ** (depth - level)] + [-1] * (k - 1)
            if len(group) and k >= 2:
                row[2:] = _padded_folds([table[level + 1][j] for j in group.tolist()], k)[-1][2:]
            table[level].append(row)
    if table[0][0][k] < 0:
        raise InternalInvariantError("antichain of size k must exist when k <= n")
    return table[0][0][k] / float(5 ** depth), _padded_reconstruct(tree, table, kids, 0, 0, k)


def _padded_folds(child_rows: list[list[int]], k: int) -> list[list[int]]:
    folds = [child_rows[0][:]]
    for child_row in child_rows[1:]:
        fold = folds[-1]
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


def _padded_reconstruct(tree: NetTree, table, kids, level: int, pos: int, count: int) -> list[tuple[int, int]]:
    if count == 0:
        return []
    row = table[level][pos]
    if count == 1 and row[1] == 5 ** (tree.depth - level):
        return [(level, tree.levels[level][pos])]
    group = kids[level][pos].tolist()
    child_rows = [table[level + 1][j] for j in group]
    folds = _padded_folds(child_rows, len(row) - 1)
    chosen: list[tuple[int, int]] = []
    remaining = count
    for i in range(len(group) - 1, 0, -1):
        child_row = child_rows[i]
        prev = folds[i - 1]
        for take in range(0, remaining + 1):
            if child_row[take] < 0 or prev[remaining - take] < 0:
                continue
            if child_row[take] + prev[remaining - take] == folds[i][remaining]:
                if take:
                    chosen.extend(_padded_reconstruct(tree, table, kids, level + 1, group[i], take))
                remaining -= take
                break
        else:
            raise InternalInvariantError("dp reconstruction failed to split the fold")
    chosen.extend(_padded_reconstruct(tree, table, kids, level + 1, group[0], remaining))
    chosen.sort()
    return chosen


def symmetrized(a: np.ndarray) -> np.ndarray:
    """The matrix validation checks and stores: each entry averaged with
    its transpose, floored at 0, with a zero diagonal."""
    out = np.maximum((a + a.T) / 2.0, 0.0)
    np.fill_diagonal(out, 0.0)
    return out


def triangle_violation_scan(arr: np.ndarray, tol: float) -> tuple[int, int, int] | None:
    """First (i, j, l) with arr[i, l] - (arr[i, j] + arr[j, l]) > tol, taking
    pivots j in order and (i, l) row-major within one; None if none."""
    for j in range(arr.shape[0]):
        slack = arr - (arr[:, j][:, None] + arr[None, j, :])
        bad = np.argwhere(slack > tol)
        if bad.size:
            i, l = (int(v) for v in bad[0])
            return i, j, l
    return None


def fill_same_cell_pairs(selected: list[int], blocked: set[int], cells: list[list[int]], target: int) -> list[int]:
    """Append same-cell pairs from outside `blocked` until `selected` has
    `target` points: each step rescans the cells in order and takes the two
    lowest-index free points of the first cell that has two."""
    result = list(selected)
    blocked = set(blocked) | set(result)
    if (target - len(result)) % 2 != 0:
        raise ValueError("parity mismatch: cannot reach target with pairs")
    while len(result) < target:
        pair = None
        for members in cells:
            free = [i for i in members if i not in blocked]
            if len(free) >= 2:
                pair = free[:2]
                break
        if pair is None:
            raise ValueError("no same-cell pair available")
        result.extend(pair)
        blocked.update(pair)
    return result


def gmm_by_two_arrays(ps, k: int, start: int = 0) -> tuple[list[int], list[float]]:
    """Centers and step radii of the farthest-point traversal, with the
    covering distances (0 at the centers) and a masked copy to select from."""
    centers = [start]
    dist_to_centers = ps.distances_from(start)
    dist_to_centers[start] = 0.0
    selectable = dist_to_centers.copy()
    selectable[start] = -np.inf
    step_radii = [float(dist_to_centers.max())]
    for _ in range(1, k):
        nxt = int(np.argmax(selectable))
        centers.append(nxt)
        d = ps.distances_from(nxt)
        d[nxt] = 0.0
        np.minimum(dist_to_centers, d, out=dist_to_centers)
        np.minimum(selectable, d, out=selectable)
        selectable[nxt] = -np.inf
        step_radii.append(float(dist_to_centers.max()))
    return centers, step_radii


def voronoi_cells_by_lists(ps, centers: list[int]) -> tuple[np.ndarray, list[list[int]]]:
    """Each point's cell rank (lowest rank on ties, every center in its own
    cell) and each cell's points in ascending order, grouped point by point."""
    best = ps.distances_from(centers[0])
    cell = np.zeros(ps.n, dtype=np.int64)
    for rank, c in enumerate(centers[1:], start=1):
        d = ps.distances_from(c)
        cell[d < best] = rank
        np.minimum(best, d, out=best)
    for rank, c in enumerate(centers):
        cell[c] = rank
    cells: list[list[int]] = [[] for _ in centers]
    for i in range(ps.n):
        cells[int(cell[i])].append(i)
    return cell, cells


def clusters_by_loop(n: int, dim: int, seed: int, clusters: int, separation: float, width: float) -> PointSet:
    """`make_clusters`, shifting one point at a time."""
    offsets = uniforms(seed, [0], n * dim).reshape(n, dim) * width - width / 2.0
    coords = offsets.copy()
    for i in range(n):
        coords[i, 0] += (i % clusters) * separation
    return PointSet.from_coords(coords)


def grid_by_loops(n: int, dim: int, spacing: float = 1.0) -> PointSet:
    """`make_grid`, one point and one axis at a time."""
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


@dataclass(frozen=True)
class DictNetTree:
    """A net tree whose parents are a dict keyed by (level, point)."""

    levels: list[list[int]]
    parent: dict[tuple[int, int], tuple[int, int]]

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def to_json(self) -> str:
        parents = {f"{p}@{lvl}": f"{pp}@{plvl}" for (lvl, p), (plvl, pp) in sorted(self.parent.items())}
        return json.dumps({"levels": self.levels, "parents": parents})


def net_tree_of(levels: list[list[int]], parent: dict[tuple[int, int], tuple[int, int]]) -> NetTree:
    """The `NetTree` with these levels and (level, point) parents."""
    parents = []
    for level in range(1, len(levels)):
        position = {p: i for i, p in enumerate(levels[level - 1])}
        parents.append(np.array([position[parent[(level, p)][1]] for p in levels[level]], dtype=np.int64))
    return NetTree(levels=levels, parents=parents)


def net_tree_by_matrix(metric, root: int = 0) -> DictNetTree:
    """Nested greedy nets on the dense clamped matrix, down to level
    ceil(-log5 of the smallest distance), which holds every point."""
    n = metric.n
    if not (0 <= root < n):
        raise PreconditionError(f"root index {root} out of range for n={n}")
    if n == 1:
        return DictNetTree(levels=[[root]], parent={})
    dmat = np.maximum(metric.base.distance_matrix() * metric.scale, metric.floor)
    np.fill_diagonal(dmat, 0.0)
    if float(dmat.max()) > TARGET_DIAMETER * (1.0 + 1e-12):
        raise PreconditionError("net tree expects a metric rescaled to diameter <= 1/20")

    np.fill_diagonal(dmat, np.inf)
    min_dist = float(dmat.min())
    np.fill_diagonal(dmat, 0.0)
    if min_dist <= 0.0:
        raise PreconditionError("net tree needs all pairwise distances positive (clamp first)")
    depth = max(0, math.ceil(-math.log(min_dist, 5)))
    if depth > _MAX_DEPTH:
        raise PreconditionError(
            f"smallest scaled distance {min_dist!r} needs more than {_MAX_DEPTH} net levels"
        )

    in_net = np.zeros(n, dtype=bool)
    in_net[root] = True
    mind = dmat[root].copy()
    levels = [[root]]
    for level in range(1, depth + 1):
        sep = 5.0 ** (-level) / 20.0
        for q in range(n):
            if not in_net[q] and mind[q] >= sep:
                in_net[q] = True
                np.minimum(mind, dmat[q], out=mind)
        levels.append([q for q in range(n) if in_net[q]])
    if len(levels[-1]) < n:
        raise InternalInvariantError("net tree failed to absorb all points")

    parent = {}
    for level in range(1, depth + 1):
        prev = levels[level - 1]
        prev_arr = np.asarray(prev)
        prev_set = set(prev)
        for p in levels[level]:
            if p in prev_set:
                parent[(level, p)] = (level - 1, p)
            else:
                col = dmat[p, prev_arr]
                parent[(level, p)] = (level - 1, int(prev_arr[int(np.argmin(col))]))
    return DictNetTree(levels=levels, parent=parent)


def cut_net_tree(tree: DictNetTree, depth: int) -> DictNetTree:
    """`tree` without its levels below `depth`."""
    return DictNetTree(tree.levels[: depth + 1], {node: par for node, par in tree.parent.items() if node[0] <= depth})


def euclidean_rows(coords: np.ndarray) -> np.ndarray:
    """Every point's distance row, each from its own kernel call."""
    rows = []
    for center in coords:
        diff = coords - center
        rows.append(np.sqrt(np.einsum("ij,ij->i", diff, diff)))
    return np.asarray(rows)


def diameter_by_rows(ps) -> float:
    return max(float(ps.distances_from(i).max()) for i in range(ps.n))


def min_offdiag_by_rows(ps) -> float:
    best = math.inf
    for i in range(ps.n):
        row = ps.distances_from(i)
        row[i] = math.inf
        best = min(best, float(row.min()))
    return best


def k_outlier_radius_by_matrix(dmat: np.ndarray, k: int) -> tuple[int, float]:
    n = dmat.shape[0]
    radii = np.array([np.partition(row, n - k - 1)[n - k - 1] for row in dmat])
    center = int(np.argmin(radii))
    return center, float(radii[center])


def find_separated_sets_by_matrix(ps, k: int, epsilon: float, radius: float) -> StPair:
    n = ps.n
    dmat = ps.distance_matrix()
    far_counts = (dmat >= radius).sum(axis=1)
    if int(far_counts.min()) < k:
        raise PreconditionError(
            "radius guarantee violated: some point has fewer than k points at distance >= radius"
        )
    r_sep = epsilon * radius / 2.0
    for x in range(n):
        near = np.nonzero(dmat[x] <= radius / 2.0)[0]
        if len(near) >= k:
            s = [int(i) for i in near[:k]]
            t = [int(i) for i in np.nonzero(dmat[x] >= radius)[0] if int(i) not in set(s)][:k]
            if len(t) < k:
                raise InternalInvariantError("far-point pool shrank below k in dense branch")
            return StPair(sorted(s), sorted(t), float(dmat[np.ix_(s, t)].min()), "dense")
    growth_cap = float(k) ** epsilon
    max_step = int(np.floor(1.0 / epsilon + 1e-12))
    alive = np.ones(n, dtype=bool)
    peeled: list[int] = []
    while len(peeled) < k:
        alive_idx = np.nonzero(alive)[0]
        if len(alive_idx) == 0:
            raise InternalInvariantError("peeling exhausted the dataset before k points")
        drow = dmat[int(alive_idx[0])]
        counts = [int(np.count_nonzero(alive & (drow <= step * r_sep))) for step in range(max_step + 2)]
        chosen_step = -1
        for step in range(max_step + 1):
            if counts[step + 1] <= growth_cap * counts[step]:
                chosen_step = step
                break
        if chosen_step < 0:
            raise InternalInvariantError("no annulus with bounded growth; peeling cannot proceed")
        if counts[chosen_step] > k:
            raise InternalInvariantError("annulus unexpectedly larger than k")
        for i in np.nonzero(alive & (drow <= chosen_step * r_sep))[0]:
            alive[i] = False
            peeled.append(int(i))
    s = peeled[:k]
    min_to_s = dmat[:, np.asarray(s)].min(axis=1)
    t = [int(i) for i in np.nonzero(min_to_s >= r_sep)[0] if int(i) not in set(s)][:k]
    if len(t) < k:
        raise InternalInvariantError("fewer than k points stayed clear of the peeled set")
    return StPair(sorted(s), sorted(t), float(dmat[np.ix_(s, t)].min()), "peel")


def pf_coreset_by_matrix(ps, k: int, epsilon: float, gmm_start: int = 0, part_id: int = 0) -> tuple[Coreset, StPair]:
    """The coreset of a part at or above the size threshold, and its S/T pair."""
    n = ps.n
    dmat = ps.distance_matrix()
    centers = gmm(ps, k, gmm_start).centers
    x, radius = k_outlier_radius_by_matrix(dmat, k)
    u_block = sorted(int(i) for i in np.lexsort((np.arange(n), -dmat[x]))[:k])
    p_block = [int(i) for i in np.nonzero(dmat[x] <= radius)[0][:k]]
    if len(p_block) < k:
        raise InternalInvariantError("ball around the outlier center holds fewer than k points")
    pair = find_separated_sets_by_matrix(ps, k, epsilon, radius)
    blocks = {"P": p_block, "S": pair.s, "T": pair.t, "U": u_block, "Y": sorted(centers)}
    indices = sorted(set().union(*blocks.values()))
    return Coreset(part_id, indices, "pseudoforest", k, False, blocks), pair


_ROW_BLOCK = 64


def dense_validated(matrix) -> np.ndarray:
    """The matrix validation before the triangle storage: one float64 copy
    of `matrix`, checked and cleaned in place, dense, a block of 64 rows at
    a time; a PreconditionError names its first defect."""
    arr = np.array(matrix, dtype=np.float64)
    _dense_validate(arr)
    return arr


def _dense_validate(arr: np.ndarray) -> None:
    """Check the square float64 matrix `arr` and clean it in place: the
    entries are made exactly symmetric, nonnegative and zero on the
    diagonal. Every pass runs over blocks of `_ROW_BLOCK` rows, so none
    allocates an n-by-n temporary unless it raises."""
    n = arr.shape[0]
    top, least = float(arr.max()), float(arr.min())
    # NaN propagates through both extremes, and an infinity shows in one.
    if not (math.isfinite(top) and math.isfinite(least)):
        raise PreconditionError("distance matrix entries must be finite")
    tol = VALIDATION_RTOL * max(top, -least)
    if least < -tol:
        i, j = (int(v) for v in np.argwhere(arr < -tol)[0])
        raise PreconditionError(f"negative distance at ({i},{j}): {arr[i, j]}")
    # arr[i, j] - arr[j, i] is exactly the negation of arr[j, i] - arr[i, j],
    # so the first asymmetric pair in row-major order has i < j: it lies in
    # its block's rows, right of the diagonal, read against the columns.
    for s in range(0, n, _ROW_BLOCK):
        diff = np.subtract(arr[s : s + _ROW_BLOCK, s:], arr[s:, s : s + _ROW_BLOCK].T)
        np.abs(diff, out=diff)
        if diff.max() > tol:
            i, j = (s + int(v) for v in np.argwhere(diff > tol)[0])
            raise PreconditionError(f"asymmetric distances at ({i},{j}): {arr[i, j]} vs {arr[j, i]}")
    diag = np.abs(np.diagonal(arr))
    if diag.max(initial=0.0) > tol:
        i = int(np.argmax(diag))
        raise PreconditionError(f"nonzero diagonal at ({i},{i}): {arr[i, i]}")
    # No entry is below -tol now, so if twice the largest is finite, so is
    # every sum below: the cleaning's and each pivot sum of the triangle check.
    if not math.isfinite(2.0 * top):
        raise PreconditionError("distance matrix entries too large: sums of two distances overflow")
    # Normalize round-trip noise, then check the triangle inequality exactly
    # once on the cleaned matrix, which is exactly symmetric. A block's
    # upper rows and their mirror columns are read before either is written,
    # and no later block reads them.
    for s in range(0, n, _ROW_BLOCK):
        mean = np.add(arr[s : s + _ROW_BLOCK, s:], arr[s:, s : s + _ROW_BLOCK].T)
        mean /= 2.0
        np.maximum(mean, 0.0, out=mean)
        arr[s : s + _ROW_BLOCK, s:] = mean
        arr[s:, s : s + _ROW_BLOCK] = mean.T
    np.fill_diagonal(arr, 0.0)
    flagged = _dense_violating_blocks(arr, tol)
    if flagged:
        # Name the first violation: lowest j, then row-major (i, l). Its pair
        # has i < l (the difference is never positive for i = l), and the
        # i <= l copy of every violating pair lies in a flagged block, so the
        # flagged rows, read in order, hold it.
        rows = np.concatenate([np.arange(s, min(s + _ROW_BLOCK, n)) for s in flagged])
        flagged_rows = arr[rows]
        for j in range(n):
            bad = np.argwhere(flagged_rows - (flagged_rows[:, j, None] + arr[j]) > tol)
            if bad.size:
                i, l = int(rows[bad[0, 0]]), int(bad[0, 1])
                raise PreconditionError(
                    f"triangle inequality violated for ({i},{j},{l}): "
                    f"{arr[i, l]} > {arr[i, j]} + {arr[j, l]}"
                )
        raise InternalInvariantError("blocked triangle check found a violation the pivot scan does not")


def _dense_violating_blocks(arr: np.ndarray, tol: float) -> list[int]:
    """Starts s of the blocks of `_ROW_BLOCK` rows holding a row i with
    arr[i, l] - (arr[i, j] + arr[j, l]) > tol for some pivot j and some
    l >= s; empty when `arr` satisfies the triangle inequality within tol.

    `arr` is exactly symmetric, so (i, j, l) violates iff (l, j, i) does and
    only pairs i <= l are checked, a block of rows at a time. Rounded
    subtraction is monotone, so arr[i, l] minus the minimum over pivots j of
    arr[i, j] + arr[j, l] exceeds tol exactly when one pivot's difference
    does; the minimum runs over the block's live pivots only.
    """
    return [s for s, pivots in _dense_live_pivots(arr, tol) if _dense_block_violates(arr, s, pivots, tol)]


def _dense_block_violates(arr: np.ndarray, s: int, pivots: list[int], tol: float) -> bool:
    """Whether the block of rows from s holds a violation through one of
    `pivots`. Its temporaries are freed when it returns, before the next
    block's pivots are found."""
    rows = arr[s : s + _ROW_BLOCK]
    block = rows[:, s:]
    low = block.copy()
    pivot_sum = np.empty_like(low)
    for j in pivots:
        np.add(rows[:, j, None], arr[j, s:], out=pivot_sum)
        np.minimum(low, pivot_sum, out=low)
    np.subtract(block, low, out=low)
    return bool(low.max() > tol)


def _dense_live_pivots(arr: np.ndarray, tol: float):
    """Yield (s, pivots) for each block of `_ROW_BLOCK` rows from s: the
    pivots j, ascending, that can make some arr[i, l] - (arr[i, j] +
    arr[j, l]) with i in the block and l >= s exceed tol.

    `arr` has an exactly zero diagonal, so the difference is exactly 0 for
    l = j and for j = i. For l != j it is at most the largest arr[i, l],
    l >= s, minus (arr[i, j] + nn[j]), nn[j] being the least off-diagonal
    entry of row j, since rounded + and - are monotone. A pivot is live if
    this bound exceeds tol for some row i != j of the block.
    """
    n = arr.shape[0]
    nn = np.empty(n)
    for s in range(0, n, _ROW_BLOCK):
        rows = arr[s : s + _ROW_BLOCK].copy()
        np.fill_diagonal(rows[:, s:], np.inf)
        rows.min(axis=1, out=nn[s : s + _ROW_BLOCK])
    for s in range(0, n, _ROW_BLOCK):
        rows = arr[s : s + _ROW_BLOCK]
        bound = np.add(rows, nn)
        np.subtract(rows[:, s:].max(axis=1)[:, None], bound, out=bound)
        np.fill_diagonal(bound[:, s:], -np.inf)
        live = np.flatnonzero(np.any(bound > tol, axis=0)).tolist()
        del bound  # not kept alive while the caller scans the block
        yield s, live
