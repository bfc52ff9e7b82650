"""Partition, per-part coresets, union, solve: the composability harness.

This module turns the coreset guarantees into runnable experiments: split
a dataset into parts, build one coreset per part, take the union, solve
the diversity objective on the union, and optionally compare against the
exhaustive optimum on the full dataset. The brute-force evaluator doubles
as the verification oracle for all the solvers.

The coreset and solver layers are imported where the pipeline runs them,
for its objective, so the brute-force evaluator loads neither.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import costs
from .errors import InternalInvariantError, PreconditionError
from .gmm import gmm
from .metric import Objective, PointSet, RunConfig
from .results import DiversitySolution
from .rng import SPLIT_STREAM, permutation, uniforms

if TYPE_CHECKING:
    from .coresets import Coreset

ENUMERATION_CAP = 5_000_000
BLOCK_ENTRIES = 1 << 16

STRATEGIES = ("round_robin", "random", "file")


@dataclass(frozen=True)
class PipelineReport:
    objective: str
    k: int
    m: int
    epsilon: float
    strategy: str
    seed: int
    coreset_sizes: list[int]
    passthrough_flags: list[bool]
    union_size: int
    union_indices: list[int]
    solution_indices: list[int]
    value_on_union: float
    lower_bound: bool
    oracle_value: float | None
    oracle_indices: list[int] | None
    ratio: float | None
    elapsed: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "objective": self.objective,
            "k": self.k,
            "m": self.m,
            "epsilon": self.epsilon,
            "strategy": self.strategy,
            "seed": self.seed,
            "coreset_sizes": list(self.coreset_sizes),
            "passthrough_flags": list(self.passthrough_flags),
            "union_size": self.union_size,
            "union_indices": list(self.union_indices),
            "solution_indices": list(self.solution_indices),
            "value_on_union": self.value_on_union,
            "bound_kind": "lower_bound" if self.lower_bound else "exact",
            "lower_bound": self.lower_bound,
            "oracle_value": self.oracle_value,
            "oracle_indices": self.oracle_indices,
            "ratio": self.ratio,
            "elapsed": dict(self.elapsed),
        }


def split_dataset(
    ps: PointSet,
    m: int,
    strategy: str = "round_robin",
    seed: int = 0,
    parts: list[list[int]] | None = None,
) -> list[list[int]]:
    """Partition indices 0..n-1 into m disjoint nonempty parts: part j takes
    entries j, j+m, ... of range(n) (`round_robin`) or of the stable argsort
    of stream (seed, SPLIT_STREAM)'s first n doubles (`random`), sorted."""
    n = ps.n
    if not (1 <= m <= n):
        raise PreconditionError(f"need 1 <= m <= n; got m={m}, n={n}")
    if strategy == "round_robin":
        part_lists = [list(range(j, n, m)) for j in range(m)]
    elif strategy == "random":
        perm = permutation(uniforms(seed, [SPLIT_STREAM], n)[0])
        part_lists = [np.sort(perm[j::m]).tolist() for j in range(m)]
    elif strategy == "file":
        if parts is None:
            raise PreconditionError("file strategy needs explicit parts")
        part_lists = [sorted(costs.as_indices(p)) for p in parts]
        flat = [i for p in part_lists for i in p]
        if sorted(flat) != list(range(n)):
            raise PreconditionError("parts must be disjoint and cover all indices exactly once")
        if any(len(p) == 0 for p in part_lists):
            raise PreconditionError("every part must be nonempty")
        if len(part_lists) != m:
            raise PreconditionError(f"expected {m} parts, file provided {len(part_lists)}")
    else:
        raise PreconditionError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    return part_lists


def build_part_coreset(
    ps: PointSet,
    part_indices: list[int],
    objective: Objective,
    k: int,
    epsilon: float,
    part_id: int,
) -> tuple[Coreset, list[int]]:
    """Coreset of one part, returned with its indices mapped back to the
    global dataset."""
    from .coresets import mwm_coreset, pf_coreset

    sub = ps.restrict(part_indices)
    if objective is Objective.REMOTE_MATCHING:
        core = mwm_coreset(sub, k, part_id=part_id)
    else:
        core = pf_coreset(sub, k, epsilon, part_id=part_id)
    global_indices = sorted(part_indices[i] for i in core.indices)
    return core, global_indices


def compose_coresets(parts: list[list[int]], per_part_global: list[list[int]]) -> list[int]:
    """Union of per-part coreset indices (already global). Parts are
    disjoint, so sizes add up."""
    if len(per_part_global) != len(parts):
        raise PreconditionError("need exactly one coreset per part")
    union: list[int] = []
    for part, chosen in zip(parts, per_part_global):
        part_set = set(part)
        for i in chosen:
            if i not in part_set:
                raise PreconditionError(f"coreset index {i} does not belong to its part")
        union.extend(chosen)
    if len(set(union)) != len(union):
        raise InternalInvariantError("parts are disjoint, union must be duplicate-free")
    return sorted(union)


def _subset_blocks(m: int, k: int, block: int):
    """Every k-subset of range(m) once, in lexicographic order, in blocks of
    at most `block`: yields (B, k) arrays whose rows are the subsets, each in
    ascending order.

    Unranking goes through the combinatorial number system (Buckles and
    Lybanon, ACM TOMS Algorithm 515): the subset c of lexicographic rank r
    maps to d_i = m-1-c_i, strictly decreasing, with
    sum_i C(d_i, k-i) = C(m, k)-1-r, so each d_i is the largest d with
    C(d, k-i) at most what is left: one `searchsorted` per position over a
    table of binomials, clipped at C(m, k), which no remainder reaches.
    """
    total = math.comb(m, k)
    table = np.array([[min(math.comb(d, j), total) for d in range(m)] for j in range(k + 1)], dtype=np.int64)
    for start in range(0, total, block):
        ranks = np.arange(start, min(start + block, total))
        # Built position by position, so each column of `members` is contiguous.
        members = np.empty((k, len(ranks)), dtype=np.intp)
        left = total - 1 - ranks
        for i in range(k):
            binomials = table[k - i]
            d = binomials.searchsorted(left, side="right") - 1
            left -= binomials.take(d)
            np.subtract(m - 1, d, out=members[i])
        yield members.T


def brute_force_diversity(
    ps: PointSet,
    k: int,
    objective: Objective,
    candidates: list[int] | None = None,
) -> DiversitySolution:
    """Exact optimum by exhaustive k-subset enumeration.

    Returns the lexicographically first optimal subset (the lowest rank at
    the maximum value).
    """
    cand = sorted(range(ps.n)) if candidates is None else sorted(set(costs.as_indices(candidates)))
    m = len(cand)
    if not (1 <= k <= m):
        raise PreconditionError(f"need 1 <= k <= candidate count; got k={k}, count={m}")
    if objective is Objective.REMOTE_MATCHING:
        if k % 2 != 0:
            raise PreconditionError("remote-matching needs an even k")
        if k > costs.MATCHING_EXACT_CAP:
            raise PreconditionError(f"k={k} above exact matching cap {costs.MATCHING_EXACT_CAP}")
    elif k < 2:
        raise PreconditionError("remote-pseudoforest needs k >= 2")
    total = math.comb(m, k)
    if total > ENUMERATION_CAP:
        raise PreconditionError(f"C({m},{k}) = {total} subsets exceeds the enumeration cap {ENUMERATION_CAP}")

    dmat = ps.restrict(cand).distance_matrix()
    if objective is Objective.REMOTE_MATCHING:
        evaluate = costs.matching_weights
        entries = 1 << k
    else:
        evaluate = costs.pf_sum
        entries = k * k

    # Score subsets in blocks of BLOCK_ENTRIES // entries rows, which bounds
    # each block's temporaries. Blocks come in rank order and argmax takes a block's first
    # maximum, so the first strict improvement is the lowest-rank optimum.
    best_value, best = -math.inf, None
    for members in _subset_blocks(m, k, max(1, BLOCK_ENTRIES // entries)):
        values = evaluate(dmat, members)
        top = int(values.argmax())
        if values[top] > best_value:
            best_value, best = float(values[top]), members[top].tolist()
    assert best is not None
    return DiversitySolution(indices=[cand[p] for p in best], value=best_value, algorithm="brute-force")


def run_pipeline(
    ps: PointSet,
    cfg: RunConfig,
    m: int,
    strategy: str = "round_robin",
    with_oracle: bool = False,
    parts: list[list[int]] | None = None,
) -> PipelineReport:
    """Full composable-coreset experiment on one dataset."""
    objective = cfg.objective
    k = cfg.k
    # Every matching union is scored exactly, so an over-cap k fails before
    # any coreset is built.
    if objective is Objective.REMOTE_MATCHING and k > costs.MATCHING_EXACT_CAP:
        raise PreconditionError(f"k={k} above exact matching cap {costs.MATCHING_EXACT_CAP}")
    elapsed: dict[str, float] = {}

    t0 = time.perf_counter()
    partition = split_dataset(ps, m, strategy, cfg.seed, parts)
    elapsed["split"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    coresets: list[Coreset] = []
    per_part_global: list[list[int]] = []
    for part_id, part in enumerate(partition):
        core, global_idx = build_part_coreset(ps, part, objective, k, cfg.epsilon, part_id)
        coresets.append(core)
        per_part_global.append(global_idx)
    union = compose_coresets(partition, per_part_global)
    elapsed["coresets"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    lower_bound = False
    if math.comb(len(union), k) <= ENUMERATION_CAP:
        on_union = brute_force_diversity(ps, k, objective, candidates=union)
        union_value = on_union.value
        union_solution = on_union.indices
    else:
        # Too large to enumerate: certify a lower bound with the offline
        # algorithms on the union, mapped back to global indices.
        lower_bound = True
        union_value, union_solution = _lower_bound_on_union(ps, union, cfg)
    elapsed["solve_union"] = time.perf_counter() - t0

    oracle_value = None
    oracle_indices = None
    ratio = None
    if with_oracle:
        t0 = time.perf_counter()
        oracle = brute_force_diversity(ps, k, objective)
        oracle_value = oracle.value
        oracle_indices = oracle.indices
        ratio = union_value / oracle_value if oracle_value > 0 else 1.0
        elapsed["oracle"] = time.perf_counter() - t0

    return PipelineReport(
        objective=objective.value,
        k=k,
        m=m,
        epsilon=cfg.epsilon,
        strategy=strategy,
        seed=cfg.seed,
        coreset_sizes=[len(c.indices) for c in coresets],
        passthrough_flags=[c.passthrough for c in coresets],
        union_size=len(union),
        union_indices=union,
        solution_indices=union_solution,
        value_on_union=union_value,
        lower_bound=lower_bound,
        oracle_value=oracle_value,
        oracle_indices=oracle_indices,
        ratio=ratio,
        elapsed=elapsed,
    )


def _lower_bound_on_union(ps: PointSet, union: list[int], cfg: RunConfig) -> tuple[float, list[int]]:
    sub = ps.restrict(union)
    k = cfg.k
    candidates: list[tuple[float, list[int]]] = []
    try:
        if cfg.objective is Objective.REMOTE_MATCHING:
            from .matching import mwm_offline

            # mwm_offline already keeps the better of its W and its Y, the
            # same GMM centers the fallback below scores: its answer is final.
            sol, _trace = mwm_offline(sub, k, cfg)
            return sol.value, sorted(union[i] for i in sol.indices)
        from .nets import pf_offline

        sol, _tree = pf_offline(sub, k)
        candidates.append((sol.value, sorted(union[i] for i in sol.indices)))
    except PreconditionError:
        pass
    centers = gmm(sub, k).centers
    center_global = sorted(union[i] for i in centers)
    if cfg.objective is Objective.REMOTE_MATCHING:
        center_value = costs.mwm_exact(ps, center_global).value
    else:
        center_value = costs.pf_cost(ps, center_global).value
    candidates.append((center_value, center_global))
    candidates.sort(key=lambda vc: (-vc[0], vc[1]))
    return candidates[0]
