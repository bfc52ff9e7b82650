"""Output checks for the benchmark, independent of the solver code paths.

Distances are recomputed here from the generated inputs, and the objective
values are re-evaluated with this module's own evaluators: the
pseudoforest cost as a sum of nearest-neighbour distances, and the
minimum-weight perfect matching by a memoised pairing recursion.
"""
from __future__ import annotations

import json
import math
from functools import lru_cache

import numpy as np

REL_TOL = 1e-9  # distances are summed in another order than the solver's


class Distances:
    """Distances of one input file, recomputed here: from the coordinates of
    a JSON point file, or read from a matrix-csv file."""

    def __init__(self, path: str, fmt: str):
        if fmt == "matrix-csv":
            self.matrix = np.loadtxt(path, delimiter=",", ndmin=2)
            self.n = len(self.matrix)
        else:
            with open(path) as fh:
                self.points = np.asarray(json.load(fh)["points"], dtype=np.float64)
            self.matrix = None
            self.n = len(self.points)

    def among(self, subset: list[int]) -> np.ndarray:
        """Pairwise distances among `subset`, in its order."""
        if self.matrix is not None:
            return self.matrix[np.ix_(subset, subset)]
        pts = self.points[subset]
        diff = pts[:, None, :] - pts[None, :, :]
        return np.sqrt((diff * diff).sum(axis=2))


def pf_cost(dist: Distances, subset: list[int]) -> float:
    sub = dist.among(subset).copy()
    np.fill_diagonal(sub, np.inf)
    return float(sub.min(axis=1).sum())


def matching_cost(dist: Distances, subset: list[int]) -> float:
    """Minimum-weight perfect matching: pair the first unmatched point with
    every other one, recursing on the rest."""
    d = dist.among(subset).tolist()
    s = len(subset)

    @lru_cache(maxsize=None)
    def best(rest: int) -> float:
        if not rest:
            return 0.0
        first = (rest & -rest).bit_length() - 1
        others = rest ^ (1 << first)
        return min(d[first][j] + best(others ^ (1 << j)) for j in range(first + 1, s) if others >> j & 1)

    return best((1 << s) - 1)


def _cost(objective: str, dist: Distances, subset: list[int]) -> float:
    return matching_cost(dist, subset) if objective == "matching" else pf_cost(dist, subset)


def _distinct_in_range(indices, n: int) -> bool:
    return (
        isinstance(indices, list)
        and all(isinstance(i, int) and 0 <= i < n for i in indices)
        and len(set(indices)) == len(indices)
    )


def _selection_problems(report: dict, key: str, dist: Distances, k: int, value) -> list[str]:
    indices = report.get(key)
    if not _distinct_in_range(indices, dist.n) or len(indices) != k:
        return [f"{key} are not {k} distinct in-range indices"]
    expected = _cost(report["objective"], dist, indices)
    if not (isinstance(value, float) and math.isclose(value, expected, rel_tol=REL_TOL, abs_tol=1e-12)):
        return [f"value {value!r} for {key} re-evaluates to {expected!r}"]
    return []


def problems(report: dict, dist: Distances | None) -> list[str]:
    """Everything wrong with one command's report; empty when it passes."""
    command = report.get("command")
    if command == "verify":
        failed = [name for name, suite in report["suites"].items() if suite.get("pass") is not True]
        return [] if report.get("pass") is True and not failed else [f"verify failed: {failed}"]
    k = report["k"]
    if command in ("solve", "eval"):
        return _selection_problems(report, "indices", dist, k, report["value"])
    if command == "compose":
        out = _selection_problems(report, "solution_indices", dist, k, report["value_on_union"])
        if not _distinct_in_range(report["union_indices"], dist.n):
            out.append("union_indices are not distinct in-range indices")
        elif not set(report["solution_indices"]) <= set(report["union_indices"]):
            out.append("solution is not drawn from the coreset union")
        if report["flags"]["oracle"]:
            out += _selection_problems(report, "oracle_indices", dist, k, report["oracle_value"])
        return out
    if command == "coreset":
        indices = report["indices"]
        if not _distinct_in_range(indices, dist.n):
            return ["coreset indices are not distinct in-range indices"]
        if report["passthrough"]:
            return [] if indices == list(range(dist.n)) else ["passthrough coreset is not the whole part"]
        blocks = report["blocks"]
        cap = 5 * k if report["objective"] == "pseudoforest" else 2 * k
        out = [] if len(indices) <= cap else [f"coreset has {len(indices)} > {cap} points"]
        if set().union(*map(set, blocks.values())) != set(indices):
            out.append("coreset indices are not the union of its blocks")
        return out
    return [f"unknown command {command!r}"]


def selected(report: dict) -> list[int] | None:
    """The indices a command selected, as compared against the reference."""
    if report.get("command") == "compose":
        return report["solution_indices"]
    return report.get("indices")
