"""Command-line interface: dataset generation, solvers, coresets,
composition pipelines, brute-force evaluation, and verification suites.

Every command emits a JSON report carrying a schema version, a full echo
of the flags it ran with, and wall-clock timings. Reports are byte-stable
across reruns with identical flags except for the timing fields, which
`canonicalize_report` blanks for golden-file comparison.

Exit codes: 0 on success, 1 on bad input or an unmet precondition, 2 when
an internal invariant (including a verification suite check) fails.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from . import __version__
from .errors import InternalInvariantError, PreconditionError
from .metric import FORMATS, Objective, PointSet, RunConfig, dump_pointset, load_pointset

# Each command imports the layers it runs, before it reads any input, so a
# command loads only its own modules.

SCHEMA_VERSION = 1
# The `gen --kind` choices, one per `generators.make_*`; held here so that
# building the parser imports neither `generators` nor `rng`.
KINDS = ("uniform_cube", "clusters", "grid", "line")
TIMING_KEYS = ("timings", "elapsed")


class _Parser(argparse.ArgumentParser):
    """argparse that maps usage errors to exit code 1 on stderr."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def canonicalize_report(report: dict) -> dict:
    """A copy of `report` with every timing field blanked, so reports can be
    compared byte-for-byte."""

    def scrub(node):
        if isinstance(node, dict):
            return {key: None if key in TIMING_KEYS else scrub(value) for key, value in node.items()}
        if isinstance(node, list):
            return [scrub(item) for item in node]
        return node

    return scrub(report)


REPORT_SCHEMA = {
    "schema_version": SCHEMA_VERSION,
    "common_fields": {
        "schema_version": "int",
        "command": "solve|coreset|compose|eval|verify (gen writes a dataset, not a report)",
        "flags": "object: full echo of the parsed flags",
        "timings": {"total_seconds": "float (blanked by canonicalization)"},
    },
    "solve": {
        "objective": "matching|pseudoforest",
        "k": "int",
        "value": "float",
        "bound_kind": "exact",
        "indices": "[int]",
        "algorithm": "string",
        "seed": "int",
        "trace": "object (matching: chosen/trial/z_subset/w_set/gmm_centers/gmm_radius; "
        "pseudoforest: net_tree_depth with --dump-net-tree, else empty)",
    },
    "coreset": {
        "part": "int",
        "k": "int",
        "objective": "matching|pseudoforest",
        "indices": "[int]",
        "passthrough": "bool",
        "blocks": "{P|S|T|U|Y|pairs: [int]}",
    },
    "compose": {
        "objective": "matching|pseudoforest",
        "k": "int",
        "m": "int",
        "epsilon": "float",
        "strategy": "round_robin|random|file",
        "seed": "int",
        "coreset_sizes": "[int]",
        "passthrough_flags": "[bool]",
        "union_size": "int",
        "union_indices": "[int]",
        "solution_indices": "[int]",
        "value_on_union": "float",
        "bound_kind": "exact|lower_bound",
        "lower_bound": "bool",
        "oracle_value": "float|null",
        "oracle_indices": "[int]|null",
        "ratio": "float|null",
        "elapsed": "{stage: float} (blanked by canonicalization)",
    },
    "eval": {"objective": "string", "k": "int", "value": "float", "indices": "[int]", "enumeration_cap": "int"},
    "verify": {"suite": "hst|mstcc|lemma42|all", "suites": "{name: {pass: bool, ...}}", "pass": "bool"},
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage errors (exit 1) and --help/--version (exit 0)
        return int(exc.code or 0)
    if getattr(args, "schema", False):
        print(json.dumps(REPORT_SCHEMA, indent=2, sort_keys=True))
        return 0
    if args.command is None:
        parser.print_help(sys.stderr)
        return 1
    try:
        return args.handler(args)
    except PreconditionError as exc:
        print(f"remote-div: error: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"remote-div: internal invariant violated: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="remote-div", description=__doc__)
    parser.add_argument("--version", action="version", version=f"remote-div {__version__}")
    parser.add_argument("--schema", action="store_true", help="print the report JSON schema and exit")
    sub = parser.add_subparsers(dest="command")
    # Flags several commands share, each declared once.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", default=None, help="report path; stdout when omitted")
    points = argparse.ArgumentParser(add_help=False, parents=[output])
    points.add_argument("--objective", required=True, choices=[o.value for o in Objective])
    points.add_argument("--k", required=True, type=int)
    points.add_argument("--input", required=True)
    points.add_argument("--input-format", default="json", choices=FORMATS)

    p = sub.add_parser("gen", parents=[output], help="generate a dataset file")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--dim", type=int, default=None, help="coordinates per point (default 2; line takes only 1)")
    p.add_argument("--seed", type=int, default=0, help="draw seed (grid and line draw nothing)")
    p.add_argument(
        "--params",
        default="",
        help="kind-specific settings: clusters 'c=2,sep=100,width=1', grid 'spacing=1', line bare coordinates '0,1,5'",
    )
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("solve", parents=[points], help="run an offline diversity solver")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=20)
    p.add_argument("--gmm-start", default="0", help="start index for the farthest-point traversal, or 'random'")
    p.add_argument("--net-root", type=int, default=0, help="root point of the net hierarchy (pseudoforest)")
    p.add_argument("--dump-net-tree", default=None, help="write the net tree the solver used as JSON to this path")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("coreset", parents=[points], help="build one part's composable coreset")
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--part-id", type=int, default=0)
    p.add_argument("--gmm-start", default="0")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_coreset)

    p = sub.add_parser("compose", parents=[points], help="split, build per-part coresets, solve on the union")
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--parts", required=True, type=int)
    p.add_argument("--strategy", default="round_robin", choices=["round_robin", "random", "file"])
    p.add_argument("--parts-file", default=None, help="JSON list of index lists (strategy=file)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--oracle", action="store_true", help="also brute-force the full dataset")
    p.set_defaults(handler=_cmd_compose)

    p = sub.add_parser("eval", parents=[points], help="brute-force the exact optimum")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("verify", parents=[output], help="run a structural verification suite")
    p.add_argument("--suite", required=True, choices=["hst", "mstcc", "lemma42", "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=200)
    p.set_defaults(handler=_cmd_verify)

    return parser


def _emit(args, payload: dict, started: float) -> int:
    flags = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("handler", "schema") and not callable(value)
    }
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "flags": flags,
        **payload,
        "timings": {"total_seconds": time.perf_counter() - started},
    }
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise InternalInvariantError(f"report holds a non-finite number: {exc}") from exc
    if args.output:
        _write_text(args.output, text)
    else:
        print(text)
    return 0


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text + "\n")
    except OSError as exc:
        raise PreconditionError(f"cannot write {path}: {exc}") from exc


def _read_pointset(args) -> PointSet:
    def load(path: Path) -> PointSet:
        with path.open("rb") as file:  # a matrix-csv file is streamed
            return load_pointset(file, args.input_format)

    return _read_file(args.input, "input file", load)


def _read_text(path: str, what: str) -> str:
    return _read_file(path, what, lambda p: p.read_text(encoding="utf-8"))


def _read_file(path: str, what: str, read):
    try:
        return read(Path(path))
    except FileNotFoundError as exc:
        raise PreconditionError(f"{what} not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionError(f"cannot read {what} {path}: {exc}") from exc


def _read_parts(path: str) -> list[list[int]]:
    text = _read_text(path, "parts file")
    try:
        parts = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PreconditionError(f"invalid JSON parts file: {exc}") from exc
    if not isinstance(parts, list) or not all(isinstance(p, list) and all(type(i) is int for i in p) for p in parts):
        raise PreconditionError("parts file must be a JSON list of lists of point indices")
    return parts


_SUITE_CHUNK = 1024  # verify trials whose streams are drawn at once
# The named settings each --kind takes; only line takes bare numbers.
_GEN_PARAMS = {"uniform_cube": (), "clusters": ("c", "sep", "width"), "grid": ("spacing",), "line": ()}


def _parse_params(raw: str, kind: str) -> tuple[dict[str, float], list[float]]:
    """The named settings and the bare numbers in `raw`. A name `kind` does
    not take, a name given twice, or bare numbers for a kind other than line
    is a PreconditionError."""
    named: dict[str, float] = {}
    bare: list[float] = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        key, eq, value = item.partition("=")
        key = key.strip()
        try:
            number = float(value if eq else item)
        except ValueError as exc:
            raise PreconditionError(f"bad parameter {item!r}: {exc}") from exc
        if not eq:
            bare.append(number)
        elif key not in _GEN_PARAMS[kind]:
            names = ", ".join(_GEN_PARAMS[kind]) or "none"
            raise PreconditionError(f"--kind {kind} takes no parameter {key!r} (its parameters: {names})")
        elif key in named:
            raise PreconditionError(f"parameter {key!r} given twice")
        else:
            named[key] = number
    if bare and kind != "line":
        raise PreconditionError(f"--kind {kind} takes no bare values; only line does")
    return named, bare


def _resolve_start(raw: str, n: int, seed: int) -> int:
    """The GMM start index `raw` names: an index below n, or for 'random'
    `rng.integer` of the first word of stream (seed, START_POINT_STREAM)."""
    if raw == "random":
        from .rng import START_POINT_STREAM, _words, integer

        return integer(_words(seed, [START_POINT_STREAM], 1)[0, 0], 0, n)
    try:
        start = int(raw)
    except ValueError as exc:
        raise PreconditionError(f"--gmm-start must be an index or 'random'; got {raw!r}") from exc
    if not 0 <= start < n:
        raise PreconditionError(f"--gmm-start {start} out of range for n={n}")
    return start


def _cmd_gen(args) -> int:
    from .generators import make_clusters, make_grid, make_line, make_uniform_cube
    from .rng import check_seed

    params, values = _parse_params(args.params, args.kind)
    check_seed(args.seed)
    dim = 2 if args.dim is None else args.dim
    if args.kind == "uniform_cube":
        ps = make_uniform_cube(args.n, dim, args.seed)
    elif args.kind == "clusters":
        clusters = params.get("c", 2.0)
        if not clusters.is_integer():  # never truncated
            raise PreconditionError(f"c={clusters!r} is not an integer")
        ps = make_clusters(
            args.n,
            dim,
            args.seed,
            clusters=int(clusters),
            separation=params.get("sep", 100.0),
            width=params.get("width", 1.0),
        )
    elif args.kind == "grid":
        ps = make_grid(args.n, dim, spacing=params.get("spacing", 1.0))
    else:
        if args.dim not in (None, 1):
            raise PreconditionError(f"--kind line makes 1-D points; got --dim {args.dim}")
        ps = make_line(args.n, values or None)
    document = dump_pointset(ps, "json")
    if args.output:
        _write_text(args.output, document)
        return 0
    print(document)
    return 0


def _cmd_solve(args) -> int:
    objective = Objective.parse(args.objective)
    if objective is Objective.REMOTE_MATCHING:
        from .matching import mwm_offline
    else:
        from .nets import pf_offline
    started = time.perf_counter()
    ps = _read_pointset(args)
    start = _resolve_start(args.gmm_start, ps.n, args.seed)  # checked for either objective
    if objective is Objective.REMOTE_MATCHING:
        cfg = RunConfig(k=args.k, seed=args.seed, repeats=args.repeats, objective=objective)
        solution, trace = mwm_offline(ps, args.k, cfg, gmm_start=start)
        trace_payload = {
            "chosen": trace.chosen,
            "trial": trace.trial,
            "z_subset": trace.z_subset,
            "w_set": trace.w_set,
            "gmm_centers": trace.gmm.centers,
            "gmm_radius": trace.gmm.radius,
        }
    else:
        solution, tree = pf_offline(ps, args.k, root=args.net_root)
        trace_payload = {}
        if args.dump_net_tree:
            _write_text(args.dump_net_tree, tree.to_json())
            trace_payload["net_tree_depth"] = tree.depth
    payload = {
        "objective": objective.value,
        "k": args.k,
        "value": solution.value,
        "bound_kind": "exact",
        "indices": solution.indices,
        "algorithm": solution.algorithm,
        "seed": args.seed,
        "trace": trace_payload,
    }
    return _emit(args, payload, started)


def _cmd_coreset(args) -> int:
    from .coresets import mwm_coreset, pf_coreset

    started = time.perf_counter()
    ps = _read_pointset(args)
    objective = Objective.parse(args.objective)
    start = _resolve_start(args.gmm_start, ps.n, args.seed)
    if objective is Objective.REMOTE_MATCHING:
        core = mwm_coreset(ps, args.k, gmm_start=start, part_id=args.part_id)
    else:
        core = pf_coreset(ps, args.k, args.epsilon, gmm_start=start, part_id=args.part_id)
    return _emit(args, core.to_dict(), started)


def _cmd_compose(args) -> int:
    from .composition import run_pipeline

    started = time.perf_counter()
    ps = _read_pointset(args)
    objective = Objective.parse(args.objective)
    parts = None
    if args.strategy == "file":
        if not args.parts_file:
            raise PreconditionError("--strategy file needs --parts-file")
        parts = _read_parts(args.parts_file)
    cfg = RunConfig(k=args.k, epsilon=args.epsilon, seed=args.seed, objective=objective)
    report = run_pipeline(ps, cfg, args.parts, args.strategy, with_oracle=args.oracle, parts=parts)
    return _emit(args, report.to_dict(), started)


def _cmd_eval(args) -> int:
    from .composition import ENUMERATION_CAP, brute_force_diversity

    started = time.perf_counter()
    ps = _read_pointset(args)
    objective = Objective.parse(args.objective)
    solution = brute_force_diversity(ps, args.k, objective)
    payload = {
        "objective": objective.value,
        "k": args.k,
        "value": solution.value,
        "indices": solution.indices,
        "enumeration_cap": ENUMERATION_CAP,
    }
    return _emit(args, payload, started)


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------

def _suite_instances(seed: int, trials: int, lo: int, hi: int):
    """Per trial t, from stream (seed, t): a size n in [lo, hi), hi <= 13,
    from word 0, n points in the unit square from the first 2n of words
    1..24, and n doubles to order a sample by from words 25..36. Streams
    are drawn `_SUITE_CHUNK` at a time, so memory does not grow with the
    trials."""
    from .rng import _doubles, _words, integer

    for first in range(0, trials, _SUITE_CHUNK):
        for row in _words(seed, range(first, min(first + _SUITE_CHUNK, trials)), 37):
            n = integer(row[0], lo, hi)
            doubles = _doubles(row)
            yield n, PointSet.from_coords(doubles[1 : 1 + 2 * n].reshape(n, 2)), doubles[25 : 25 + n]


def _suite_hst(seed: int, trials: int) -> dict:
    import numpy as np

    from .costs import matching_value
    from .hst import embed_subset, hst_distance_matrix, hst_mwm_odd_count

    worst_stretch = 0.0
    max_identity_gap = 0.0
    checked_pairs = 0
    checked_sets = 0
    for n, ps, keys in _suite_instances(seed, trials, 4, 13):
        hst, scaled = embed_subset(ps, range(n), d=40)
        hmat = hst_distance_matrix(hst)
        pairs = np.triu_indices(n, 1)
        dist, tree = scaled.distance_matrix()[pairs], hmat[pairs]
        worst_stretch = max(worst_stretch, float((tree[dist > 0] / dist[dist > 0]).max(initial=0.0)))
        checked_pairs += len(dist)
        size = min(n - n % 2, 8)
        # A prefix of the keys' stable argsort, `rng.permutation`'s order, sorted in
        # Python: numpy's sort kernels would page 0.25 MB of code into `verify`.
        members = sorted(sorted(range(n), key=keys.tolist().__getitem__)[:size])
        formula = hst_mwm_odd_count(hst, members)
        sub = [[float(hmat[a, b]) for b in members] for a in members]
        exact = matching_value(sub)
        max_identity_gap = max(max_identity_gap, abs(formula - exact))
        checked_sets += 1
    return {
        "trials": trials,
        "checked_pairs": checked_pairs,
        "checked_sets": checked_sets,
        "worst_stretch": worst_stretch,
        "stretch_bound": 4.0,
        "max_identity_gap": max_identity_gap,
        "pass": bool(worst_stretch <= 4.0 + 1e-9 and max_identity_gap <= 1e-9),
    }


def _suite_mstcc(seed: int, trials: int) -> dict:
    from .costs import mst_component_sum, mst_cost

    low = math.inf
    high = 0.0
    for n, ps, _keys in _suite_instances(seed, trials, 2, 13):
        subset = list(range(n))
        total = mst_component_sum(ps, subset)
        mst = mst_cost(ps, subset).value
        ratio = mst / total
        low = min(low, ratio)
        high = max(high, ratio)
    ok = low >= 0.5 - 1e-9 and high <= 1.0 + 1e-9
    return {"trials": trials, "min_ratio": low, "max_ratio": high, "pass": bool(ok)}


def _suite_lemma42(seed: int, trials: int) -> dict:
    from .hst import verify_random_subset_bound

    draws = 2000
    worst_margin = math.inf
    min_ratio = math.inf
    for i, (size, ps, _keys) in enumerate(_suite_instances(seed, trials, 2, 11)):
        stats = verify_random_subset_bound(ps, range(size), draws, seed=(seed + i + 1) % 2**64)
        margin = stats.sample_mean - (stats.best_even_value / 16.0 - 3.0 * stats.std_error)
        worst_margin = min(worst_margin, margin)
        min_ratio = min(min_ratio, stats.ratio)
    return {
        "trials": trials,
        "draws": draws,
        "worst_margin": worst_margin,
        "min_ratio": min_ratio,
        "pass": bool(worst_margin >= 0.0),
    }


def _cmd_verify(args) -> int:
    started = time.perf_counter()
    if args.trials < 1:
        raise PreconditionError("--trials must be positive")
    suites = {}
    if args.suite in ("hst", "all"):
        suites["hst"] = _suite_hst(args.seed, args.trials)
    if args.suite in ("mstcc", "all"):
        suites["mstcc"] = _suite_mstcc(args.seed, args.trials)
    if args.suite in ("lemma42", "all"):
        suites["lemma42"] = _suite_lemma42(args.seed, min(args.trials, 200))
    all_pass = all(s["pass"] for s in suites.values())
    payload = {"suite": args.suite, "suites": suites, "pass": all_pass}
    code = _emit(args, payload, started)
    if code == 0 and not all_pass:
        print("remote-div: verification suite failed", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
