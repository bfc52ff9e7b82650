"""Child-process helpers of the benchmark; each mode runs in a fresh
interpreter with the checkout's `src` first on the path.

    python3 bench/inproc.py setup ROOT FMT:PATH...   import remote_div, load each file
    python3 bench/inproc.py import ROOT              print the seconds `import remote_div.cli` takes
    python3 bench/inproc.py matrix ROOT SRC DST      rewrite a JSON point file as matrix-csv
    python3 bench/inproc.py trace ROOT SPEC OUT      run commands in-process, untraced then traced

The `trace` mode wraps the public functions of each `remote_div` module
at every module attribute bound to them (modules import by name, e.g.
`matching.mwm_exact` and `cli.pf_offline`), records one span per call
(name, start, end, parent, command), and derives self times and counts
from the spans and from call arguments and results. One pass of its own
yields only per-layer peak memory: `tracemalloc` runs there, and only
inside spans of the layers whose peak is reported, so allocation hooks
never inflate the span times.
"""
from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

MB = 1024.0 * 1024.0


def _import_checkout(root: str):
    src = Path(root, "src").resolve()
    sys.path.insert(0, str(src))
    import remote_div

    if Path(remote_div.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported remote_div from {remote_div.__file__}, not {src}")
    return remote_div


def _arg(args: tuple, kwargs: dict, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self, memory_layers: set[str] | None = None):
        self.memory = memory_layers is not None
        self.layers = memory_layers
        self.spans: list[list] = []  # [name, start, end, parent, command]
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.peak_mb: dict[str, float] = {}
        self.command = 0
        # Per open span: [traced bytes at entry, highest traced bytes seen].
        # tracemalloc runs only while a span is open.
        self._mem: list[list[int]] = []
        self.distinct: set = set()

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _mem_enter(self) -> None:
        import tracemalloc

        if not self._mem:
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        tracemalloc.reset_peak()
        self._mem.append([current, current])

    def _mem_exit(self, name: str) -> None:
        import tracemalloc

        frame = self._mem.pop()
        frame[1] = max(frame[1], tracemalloc.get_traced_memory()[1])
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], frame[1])
            tracemalloc.reset_peak()
        else:
            tracemalloc.stop()
        layer = name.split(".", 1)[0]
        self.peak_mb[layer] = max(self.peak_mb.get(layer, 0.0), (frame[1] - frame[0]) / MB)

    def wrap(self, name: str, fn, count=None):
        if self.memory and name.split(".", 1)[0] not in self.layers:
            return fn

        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.command])
            self.stack.append(sid)
            if self.memory:
                self._mem_enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if self.memory:
                    self._mem_exit(name)
                self.stack.pop()
                self.spans[sid][1] = start
                self.spans[sid][2] = end
            if count is not None:
                count(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, fn, count):
        if self.memory:
            return fn

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(self, args, kwargs, result)
            return result

        counted.__wrapped__ = fn
        return counted


# --- counters: computed from call arguments and results -------------------

def _count_dense(t, args, kwargs, result):
    self = args[0]
    if self.kind == "euclidean":  # a matrix kind returns its stored matrix
        t.add("metric.dense_matrices")
        t.add("metric.dense_mb", self.n * self.n * 8 / MB)


def _count_rows(t, args, kwargs, result):
    # Rows that build a dense matrix are counted by metric.dense_matrices.
    if not t.stack or t.spans[t.stack[-1]][0] != "metric.distance_matrix":
        t.add("metric.rows")


def _count_mwm_exact(t, args, kwargs, result):
    subset = tuple(sorted(int(i) for i in _arg(args, kwargs, 1, "subset")))
    ps = args[0]
    t.add("costs.mwm_exact_calls")
    t.add("costs.dp_states", 2 ** len(subset))
    t.distinct.add((t.command, ps.kind, ps.n, subset))


def _count_matching_value(t, args, kwargs, result):
    t.add("costs.matching_value_calls")
    t.add("costs.dp_states", 2 ** len(_arg(args, kwargs, 0, "rows")))


def _count_mwm_offline(t, args, kwargs, result):
    t.add("matching.trials", _arg(args, kwargs, 2, "cfg").repeats)
    t.add("matching.chosen_w", int(result[1].chosen == "W"))


def _count_tree(t, args, kwargs, result):
    t.counts["nets.tree_depth"] = max(t.counts.get("nets.tree_depth", 0), result.depth)
    t.add("nets.tree_nodes", sum(len(level) for level in result.levels))


def _count_dp(t, args, kwargs, result):
    tree = _arg(args, kwargs, 0, "tree")
    k = _arg(args, kwargs, 1, "k")
    t.add("nets.dp_cells", sum(len(level) for level in tree.levels) * (k + 1))


def _count_coreset(t, args, kwargs, result):
    t.add("coresets.passthrough", int(result.passthrough))
    t.add("coresets.size", len(result.indices))


def _count_separated(t, args, kwargs, result):
    t.add("coresets.peel", int(result.branch == "peel"))


def _count_brute_force(t, args, kwargs, result):
    ps = args[0]
    k = _arg(args, kwargs, 1, "k")
    candidates = _arg(args, kwargs, 3, "candidates")
    m = ps.n if candidates is None else len(set(candidates))
    t.add("composition.subsets", math.comb(m, k))


def _count_pipeline(t, args, kwargs, result):
    t.add("composition.lower_bound", int(result.lower_bound))


def _count_draws(t, args, kwargs, result):
    t.add("hst.draws", _arg(args, kwargs, 2, "trials"))


# (module, function, span name, counter); the span name's prefix is the layer.
FUNCTIONS = [
    ("metric", "load_pointset", "metric.load", None),
    ("metric", "diameter", "nets.diameter", None),
    ("costs", "mwm_exact", "costs.mwm_exact", _count_mwm_exact),
    ("costs", "matching_value", "costs.matching_value", _count_matching_value),
    ("costs", "pf_cost", "costs.pf_cost", None),
    ("costs", "mst_cost", "costs.mst", None),
    ("costs", "mst_component_sum", "costs.mst", None),
    ("gmm", "gmm", "gmm.gmm", None),
    ("gmm", "voronoi_partition", "gmm.voronoi", None),
    ("matching", "mwm_offline", "matching.mwm_offline", _count_mwm_offline),
    ("nets", "pf_offline", "nets.pf_offline", None),
    ("nets", "build_net_tree", "nets.build_net_tree", _count_tree),
    ("nets", "dp_antichain", "nets.dp_antichain", _count_dp),
    ("coresets", "pf_coreset", "coresets.pf_coreset", _count_coreset),
    ("coresets", "mwm_coreset", "coresets.mwm_coreset", _count_coreset),
    ("coresets", "k_outlier_radius", "coresets.k_outlier_radius", None),
    ("coresets", "find_separated_sets", "coresets.find_separated_sets", _count_separated),
    ("composition", "split_dataset", "composition.split", None),
    ("composition", "brute_force_diversity", "composition.brute_force", _count_brute_force),
    ("composition", "run_pipeline", "composition.run_pipeline", _count_pipeline),
    ("hst", "embed_subset", "hst.embed", None),
    ("hst", "hst_mwm_odd_count", "hst.odd_count", None),
    ("hst", "verify_random_subset_bound", "hst.random_subset_bound", _count_draws),
]

# (class, method, span name or None for a count-only wrapper, counter)
METHODS = [
    ("PointSet", "from_matrix", "metric.from_matrix", None),
    ("PointSet", "distance_matrix", "metric.distance_matrix", _count_dense),
    ("ClampedMetric", "distance_matrix", "metric.distance_matrix", None),
    ("PointSet", "distances_from", None, _count_rows),
]


def install(tracer: Tracer):
    """Wrap every target; return a function that restores the originals."""
    import importlib

    modules = [m for name, m in sorted(sys.modules.items()) if name == "remote_div" or name.startswith("remote_div.")]
    undo = []
    for module_name, func_name, span, count in FUNCTIONS:
        original = getattr(importlib.import_module(f"remote_div.{module_name}"), func_name)
        wrapped = tracer.wrap(span, original, count)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    undo.append((module, attr, original))
    metric = importlib.import_module("remote_div.metric")
    for class_name, method, span, count in METHODS:
        cls = getattr(metric, class_name)
        raw = cls.__dict__[method]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        wrapped = tracer.counter(fn, count) if span is None else tracer.wrap(span, fn, count)
        setattr(cls, method, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
        undo.append((cls, method, raw))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def layer_times(spans: list[list]) -> tuple[dict[str, float], dict[str, float]]:
    """Per span name: total time (nested calls of the same name counted
    once) and self time (span minus the time its child spans cover)."""
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    for name, start, end, parent, _command in spans:
        duration = end - start
        self_time[name] = self_time.get(name, 0.0) + duration
        if parent >= 0:
            parent_name = spans[parent][0]
            self_time[parent_name] -= duration
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            total[name] = total.get(name, 0.0) + duration
    return total, self_time


def _run_pass(cli, argvs: list[list[str]], tracer: Tracer | None) -> tuple[float, list[int | str]]:
    main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
    codes = []
    start = time.perf_counter()
    for command, argv in enumerate(argvs):
        if tracer is not None:
            tracer.command = command
        Path(argv[argv.index("--output") + 1]).unlink(missing_ok=True)
        try:
            codes.append(main(argv))
        except Exception as exc:  # a crash fails this command; the pass goes on
            codes.append(f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - start, codes


def trace(root: str, spec_path: str, out_path: str) -> None:
    """Run the commands in-process: one untraced warm-up pass, one pass for
    the peak memory of `peak_layers`, then traced passes, each followed by
    an untraced one while `seconds` since the start allow another traced
    pass (at least one traced pass). A traced pass's overhead compares it
    with the untraced pass just before it."""
    _import_checkout(root)
    import remote_div.cli as cli

    spec = json.loads(Path(spec_path).read_text())
    argvs = spec["argvs"]
    started = time.perf_counter()
    plain_wall, plain_codes = _run_pass(cli, argvs, None)  # warm-up: first-touch costs land here
    plain_walls = [plain_wall]
    memory = Tracer(memory_layers=set(spec["peak_layers"]))
    restore = install(memory)
    try:
        _run_pass(cli, argvs, memory)
    finally:
        restore()
    passes = []
    spans: list[list] = []
    while True:
        tracer = Tracer()
        restore = install(tracer)
        try:
            wall, codes = _run_pass(cli, argvs, tracer)
        finally:
            restore()
        reports = [
            cli.canonicalize_report(json.loads(Path(argv[argv.index("--output") + 1]).read_text())) if code == 0 else None
            for argv, code in zip(argvs, codes)
        ]
        total, self_time = layer_times(tracer.spans)
        calls = tracer.counts.get("costs.mwm_exact_calls", 0)
        tracer.counts["costs.mwm_exact_distinct_frac"] = len(tracer.distinct) / calls if calls else 0.0
        passes.append(
            {
                "wall": wall,
                "codes": codes,
                "total": total,
                "self": self_time,
                "counts": tracer.counts,
                "reports": reports,
            }
        )
        spans = spans or tracer.spans
        if time.perf_counter() - started + plain_walls[-1] + wall > spec["seconds"]:
            break
        plain_wall, codes = _run_pass(cli, argvs, None)
        plain_walls.append(plain_wall)
        plain_codes += codes
    result = {"plain_walls": plain_walls, "plain_codes": plain_codes, "passes": passes, "spans": spans, "peak_mb": memory.peak_mb}
    Path(out_path).write_text(json.dumps(result))


def main(argv: list[str]) -> int:
    mode, root, *rest = argv
    if mode == "setup":
        remote_div = _import_checkout(root)
        for item in rest:
            fmt, _, path = item.partition(":")
            remote_div.load_pointset(Path(path).read_text(), fmt)
    elif mode == "import":
        start = time.perf_counter()
        _import_checkout(root)
        import remote_div.cli  # noqa: F401

        print(time.perf_counter() - start)
    elif mode == "matrix":
        remote_div = _import_checkout(root)
        src, dst = rest
        points = remote_div.load_pointset(Path(src).read_text(), "json")
        Path(dst).write_text(remote_div.dump_pointset(points, "matrix-csv"))
    elif mode == "trace":
        trace(root, *rest)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
