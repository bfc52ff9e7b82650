"""Benchmark of the `remote-div` CLI on one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload's inputs are generated from
`--seed` with the checkout's own `gen` command before any timing, and every
command runs the checkout's CLI (`src` first on the path) as a subprocess,
one after another from this single process (a closed loop with one client).

--trace 0  times whole passes over the workload's commands until S seconds
           have been measured, and reports setup_s (median of fresh
           interpreters that import remote_div and load each input, taken
           between commands across the same window), wall_s (median pass
           time) and peak_rss_mb (median over passes of the largest child
           max-RSS).
--trace 1  runs one checked subprocess pass, then the same commands
           in-process through `remote_div.cli.main` (see inproc.py), and
           reports per-layer times, counts and peak memory.

Every report is checked (check.py); at seeds recorded in reference.json
the selected indices must also equal the reference. Rows of every metric,
with median, quartiles and sample count, come first on stdout; the last
line is one JSON object: correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
from workloads import WORKLOADS, Workload, command_argv

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5  # set-up samples per run, at least
SETUP_SHARE = 0.1  # of the window, spent on set-up samples when they are short
IMPORT_REPEATS = 3
INPROC = [sys.executable, str(BENCH / "inproc.py")]
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"
)

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

# name, unit, source: ("total"|"self", span name), ("count", counter),
# ("peak", layer) from the tracemalloc pass, or ("run", key) from this script.
PER_LAYER = (
    ("metric.load_s", "s", ("total", "metric.load")),
    ("metric.from_matrix_s", "s", ("total", "metric.from_matrix")),
    ("metric.distance_matrix_s", "s", ("total", "metric.distance_matrix")),
    ("metric.dense_matrices", "count", ("count", "metric.dense_matrices")),
    ("metric.dense_mb", "MB", ("count", "metric.dense_mb")),
    ("metric.rows", "count", ("count", "metric.rows")),
    ("metric.peak_mb", "MB", ("peak", "metric")),
    ("costs.mwm_exact_s", "s", ("total", "costs.mwm_exact")),
    ("costs.mwm_exact_calls", "count", ("count", "costs.mwm_exact_calls")),
    ("costs.dp_states", "count", ("count", "costs.dp_states")),
    ("costs.mwm_exact_distinct_frac", "ratio", ("count", "costs.mwm_exact_distinct_frac")),
    ("costs.matching_value_s", "s", ("total", "costs.matching_value")),
    ("costs.matching_value_calls", "count", ("count", "costs.matching_value_calls")),
    ("costs.pf_cost_s", "s", ("total", "costs.pf_cost")),
    ("costs.mst_s", "s", ("total", "costs.mst")),
    ("gmm.gmm_s", "s", ("total", "gmm.gmm")),
    ("gmm.voronoi_s", "s", ("total", "gmm.voronoi")),
    ("matching.mwm_offline_self_s", "s", ("self", "matching.mwm_offline")),
    ("matching.trials", "count", ("count", "matching.trials")),
    ("matching.chosen_w", "count", ("count", "matching.chosen_w")),
    ("nets.pf_offline_self_s", "s", ("self", "nets.pf_offline")),
    ("nets.diameter_s", "s", ("total", "nets.diameter")),
    ("nets.build_net_tree_s", "s", ("total", "nets.build_net_tree")),
    ("nets.dp_antichain_s", "s", ("total", "nets.dp_antichain")),
    ("nets.tree_depth", "count", ("count", "nets.tree_depth")),
    ("nets.tree_nodes", "count", ("count", "nets.tree_nodes")),
    ("nets.dp_cells", "count", ("count", "nets.dp_cells")),
    ("nets.peak_mb", "MB", ("peak", "nets")),
    ("coresets.pf_coreset_self_s", "s", ("self", "coresets.pf_coreset")),
    ("coresets.k_outlier_radius_s", "s", ("total", "coresets.k_outlier_radius")),
    ("coresets.find_separated_sets_s", "s", ("total", "coresets.find_separated_sets")),
    ("coresets.mwm_coreset_s", "s", ("total", "coresets.mwm_coreset")),
    ("coresets.peel", "count", ("count", "coresets.peel")),
    ("coresets.passthrough", "count", ("count", "coresets.passthrough")),
    ("coresets.size", "count", ("count", "coresets.size")),
    ("coresets.peak_mb", "MB", ("peak", "coresets")),
    ("composition.split_s", "s", ("total", "composition.split")),
    ("composition.brute_force_s", "s", ("total", "composition.brute_force")),
    ("composition.subsets", "count", ("count", "composition.subsets")),
    ("composition.lower_bound", "count", ("count", "composition.lower_bound")),
    ("composition.run_pipeline_self_s", "s", ("self", "composition.run_pipeline")),
    ("composition.peak_mb", "MB", ("peak", "composition")),
    ("hst.embed_s", "s", ("total", "hst.embed")),
    ("hst.odd_count_s", "s", ("total", "hst.odd_count")),
    ("hst.random_subset_bound_s", "s", ("total", "hst.random_subset_bound")),
    ("hst.draws", "count", ("count", "hst.draws")),
    ("cli.import_s", "s", ("run", "import_s")),
    ("cli.self_s", "s", ("self", "cli.main")),
    ("cli.report_kb", "KB", ("run", "report_kb")),
    ("trace.overhead", "ratio", ("run", "overhead")),
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in THREAD_VARS})
    return env


class Spawner:
    """A small process (spawn.py) that starts every timed child, so that a
    child's max RSS is not inflated by this process's own memory."""

    def __enter__(self):
        argv = [sys.executable, "-I", "-S", str(BENCH / "spawn.py")]
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def run(self, argv: list[str], stderr_path: Path) -> tuple[float, int, float]:
        """Run one child to completion: (seconds from start to exit, exit
        code, the child's own max RSS in MB)."""
        self.proc.stdin.write(json.dumps({"argv": argv, "stderr": str(stderr_path)}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"spawn.py exited with code {self.proc.wait()}")
        reply = json.loads(line)
        return reply["seconds"], reply["code"], reply["maxrss_mb"]


def summary(values: list[float]) -> dict:
    """Median and quartiles as `statistics.quantiles(values, n=4)` gives them."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
        cpu = next(line.split(":", 1)[1].strip() for line in lines if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown"
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
    }


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, workload: Workload, seed: int, spawner: Spawner):
        self.workload = workload
        self.spawner = spawner
        self.seed = seed
        self.work = ROOT / ".bench_work" / workload.name
        self.rel = self.work.relative_to(ROOT).as_posix()
        self.argvs = [command_argv(workload, c, seed, self.rel) for c in workload.commands]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.verdicts: dict[str, list[str]] = {}
        self.selected: dict[str, list[int] | None] = {}
        reference = json.loads((BENCH / "reference.json").read_text()) if (BENCH / "reference.json").exists() else {}
        self.reference = reference.get(workload.name, {}).get(str(seed))
        self.distances: dict[str, object] = {}
        sys.path.insert(0, str(ROOT / "src"))
        from remote_div.cli import canonicalize_report

        self.canonical = canonicalize_report

    def make_inputs(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        for source in self.workload.inputs:
            points = f"{self.rel}/{source.name}.points.json" if source.matrix else f"{self.rel}/{source.filename}"
            gen = [sys.executable, "-m", "remote_div", "gen", "--kind", "uniform_cube", "--n", str(source.n),
                   "--dim", str(source.dim), "--seed", str(self.seed), "--output", points]
            steps = [gen]
            if source.matrix:
                steps.append([*INPROC, "matrix", ".", points, f"{self.rel}/{source.filename}"])
            for argv in steps:
                _, code, _ = self.spawner.run(argv, self.work / "gen.stderr")
                if code != 0:
                    log = (self.work / "gen.stderr").read_text()
                    raise SystemExit(f"input generation failed: {' '.join(argv)}\n{log}")
            self.distances[source.name] = check.Distances(str(ROOT / self.rel / source.filename), source.fmt)

    def setup_seconds(self) -> float:
        files = [f"{s.fmt}:{self.rel}/{s.filename}" for s in self.workload.inputs]
        seconds, code, _ = self.spawner.run([*INPROC, "setup", ".", *files], self.work / "setup.stderr")
        if code != 0:
            raise SystemExit(f"set-up failed:\n{(self.work / 'setup.stderr').read_text()}")
        return seconds

    def judge(self, index: int, code: int) -> dict | None:
        """Check one command's report; count it as attempted and maybe failed."""
        command = self.workload.commands[index]
        self.attempted += 1
        path = ROOT / self.argvs[index][self.argvs[index].index("--output") + 1]
        found: list[str] = []
        report = None
        if code != 0:
            found.append(f"exit code {code}: {(self.work / (command.label + '.stderr')).read_text()[-500:]}")
        else:
            try:
                report = json.loads(path.read_text())
            except (OSError, ValueError) as exc:
                found.append(f"unreadable report: {exc}")
        if report is not None:
            key = json.dumps(self.canonical(report), sort_keys=True)
            if key not in self.verdicts:
                dist = self.distances.get(command.input)
                try:
                    self.verdicts[key] = check.problems(report, dist)
                except (KeyError, TypeError, ValueError) as exc:
                    self.verdicts[key] = [f"malformed report: {exc!r}"]
                picked = check.selected(report)
                if self.reference is not None and picked != self.reference.get(command.label):
                    self.verdicts[key].append(f"selected {picked} != reference {self.reference.get(command.label)}")
                self.selected.setdefault(command.label, picked)
            found += self.verdicts[key]
        if found:
            self.failed += 1
            self.problems += [f"{command.label}: {p}" for p in found]
        return report

    def subprocess_pass(self, before_command=None) -> tuple[dict[str, float], float, list[dict | None]]:
        times: dict[str, float] = {}
        peak = 0.0
        reports = []
        for index, command in enumerate(self.workload.commands):
            if before_command is not None:
                before_command()
            argv = [sys.executable, "-m", "remote_div", *self.argvs[index]]
            (ROOT / argv[argv.index("--output") + 1]).unlink(missing_ok=True)
            seconds, code, rss = self.spawner.run(argv, self.work / f"{command.label}.stderr")
            times[command.metric] = seconds
            peak = max(peak, rss)
            reports.append(self.judge(index, code))
        return times, peak, reports

    def timed(self, seconds: float) -> dict[str, list[float]]:
        self.make_inputs()
        started = time.perf_counter()
        setup = [self.setup_seconds()]
        # Set-up samples are spread over the window, at most one before each
        # command, so that a short slowdown of the host moves few of them.
        planned = max(SETUP_REPEATS, int(SETUP_SHARE * seconds / setup[0]))

        def sample_setup() -> None:
            if len(setup) < planned * (time.perf_counter() - started) / seconds:
                setup.append(self.setup_seconds())

        samples: dict[str, list[float]] = {"setup_s": setup, "wall_s": [], "peak_rss_mb": []}
        while True:
            times, peak, _ = self.subprocess_pass(sample_setup)
            wall = sum(times.values())
            samples["wall_s"].append(wall)
            samples["peak_rss_mb"].append(peak)
            for metric, value in times.items():
                samples.setdefault(metric, []).append(value)
            if time.perf_counter() - started + wall > seconds:
                break
        while len(setup) < SETUP_REPEATS:
            setup.append(self.setup_seconds())
        samples["failed_frac"] = [self.failed / self.attempted]
        return samples

    def traced(self, seconds: float) -> dict[str, list[float]]:
        self.make_inputs()
        started = time.perf_counter()
        _, _, reports = self.subprocess_pass()
        imports = []
        for _ in range(IMPORT_REPEATS):
            out = subprocess.run(
                [*INPROC, "import", "."], cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True
            )
            imports.append(float(out.stdout.strip()))
        spec, out = self.work / "trace-spec.json", self.work / "trace.json"
        peak_layers = sorted({source[1] for _, _, source in PER_LAYER if source[0] == "peak"})
        remaining = seconds - (time.perf_counter() - started)
        spec.write_text(json.dumps({"argvs": self.argvs, "seconds": remaining, "peak_layers": peak_layers}))
        out.unlink(missing_ok=True)
        _, code, _ = self.spawner.run([*INPROC, "trace", ".", str(spec), str(out)], self.work / "trace.stderr")
        if code != 0:
            raise SystemExit(f"traced pass failed:\n{(self.work / 'trace.stderr').read_text()}")
        trace = json.loads(out.read_text())
        expected = [None if r is None else self.canonical(r) for r in reports]
        plain = trace["plain_codes"]
        self.attempted += len(plain)
        self.failed += sum(code != 0 for code in plain)
        if any(code != 0 for code in plain):
            self.problems.append(f"untraced in-process exit codes {plain}")
        for traced_pass in trace["passes"]:
            for index, command in enumerate(self.workload.commands):
                self.attempted += 1
                code = traced_pass["codes"][index]
                same = traced_pass["reports"][index] == expected[index]
                if code != 0 or not same:
                    self.failed += 1
                    self.problems.append(f"{command.label}: traced exit code {code}, same report as untraced: {same}")
        first = trace["passes"][0]["counts"]
        if any(p["counts"] != first for p in trace["passes"]):
            self.problems.append("per-layer counts differ between traced passes")
        own = {
            "import_s": imports,
            "report_kb": [sum(len(json.dumps(r, indent=2, sort_keys=True)) for r in expected if r is not None) / 1024.0],
            "overhead": [p["wall"] / plain for p, plain in zip(trace["passes"], trace["plain_walls"])],
        }
        samples = {}
        for name, _unit, (kind, key) in PER_LAYER:
            if kind in ("total", "self"):
                samples[name] = [p[kind].get(key, 0.0) for p in trace["passes"]]
            elif kind == "count":
                samples[name] = [first.get(key, 0)]
            elif kind == "peak":
                samples[name] = [trace["peak_mb"].get(key, 0.0)]
            else:
                samples[name] = own[key]
        return samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "remote_div" / "__init__.py").is_file():
        print(f"no remote_div sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    with Spawner() as spawner:
        run = Run(WORKLOADS[args.workload], args.seed, spawner)
        samples = run.traced(args.seconds) if args.trace else run.timed(args.seconds)
    units = {n: u for n, u, _ in PER_LAYER} | dict(END_TO_END) | {"failed_frac": "ratio"}
    units.update({c.metric: "s" for c in run.workload.commands})
    rows = {name: summary(values) | {"unit": units[name]} for name, values in samples.items()}
    detail = {
        "workload": run.workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "selected": run.selected,
        "metrics": rows,
        "samples": samples,
    }
    (run.work / f"result-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    env = detail["environment"]
    print(f"# {run.workload.name} seed={args.seed} trace={args.trace} python={env['python']} numpy={env['numpy']} "
          f"nproc={env['nproc']} cpu={env['cpu']!r} commit={env['commit']}")
    for problem in run.problems:
        print(f"# problem: {problem}")
    for name, row in rows.items():
        print(f"{run.workload.name:17s} {name:34s} {row['unit']:6s} median={row['median']:.6g} "
              f"q1={row['q1']:.6g} q3={row['q3']:.6g} n={row['n']}")
    declared = END_TO_END if not args.trace else [(n, u) for n, u, _ in PER_LAYER]
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": rows[name]["median"], "unit": unit} for name, unit in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
