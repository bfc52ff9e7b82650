"""The benchmark's workloads: the input files each one generates and the
`remote-div` commands it times.

Every command writes its report to a file, so the untraced subprocess run
and the traced in-process run see identical argv and therefore identical
flag echoes in their reports.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Input:
    """One generated input file: `uniform_cube` points from the `gen`
    command, optionally rewritten as a distance matrix."""

    name: str
    n: int
    dim: int
    matrix: bool = False

    @property
    def fmt(self) -> str:
        return "matrix-csv" if self.matrix else "json"

    @property
    def filename(self) -> str:
        return f"{self.name}.csv" if self.matrix else f"{self.name}.json"


@dataclass(frozen=True)
class Command:
    """One timed CLI command. `metric` names its end-to-end time; `args`
    may contain `{seed}`, and `input` names the Input it reads."""

    metric: str
    args: tuple[str, ...]
    input: str | None = None

    @property
    def label(self) -> str:
        return self.metric[: -len("_s")]


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is stated in BENCHMARK.json and README.md."""

    name: str
    inputs: tuple[Input, ...]
    commands: tuple[Command, ...]


def _args(spec: str) -> tuple[str, ...]:
    """'CMD OBJECTIVE K REST...' as CLI arguments."""
    command, objective, k, *rest = spec.split()
    return (command, "--objective", objective, "--k", k, *rest)


def _solve(objective: str, k: int, source: str, metric: str) -> Command:
    return Command(metric, _args(f"solve {objective} {k} --seed {{seed}}"), source)


# Each workload runs two groups of commands; a command's metric name starts
# with its group. Grouping two mechanisms per workload gives each workload a
# long measuring window within the benchmark's total time.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="large-inputs",
            inputs=(Input("cube4000", 4000, 2), Input("dist500", 500, 32, matrix=True)),
            commands=(
                # euclid: dense n*n matrices, the net tree and the coreset row
                # scans; both composes take the lower-bound path; the matching
                # DP is only 2^10 states.
                _solve("pseudoforest", 10, "cube4000", "euclid.solve_pf_s"),
                _solve("matching", 10, "cube4000", "euclid.solve_mwm_s"),
                Command("euclid.coreset_pf_s", _args("coreset pseudoforest 10 --epsilon 1"), "cube4000"),
                Command("euclid.compose_pf_s", _args("compose pseudoforest 10 --parts 4 --seed {seed}"), "cube4000"),
                Command("euclid.compose_mwm_s", _args("compose matching 10 --parts 4 --seed {seed}"), "cube4000"),
                # matrix: the CSV parse and the O(n^3) triangle check; distances
                # are lookups; the coreset takes the peel branch.
                _solve("pseudoforest", 10, "dist500", "matrix.solve_pf_s"),
                _solve("matching", 10, "dist500", "matrix.solve_mwm_s"),
                Command("matrix.coreset_pf_s", _args("coreset pseudoforest 8 --epsilon 0.5"), "dist500"),
            ),
        ),
        Workload(
            name="exact-evaluators",
            inputs=(Input("cube1200", 1200, 2), Input("pf40", 40, 2), Input("mwm22", 22, 2)),
            commands=(
                # largek: the 2^k exact-matching DP; the n*n matrix is small.
                _solve("matching", 16, "cube1200", "largek.solve_mwm_s"),
                Command("largek.compose_mwm_s", _args("compose matching 16 --parts 4 --seed {seed}"), "cube1200"),
                # oracle: many tiny evaluator calls in brute force and the hst
                # identities, so per-call overhead dominates.
                Command("oracle.eval_pf_s", _args("eval pseudoforest 5"), "pf40"),
                Command("oracle.eval_mwm_s", _args("eval matching 6"), "mwm22"),
                Command("oracle.compose_mwm_s", _args("compose matching 4 --parts 3 --seed {seed} --oracle"), "pf40"),
                Command("oracle.verify_s", ("verify", "--suite", "all", "--trials", "40", "--seed", "{seed}"), None),
            ),
        ),
    )
}


def command_argv(workload: Workload, command: Command, seed: int, workdir: str) -> list[str]:
    """CLI argv (without the program name) for one command of `workload`."""
    argv = [a.replace("{seed}", str(seed)) for a in command.args]
    if command.input is not None:
        source = next(i for i in workload.inputs if i.name == command.input)
        argv += ["--input", f"{workdir}/{source.filename}", "--input-format", source.fmt]
    argv += ["--output", f"{workdir}/{command.label}.report.json"]
    return argv
