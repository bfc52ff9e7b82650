"""Run every workload through the benchmark command and print every metric.

    python3 bench/report.py [--output bench/BENCH_baseline.json] [--record-reference]

Runs the command from BENCHMARK.json once per workload and seed 0-9 with
`--trace 0`, and once per workload at seed 0 with `--trace 1`, the way the
benchmark is meant to be driven. Prints one row per workload for
every metric (end-to-end, per command and per layer) with its unit, the
median and quartiles over the runs' values, the sample count and the
spread (interquartile range over median); the JSON keeps each run's
value too. A traced row summarises the passes of its single run. Writes the table, with the environment, as JSON
to --output; with --record-reference, also stores each run's selected
indices in bench/reference.json, which later runs at those seeds must
reproduce, but only when every run was correct.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import summary

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(10)


def run_once(config: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [*config["command"], "--workload", workload, "--seed", str(seed), "--seconds", str(config["run_seconds"]), "--trace", str(trace)]
    argv[0] = sys.executable if argv[0] in ("python", "python3") else argv[0]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    detail = json.loads((ROOT / ".bench_work" / workload / f"result-trace{trace}.json").read_text())
    status = "ok" if result["correct"] else "INCORRECT"
    print(f"# {workload} seed={seed} trace={trace}: {status}, {result['failed']}/{result['attempted']} failed", flush=True)
    for problem in detail["problems"]:
        print(f"#   {problem}", flush=True)
    return detail | {"correct": result["correct"]}


def table(details: list[dict], per_run: bool) -> dict:
    """Per metric: summary over the runs' medians, or over one run's samples."""
    rows = {}
    for name, first in details[0]["metrics"].items():
        if per_run:
            row = dict(first)
        else:
            values = [d["metrics"][name]["median"] for d in details]
            row = summary(values) | {"unit": first["unit"], "values": values}
        row["spread"] = (row["q3"] - row["q1"]) / row["median"] if row["median"] else 0.0
        rows[name] = row
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--output", default=None, help="write the table as JSON here")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]

    results = {}
    reference = {}
    for name in names:
        timed = [run_once(config, name, seed, 0) for seed in SEEDS]
        traced = run_once(config, name, SEEDS[0], 1)
        results[name] = {
            "correct": all(d["correct"] for d in timed) and traced["correct"],
            "attempted": sum(d["attempted"] for d in timed) + traced["attempted"],
            "failed": sum(d["failed"] for d in timed) + traced["failed"],
            "timed": table(timed, per_run=False),
            "traced": table([traced], per_run=True),
        }
        reference[name] = {str(d["seed"]): d["selected"] for d in timed}

    print(f"{'metric':34s} {'unit':6s} {'workload':17s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>3s} {'spread':>7s}")
    for section in ("timed", "traced"):
        metrics = list(dict.fromkeys(m for r in results.values() for m in r[section]))
        for metric in metrics:
            for name, result in results.items():
                row = result[section].get(metric)
                if row is not None:
                    print(f"{metric:34s} {row['unit']:6s} {name:17s} {row['median']:12.6g} {row['q1']:12.6g} "
                          f"{row['q3']:12.6g} {row['n']:3d} {row['spread']:7.3f}")
    if args.output:
        document = {
            "command": config["command"],
            "run_seconds": config["run_seconds"],
            "seeds": list(SEEDS),
            "environment": json.loads((ROOT / ".bench_work" / names[0] / "result-trace0.json").read_text())["environment"],
            "workloads": results,
        }
        Path(args.output).write_text(json.dumps(document, indent=1) + "\n")
    correct = all(r["correct"] for r in results.values())
    if args.record_reference:
        if not correct:
            print("# reference.json not written: some runs were incorrect", file=sys.stderr)
            return 1
        (BENCH / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
