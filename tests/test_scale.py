"""End-to-end runs at the north star's sizes (10^5 points; brute force at
the enumeration cap) and a sweep of `verify` over a hundred seeds, marked
`slow` and left out of the default run (`pyproject.toml` deselects the
marker); run them with `-m slow`."""
from __future__ import annotations

import contextlib
import io
import json
import sys

import pytest

from remote_div import load_pointset, pf_cost
from remote_div.cli import main
from conftest import run_fresh

# A child's max-RSS from `wait4` also counts the high-water mark of the
# process that started it, so this small interpreter, not pytest, starts
# the CLI and reports its wall time and max-RSS.
_LAUNCH = """
import os, sys, time
start = time.perf_counter()
stdout = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ, file_actions=stdout)
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - start, usage.ru_maxrss / 1024.0)
sys.exit(os.waitstatus_to_exitcode(status))
"""


def _cli(*args: str) -> tuple[float, float]:
    """Run the CLI in a fresh interpreter; return its wall time and its
    max-RSS in MB."""
    seconds, max_rss = run_fresh(_LAUNCH, sys.executable, "-m", "remote_div", *args).split()
    return float(seconds), float(max_rss)


@pytest.mark.slow
def test_pseudoforest_on_a_hundred_thousand_points_runs_in_seconds(tmp_path):
    # The coreset's outlier radius reads only the cells whose floors reach
    # the best radius, so clustered and 3-D points take seconds too. The net
    # tree and its DP keep per-level arrays, so `solve` peaks no higher than
    # `coreset` does on the same points.
    for kind, dim, commands, bound in (
        ("uniform_cube", 2, ("solve", "coreset"), 60.0),
        ("clusters", 2, ("coreset",), 8.0),
        ("uniform_cube", 3, ("coreset",), 8.0),
    ):
        points = tmp_path / f"{kind}-{dim}.json"
        _cli("gen", "--kind", kind, "--n", "100000", "--dim", str(dim), "--seed", "1", "--output", str(points))
        max_rss = {}
        for command in commands:
            report = tmp_path / f"{command}.json"
            elapsed, max_rss[command] = _cli(
                command, "--objective", "pseudoforest", "--k", "10", "--input", str(points), "--output", str(report)
            )
            assert elapsed < bound, f"{command} on {dim}-D {kind} took {elapsed:.1f} s"
            assert len(json.loads(report.read_text())["indices"]) <= 50
        if "solve" in max_rss:
            assert max_rss["solve"] <= 1.1 * max_rss["coreset"], f"max-RSS {max_rss} MB on {dim}-D {kind}"


@pytest.mark.slow
def test_pseudoforest_brute_force_at_the_enumeration_cap_runs_in_seconds(tmp_path):
    # C(40, 6) = 3,838,380 subsets, under ENUMERATION_CAP: brute force
    # scores them in blocks of consecutive ranks, never one tuple each.
    points = tmp_path / "points.json"
    _cli("gen", "--kind", "uniform_cube", "--n", "40", "--dim", "2", "--seed", "1", "--output", str(points))
    report = tmp_path / "eval.json"
    elapsed, _max_rss = _cli(
        "eval", "--objective", "pseudoforest", "--k", "6", "--input", str(points), "--output", str(report)
    )
    assert elapsed < 10.0, f"eval took {elapsed:.1f} s"
    result = json.loads(report.read_text())
    ps = load_pointset(points.read_text(), "json")
    assert result["value"].hex() == pf_cost(ps, result["indices"]).value.hex()


@pytest.mark.slow
def test_verify_passes_at_every_seed_below_a_hundred():
    # The benchmark's setting (--trials 40) at seeds 0-99, and the README's
    # example: every instance the suites draw must pass, whatever the seed.
    runs = [(str(seed), "40") for seed in range(100)] + [("2", "200")]
    failed = []
    for seed, trials in runs:
        with contextlib.redirect_stdout(io.StringIO()):
            if main(["verify", "--suite", "all", "--seed", seed, "--trials", trials]) != 0:
                failed.append((seed, trials))
    assert not failed, f"verify failed at (seed, trials) {failed}"
