"""Short runs of the benchmark harness in ``perfbench/``, each in a fresh
interpreter, so that a change that breaks the harness fails here first."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_bench(workload, *args):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.3", *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    return result


@pytest.mark.parametrize("workload", ["count", "connect", "plan", "search"])
def test_each_workload_runs_correct(workload):
    result = run_bench(workload)
    assert result["metrics"]["queries_per_s"]["value"] > 0


def test_traced_search_times_plan_bfs():
    result = run_bench("search", "--trace", "1")
    assert result["metrics"]["planner.plan_bfs_s"]["value"] > 0
