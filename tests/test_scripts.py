"""Smoke runs of the reproduction scripts, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import stirling_complexes

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(stirling_complexes.__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_reproduce_cell_counts():
    out = run_script("reproduce_cell_counts.py", "--max-uniform-r", "2", "--skip-oracle")
    assert out.returncode == 0, out.stderr
    assert "False" not in out.stdout and "agree=True" in out.stdout


@pytest.mark.parametrize("graph,colors", [("P3", "2,2,1"), ("T4", "3,3,3")])
def test_plan_roundtrip_demo(graph, colors):
    out = run_script("plan_roundtrip_demo.py", "--graph", graph, "--colors", colors)
    assert out.returncode == 0, out.stderr
    assert out.stdout.count("(verified: True)") == 2


def test_plan_roundtrip_demo_rejects_a_bad_graph_name():
    out = run_script("plan_roundtrip_demo.py", "--graph", "Q3")
    assert out.returncode == 2 and "--graph must look like K5" in out.stderr
