#!/usr/bin/env python3
"""Benchmark for stirling_complexes: four workloads, one closed-loop caller.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload count --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload plan --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --repeat 10 --workload all --seconds 25

One process and one thread issue each query only after the previous one
returned.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs a
fixed number of rounds untraced and then the same rounds traced, and prints
the per-layer metrics.  ``--repeat N`` runs each workload N times with seeds
``seed .. seed+N-1`` and reports each end-to-end metric's median and quartiles
next to its bound.  The last line of every run is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_PROBES = 11
# Rounds per second of --seconds in a traced run; each of its two phases runs
# ceil(seconds * rate) rounds, about half of --seconds at today's speed.
TRACE_ROUNDS_PER_S = {"count": 1.0, "connect": 1.0, "plan": 2.0, "search": 1.5}

sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402  (stdlib only; imports no part of the program)
from tracing import Tracer  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "cells_per_s": "1/s",
}


def import_program():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "stirling_complexes" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'stirling_complexes'} not found; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import stirling_complexes
    import stirling_complexes.cli  # noqa: F401  (binds sc.cli)

    if Path(stirling_complexes.__file__).resolve().parent != (SRC / "stirling_complexes").resolve():
        sys.exit(f"error: imported stirling_complexes from {stirling_complexes.__file__}")
    return stirling_complexes


def setup_seconds(wl) -> float:
    """Median time, in fresh interpreters, to import the package and build the
    workload's graphs and specs (the first probe warms the bytecode cache)."""
    specs = [(s.n, s.edges, s.sizes) for s in wl.specs]
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        + "".join(f"import {m}\n" for m in wl.modules)
        + "sc = stirling_complexes\n"
        f"specs = [sc.ComplexSpec(sc.SimpleGraph.from_edges(n, e), sc.ColorVector(s)) for n, e, s in {specs!r}]\n"
        "print(time.perf_counter() - t0)\n"
    )
    times = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=120, check=True
        )
        times.append(float(done.stdout.strip()))
    return statistics.median(times[1:])


class Loop:
    """Runs whole rounds of queries, times the program calls, checks outputs."""

    def __init__(self, wl):
        self.wl = wl
        self.latencies: list[float] = []
        self.cells = 0
        self.moves: list[int] = []
        self.failed = 0
        self.mismatches: list[str] = []
        self.labels: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.failed

    def run_round(self, rnd: int, tracer: Tracer | None = None) -> None:
        wl = self.wl
        for q in wl.make_round(rnd):
            qid = len(self.labels)
            self.labels.append(q.spec.label)
            span = tracer.begin_query(qid) if tracer else None
            t0 = time.perf_counter()
            try:
                result = wl.run(q)
            except Exception as exc:  # a failed operation: counted, reported, not timed
                if tracer:
                    tracer.end_query(span)
                self.failed += 1
                print(f"failed: {q.spec.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            t1 = time.perf_counter()
            if tracer:
                tracer.end_query(span)
            self.latencies.append(t1 - t0)
            try:
                cells, moves = wl.check(q, result)
            except workloads.Mismatch as exc:
                self.mismatches.append(str(exc))
                print(f"wrong: {exc}", file=sys.stderr)
                continue
            self.cells += cells
            self.moves.append(moves)

    def busy(self) -> float:
        return sum(self.latencies)


def end_to_end(loop: Loop, setup_s: float) -> dict[str, float]:
    lat = loop.latencies
    busy = loop.busy()
    return {
        "setup_s": setup_s,
        "queries_per_s": len(lat) / busy,
        "query_p50_ms": statistics.median(lat) * 1e3,
        "query_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cells_per_s": loop.cells / busy,
    }


def per_layer_units(name: str) -> str:
    if name in ("bench.trace_overhead", "planner.successor_yield"):
        return "ratio"
    if name.endswith("_s"):
        return "s/query"
    if name == "planner.moves_per_plan":
        return "moves"
    if name == "cli.output_bytes":
        return "bytes/query"
    return "count/query"


def measure(args, wl) -> tuple[Loop, dict]:
    setup_s = setup_seconds(wl)
    Loop(wl).run_round(-1)  # warm-up round, not counted
    loop = Loop(wl)
    deadline = time.perf_counter() + args.seconds
    rnd = 0
    while time.perf_counter() < deadline:
        loop.run_round(rnd)
        rnd += 1
    metrics = end_to_end(loop, setup_s)
    print(f"{wl.name} seed {args.seed}: {rnd} rounds, {loop.attempted} queries, {loop.failed} failed")
    if loop.moves and any(loop.moves):
        print(f"  moves_per_plan     {statistics.mean(loop.moves):.3f} moves")
    return loop, metrics


def measure_traced(args, wl, sc) -> tuple[Loop, dict]:
    rounds = max(1, math.ceil(args.seconds * TRACE_ROUNDS_PER_S[wl.name]))
    Loop(wl).run_round(-1)
    plain = Loop(wl)
    for rnd in range(rounds):
        plain.run_round(rnd)
    tracer = Tracer()
    tracer.install(sc)
    traced = Loop(wl)
    try:
        for rnd in range(rounds):
            traced.run_round(rnd, tracer)
    finally:
        tracer.uninstall()
    queries = len(traced.latencies)
    metrics = tracer.layer_metrics(queries)
    metrics["planner.moves_per_plan"] = statistics.mean(traced.moves) if any(traced.moves) else 0.0
    metrics["bench.trace_overhead"] = (queries / traced.busy()) / (len(plain.latencies) / plain.busy())

    own_total = sum(tracer.self_times())
    print(f"{wl.name} seed {args.seed} traced: {rounds} rounds, {queries} queries, {len(tracer.spans)} spans")
    print(f"  span self times sum to {own_total:.4f} s of {traced.busy():.4f} s traced query time")
    fallbacks = Counter(tracer.spans[idx][4] for idx in tracer.fallback_spans())
    if fallbacks:
        per_label: dict[str, list[int]] = {}
        for qid, label in enumerate(traced.labels):
            entry = per_label.setdefault(label, [0, 0])
            entry[0] += fallbacks[qid]
            entry[1] += 1
        for label, (fb, n) in per_label.items():
            print(f"  fallbacks {label:16s} {fb}/{n} queries")
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"spans-{wl.name}-seed{args.seed}.jsonl", "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    loop = Loop(wl)
    loop.latencies = plain.latencies + traced.latencies
    loop.failed = plain.failed + traced.failed
    loop.mismatches = plain.mismatches + traced.mismatches
    return loop, metrics


def run_once(args) -> int:
    os.environ.pop("STIRLING_WORKERS", None)
    sc = import_program()
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT / f"inputs-{args.workload}-seed{args.seed}")
    wl.bind(sc)
    try:
        if args.trace:
            loop, metrics = measure_traced(args, wl, sc)
            units = {name: per_layer_units(name) for name in metrics}
        else:
            loop, metrics = measure(args, wl)
            units = END_TO_END_UNITS
    finally:
        wl.close()
    for name, value in metrics.items():
        print(f"  {name:36s} {value:.6g} {units[name]}")
    if loop.mismatches:
        print(f"{len(loop.mismatches)} wrong outputs", file=sys.stderr)
    result = {
        "correct": not loop.mismatches,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result) + "\n")
    print(json.dumps(result))
    return 0


def repeat(args) -> int:
    """Run each workload N times and report medians and quartiles against the bounds."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    summary = {}
    for name in names:
        runs = []
        for seed in range(args.seed, args.seed + args.repeat):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return done.returncode
            runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        rows = {}
        print(f"\n{name}: {len(runs)} runs, failed/attempted = "
              + ", ".join(f"{r['failed']}/{r['attempted']}" for r in runs)
              + f", all correct: {all(r['correct'] for r in runs)}")
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}  spread <= bound/3")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            rows[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
            print(f"  {metric:16s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} {bound:6.2f}  {spread <= bound / 3}")
        summary[name] = {"runs": runs, "metrics": rows}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"repeat-seed{args.seed}x{args.repeat}.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="run each workload this many times")
    args = parser.parse_args(argv)
    if args.repeat:
        return repeat(args)
    if args.workload == "all":
        parser.error("--workload all needs --repeat")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
