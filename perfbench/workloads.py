"""The four workloads: their complexes, seeded inputs, timed calls and checks.

Inputs are generated here with the standard library only; the program sees
them as CLI arguments and edge-list files (count, connect) or as ``Cell``
objects (plan, search).  Every workload runs in whole rounds.  Round ``k`` of
seed ``s`` draws from ``random.Random(f"{name}:{s}:{k}")``, so the same seed
gives the same inputs and no round repeats another's queries.

Each workload keeps its queries in one size class (see README.md for the
measured per-query times), so that p50 and p90 fall in the same class.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

import reference as ref

SPIDER_EDGES = ((0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6))


def named_graph(code: str) -> tuple[int, tuple[tuple[int, int], ...]]:
    """P<n> path, C<n> cycle, T<n> star centred at 0, K<n> complete, S7 the
    spider with three legs of two."""
    family, n = code[0], int(code[1:])
    if family == "S" and n == 7:
        return 7, SPIDER_EDGES
    if family == "P":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif family == "C":
        edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    elif family == "T":
        edges = [(0, i) for i in range(1, n)]
    elif family == "K":
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    else:
        raise ValueError(f"unknown graph {code!r}")
    return n, tuple(sorted(edges))


@dataclass(frozen=True)
class Spec:
    label: str
    n: int
    edges: tuple[tuple[int, int], ...]
    sizes: tuple[int, ...]

    @classmethod
    def parse(cls, label: str) -> Spec:
        code, colors = label.split(":")
        n, edges = named_graph(code)
        return cls(label, n, edges, tuple(int(c) for c in colors.split(",")))


class Mismatch(Exception):
    """A program output disagrees with the reference."""


@dataclass
class CliQuery:
    spec: Spec
    argv: list


@dataclass
class PlanQuery:
    spec: Spec
    start: tuple  # the reference's encoding
    goal: tuple
    program_spec: object  # the program's objects, built off the clock
    start_cell: object
    goal_cell: object


def _edge_list_text(n: int, edges) -> str:
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


class CliWorkload:
    """Common part of ``count`` and ``connect``: one in-process ``stirling``
    call per query on a relabelled copy of each complex's graph."""

    command = ""
    labels: tuple[str, ...] = ()
    modules = ("stirling_complexes", "stirling_complexes.cli")

    def __init__(self, seed: int, inputs_dir: Path):
        self.seed = seed
        self.specs = [Spec.parse(label) for label in self.labels]
        self.inputs_dir = inputs_dir
        inputs_dir.mkdir(parents=True, exist_ok=True)
        # Relabelling vertices keeps every checked quantity (f-vector, sorted
        # component sizes), so the reference is computed once per complex.
        # Colors keep their order: the product walk's cost depends on it (up
        # to 3x on K6 (2,1,1,1,1,1)), which would spread one complex over
        # several size classes.
        self.expected = {s.label: self.reference(s) for s in self.specs}

    def bind(self, sc) -> None:
        self.sc = sc

    def make_round(self, rnd: int) -> list[CliQuery]:
        # Each round writes fresh files and removes the last round's: on ext4,
        # truncating a file that holds data forces a flush (tens of ms).
        for old in self.inputs_dir.iterdir():
            old.unlink()
        rng = random.Random(f"{self.name}:{self.seed}:{rnd}")
        queries = []
        for idx, spec in enumerate(self.specs):
            perm = list(range(spec.n))
            rng.shuffle(perm)
            edges = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in spec.edges)
            path = self.inputs_dir / f"{rnd}-{idx}.txt"
            path.write_text(_edge_list_text(spec.n, edges))
            argv = [self.command, "--graph-file", str(path), "--colors", ",".join(map(str, spec.sizes))]
            queries.append(CliQuery(spec, argv))
        rng.shuffle(queries)
        return queries

    def close(self) -> None:
        shutil.rmtree(self.inputs_dir, ignore_errors=True)

    def run(self, q: CliQuery):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.sc.cli.main(q.argv)
        return rc, out.getvalue(), err.getvalue()

    def check(self, q: CliQuery, result) -> tuple[int, int]:
        """Raise Mismatch unless the output is right; return (cells, moves)."""
        rc, text, err = result
        if rc != 0:
            raise Mismatch(f"{q.spec.label}: exit code {rc}: {err.strip()}")
        return self.check_report(q, json.loads(text)), 0


class CountWorkload(CliWorkload):
    """``stirling count`` on covering complexes whose product walk visits
    about 10^4-10^5 leaves (45-75 ms each): f_vector does almost all the work
    and no Cell is built."""

    name = "count"
    command = "count"
    labels = (
        "P7:3,3,3",
        "C7:3,3,3",
        "P8:3,3,3",
        "S7:3,3,3",
        "K6:3,3,2",
        "C6:2,2,2,2",
        "K6:2,1,1,1,1,1",
        "P5:4,4,4,4,4,4",
    )

    def reference(self, spec: Spec):
        return ref.f_vector(spec.n, spec.edges, spec.sizes), ref.closed_form(spec.n, spec.edges, spec.sizes)

    def check_report(self, q: CliQuery, report: dict) -> int:
        fv, closed = self.expected[q.spec.label]
        got = tuple(int(x) for x in report["f_vector"])
        if got != fv:
            raise Mismatch(f"{q.spec.label}: f_vector {got} != {fv}")
        euler = sum(c if d % 2 == 0 else -c for d, c in enumerate(fv))
        if (
            report["n"] != str(q.spec.n)
            or report["m"] != str(len(q.spec.edges))
            or report["colors"] != [str(l) for l in q.spec.sizes]
            or report["empty"] is not False
            or report["euler_characteristic"] != str(euler)
        ):
            raise Mismatch(f"{q.spec.label}: report fields disagree: {report}")
        formula = report.get("formula")
        if closed is None:
            if formula is not None:
                raise Mismatch(f"{q.spec.label}: unexpected closed form {formula}")
        else:
            family, counts = closed
            if counts + (0,) * (len(fv) - len(counts)) != fv:
                raise Mismatch(f"{q.spec.label}: closed form {counts} != inclusion-exclusion {fv}")
            if formula is None or formula["family"] != family or formula["agree"] is not True:
                raise Mismatch(f"{q.spec.label}: closed form missing or disagreeing: {formula}")
            if tuple(int(x) for x in formula["f_vector"]) != counts:
                raise Mismatch(f"{q.spec.label}: formula f_vector {formula['f_vector']} != {counts}")
            if family == "two_one" and formula.get("wedge_count") != str(fv[1] - fv[0] + 1):
                raise Mismatch(f"{q.spec.label}: wedge count {formula.get('wedge_count')}")
        return sum(fv)


class ConnectWorkload(CliWorkload):
    """``stirling components`` on complexes with about 10^3 0-cells (35-65 ms
    each): every 0- and 1-cell is built as a Cell and f_vector is never
    called.  Three-color complexes are connected by the paper's theorem; the
    two-color ones split into several components."""

    name = "connect"
    command = "components"
    labels = (
        "P7:3,3,2",
        "C7:3,3,2",
        "C6:3,3,2",
        "T6:3,3,2",
        "S7:3,3,2",
        "K5:3,3,3",
        "P9:6,6",
        "C9:6,5",
        "P10:8,4",
        "C10:7,4",
    )

    def reference(self, spec: Spec):
        fv = ref.f_vector(spec.n, spec.edges, spec.sizes)
        if ref.one_component_by_theorem(spec.n, spec.edges, spec.sizes):
            comps = [fv[0]]
        else:
            comps = ref.component_sizes(spec.n, spec.edges, spec.sizes)
        return fv[0], fv[1], comps

    def check_report(self, q: CliQuery, report: dict) -> int:
        f0, f1, comps = self.expected[q.spec.label]
        sizes = sorted(int(x) for x in report["component_sizes"])
        if (
            report["nodes"] != str(f0)
            or report["arcs"] != str(f1)
            or report["components"] != str(len(comps))
            or sizes != comps
        ):
            raise Mismatch(f"{q.spec.label}: {report} != nodes {f0} arcs {f1} components {comps}")
        return f0 + f1


class PlannerWorkload:
    """Common part of ``plan`` and ``search``: seeded random start and goal
    0-cells, drawn by rejection sampling, on complexes that meet the
    constructive planner's hypotheses."""

    labels: tuple[str, ...] = ()
    modules = ("stirling_complexes",)
    pairs_per_spec = 1

    def __init__(self, seed: int, inputs_dir: Path):
        self.seed = seed
        self.specs = [Spec.parse(label) for label in self.labels]
        for s in self.specs:
            if not ref.one_component_by_theorem(s.n, s.edges, s.sizes):
                raise ValueError(f"{s.label} does not meet the planner's hypotheses")
        self.adj = {s.label: ref.adjacency(s.n, s.edges) for s in self.specs}
        self.f0 = {s.label: ref.f_vector(s.n, s.edges, s.sizes)[0] for s in self.specs}
        self.program_specs: dict = {}

    def bind(self, sc) -> None:
        self.sc = sc
        for s in self.specs:
            graph = sc.SimpleGraph.from_edges(s.n, s.edges)
            self.program_specs[s.label] = sc.ComplexSpec(graph, sc.ColorVector(s.sizes))

    def make_round(self, rnd: int) -> list[PlanQuery]:
        rng = random.Random(f"{self.name}:{self.seed}:{rnd}")
        queries = []
        for spec in self.specs:
            for _ in range(self.pairs_per_spec):
                start = ref.random_zero_cell(rng, spec.n, spec.sizes)
                goal = self.draw_goal(rng, spec, start)
                queries.append(
                    PlanQuery(spec, start, goal, self.program_specs[spec.label], self.cell(start), self.cell(goal))
                )
        rng.shuffle(queries)
        return queries

    def draw_goal(self, rng, spec: Spec, start: tuple[int, ...]) -> tuple[int, ...]:
        return ref.random_zero_cell(rng, spec.n, spec.sizes)

    def close(self) -> None:
        pass

    def cell(self, state: tuple[int, ...]):
        return self.sc.Cell.make([[v for v in range(m.bit_length()) if m >> v & 1] for m in state])

    def replay(self, q: PlanQuery, text: str) -> int:
        s = q.spec
        try:
            start, end, moves = ref.replay_plan_text(s.n, s.edges, s.sizes, text)
        except ValueError as exc:
            raise Mismatch(f"{s.label}: plan fails the reference replay: {exc}") from None
        if start != q.start or end != q.goal:
            raise Mismatch(f"{s.label}: plan does not run from the start to the goal")
        return moves


class PlanWorkload(PlannerWorkload):
    """Constructive ``plan`` between random 0-cells, then format_plan,
    parse_plan and verify_plan.  P5 (3,2,1) and P6 (3,2,2) send some queries
    to the planner's whole-complex breadth-first fallback."""

    name = "plan"
    labels = ("K5:3,3,3", "T5:3,3,3", "C6:3,3,2", "C7:3,3,3", "P5:3,2,1", "P6:3,2,2")
    pairs_per_spec = 50

    def run(self, q: PlanQuery):
        pl = self.sc.plan(q.program_spec, q.start_cell, q.goal_cell)
        text = self.sc.format_plan(pl)
        verdict = self.sc.verify_plan(self.sc.parse_plan(q.program_spec, text))
        return pl, text, verdict

    def check(self, q: PlanQuery, result) -> tuple[int, int]:
        pl, text, verdict = result
        if not verdict.ok:
            raise Mismatch(f"{q.spec.label}: verify_plan rejected the plan at {verdict.failed_at}")
        moves = self.replay(q, text)
        if moves != len(pl.moves) or moves < ref.min_moves(q.start, q.goal):
            raise Mismatch(f"{q.spec.label}: plan length {moves} is impossible")
        return self.f0[q.spec.label], moves


class SearchWorkload(PlannerWorkload):
    """Shortest plans by ``plan_bfs`` on complexes of 1380-1470 0-cells,
    replayed by verify_plan and serialized: the planner expands the complex
    through is_valid_move, apply_move and Cell.make.

    Each goal is drawn by rejection sampling among 0-cells at the complex's
    median distance from the start (measured over 300 uniformly random
    pairs).  The BFS cost grows with that distance, so uniformly random goals
    spread query times from 1 to 60 ms (coefficient of variation 0.74); at a
    fixed distance it is 0.31, one size class."""

    name = "search"
    distances = {"P6:3,3,2": 9, "C6:3,3,2": 7, "T6:3,3,2": 8, "P7:3,3,2": 13, "C7:3,3,2": 10, "S7:3,3,2": 12}
    labels = tuple(distances)
    pairs_per_spec = 2

    def draw_goal(self, rng, spec: Spec, start: tuple[int, ...]) -> tuple[int, ...]:
        adj = self.adj[spec.label]
        while True:
            goal = ref.random_zero_cell(rng, spec.n, spec.sizes)
            if ref.bfs_distance(adj, start, goal) == self.distances[spec.label]:
                return goal

    def run(self, q: PlanQuery):
        pl = self.sc.plan_bfs(q.program_spec, q.start_cell, q.goal_cell)
        verdict = self.sc.verify_plan(pl)
        return pl, verdict, self.sc.format_plan(pl)

    def check(self, q: PlanQuery, result) -> tuple[int, int]:
        pl, verdict, text = result
        label = q.spec.label
        if not verdict.ok:
            raise Mismatch(f"{label}: verify_plan rejected the plan at {verdict.failed_at}")
        moves = self.replay(q, text)
        shortest = ref.bfs_distance(self.adj[label], q.start, q.goal)
        if moves != shortest:
            raise Mismatch(f"{label}: plan_bfs gave {moves} moves, the shortest is {shortest}")
        if moves < ref.min_moves(q.start, q.goal):
            raise Mismatch(f"{label}: {moves} moves is below the lower bound")
        # The constructive planner is called off the clock, untraced.
        constructive = len(self.sc.plan(q.program_spec, q.start_cell, q.goal_cell).moves)
        if moves > constructive:
            raise Mismatch(f"{label}: shortest plan {moves} is longer than the constructive {constructive}")
        return self.f0[label], moves


WORKLOADS = {w.name: w for w in (CountWorkload, ConnectWorkload, PlanWorkload, SearchWorkload)}
