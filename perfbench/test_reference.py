"""Tests of the benchmark's reference module.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import itertools
import random
import sys
from collections import deque
from pathlib import Path

import pytest

import reference as ref
import workloads

SRC = Path(__file__).resolve().parents[1] / "src"


def graph(code):
    return workloads.named_graph(code)


def brute_force_f_vector(n, edges, sizes):
    """Filter every tuple of element subsets: vertices and closed edges of a
    part pairwise disjoint, vertex elements covering V."""
    elements = [(v,) for v in range(n)] + [tuple(e) for e in edges]
    counts = {}
    per_color = []
    for l in sizes:
        parts = []
        for combo in itertools.combinations(elements, l):
            touched = [v for el in combo for v in el]
            if len(touched) == len(set(touched)):
                cover = sum(1 << el[0] for el in combo if len(el) == 1)
                parts.append((cover, sum(len(el) == 2 for el in combo)))
        per_color.append(parts)
    for choice in itertools.product(*per_color):
        cover = 0
        for c, _ in choice:
            cover |= c
        if cover == (1 << n) - 1:
            d = sum(k for _, k in choice)
            counts[d] = counts.get(d, 0) + 1
    top = sum(sizes) - n
    return tuple(counts.get(d, 0) for d in range(top + 1))


def plain_bfs_distance(adj, start, goal):
    dist = {start: 0}
    queue = deque([start])
    while queue:
        s = queue.popleft()
        if s == goal:
            return dist[s]
        for t in ref.successors(adj, s):
            if t not in dist:
                dist[t] = dist[s] + 1
                queue.append(t)
    return None


def all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for k in range(len(pairs) + 1):
        for edges in itertools.combinations(pairs, k):
            yield edges


def test_star_t4_three_two():
    n, edges = graph("T4")
    assert ref.f_vector(n, edges, (3, 2)) == (12, 9)
    assert ref.component_sizes(n, edges, (3, 2)) == [4, 4, 4]


def test_path_p3_has_21_zero_cells():
    n, edges = graph("P3")
    assert ref.f_vector(n, edges, (2, 2, 1))[0] == 21
    assert len(ref.zero_cells(n, (2, 2, 1))) == 21


@pytest.mark.parametrize(
    "code,sizes",
    [("P3", (2, 2, 1)), ("T4", (3, 2)), ("C4", (2, 2, 2)), ("K4", (2, 1, 1, 1)), ("P4", (3, 3)), ("T4", (2, 2, 1))],
)
def test_inclusion_exclusion_matches_brute_force(code, sizes):
    n, edges = graph(code)
    assert ref.f_vector(n, edges, sizes) == brute_force_f_vector(n, edges, sizes)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_closed_forms_match_inclusion_exclusion_on_every_small_graph(n):
    for edges in all_graphs(n):
        two_one = (2,) + (1,) * (n - 1)
        fv = ref.f_vector(n, edges, two_one)
        assert fv[:2] == ref.two_one_counts(n, len(edges)) and not any(fv[2:])
        for r in (2, 3):
            uniform = ref.uniform_counts(n, edges, r)
            fv = ref.f_vector(n, edges, (n - 1,) * r)
            width = max(len(fv), len(uniform))
            assert fv + (0,) * (width - len(fv)) == uniform + (0,) * (width - len(uniform))


@pytest.mark.parametrize("code,sizes", [("P4", (3, 2, 1)), ("C5", (3, 3)), ("K4", (2, 2, 1)), ("P6", (4, 3))])
def test_moves_are_the_one_cells(code, sizes):
    n, edges = graph(code)
    adj = ref.adjacency(n, edges)
    fv = ref.f_vector(n, edges, sizes)
    cells = ref.zero_cells(n, sizes)
    assert len(cells) == fv[0]
    assert sum(1 for c in cells for _ in ref.successors(adj, c)) == 2 * fv[1]


def test_component_counts_of_two_color_paths():
    n, edges = graph("P6")
    assert len(ref.component_sizes(n, edges, (4, 3))) == 10
    n, edges = graph("C7")
    assert len(ref.component_sizes(n, edges, (5, 3))) == 3


@pytest.mark.parametrize("code", ["P3", "P4", "T4", "C4", "K4", "P5"])
def test_theorem_on_small_three_color_complexes(code):
    n, edges = graph(code)
    for sizes in itertools.product(range(1, n), repeat=3):
        if ref.one_component_by_theorem(n, edges, sizes):
            assert len(ref.component_sizes(n, edges, sizes)) == 1


def test_bidirectional_bfs_matches_plain_bfs():
    rng = random.Random(7)
    for code, sizes in [("P5", (3, 2, 1)), ("T5", (3, 3, 3)), ("C6", (3, 3, 2)), ("P6", (4, 3))]:
        n, edges = graph(code)
        adj = ref.adjacency(n, edges)
        for _ in range(15):
            a = ref.random_zero_cell(rng, n, sizes)
            b = ref.random_zero_cell(rng, n, sizes)
            assert ref.bfs_distance(adj, a, b) == plain_bfs_distance(adj, a, b)
            if ref.bfs_distance(adj, a, b) is not None:
                assert ref.bfs_distance(adj, a, b) >= ref.min_moves(a, b)


def test_random_zero_cells_are_valid_and_seeded():
    n, edges = graph("C6")
    cells = set(ref.zero_cells(n, (3, 3, 2)))
    draws = [ref.random_zero_cell(random.Random(3), n, (3, 3, 2)) for _ in range(2)]
    assert draws[0] == draws[1] and draws[0] in cells


def test_cell_text_round_trip():
    state = (0b011, 0b101, 0b001)
    assert ref.cell_text(state) == "{0,1}|{0,2}|{0}"
    assert ref.parse_zero_cell("{0,1}|{0,2}|{0}") == state


def test_replay_accepts_legal_and_rejects_illegal_moves():
    n, edges = graph("P3")
    sizes = (2, 2, 1)
    start = "{0,1}|{0,2}|{0}\n"
    _, end, moves = ref.replay_plan_text(n, edges, sizes, start + "2 0 1\n")
    assert end == (0b011, 0b101, 0b010) and moves == 1
    with pytest.raises(ValueError):  # color 0 is already on vertex 1
        ref.replay_plan_text(n, edges, sizes, start + "0 0 1\n")
    with pytest.raises(ValueError):  # vertex 2 would be left uncovered
        ref.replay_plan_text(n, edges, sizes, start + "1 2 1\n")
    with pytest.raises(ValueError):  # (0, 2) is not an edge of P3
        ref.replay_plan_text(n, edges, sizes, start + "2 0 2\n")
    with pytest.raises(ValueError):  # vertex 1 is uncovered at the start
        ref.replay_plan_text(n, edges, sizes, "{0,2}|{0,2}|{0}\n")


@pytest.fixture
def program():
    if not (SRC / "stirling_complexes").is_dir():
        pytest.skip("the program's source tree is not here")
    sys.path.insert(0, str(SRC))
    import stirling_complexes

    return stirling_complexes


@pytest.mark.parametrize(
    "label",
    ["K6:3,3,3", "P7:3,3,3", "C6:3,3,3", "S7:3,3,2", "T4:3,2", "K5:4,4,4,4", "P5:4,4,4,4,4,4", "C9:6,5"],
)
def test_inclusion_exclusion_agrees_with_the_program(program, label):
    spec = workloads.Spec.parse(label)
    sc_spec = program.ComplexSpec(program.SimpleGraph.from_edges(spec.n, spec.edges), program.ColorVector(spec.sizes))
    assert ref.f_vector(spec.n, spec.edges, spec.sizes) == program.f_vector(sc_spec)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_specs_parse_and_planner_specs_meet_the_hypotheses(workload, tmp_path):
    wl = workloads.WORKLOADS[workload](1, tmp_path)
    assert len({s.label for s in wl.specs}) == len(wl.specs)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    import json

    import run
    import tracing

    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    metrics = tracing.Tracer().layer_metrics(1)
    metrics.update({"planner.moves_per_plan": 0.0, "bench.trace_overhead": 1.0})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.per_layer_units(name) for name in metrics
    }
