import hashlib
import itertools
import random
from collections import Counter, deque

import pytest

from conftest import color_vectors, connected_graphs
from stirling_complexes import (
    Cell,
    ColorVector,
    ComplexSpec,
    HypothesisNotMetError,
    InternalPlanningError,
    Move,
    MovePlan,
    PlanningError,
    PlanVerification,
    SimpleGraph,
    apply_move,
    build_one_skeleton,
    component_labels,
    enumerate_cells,
    format_plan,
    generate_named,
    is_available,
    is_nontrivial,
    is_valid_cell,
    is_valid_move,
    leapfrog,
    occupancy,
    parse_graph_name,
    parse_plan,
    plan,
    plan_bfs,
    same_type,
    same_type_plan,
    shortest_path,
    snap,
    swap_colors,
    swap_third,
    verify_plan,
)
from stirling_complexes.complexes import EmptyComplexError, _one_skeleton, _zero_key
from stirling_complexes.planner import InvalidMoveError, PlanFormatError


def occ_map(g, cell):
    return [set(occupancy(cell, v)) for v in range(g.n)]


def reference_bfs_parents(spec, start):
    """Breadth-first search over ``Cell`` objects through the public
    is_valid_move/apply_move, in the planner's successor order (color, source
    vertex, adjacency order).  Parents are fixed on first discovery, so a
    search that stops at a goal assigns the same parents up to that point:
    the path to any goal in this tree is the plan such a search returns."""
    parent = {start: None}
    queue = deque([start])
    while queue:
        cell = queue.popleft()
        for color in range(spec.colors.r):
            for u in cell.parts[color]:
                for v in spec.graph.adjacency[u]:
                    mv = Move(color, u, v)
                    if not is_valid_move(spec, cell, mv):
                        continue
                    nxt = apply_move(spec, cell, mv)
                    if nxt not in parent:
                        parent[nxt] = (cell, mv)
                        queue.append(nxt)
    return parent


def reference_moves(parent, goal):
    moves = []
    while parent[goal] is not None:
        goal, mv = parent[goal]
        moves.append(mv)
    return tuple(reversed(moves))


def skeleton_distances(sk, source):
    """Arc-count distances from one node of the 1-skeleton."""
    nbrs = [[] for _ in sk.nodes]
    for a, b in sk.arcs:
        nbrs[a].append(b)
        nbrs[b].append(a)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        a = queue.popleft()
        for b in nbrs[a]:
            if b not in dist:
                dist[b] = dist[a] + 1
                queue.append(b)
    return dist


@pytest.fixture
def p5_relay():
    """The 5-path relay scene: two greens and a blue stacked left, red at the end."""
    g = generate_named("path", 5)
    spec = ComplexSpec(g, ColorVector((3, 2, 1)))  # 0=green, 1=blue, 2=red
    cell = Cell.make([(0, 1, 3), (0, 2), (4,)])
    assert is_valid_cell(spec, cell)
    return spec, cell


class TestMoves:
    def test_lone_robot_cannot_leave_under_coverage(self, p3):
        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        cell = Cell.make([(0, 1), (0, 2), (0,)])
        assert not is_valid_move(spec, cell, Move(0, 1, 2))

    def test_relay_first_step_is_legal(self, p5_relay):
        spec, cell = p5_relay
        assert is_valid_move(spec, cell, Move(1, 0, 1))

    def test_color_must_be_present(self, p3):
        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        cell = Cell.make([(0, 1), (0, 2), (0,)])
        assert not is_valid_move(spec, cell, Move(2, 1, 2))

    def test_target_must_lack_the_color(self, p3):
        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        cell = Cell.make([(0, 1), (0, 2), (0,)])
        assert not is_valid_move(spec, cell, Move(0, 0, 1))  # color 0 already on 1
        assert is_valid_move(spec, cell, Move(2, 0, 1))

    def test_needs_an_edge(self, p3):
        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        cell = Cell.make([(0, 1), (0, 2), (0,)])
        assert not is_valid_move(spec, cell, Move(2, 0, 2))

    def test_matches_two_cell_definition(self, t4):
        """A move is legal exactly when the crossed 1-cell and the target
        0-cell are valid cells (checked in both coverage modes)."""
        rng = random.Random(5)
        for spec in (
            ComplexSpec(t4, ColorVector((3, 2))),
            ComplexSpec(t4, ColorVector((1, 1)), require_cover=False),
        ):
            cells = list(enumerate_cells(spec, dim=0))
            for cell in rng.sample(cells, min(8, len(cells))):
                for color in range(spec.colors.r):
                    for u, v in itertools.product(range(t4.n), repeat=2):
                        if not t4.has_edge(u, v) or u not in cell.parts[color]:
                            continue
                        crossing = Cell.make(
                            [
                                tuple((min(u, v), max(u, v)) if el == u else el for el in part)
                                if c == color
                                else part
                                for c, part in enumerate(cell.parts)
                            ]
                        )
                        landing = Cell.make(
                            [
                                tuple(v if el == u else el for el in part)
                                if c == color
                                else part
                                for c, part in enumerate(cell.parts)
                            ]
                        )
                        expected = is_valid_cell(spec, crossing) and is_valid_cell(spec, landing)
                        assert is_valid_move(spec, cell, Move(color, u, v)) == expected

    def test_apply_and_reverse(self, t4):
        spec = ComplexSpec(t4, ColorVector((3, 2)))
        for cell in enumerate_cells(spec, dim=0):
            for color in range(2):
                for u in cell.parts[color]:
                    for v in t4.adjacency[u]:
                        mv = Move(color, u, v)
                        if not is_valid_move(spec, cell, mv):
                            continue
                        nxt = apply_move(spec, cell, mv)
                        assert is_valid_move(spec, nxt, mv.flipped())
                        assert apply_move(spec, nxt, mv.flipped()) == cell
                        changed = [
                            c for c, (pa, pb) in enumerate(zip(cell.parts, nxt.parts)) if pa != pb
                        ]
                        assert changed == [color]

    def test_apply_rejects_illegal(self, p3):
        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        cell = Cell.make([(0, 1), (0, 2), (0,)])
        with pytest.raises(InvalidMoveError):
            apply_move(spec, cell, Move(0, 1, 2))

    def test_moves_are_zero_cell_only(self, p3):
        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        one_cell = Cell.make([(0, 1), (0, 2), ((0, 1),)])
        with pytest.raises(ValueError):
            is_valid_move(spec, one_cell, Move(0, 0, 1))

    def test_cell_outside_the_complex_is_rejected(self, p3):
        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        off = ComplexSpec(p3, ColorVector((1, 1)), require_cover=False)
        for spec, bad, mv in (
            (spec, Cell.make([(0, 3), (0, 2), (0,)]), Move(0, 0, 1)),
            (spec, Cell.make([(-1, 1), (0, 2), (0,)]), Move(0, 0, 1)),
            (spec, Cell.make([(0, 0), (0, 2), (0,)]), Move(0, 0, 1)),
            (spec, Cell.make([(0, 1), (0, 2)]), Move(0, 0, 1)),
            # vertex 2 bare, a part of the wrong size, a vertex shared with coverage off
            (spec, Cell.make([(0, 1), (0, 1), (0,)]), Move(0, 1, 2)),
            (spec, Cell.make([(0,), (0, 1, 2), (0,)]), Move(0, 0, 1)),
            (off, Cell.make([(0,), (0,)]), Move(0, 0, 1)),
        ):
            with pytest.raises(ValueError):
                is_valid_move(spec, bad, mv)
            with pytest.raises(ValueError):
                apply_move(spec, bad, mv)

    def test_color_out_of_range_is_illegal(self, p3):
        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        cell = Cell.make([(0, 1), (0, 2), (0,)])
        assert not is_valid_move(spec, cell, Move(7, 0, 1))


class TestSnap:
    def test_zero_cells_fixed(self, p3):
        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        cell = Cell.make([(0, 1), (0, 2), (0,)])
        assert snap(spec, cell) == cell

    def test_square_edge_snaps_to_corner(self, p3):
        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        one_cell = Cell.make([(0, 1), (0, 2), ((0, 1),)])
        assert snap(spec, one_cell) == Cell.make([(0, 1), (0, 2), (0,)])

    def test_every_cell_snaps_to_valid_zero_cell(self, p3):
        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        for cell in enumerate_cells(spec):
            snapped = snap(spec, cell)
            assert snapped.dimension == 0
            assert is_valid_cell(spec, snapped)

    def test_snap_rejects_invalid_cells(self, p3):
        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        with pytest.raises(ValueError):
            snap(spec, Cell.make([(0, 1), (0, 1), (0,)]))


class TestLeapfrog:
    def test_relay_through_blocking_robot(self, p5_relay):
        spec, cell = p5_relay
        result = leapfrog(spec, cell, 0, (0, 1, 2, 3), 1)
        assert [(m.color, m.source, m.target) for m in result.moves] == [
            (1, 0, 1),
            (0, 1, 2),
            (1, 2, 3),
        ]
        assert verify_plan(result)

    def test_adjacent_base_case(self, p3):
        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        cell = Cell.make([(0, 1), (0, 2), (0,)])
        result = leapfrog(spec, cell, 0, (0, 1), 2)
        assert [(m.color, m.source, m.target) for m in result.moves] == [(2, 0, 1)]

    def test_postcondition_bullets(self, c4):
        spec = ComplexSpec(c4, ColorVector((2, 2, 1, 1)))
        rng = random.Random(11)
        cells = list(enumerate_cells(spec, dim=0))
        done = 0
        while done < 60:
            cell = rng.choice(cells)
            omap = occ_map(c4, cell)
            z = rng.randrange(c4.n)
            if len(omap[z]) < 2:
                continue
            k = rng.choice(sorted(omap[z]))
            targets = [x for x in range(c4.n) if x != z and k not in omap[x]]
            if not targets:
                continue
            x = rng.choice(targets)
            path = shortest_path(c4, z, x)
            result = leapfrog(spec, cell, z, path, k)
            assert verify_plan(result)
            after = occ_map(c4, result.end)
            assert after[x] == omap[x] | {k}
            assert len(after[z]) == len(omap[z]) - 1
            for v in path[1:-1]:
                assert len(after[v]) == len(omap[v])
            for v in set(range(c4.n)) - set(path):
                assert after[v] == omap[v]
            done += 1

    def test_off_path_untouched_at_every_step(self, p5_relay):
        spec, cell = p5_relay
        path = (0, 1, 2, 3)
        result = leapfrog(spec, cell, 0, path, 1)
        cur = cell
        for mv in result.moves:
            assert mv.source in path and mv.target in path
            cur = apply_move(spec, cur, mv)

    def test_precondition_errors(self, p5_relay):
        spec, cell = p5_relay
        with pytest.raises(PlanningError, match="available"):
            leapfrog(spec, cell, 3, (3, 4), 0)
        with pytest.raises(PlanningError, match="no robot"):
            leapfrog(spec, cell, 0, (0, 1), 2)
        with pytest.raises(PlanningError, match="already"):
            leapfrog(spec, cell, 0, (0, 1, 2), 1)
        with pytest.raises(PlanningError, match="adjacent"):
            leapfrog(spec, cell, 0, (0, 2), 1)
        with pytest.raises(PlanningError, match="start"):
            leapfrog(spec, cell, 0, (1, 2), 1)
        with pytest.raises(PlanningError, match="repeat"):
            leapfrog(spec, cell, 0, (0, 1, 0, 1), 1)
        with pytest.raises(PlanningError, match="empty"):
            leapfrog(spec, cell, 0, (), 1)
        with pytest.raises(PlanningError, match="different vertex"):
            leapfrog(spec, cell, 0, (0,), 1)

    def test_covering_mode_required(self, t4):
        spec = ComplexSpec(t4, ColorVector((1, 1)), require_cover=False)
        cell = Cell.make([(0,), (2,)])
        with pytest.raises(PlanningError, match="covering"):
            leapfrog(spec, cell, 0, (0, 1), 0)
        with pytest.raises(PlanningError, match="covering"):
            swap_third(spec, cell, 0, 2, (0, 2), 0, 1)


class TestSwapThird:
    def test_adjacent_base_case(self):
        g = generate_named("path", 2)
        spec = ComplexSpec(g, ColorVector((1, 1, 1)))
        cell = Cell.make([(0,), (0,), (1,)])  # red+green stacked, blue alone
        result = swap_third(spec, cell, 0, 1, (0, 1), 1, 2)
        assert [(m.color, m.source, m.target) for m in result.moves] == [
            (1, 0, 1),
            (2, 1, 0),
        ]
        assert verify_plan(result)

    def test_parked_robot_case(self):
        # the next vertex holds the moving color alone, so a second robot
        # from the start is parked there while the recursion passes through
        g = generate_named("path", 4)
        spec = ComplexSpec(g, ColorVector((2, 2, 1)))
        cell = Cell.make([(0, 2), (0, 1), (3,)])
        result = swap_third(spec, cell, 0, 3, (0, 1, 2, 3), 1, 2)
        assert verify_plan(result)
        after = occ_map(g, result.end)
        assert after == [{0, 2}, {1}, {0}, {1}]

    def test_postcondition_bullets(self, c4):
        spec = ComplexSpec(c4, ColorVector((2, 1, 1, 1)))
        rng = random.Random(23)
        cells = list(enumerate_cells(spec, dim=0))
        done = 0
        while done < 60:
            cell = rng.choice(cells)
            omap = occ_map(c4, cell)
            lone = [(w, next(iter(omap[w]))) for w in range(c4.n) if len(omap[w]) == 1]
            avail = [z for z in range(c4.n) if len(omap[z]) >= 2]
            if not lone or not avail:
                continue
            w, k = rng.choice(lone)
            z = rng.choice(avail)
            if z == w or k in omap[z]:
                continue
            choices = sorted(omap[z] - {k})
            i = rng.choice(choices)
            others = [v for v in range(c4.n) if k in omap[v] and v != w]
            try:
                path = shortest_path(c4, z, w, forbidden=tuple(others))
            except Exception:
                continue
            result = swap_third(spec, cell, z, w, path, i, k)
            assert verify_plan(result)
            after = occ_map(c4, result.end)
            assert after[z] == (omap[z] - {i}) | {k}
            assert after[w] == {i}
            for v in range(c4.n):
                if v not in (z, w):
                    assert after[v] == omap[v]
            done += 1

    def test_precondition_errors(self):
        g = generate_named("path", 3)
        spec = ComplexSpec(g, ColorVector((2, 1, 1)))
        cell = Cell.make([(0, 1), (0,), (2,)])
        with pytest.raises(PlanningError, match="exactly one robot"):
            swap_third(spec, cell, 0, 1, (0, 1), 1, 2)
        with pytest.raises(PlanningError, match="differ"):
            swap_third(spec, cell, 0, 2, (0, 1, 2), 2, 2)
        with pytest.raises(PlanningError, match="from z to w"):
            swap_third(spec, cell, 0, 2, (0, 1), 1, 2)
        with pytest.raises(PlanningError, match="available"):
            swap_third(spec, cell, 1, 2, (1, 2), 0, 2)

    def test_blocking_robot_on_path_rejected(self):
        g = generate_named("path", 3)
        spec = ComplexSpec(g, ColorVector((2, 1, 2)))
        cell = Cell.make([(0, 1), (0,), (1, 2)])
        with pytest.raises(PlanningError, match="other robots"):
            swap_third(spec, cell, 0, 2, (0, 1, 2), 1, 2)


class TestSwapColors:
    def test_five_path_story(self, p5_relay):
        """Relay the blue robot up, swap green with red, relay back."""
        spec, cell = p5_relay
        result = swap_colors(spec, cell, 3, 4, 0, 2)
        assert [(m.color, m.source, m.target) for m in result.moves] == [
            (1, 0, 1),
            (0, 1, 2),
            (1, 2, 3),
            (0, 3, 4),
            (2, 4, 3),
            (1, 3, 2),
            (0, 2, 1),
            (1, 1, 0),
        ]
        assert verify_plan(result)
        after = occ_map(spec.graph, result.end)
        before = occ_map(spec.graph, cell)
        assert after[3] == {2} and after[4] == {0}
        assert all(after[v] == before[v] for v in (0, 1, 2))

    def test_adjacent_with_available_end_is_two_moves(self, p3):
        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        cell = Cell.make([(0, 1), (1, 2), (2,)])
        result = swap_colors(spec, cell, 1, 2, 0, 2)
        assert len(result.moves) == 2
        assert verify_plan(result)
        assert occupancy(result.end, 1) == {1, 2} and occupancy(result.end, 2) == {0, 1}

    def test_double_swap_is_identity(self, k4):
        spec = ComplexSpec(k4, ColorVector((2, 1, 1, 1)))
        rng = random.Random(31)
        cells = list(enumerate_cells(spec, dim=0))
        done = 0
        while done < 40:
            cell = rng.choice(cells)
            omap = occ_map(k4, cell)
            x, y = rng.sample(range(k4.n), 2)
            pick_i = sorted(omap[x] - omap[y])
            pick_j = sorted(omap[y] - omap[x])
            if not pick_i or not pick_j:
                continue
            i, j = rng.choice(pick_i), rng.choice(pick_j)
            first = swap_colors(spec, cell, x, y, i, j)
            assert verify_plan(first)
            second = swap_colors(spec, first.end, x, y, j, i)
            assert verify_plan(second)
            assert second.end == cell
            done += 1

    def test_spare_fetched_around_the_swap(self, k4):
        """Both ends bare, every stacked vertex holds only the two swap colors,
        and the spare robot is reachable without crossing the swap edge; the
        swap is found by search, as short as the breadth-first optimum."""
        spec = ComplexSpec(k4, ColorVector((2, 2, 1)))
        cell = Cell.make([(0, 2), (1, 2), (3,)])
        result = swap_colors(spec, cell, 0, 1, 0, 1)
        assert verify_plan(result)
        assert len(result.moves) == len(plan_bfs(spec, cell, result.end).moves)
        after = occ_map(k4, result.end)
        assert after == [{1}, {0}, {0, 1}, {2}]

    def test_spare_fetched_through_the_swap(self):
        """Both ends bare, and the only route to the spare robot runs through
        a swap endpoint; the swap is found by search, as short as the
        breadth-first optimum."""
        g = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
        spec = ComplexSpec(g, ColorVector((2, 2, 1)))
        cell = Cell.make([(0, 1), (0, 2), (3,)])
        result = swap_colors(spec, cell, 1, 2, 0, 1)
        assert verify_plan(result)
        assert len(result.moves) == len(plan_bfs(spec, cell, result.end).moves)
        after = occ_map(g, result.end)
        assert after == [{0, 1}, {1}, {0}, {2}]

    def test_spare_cut_off_entirely_falls_back_to_search(self):
        """The swap endpoints separate the spare robot from the stacked vertex
        in both directions; the swap is found by search, as short as the
        breadth-first optimum."""
        g = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (1, 3)])
        spec = ComplexSpec(g, ColorVector((1, 2, 2)))
        cell = Cell.make([(3,), (0, 2), (1, 2)])
        result = swap_colors(spec, cell, 0, 1, 1, 2)
        assert verify_plan(result)
        assert len(result.moves) == len(plan_bfs(spec, cell, result.end).moves)
        after = occ_map(g, result.end)
        assert after == [{2}, {1}, {1, 2}, {0}]

    def test_hypotheses_enforced(self, t4, p3):
        two_colors = ComplexSpec(t4, ColorVector((3, 2)))
        cell = next(enumerate_cells(two_colors, dim=0))
        with pytest.raises(HypothesisNotMetError):
            swap_colors(two_colors, cell, 0, 1, 0, 1)
        disconnected = ComplexSpec(
            SimpleGraph(4, ((0, 1), (2, 3))), ColorVector((2, 2, 1))
        )
        dcell = Cell.make([(0, 2), (1, 3), (0,)])
        with pytest.raises(HypothesisNotMetError):
            swap_colors(disconnected, dcell, 0, 1, 0, 1)

    def test_color_preconditions(self, p3):
        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        cell = Cell.make([(0, 1), (0, 2), (0,)])
        with pytest.raises(PlanningError, match="needs"):
            swap_colors(spec, cell, 0, 1, 0, 1)  # color 0 is on both
        with pytest.raises(PlanningError, match="distinct"):
            swap_colors(spec, cell, 1, 1, 0, 1)
        with pytest.raises(PlanningError, match="distinct"):
            swap_colors(spec, cell, 0, 1, 2, 2)


class TestSameType:
    def test_identity(self, p3):
        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        cell = Cell.make([(0, 1), (0, 2), (0,)])
        result = same_type_plan(spec, cell, cell)
        assert result.moves == () and result.end == cell

    def test_star_five_colored_shuffle(self):
        """Nine robots of four colors on the 4-leg star trade places."""
        g = generate_named("star", 5)
        spec = ComplexSpec(g, ColorVector((3, 2, 2, 2)))  # green, red, blue, yellow
        start = Cell.make([(1, 3, 4), (2, 3), (0, 4), (0, 1)])
        goal = Cell.make([(2, 3, 4), (0, 4), (0, 1), (1, 3)])
        assert same_type(start, goal)
        result = same_type_plan(spec, start, goal)
        assert verify_plan(result)
        assert result.end == goal

    def test_random_same_type_pairs(self, c4):
        spec = ComplexSpec(c4, ColorVector((2, 2, 1, 1)))
        rng = random.Random(47)
        cells = list(enumerate_cells(spec, dim=0))
        by_profile = {}
        for cell in cells:
            key = tuple(len(occupancy(cell, v)) for v in range(c4.n))
            by_profile.setdefault(key, []).append(cell)
        done = 0
        while done < 40:
            group = rng.choice([g for g in by_profile.values() if len(g) > 1])
            a, b = rng.sample(group, 2)
            result = same_type_plan(spec, a, b)
            assert verify_plan(result) and result.end == b
            done += 1

    def test_type_mismatch_rejected(self, p3):
        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        a = Cell.make([(0, 1), (0, 2), (0,)])
        b = Cell.make([(0, 1), (0, 2), (1,)])
        with pytest.raises(PlanningError, match="profiles"):
            same_type_plan(spec, a, b)


class TestPlan:
    def test_identity(self, p3):
        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        cell = Cell.make([(0, 1), (0, 2), (0,)])
        result = plan(spec, cell, cell)
        assert result.moves == ()

    def test_all_pairs_on_small_fixture(self, p3):
        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        cells = list(enumerate_cells(spec, dim=0))
        for a, b in itertools.product(cells, cells):
            result = plan(spec, a, b)
            assert verify_plan(result)
            assert result.end == b

    def test_agrees_with_search(self, t4):
        spec = ComplexSpec(t4, ColorVector((3, 3, 3)))
        cells = list(enumerate_cells(spec, dim=0))
        rng = random.Random(59)
        for _ in range(25):
            a, b = rng.choice(cells), rng.choice(cells)
            constructed = plan(spec, a, b)
            searched = plan_bfs(spec, a, b)
            assert verify_plan(constructed)
            assert searched is not None
            assert len(searched.moves) <= len(constructed.moves)

    def test_hypothesis_errors(self, t4, p3):
        cell = next(enumerate_cells(ComplexSpec(t4, ColorVector((3, 2))), dim=0))
        with pytest.raises(HypothesisNotMetError, match="three colors"):
            plan(ComplexSpec(t4, ColorVector((3, 2))), cell, cell)
        trivial = ComplexSpec(p3, ColorVector((1, 1, 1)))
        tcell = next(enumerate_cells(trivial, dim=0))
        with pytest.raises(HypothesisNotMetError, match="non-trivial"):
            plan(trivial, tcell, tcell)
        uncovered = ComplexSpec(t4, ColorVector((1, 1, 1)), require_cover=False)
        ucell = Cell.make([(0,), (1,), (2,)])
        with pytest.raises(HypothesisNotMetError, match="coverage"):
            plan(uncovered, ucell, ucell)


    def test_replay_failure_is_internal(self, p3, monkeypatch):
        import stirling_complexes.planner as planner

        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        cells = list(enumerate_cells(spec, dim=0))
        monkeypatch.setattr(planner, "verify_plan", lambda p: PlanVerification(False, 1))
        with pytest.raises(InternalPlanningError, match="^internal: .*replay at step 1"):
            plan(spec, cells[0], cells[-1])
        assert issubclass(InternalPlanningError, PlanningError)

    @pytest.mark.parametrize(
        "helper", ["leapfrog", "swap_third", "swap_colors", "same_type_plan", "plan_bfs"]
    )
    def test_public_helpers_replay_what_they_return(self, helper, p3, monkeypatch):
        import stirling_complexes.planner as planner

        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        cell = Cell.make([(0, 1), (1, 2), (2,)])
        p2 = ComplexSpec(generate_named("path", 2), ColorVector((1, 1, 1)))
        call = {
            "leapfrog": lambda: leapfrog(spec, Cell.make([(0, 1), (0, 2), (0,)]), 0, (0, 1), 2),
            "swap_third": lambda: swap_third(p2, Cell.make([(0,), (0,), (1,)]), 0, 1, (0, 1), 1, 2),
            "swap_colors": lambda: swap_colors(spec, cell, 1, 2, 0, 2),
            "same_type_plan": lambda: same_type_plan(spec, cell, Cell.make([(1, 2), (0, 1), (2,)])),
            "plan_bfs": lambda: plan_bfs(spec, cell, Cell.make([(1, 2), (0, 1), (2,)])),
        }[helper]
        assert verify_plan(call())
        monkeypatch.setattr(planner, "verify_plan", lambda p: PlanVerification(False, 1))
        with pytest.raises(InternalPlanningError, match="^internal: .*replay at step 1"):
            call()

    def test_illegal_planning_move_is_internal(self, monkeypatch):
        """A move that the planner emits and the move rule rejects is a planner
        defect, not a caller's illegal move."""
        import stirling_complexes.planner as planner

        spec = ComplexSpec(generate_named("path", 5), ColorVector((3, 2, 1)))
        start, goal = Cell.make([(0, 1, 2), (3, 4), (0,)]), Cell.make([(2, 3, 4), (0, 1), (4,)])
        step, calls = planner._step, itertools.count(1)
        monkeypatch.setattr(planner, "_step", lambda *args: None if next(calls) == 3 else step(*args))
        with pytest.raises(InternalPlanningError, match=r"^internal: illegal move \(0, 2 -> 3\)"):
            plan(spec, start, goal)

    def test_goal_listed_out_of_order(self, p3):
        """A valid 0-cell whose part is not sorted is the same 0-cell as its
        sorted form: every planner reaches it, and a plan that declares it as
        its end replays."""
        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        start, goal = Cell.make([(0, 1), (1, 2), (2,)]), Cell(((2, 1), (0, 1), (2,)))
        key = _zero_key(spec, goal)
        assert key is not None and is_valid_cell(spec, goal)
        for planner in (plan, plan_bfs, same_type_plan):
            result = planner(spec, start, goal)
            assert verify_plan(result), planner.__name__
            assert _zero_key(spec, result.end) == key, planner.__name__
            assert verify_plan(MovePlan(spec, start, result.moves, goal)), planner.__name__

    def test_plan_text_starts_canonical(self, p3):
        """A start listed out of order is written in canonical form, so two
        plans from one 0-cell have one text, and it parses to that form."""
        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        goal = Cell.make([(0, 1), (1, 2), (2,)])
        canonical = Cell.make([(1, 2), (0, 1), (2,)])
        text = format_plan(plan(spec, Cell(((2, 1), (0, 1), (2,))), goal))
        assert text == format_plan(plan(spec, canonical, goal))
        assert text.startswith("{1,2}|{0,1}|{2}\n")
        assert parse_plan(spec, text).start == canonical

    def test_user_errors_are_not_internal(self, p3):
        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        cell = next(enumerate_cells(spec, dim=0))
        bad = Cell.make([(0, 1), (0, 1), (0,)])  # vertex 2 is bare
        for call, name in (
            (lambda: plan(spec, bad, cell), "start"),
            (lambda: plan(spec, cell, bad), "goal"),
            (lambda: same_type_plan(spec, bad, cell), "start"),
            (lambda: swap_colors(spec, bad, 0, 1, 0, 1), "start"),
            (lambda: leapfrog(spec, bad, 0, (0, 1), 2), "start"),
            (lambda: swap_third(spec, bad, 0, 2, (0, 1, 2), 0, 2), "start"),
        ):
            with pytest.raises(PlanningError, match=f"{name} is not a valid 0-cell") as exc:
                call()
            assert not isinstance(exc.value, InternalPlanningError)

    def test_cells_are_checked_before_the_hypotheses(self, t4):
        """``plan``, like ``plan_bfs``, rejects a cell outside the complex as
        such, also on a complex that fails the planner's hypotheses."""
        spec = ComplexSpec(t4, ColorVector((3, 2)))
        start, goal = Cell.make([(0, 1, 2), (0, 1)]), Cell.make([(1, 2, 3), (0, 1)])
        with pytest.raises(PlanningError, match="start is not a valid 0-cell") as exc:
            plan(spec, start, goal)
        assert not isinstance(exc.value, HypothesisNotMetError)


class TestPlanningDifferential:
    """On every connected graph with at most five vertices and every
    non-trivial three-color vector, seeded pairs of 0-cells get a plan that
    replays, without an internal failure, and is never shorter than plan_bfs;
    the sample reaches both the borrowed-robot tier and the search tier."""

    PAIRS = 30

    def check_all(self, ns, monkeypatch):
        import stirling_complexes.planner as planner

        calls = Counter()

        def counting(name):
            tier = getattr(planner, name)

            def counted(*args):
                calls[name] += 1
                tier(*args)

            monkeypatch.setattr(planner, name, counted)

        counting("_borrow_swap")
        counting("_search_swap")
        complexes = 0
        for n in ns:
            for g in connected_graphs(n):
                for sizes in color_vectors(n):
                    spec = ComplexSpec(g, ColorVector(sizes))
                    if len(sizes) != 3 or not is_nontrivial(spec):
                        continue
                    cells = list(enumerate_cells(spec, dim=0))
                    if not cells:
                        continue
                    rng = random.Random(f"{g.edges}:{sizes}")
                    for _ in range(self.PAIRS):
                        a, b = rng.choice(cells), rng.choice(cells)
                        result = plan(spec, a, b)
                        assert verify_plan(result) and result.end == b, (g.edges, sizes, a, b)
                        optimum = plan_bfs(spec, a, b)
                        assert len(result.moves) >= len(optimum.moves), (g.edges, sizes, a, b)
                    complexes += 1
        return complexes, calls

    def test_every_connected_graph(self, monkeypatch):
        complexes, calls = self.check_all((1, 2, 3, 4), monkeypatch)
        assert complexes == 91 and calls["_borrow_swap"] > 0 and calls["_search_swap"] > 0

    @pytest.mark.slow
    def test_every_connected_graph_on_five_vertices(self, monkeypatch):
        complexes, calls = self.check_all((5,), monkeypatch)
        assert complexes == 462 and calls["_borrow_swap"] > 0 and calls["_search_swap"] > 0


class TestPinnedPlans:
    """The constructive plans, pinned: one digest over the text of ``plan``
    for 30 seeded pairs of 0-cells per complex, and of ``same_type_plan`` for
    the pairs of the same type.  P7 (3,3,2) and P8 (3,3,3) send the most
    swaps to the swap search.  The plan lengths are pinned apart from the
    text, so a change that picks other moves of the same count shows as
    such."""

    LABELS = ("K5:3,3,3", "T5:3,3,3", "C6:3,3,2", "C7:3,3,3", "P5:3,2,1", "P6:3,2,2", "P7:3,3,2", "P8:3,3,3")
    DIGEST = "7f4811fd2108a903e46b4c08f3fdc4d0043393bb3b4235f582f6d7bc62928c3e"
    MOVES = 6602
    LENGTHS_DIGEST = "3c92c69f72e067f936744e47ca207930d7f1b45b0765bd6735ff30c133abcaa1"

    def plans(self):
        for label in self.LABELS:
            name, sizes = label.split(":")
            spec = ComplexSpec(parse_graph_name(name), ColorVector.parse(sizes))
            cells = list(enumerate_cells(spec, dim=0))
            rng = random.Random(label)
            for _ in range(30):
                a, b = rng.choice(cells), rng.choice(cells)
                yield plan(spec, a, b)
                if same_type(a, b):
                    yield same_type_plan(spec, a, b)

    def test_plans_are_unchanged(self):
        digest, count = hashlib.sha256(), 0
        for result in self.plans():
            digest.update(format_plan(result).encode())
            count += 1
        assert count == 8 * 30 + 30
        assert digest.hexdigest() == self.DIGEST

    def test_plan_lengths_are_unchanged(self):
        lengths = [len(result.moves) for result in self.plans()]
        assert len(lengths) == 8 * 30 + 30
        assert sum(lengths) == self.MOVES
        assert hashlib.sha256(str(lengths).encode()).hexdigest() == self.LENGTHS_DIGEST


class TestPlanBfs:
    def test_cross_component_unreachable(self, t4):
        spec = ComplexSpec(t4, ColorVector((3, 2)))
        a = Cell.make([(0, 1, 2), (0, 3)])
        b = Cell.make([(0, 1, 3), (0, 2)])
        assert plan_bfs(spec, a, b) is None

    def test_identity(self, t4):
        spec = ComplexSpec(t4, ColorVector((3, 2)))
        a = Cell.make([(0, 1, 2), (0, 3)])
        result = plan_bfs(spec, a, a)
        assert result is not None and result.moves == ()

    def test_within_component(self, t4):
        spec = ComplexSpec(t4, ColorVector((3, 2)))
        a = Cell.make([(0, 1, 2), (0, 3)])
        b = Cell.make([(0, 1, 2), (3, (0, 1))])  # not a 0-cell
        with pytest.raises(PlanningError):
            plan_bfs(spec, a, b)
        c = Cell.make([(1, 2, 3), (0, 3)])
        result = plan_bfs(spec, a, c)
        assert result is not None and verify_plan(result)


class TestExpander:
    """For every 0-cell, the int-key expander behind both breadth-first
    searches lists exactly the moves that the public is_valid_move and
    apply_move accept, in (color, source, adjacency) order: the order that
    plan_bfs's canonical shortest plans depend on.  The key decodes back to
    the cell, and the working state's per-vertex views read from the key
    agree with the cell's occupancy."""

    @staticmethod
    def expanded(spec, expand, cell):
        """The successors that ``expand``, the spec's expander, lists for a
        0-cell, as (Move, Cell) pairs."""
        import stirling_complexes.planner as planner

        n = spec.graph.n
        key = _zero_key(spec, cell)
        return [(planner._move_between(n, key, nxt), planner._decode(spec, nxt)) for nxt in expand(key)]

    @staticmethod
    def accepted(spec, cell):
        """The public functions' moves out of a 0-cell, as (Move, Cell) pairs."""
        return [
            (mv, apply_move(spec, cell, mv))
            for color in range(spec.colors.r)
            for u in sorted(cell.parts[color])
            for v in spec.graph.adjacency[u]
            if is_valid_move(spec, cell, mv := Move(color, u, v))
        ]

    def check_all(self, ns):
        import stirling_complexes.planner as planner

        checked = 0
        for n in ns:
            for g, sizes, cover in itertools.product(
                connected_graphs(n), color_vectors(n), (True, False)
            ):
                spec = ComplexSpec(g, ColorVector(sizes), require_cover=cover)
                expand = planner._expander(spec)
                for cell in enumerate_cells(spec, dim=0):
                    assert self.expanded(spec, expand, cell) == self.accepted(spec, cell), (
                        g.edges, sizes, cover, cell
                    )
                    key = _zero_key(spec, cell)
                    assert planner._decode(spec, key) == cell
                    state = planner._State(spec, key)
                    occupied = [set(occupancy(cell, v)) for v in range(n)]
                    assert state.counts() == [len(colors) for colors in occupied], cell
                    for v, colors in enumerate(occupied):
                        assert state.colors_at(v) == colors, (cell, v)
                        assert {c for c in range(len(sizes)) if state.holds(v, c)} == colors, (cell, v)
                        assert state.available(v) == is_available(cell, v), (cell, v)
                    checked += 1
        return checked

    def test_every_zero_cell_up_to_four_vertices(self):
        assert self.check_all((1, 2, 3, 4)) == 6191

    @pytest.mark.slow
    def test_every_zero_cell_on_five_vertices(self):
        assert self.check_all((5,)) == 94080


class TestMoveGraphIsTheSkeleton:
    """The planner's move graph is the 1-skeleton: over every 0-cell key, the
    pairs {key, successor} that planner._expander lists are exactly the arcs
    of complexes._one_skeleton, taken as unordered key pairs, and no two arcs
    join the same pair."""

    def test_every_connected_graph_up_to_five_vertices(self):
        import stirling_complexes.planner as planner

        checked = 0
        for n in range(1, 6):
            for g, sizes, cover in itertools.product(
                connected_graphs(n), color_vectors(n), (True, False)
            ):
                spec = ComplexSpec(g, ColorVector(sizes), require_cover=cover)
                try:
                    keys, firsts, seconds = _one_skeleton(spec)
                except EmptyComplexError:
                    continue
                arcs = {frozenset((keys[a], keys[b])) for a, b in zip(firsts, seconds)}
                assert len(arcs) == len(firsts), (g.edges, sizes, cover)
                expand = planner._expander(spec)
                assert {frozenset((k, s)) for k in keys for s in expand(k)} == arcs, (g.edges, sizes, cover)
                checked += 1
        assert checked == 1631


class TestBfsDifferential:
    @pytest.mark.parametrize(
        "family, n, sizes, cover",
        [
            ("path", 3, (2, 2, 1), True),
            ("star", 4, (3, 2), True),
            ("cycle", 4, (2, 2, 2), True),
            ("star", 4, (1, 1), False),
            ("path", 4, (1, 1), False),
            ("path", 6, (4, 3), True),
        ],
    )
    def test_every_pair_matches_the_cell_level_search(self, family, n, sizes, cover):
        """plan_bfs returns the reference search's moves exactly, its length is
        the distance over the 1-skeleton's arcs, and it is None exactly
        across components."""
        spec = ComplexSpec(generate_named(family, n), ColorVector(sizes), require_cover=cover)
        sk = build_one_skeleton(spec)
        _, labels = component_labels(sk)
        for a, start in enumerate(sk.nodes):
            parent = reference_bfs_parents(spec, start)
            dist = skeleton_distances(sk, a)
            for b, goal in enumerate(sk.nodes):
                found = plan_bfs(spec, start, goal)
                if labels[a] != labels[b]:
                    assert found is None and goal not in parent and b not in dist
                    continue
                assert found is not None and found.end == goal
                assert found.moves == reference_moves(parent, goal)
                assert len(found.moves) == dist[b]

    SPIDER = SimpleGraph(7, ((0, 1), (0, 3), (0, 5), (1, 2), (3, 4), (5, 6)))

    @pytest.mark.parametrize(
        "graph",
        [
            pytest.param(generate_named("cycle", 6), id="C6"),
            pytest.param(generate_named("path", 7), id="P7"),
            pytest.param(generate_named("path", 6), id="P6", marks=pytest.mark.slow),
            pytest.param(generate_named("star", 6), id="T6", marks=pytest.mark.slow),
            pytest.param(generate_named("cycle", 7), id="C7", marks=pytest.mark.slow),
            pytest.param(SPIDER, id="S7", marks=pytest.mark.slow),
        ],
    )
    def test_search_workload_complexes(self, graph):
        """On the benchmark's shortest-plan complexes (colors 3,3,2, about
        1400 0-cells each), plan_bfs returns the reference search's moves
        from two seeded starts to every goal."""
        spec = ComplexSpec(graph, ColorVector((3, 3, 2)))
        cells = list(enumerate_cells(spec, dim=0))
        for start in random.Random(17).sample(cells, 2):
            parent = reference_bfs_parents(spec, start)
            assert len(parent) == len(cells)
            for goal in cells:
                assert plan_bfs(spec, start, goal).moves == reference_moves(parent, goal), (start, goal)

    def test_unreachable_across_components_of_unequal_size(self):
        """Two colors of two robots on a 5-cycle with coverage off: the
        complex has one component of 10 0-cells and one of 20, and plan_bfs
        gives None from every 0-cell of either to every 0-cell of the other."""
        spec = ComplexSpec(generate_named("cycle", 5), ColorVector((2, 2)), require_cover=False)
        sk = build_one_skeleton(spec)
        _, labels = component_labels(sk)
        small, large = sorted(
            ([cell for cell, label in zip(sk.nodes, labels) if label == c] for c in set(labels)), key=len
        )
        assert (len(small), len(large)) == (10, 20)
        for a, b in itertools.product(small, large):
            assert plan_bfs(spec, a, b) is None and plan_bfs(spec, b, a) is None

    def test_keys_wider_than_a_machine_word(self):
        """Two robots on a 33-vertex path with coverage off: a state's key
        holds 66 bits, and the plan still matches the cell-level search."""
        spec = ComplexSpec(generate_named("path", 33), ColorVector((1, 1)), require_cover=False)
        start, goal = Cell.make([(0,), (2,)]), Cell.make([(30,), (32,)])
        found = plan_bfs(spec, start, goal)
        want = reference_moves(reference_bfs_parents(spec, start), goal)
        assert len(want) == 60 and found.moves == want


class TestVerify:
    def test_corrupted_move_reports_its_step(self, p3):
        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        cells = list(enumerate_cells(spec, dim=0))
        result = plan(spec, cells[0], cells[-1])
        assert len(result.moves) >= 2
        bad_moves = list(result.moves)
        bad_moves[1] = Move(bad_moves[1].color, bad_moves[1].source, bad_moves[1].source)
        from stirling_complexes import MovePlan

        bad = MovePlan(spec, result.start, tuple(bad_moves), result.end)
        check = verify_plan(bad)
        assert not check and check.failed_at == 2

    def test_invalid_start_is_step_zero(self, p3):
        from stirling_complexes import MovePlan

        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        bad = MovePlan(spec, Cell.make([(0, 1), (0, 1), (0,)]), (), None)
        check = verify_plan(bad)
        assert not check and check.failed_at == 0

    def test_end_mismatch_reported_after_moves(self, p3):
        from stirling_complexes import MovePlan

        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        cells = list(enumerate_cells(spec, dim=0))
        result = plan(spec, cells[0], cells[1])
        lying = MovePlan(spec, result.start, result.moves, cells[2])
        check = verify_plan(lying)
        assert not check and check.failed_at == len(result.moves) + 1

    def test_reversed_plan_replays(self, k4):
        spec = ComplexSpec(k4, ColorVector((2, 1, 1, 1)))
        cells = list(enumerate_cells(spec, dim=0))
        rng = random.Random(61)
        from stirling_complexes import MovePlan

        for _ in range(20):
            a, b = rng.choice(cells), rng.choice(cells)
            forward = plan(spec, a, b)
            backward = MovePlan(
                spec, b, tuple(mv.flipped() for mv in reversed(forward.moves)), a
            )
            assert verify_plan(backward)


MALFORMED_MOVES = {
    "negative vertex": "2 1 -1",
    "vertex n": "2 1 3",
    "color r": "3 1 0",
    "non-adjacent": "0 0 2",
}


class TestMalformedReplay:
    """On P3 with colors (2,2,1): one legal move, then a move naming a vertex
    or color outside the complex, or a pair that is not an edge."""

    START = "{0,1}|{0,2}|{0}"

    @pytest.mark.parametrize("line", MALFORMED_MOVES.values(), ids=MALFORMED_MOVES.keys())
    def test_rejected_without_raising(self, p3, line):
        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        parsed = parse_plan(spec, f"{self.START}\n2 0 1\n{line}\n")
        assert verify_plan(parsed) == PlanVerification(False, 2)
        after_first = apply_move(spec, parsed.start, parsed.moves[0])
        assert not is_valid_move(spec, after_first, parsed.moves[1])
        with pytest.raises(InvalidMoveError):
            apply_move(spec, after_first, parsed.moves[1])


class TestPlanText:
    def test_round_trip(self, p3):
        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        cells = list(enumerate_cells(spec, dim=0))
        result = plan(spec, cells[0], cells[5])
        text = format_plan(result)
        parsed = parse_plan(spec, text)
        assert parsed.start == result.start
        assert parsed.moves == result.moves
        assert verify_plan(parsed)

    def test_parse_errors_carry_line_numbers(self, p3):
        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        with pytest.raises(PlanFormatError) as exc:
            parse_plan(spec, "{0,1}|{0,2}|{0}\n0 0")
        assert exc.value.line == 2
        with pytest.raises(PlanFormatError) as exc:
            parse_plan(spec, "not a cell\n0 0 1")
        assert exc.value.line == 1
        with pytest.raises(PlanFormatError):
            parse_plan(spec, "")
        with pytest.raises(PlanFormatError) as exc:
            parse_plan(spec, "{0,1}|{0,2}|{0}\n0 x 1")
        assert exc.value.line == 2

    def test_stray_comma_in_the_start_line(self, p3):
        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        with pytest.raises(PlanFormatError, match="^line 1: bad start cell") as exc:
            parse_plan(spec, "{0,1,}|{1,2}|{0}\n")
        assert exc.value.line == 1
