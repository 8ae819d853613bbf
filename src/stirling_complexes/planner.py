"""Motion planning between 0-cells: elementary moves, relays, swaps, full plans.

Every plan is a sequence of elementary moves, each sliding one robot along one
edge.  The constructive planner mirrors the existence argument for
path-connectivity: it first balances the two occupancy profiles by relaying
surplus robots between vertices, then realizes the remaining color permutation
through pairwise swaps.  It requires a connected graph and a non-trivial color
vector with at least three colors; outside those hypotheses only the
breadth-first planner applies.

Plans are deterministic: every free choice (borrowed color, donor vertex,
path) resolves to the smallest index, and graph paths are lexicographically
smallest breadth-first shortest paths.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .complexes import (
    Cell,
    ComplexSpec,
    format_cell,
    is_nontrivial,
    is_valid_cell,
    occupancy,
    parse_cell,
)
from .graphs import NoPathError, is_connected, shortest_path


class PlanningError(ValueError):
    """A planner precondition does not hold."""


class InternalPlanningError(PlanningError):
    """A planner invariant failed: a defect in the planner, not in its input."""


class HypothesisNotMetError(PlanningError):
    """The constructive planner's standing hypotheses fail (use plan_bfs)."""


class InvalidMoveError(PlanningError):
    """A move is illegal in the cell it was applied to."""


class PlanFormatError(ValueError):
    """Malformed plan text; ``line`` is the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Move:
    """Slide the robot of one color from ``source`` to the adjacent ``target``."""

    color: int
    source: int
    target: int

    def flipped(self) -> Move:
        return Move(self.color, self.target, self.source)


@dataclass(frozen=True)
class MovePlan:
    """A start 0-cell, the move sequence, and the declared end cell.

    Plans parsed from text carry ``end=None``; replay then checks validity
    only.
    """

    spec: ComplexSpec
    start: Cell
    moves: tuple[Move, ...]
    end: Cell | None


@dataclass(frozen=True)
class PlanVerification:
    """Replay outcome.  ``failed_at`` is 0 when the start cell is invalid,
    t for the t-th move (1-based), and number-of-moves + 1 for an end
    mismatch; None on success."""

    ok: bool
    failed_at: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def _ensure(holds: bool, what: str) -> None:
    """Raise ``InternalPlanningError`` when a planner invariant fails."""
    if not holds:
        raise InternalPlanningError(f"internal: {what}")


def _is_zero_cell(spec: ComplexSpec, cell: Cell) -> bool:
    return cell.dimension == 0 and is_valid_cell(spec, cell)


# A 0-cell as the planner moves it: one vertex bitmask per color.
_Masks = tuple[int, ...]


def _encode(cell: Cell) -> _Masks:
    """The state of a valid 0-cell (its parts hold distinct in-range vertices)."""
    return tuple(sum(1 << v for v in part) for part in cell.parts)


def _decode(state: _Masks) -> Cell:
    """The canonical 0-cell of a state: set bits in ascending order."""
    return Cell(tuple(tuple(v for v in range(m.bit_length()) if m >> v & 1) for m in state))


def _move_rule(spec: ComplexSpec, state: _Masks) -> tuple[int, int]:
    """The one rule for elementary moves, as two vertex masks: the vertices a
    robot may leave and the vertices no robot may enter.

    A robot of color c slides from u to the adjacent v exactly when u holds c
    and may be left, and v neither holds c nor is closed to entry.  Under
    coverage a robot may leave only a vertex holding at least two colors, so
    no vertex is left bare.  With coverage off the separation rule binds
    across colors, so the target vertex must be free of every robot.
    """
    if spec.require_cover:
        once = twice = 0
        for mask in state:
            twice |= once & mask
            once |= mask
        return twice, 0
    occupied = 0
    for mask in state:
        occupied |= mask
    return -1, occupied


def _successors(spec: ComplexSpec, state: _Masks):
    """Yield ``(Move, next_state)`` for every legal move, by color, then source
    vertex ascending, then target in adjacency order."""
    leave, blocked = _move_rule(spec, state)
    adjacency = spec.graph.adjacency
    for color, mask in enumerate(state):
        closed = mask | blocked
        movable = mask & leave
        while movable:
            low = movable & -movable
            movable ^= low
            u = low.bit_length() - 1
            for v in adjacency[u]:
                if not closed >> v & 1:
                    nxt = list(state)
                    nxt[color] = mask ^ low ^ (1 << v)
                    yield Move(color, u, v), tuple(nxt)


def _step(spec: ComplexSpec, state: _Masks, move: Move) -> _Masks | None:
    """The state after one move, or None when the move is illegal.

    The color range and the edge are checked before any shift, so moves read
    from outside (negative or out-of-range numbers) are rejected, not raised.
    """
    color, source, target = move.color, move.source, move.target
    if not 0 <= color < spec.colors.r or not spec.graph.has_edge(source, target):
        return None
    leave, blocked = _move_rule(spec, state)
    mask = state[color]
    if not (mask & leave) >> source & 1 or (mask | blocked) >> target & 1:
        return None
    nxt = list(state)
    nxt[color] = mask ^ (1 << source) ^ (1 << target)
    return tuple(nxt)


def _move_state(spec: ComplexSpec, cell: Cell) -> _Masks:
    """The state of a cell passed to a public move function."""
    if cell.dimension != 0:
        raise ValueError("moves are defined on 0-cells")
    n = spec.graph.n
    if len(cell.parts) != spec.colors.r or any(
        len(set(part)) != len(part) or not all(0 <= v < n for v in part)
        for part in cell.parts
    ):
        raise ValueError(f"{format_cell(cell)} is not a 0-cell of this graph and color count")
    return _encode(cell)


def is_valid_move(spec: ComplexSpec, cell: Cell, move: Move) -> bool:
    """Whether the slide is legal: the robot exists, the traversed 1-cell and
    the target 0-cell are both valid cells of the complex.  A cell with an
    edge slot, a vertex outside the graph, a repeated vertex in one part, or
    the wrong number of parts raises ``ValueError``."""
    return _step(spec, _move_state(spec, cell), move) is not None


def apply_move(spec: ComplexSpec, cell: Cell, move: Move) -> Cell:
    """The 0-cell after a legal move; raises ``InvalidMoveError`` otherwise."""
    nxt = _step(spec, _move_state(spec, cell), move)
    if nxt is None:
        raise InvalidMoveError(f"illegal move {move} in {format_cell(cell)}")
    return _decode(nxt)


def snap(spec: ComplexSpec, cell: Cell) -> Cell:
    """Replace every edge slot by its smaller endpoint, yielding a 0-cell.

    Disjointness makes the endpoint free within the owning part, and coverage
    only improves, so the result is always valid.
    """
    if not is_valid_cell(spec, cell):
        raise ValueError("snap expects a valid cell")
    parts = [
        [el if isinstance(el, int) else el[0] for el in part] for part in cell.parts
    ]
    snapped = Cell.make(parts)
    _ensure(is_valid_cell(spec, snapped), "snap produced an invalid cell")
    return snapped


class _State:
    """Mutable working copy of a 0-cell: its masks, the colors on each vertex
    (which the planner queries), and the log of emitted moves."""

    __slots__ = ("spec", "graph", "masks", "occ", "moves")

    def __init__(self, spec: ComplexSpec, cell: Cell):
        self.spec = spec
        self.graph = spec.graph
        self.masks = _encode(cell)
        self.occ = [set() for _ in range(spec.graph.n)]
        for color, part in enumerate(cell.parts):
            for v in part:
                self.occ[v].add(color)
        self.moves: list[Move] = []

    def colors_at(self, v: int) -> set[int]:
        return self.occ[v]

    def available(self, v: int) -> bool:
        return len(self.occ[v]) >= 2

    def move(self, color: int, source: int, target: int) -> None:
        mv = Move(color, source, target)
        nxt = _step(self.spec, self.masks, mv)
        if nxt is None:
            raise InvalidMoveError(
                f"illegal move ({color}, {source} -> {target}) while planning"
            )
        self.masks = nxt
        self.occ[source].discard(color)
        self.occ[target].add(color)
        self.moves.append(mv)

    def snapshot(self) -> Cell:
        return _decode(self.masks)


def _check_path(state: _State, path, name: str) -> None:
    if len(path) < 1:
        raise PlanningError(f"{name}: empty path")
    if len(set(path)) != len(path):
        raise PlanningError(f"{name}: path must not repeat vertices")
    for a, b in zip(path, path[1:]):
        if not state.graph.has_edge(a, b):
            raise PlanningError(f"{name}: consecutive path vertices {a}, {b} not adjacent")


def _walk(state: _State, color: int, path) -> None:
    """Slide one robot of the color along consecutive path vertices."""
    for a, b in zip(path, path[1:]):
        state.move(color, a, b)


def _leapfrog(state: _State, z: int, path, k: int) -> None:
    """Relay a surplus robot from ``z`` along ``path`` so that its far end
    gains a k-colored robot.

    The k-carrier on the path closest to the target walks its robot to the
    target; the resulting deficit is refilled recursively from ``z``, borrowing
    another color from ``z`` when the intermediate carrier sits alone on its
    vertex.  Vertex occupancy counts along the path are preserved except at the
    two ends, and vertices off the path are untouched.
    """
    carriers = [idx for idx, v in enumerate(path) if k in state.colors_at(v)]
    t = max(carriers)
    _ensure(t < len(path) - 1, "leapfrog target already holds the color")
    if t == 0:
        _walk(state, k, path)
        return
    relay = path[t]
    if state.available(relay):
        _walk(state, k, path[t:])
        _leapfrog(state, z, path[: t + 1], k)
    else:
        borrowed = min(state.colors_at(z) - {k})
        _leapfrog(state, z, path[: t + 1], borrowed)
        _walk(state, k, path[t:])


def _swap_third(state: _State, z: int, w: int, path, i: int, k: int) -> None:
    """Exchange the i-colored robot on the available vertex ``z`` with the
    lone k-colored robot on ``w``, along a path free of other k robots.

    The i robot advances one vertex at a time; a same-colored robot already on
    the next vertex is absorbed into the recursion, with a second color from
    ``z`` briefly parked there when that vertex has no spare robot.
    """
    _ensure(state.colors_at(w) == {k}, "swap_third: w must hold only the lone color k")
    _ensure(state.available(z) and i in state.colors_at(z), "swap_third: z must hold i and more")
    if len(path) == 2:
        state.move(i, z, w)
        state.move(k, w, z)
        return
    nxt = path[1]
    colors_next = state.colors_at(nxt)
    if i not in colors_next:
        state.move(i, z, nxt)
        _swap_third(state, nxt, w, path[1:], i, k)
        state.move(k, nxt, z)
    elif not state.available(nxt):
        parked = min(state.colors_at(z) - {i})
        state.move(parked, z, nxt)
        _swap_third(state, nxt, w, path[1:], i, k)
        state.move(k, nxt, z)
        state.move(i, z, nxt)
        state.move(parked, nxt, z)
    else:
        _swap_third(state, nxt, w, path[1:], i, k)
        state.move(k, nxt, z)
        state.move(i, z, nxt)


def _borrow_swap(state: _State, x: int, y: int, i: int, j: int) -> None:
    """Swap across the edge (x, y) when neither end has a spare robot but some
    available vertex carries a third color.

    A third-colored robot is relayed onto the nearer of the two ends (whose
    shortest path provably misses the other end), the two-move swap runs, and
    the relay is undone by replaying it backwards.
    """
    z = k = None
    for v in range(state.graph.n):
        if state.available(v):
            spare = sorted(state.colors_at(v) - {i, j})
            if spare:
                z, k = v, spare[0]
                break
    _ensure(z is not None, "borrow_swap: no available vertex has a third color")
    to_x = shortest_path(state.graph, z, x)
    to_y = shortest_path(state.graph, z, y)
    path, target, other = (to_x, x, y) if len(to_x) <= len(to_y) else (to_y, y, x)
    _ensure(other not in path, "borrow_swap: the relay path crosses the swap edge")
    mark = len(state.moves)
    _leapfrog(state, z, path, k)
    relay = list(state.moves[mark:])
    if target == x:
        state.move(i, x, y)
        state.move(j, y, x)
    else:
        state.move(j, y, x)
        state.move(i, x, y)
    for mv in reversed(relay):
        state.move(mv.color, mv.target, mv.source)


def _swap_adjacent(state: _State, x: int, y: int, i: int, j: int) -> None:
    """Swap the i robot on x with the j robot on y across the edge (x, y)."""
    if state.available(x):
        state.move(i, x, y)
        state.move(j, y, x)
        return
    if state.available(y):
        state.move(j, y, x)
        state.move(i, x, y)
        return
    _ensure(state.colors_at(x) == {i} and state.colors_at(y) == {j}, "swap_adjacent: bare ends")
    has_spare = any(
        state.available(v) and (state.colors_at(v) - {i, j})
        for v in range(state.graph.n)
    )
    if has_spare:
        _borrow_swap(state, x, y, i, j)
    else:
        _relocated_third_swap(state, x, y, i, j)


def _relocated_third_swap(state: _State, x: int, y: int, i: int, j: int) -> None:
    """Swap across (x, y) when every available vertex carries exactly the two
    swapped colors.

    A lone third-colored robot is first exchanged onto an available vertex,
    which reduces to the borrowed-robot case; afterwards the exchange is
    undone.  Preferred: fetch along a path avoiding x and y, so the fetch can
    be replayed backwards verbatim.  Otherwise fetch through them and send the
    spare robot home by a second exchange along a path clear of the color that
    rode out.  When no fetch-and-return combination exists (possible on sparse
    graphs where x and y separate every spare robot from every available
    vertex), fall back to a breadth-first search for this one swap.
    """
    g = state.graph
    z = next(v for v in range(g.n) if state.available(v))
    _ensure(state.colors_at(z) == {i, j}, "relocated_third_swap: z has a third color")
    spares = [k for k in range(state.spec.colors.r) if k not in (i, j)]

    for k in spares:
        carriers = sorted(v for v in range(g.n) if k in state.colors_at(v))
        reach = []
        for w in carriers:
            try:
                p = shortest_path(g, z, w, forbidden=(x, y))
            except NoPathError:
                continue
            reach.append((len(p), w, p))
        if not reach:
            continue
        _, w, path = min(reach)
        if any(k in state.colors_at(v) for v in path[1:-1]):
            continue
        mark = len(state.moves)
        _swap_third(state, z, w, path, i, k)
        fetched = len(state.moves)
        _borrow_swap(state, x, y, i, j)
        for mv in reversed(state.moves[mark:fetched]):
            state.move(mv.color, mv.target, mv.source)
        return

    # Fetch straight through x or y.  The returning exchange needs a path
    # clear of the color that rode out, so predict the post-swap carriers of
    # both candidate colors and pick a workable combination before mutating.
    for k in spares:
        carriers = sorted(v for v in range(g.n) if k in state.colors_at(v))
        options = []
        for w in carriers:
            try:
                p = shortest_path(g, z, w)
            except NoPathError:
                continue
            options.append((len(p), w, p))
        for _, w, path in sorted(options):
            if any(k in state.colors_at(v) for v in path[1:-1]):
                continue
            for rider, gains in ((i, y), (j, x)):
                blocked = {
                    v
                    for v in range(g.n)
                    if rider in state.colors_at(v) and v not in (z, x, y, w)
                }
                blocked.add(gains)
                try:
                    back = shortest_path(g, z, w, forbidden=tuple(blocked))
                except NoPathError:
                    continue
                _swap_third(state, z, w, path, rider, k)
                _borrow_swap(state, x, y, i, j)
                _swap_third(state, z, w, back, k, rider)
                return

    _search_swap(state, x, y, i, j)


def _search_swap(state: _State, x: int, y: int, i: int, j: int) -> None:
    """Realize a single swap by breadth-first search over reachable 0-cells.

    Last resort for the corner the constructive fetch cannot serve; the goal
    is reachable whenever the complex is path-connected, which the calling
    hypotheses guarantee.
    """
    goal = list(state.masks)
    ends = (1 << x) | (1 << y)
    goal[i] ^= ends
    goal[j] ^= ends
    found = plan_bfs(state.spec, state.snapshot(), _decode(goal))
    _ensure(found is not None, f"no move sequence exchanges colors ({i}, {j}) between ({x}, {y})")
    for mv in found.moves:
        state.move(mv.color, mv.source, mv.target)


def _swap_along(state: _State, path, i: int, j: int) -> None:
    """Swap the i robot on the first path vertex with the j robot on the last."""
    x, y = path[0], path[-1]
    occ_x, occ_y = state.colors_at(x), state.colors_at(y)
    _ensure(i in occ_x and j not in occ_x, "swap_along: x must hold i and not j")
    _ensure(j in occ_y and i not in occ_y, "swap_along: y must hold j and not i")
    if len(path) == 2:
        _swap_adjacent(state, x, y, i, j)
        return
    nxt = path[1]
    colors_next = state.colors_at(nxt)
    if i in colors_next and j not in colors_next:
        _swap_along(state, path[1:], i, j)
        _swap_adjacent(state, x, nxt, i, j)
    elif j in colors_next and i not in colors_next:
        _swap_adjacent(state, x, nxt, i, j)
        _swap_along(state, path[1:], i, j)
    elif i in colors_next and j in colors_next:
        state.move(j, nxt, x)
        _swap_along(state, path[1:], i, j)
        state.move(i, x, nxt)
    elif not state.available(x):
        k = min(colors_next)
        _swap_adjacent(state, x, nxt, i, k)
        _swap_along(state, path[1:], i, j)
        _swap_adjacent(state, x, nxt, k, j)
    else:
        state.move(i, x, nxt)
        _swap_along(state, path[1:], i, j)
        state.move(j, nxt, x)


def _swap(state: _State, x: int, y: int, i: int, j: int) -> None:
    _swap_along(state, shortest_path(state.graph, x, y), i, j)


def _realize_profile(state: _State, target: list[set[int]]) -> None:
    """Drive a 0-cell to a same-type target through color swaps.

    Repeatedly extract a cycle of (extra color, vertex) pairs, each color being
    surplus where it stands and wanted at the next vertex, then realize the
    cycle's permutation by walking its lead color backwards through pairwise
    swaps, shrinking the cycle until it closes.
    """
    n = state.graph.n
    while True:
        extras = sorted(
            (v, c) for v in range(n) for c in state.colors_at(v) - target[v]
        )
        if not extras:
            return
        v1, i1 = extras[0]
        seq = [(i1, v1)]
        seen = {v1: 0}
        while True:
            c_last, _ = seq[-1]
            nxt = min(v for v in range(n) if c_last in target[v] - state.colors_at(v))
            if nxt in seen:
                cycle = seq[seen[nxt] :]
                break
            seq.append((min(state.colors_at(nxt) - target[nxt]), nxt))
            seen[nxt] = len(seq) - 1
        _realize_cycle(state, cycle)


def _realize_cycle(state: _State, cycle: list[tuple[int, int]]) -> None:
    while len(cycle) > 1:
        i1, v1 = cycle[0]
        p = len(cycle)
        verts = [v for _, v in cycle] + [v1]
        cols = [c for c, _ in cycle] + [i1]
        t = min(s for s in range(2, p + 2) if i1 in state.colors_at(verts[s - 1]))
        _ensure(t >= 3, "realize_cycle: the lead color is already in place")
        for s in range(t, 2, -1):
            _swap(state, verts[s - 1], verts[s - 2], i1, cols[s - 2])
        if t == p + 1:
            return
        t = t if cols[t - 1] != i1 else t + 1
        if t == p + 1:
            return
        cycle = [cycle[0]] + cycle[t - 1 :]


def _require_zero_cell(spec: ComplexSpec, cell: Cell, name: str) -> None:
    if not _is_zero_cell(spec, cell):
        raise PlanningError(f"{name} is not a valid 0-cell of the complex")


def _require_planner_hypotheses(spec: ComplexSpec) -> None:
    problems = []
    if not spec.require_cover:
        problems.append("coverage must be required")
    if not is_connected(spec.graph):
        problems.append("the graph must be connected")
    if not is_nontrivial(spec):
        problems.append("the color vector must be non-trivial")
    if spec.colors.r < 3:
        problems.append("at least three colors are needed")
    if problems:
        raise HypothesisNotMetError(
            "constructive planning does not apply: "
            + "; ".join(problems)
            + " (plan_bfs has no such hypotheses)"
        )


def _finish(state: _State, start: Cell) -> MovePlan:
    return MovePlan(state.spec, start, tuple(state.moves), state.snapshot())


def leapfrog(spec: ComplexSpec, cell: Cell, z: int, path, k: int) -> MovePlan:
    """Relay a robot out of the available vertex ``z`` along ``path`` so its
    far end gains a k-colored robot.

    After the plan, the target's colors gain exactly k, ``z`` holds one robot
    fewer, interior path vertices keep their occupancy counts, and vertices off
    the path are untouched.
    """
    if not spec.require_cover:
        raise PlanningError("leapfrog: relays are defined on covering complexes")
    _require_zero_cell(spec, cell, "start")
    state = _State(spec, cell)
    path = tuple(path)
    _check_path(state, path, "leapfrog")
    if path[0] != z:
        raise PlanningError("leapfrog: path must start at the donor vertex")
    if len(path) < 2:
        raise PlanningError("leapfrog: path must reach a different vertex")
    x = path[-1]
    if not state.available(z):
        raise PlanningError(f"leapfrog: donor vertex {z} is not available")
    if k not in state.colors_at(z):
        raise PlanningError(f"leapfrog: color {k} has no robot on the donor vertex {z}")
    if k in state.colors_at(x):
        raise PlanningError(f"leapfrog: color {k} already occupies the target {x}")
    _leapfrog(state, z, path, k)
    return _finish(state, cell)


def swap_third(spec: ComplexSpec, cell: Cell, z: int, w: int, path, i: int, k: int) -> MovePlan:
    """Exchange the i robot on the available vertex ``z`` with the lone k robot
    on ``w`` along ``path``, which must carry no other k robots."""
    if not spec.require_cover:
        raise PlanningError("swap_third: exchanges are defined on covering complexes")
    _require_zero_cell(spec, cell, "start")
    state = _State(spec, cell)
    path = tuple(path)
    _check_path(state, path, "swap_third")
    if len(path) < 2 or path[0] != z or path[-1] != w:
        raise PlanningError("swap_third: path must run from z to w")
    if i == k:
        raise PlanningError("swap_third: the two colors must differ")
    if set(state.colors_at(w)) != {k}:
        raise PlanningError(f"swap_third: vertex {w} must hold exactly one robot, of color {k}")
    if not state.available(z) or i not in state.colors_at(z):
        raise PlanningError(f"swap_third: vertex {z} must be available and hold color {i}")
    if any(k in state.colors_at(v) for v in path[:-1]):
        raise PlanningError("swap_third: the path may not pass other robots of the lone color")
    _swap_third(state, z, w, path, i, k)
    return _finish(state, cell)


def swap_colors(spec: ComplexSpec, cell: Cell, x: int, y: int, i: int, j: int) -> MovePlan:
    """Exchange the i robot on x with the j robot on y, leaving every other
    vertex's colors unchanged."""
    _require_planner_hypotheses(spec)
    _require_zero_cell(spec, cell, "start")
    if x == y or i == j:
        raise PlanningError("swap_colors: needs distinct vertices and distinct colors")
    occ_x, occ_y = occupancy(cell, x), occupancy(cell, y)
    if i not in occ_x or j in occ_x or j not in occ_y or i in occ_y:
        raise PlanningError(
            "swap_colors: needs i on x but not y, and j on y but not x"
        )
    state = _State(spec, cell)
    _swap(state, x, y, i, j)
    return _finish(state, cell)


def same_type_plan(spec: ComplexSpec, cell: Cell, goal: Cell) -> MovePlan:
    """Connect two 0-cells with identical occupancy profiles."""
    _require_planner_hypotheses(spec)
    _require_zero_cell(spec, cell, "start")
    _require_zero_cell(spec, goal, "goal")
    target = [set(occupancy(goal, v)) for v in range(spec.graph.n)]
    current = [len(occupancy(cell, v)) for v in range(spec.graph.n)]
    if any(len(t) != c for t, c in zip(target, current)):
        raise PlanningError("same_type_plan: the cells have different occupancy profiles")
    state = _State(spec, cell)
    _realize_profile(state, target)
    plan = _finish(state, cell)
    _ensure(plan.end == goal, "same_type_plan did not reach the goal")
    return plan


def plan(spec: ComplexSpec, start: Cell, goal: Cell) -> MovePlan:
    """A verified move sequence between any two 0-cells.

    Occupancy profiles are balanced first: while some vertex is over-occupied
    relative to the goal, a surplus robot is relayed toward an under-occupied
    one, worked from whichever side (start or goal) currently has the taller
    stack; goal-side work is recorded and replayed backwards at the end.  The
    same-type gap that remains is closed by color swaps.
    """
    _require_planner_hypotheses(spec)
    _require_zero_cell(spec, start, "start")
    _require_zero_cell(spec, goal, "goal")
    g = spec.graph
    fwd = _State(spec, start)
    bwd = _State(spec, goal)
    while True:
        diffs = [len(fwd.occ[v]) - len(bwd.occ[v]) for v in range(g.n)]
        over = [v for v, d in enumerate(diffs) if d > 0]
        if not over:
            break
        x = over[0]
        y = next(v for v, d in enumerate(diffs) if d < 0)
        if len(fwd.occ[x]) > len(fwd.occ[y]):
            k = min(fwd.colors_at(x) - fwd.colors_at(y))
            _leapfrog(fwd, x, shortest_path(g, x, y), k)
        else:
            k = min(bwd.colors_at(y) - bwd.colors_at(x))
            _leapfrog(bwd, y, shortest_path(g, y, x), k)
    _realize_profile(fwd, [set(s) for s in bwd.occ])
    _ensure(fwd.masks == bwd.masks, "the forward and backward halves of the plan do not meet")
    moves = list(fwd.moves) + [mv.flipped() for mv in reversed(bwd.moves)]
    result = MovePlan(spec, start, tuple(moves), goal)
    check = verify_plan(result)
    if not check:
        raise InternalPlanningError(f"internal: constructed plan fails replay at step {check.failed_at}")
    return result


def plan_bfs(spec: ComplexSpec, start: Cell, goal: Cell) -> MovePlan | None:
    """Shortest move sequence via breadth-first search over the 1-skeleton,
    or None when the goal is unreachable.  Works for any color count."""
    _require_zero_cell(spec, start, "start")
    _require_zero_cell(spec, goal, "goal")
    if start == goal:
        return MovePlan(spec, start, (), goal)
    source, target = _encode(start), _encode(goal)
    parent: dict[_Masks, tuple[_Masks, Move] | None] = {source: None}
    queue = deque([source])
    while queue:
        state = queue.popleft()
        for mv, nxt in _successors(spec, state):
            if nxt in parent:
                continue
            parent[nxt] = (state, mv)
            if nxt == target:
                moves: list[Move] = []
                while parent[nxt] is not None:
                    nxt, mv = parent[nxt]
                    moves.append(mv)
                moves.reverse()
                return MovePlan(spec, start, tuple(moves), goal)
            queue.append(nxt)
    return None


def verify_plan(plan: MovePlan) -> PlanVerification:
    """Replay a plan: the start must be a valid 0-cell, every move legal in
    sequence, and the final cell must equal the declared end (when present)."""
    spec = plan.spec
    if not _is_zero_cell(spec, plan.start):
        return PlanVerification(False, 0)
    state = _encode(plan.start)
    for step, mv in enumerate(plan.moves, start=1):
        state = _step(spec, state, mv)
        if state is None:
            return PlanVerification(False, step)
    if plan.end is not None and _decode(state) != plan.end:
        return PlanVerification(False, len(plan.moves) + 1)
    return PlanVerification(True, None)


def format_plan(plan: MovePlan) -> str:
    """Serialize: the start cell in canonical text form, then one move per
    line as ``color source target``."""
    lines = [format_cell(plan.start)]
    lines += [f"{mv.color} {mv.source} {mv.target}" for mv in plan.moves]
    return "\n".join(lines) + "\n"


def parse_plan(spec: ComplexSpec, text: str) -> MovePlan:
    """Parse the serialization produced by :func:`format_plan`.

    The end cell is not recorded in the format, so the result carries
    ``end=None`` and verification checks move validity only.
    """
    numbered = [(no, raw.strip()) for no, raw in enumerate(text.splitlines(), start=1)]
    numbered = [(no, s) for no, s in numbered if s]
    if not numbered:
        raise PlanFormatError(1, "missing start cell line")
    no, head = numbered[0]
    try:
        start = parse_cell(head)
    except ValueError as exc:
        raise PlanFormatError(no, f"bad start cell: {exc}") from None
    moves = []
    for no, line in numbered[1:]:
        fields = line.split()
        if len(fields) != 3:
            raise PlanFormatError(no, f"move line must be 'color source target', got {line!r}")
        try:
            color, source, target = (int(f) for f in fields)
        except ValueError:
            raise PlanFormatError(no, f"move fields must be integers, got {line!r}") from None
        moves.append(Move(color, source, target))
    return MovePlan(spec, start, tuple(moves), None)
