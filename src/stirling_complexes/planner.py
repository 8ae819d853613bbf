"""Motion planning between 0-cells: elementary moves, relays, swaps, full plans.

Every plan is a sequence of elementary moves, each sliding one robot along one
edge.  The constructive planner mirrors the existence argument for
path-connectivity: it first balances the two occupancy profiles by relaying
surplus robots between vertices, then realizes the remaining color permutation
through pairwise swaps.  It requires a connected graph and a non-trivial color
vector with at least three colors; outside those hypotheses only the
breadth-first planner applies.  ``plan`` checks its two 0-cells before these
hypotheses, so a cell outside the complex raises a plain ``PlanningError``,
never ``HypothesisNotMetError``, whatever the complex.

Each swap across an edge takes the first of three tiers that applies: two
direct moves when either end has a spare robot, a borrowed third-colored
robot relayed in and back, and otherwise a bidirectional breadth-first
search for that one swap.

Plans are deterministic: every free choice (borrowed color, donor vertex,
path) resolves to the smallest index, graph paths are lexicographically
smallest breadth-first shortest paths, and the swap search returns the first
shortest move sequence in expansion order.

Inside the planner a 0-cell is one int key in the 1-skeleton's layout: color
c's vertex mask in bits ``c*n`` to ``(c+1)*n``.  A move flips two of its bits.
Keys enter only through ``complexes._zero_key``, which checks the 0-cell, and
a ``Cell`` is built only at the public boundary.  The two breadth-first
searches, ``plan_bfs`` and the swap search, run ``graphs._first_shortest``
on keys, keeping a parent key per key forward and a depth per key backward.
A ``Move`` is built only for the moves on the returned path, read from the
two bits in which a key differs from the one before it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    Cell,
    ComplexSpec,
    _zero_cells,
    _zero_key,
    format_cell,
    is_nontrivial,
    is_valid_cell,
    occupancy,
    parse_cell,
    same_type,
)
from .graphs import _first_shortest, is_connected, shortest_path


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


def _zero_key_of(spec: ComplexSpec, cell: Cell, name: str) -> int:
    """The key of a 0-cell passed to a public function; a cell that is not a
    0-cell of the complex raises ``PlanningError``, naming it as ``name``."""
    key = _zero_key(spec, cell)
    if key is None:
        raise PlanningError(f"{name} is not a valid 0-cell of the complex")
    return key


def _decode(spec: ComplexSpec, key: int) -> Cell:
    """The canonical 0-cell of a key: set bits in ascending order."""
    return _zero_cells(spec, (key,))[0]


def _move_rule(spec: ComplexSpec, key: int) -> tuple[int, int]:
    """The one rule for elementary moves, read from a key as two vertex masks:
    the vertices a robot may leave and the vertices no robot may enter.

    A robot of color c slides from u to the adjacent v exactly when u holds c
    and may be left, and v neither holds c nor is closed to entry.  Under
    coverage a robot may leave only a vertex holding at least two colors, so
    no vertex is left bare.  With coverage off the separation rule binds
    across colors, so the target vertex must be free of every robot.
    """
    n = spec.graph.n
    full = (1 << n) - 1
    once, twice = key & full, 0
    while key := key >> n:
        twice |= once & key
        once |= key & full
    if spec.require_cover:
        return twice, 0
    return full, once


def _column(spec: ComplexSpec) -> int:
    """One bit at the base of each color's field, so ``key >> v & column``
    has a bit at ``c*n`` for each color c on vertex v."""
    return sum(1 << spec.graph.n * color for color in range(spec.colors.r))


def _expander(spec: ComplexSpec):
    """The successor function of the move graph on keys.

    ``expand(key)`` lists the key of every state one legal move away, by
    color, then source vertex ascending, then target ascending (adjacency
    order, as adjacency lists are sorted): the order of the bits the moving
    robot leaves and enters.  Legality is ``_move_rule``'s, spread over every
    color's field.
    """
    n = spec.graph.n
    column = _column(spec)
    neighbors = tuple(sum(1 << v for v in adj) for adj in spec.graph.adjacency)
    # The neighbors of a key bit, in that bit's field.
    reach = tuple(neighbors[v] << shift for shift in range(0, n * spec.colors.r, n) for v in range(n))

    def expand(key: int) -> list[int]:
        leave, blocked = _move_rule(spec, key)
        movable = key & leave * column
        enterable = ~(key | blocked * column)
        out = []
        while movable:
            low = movable & -movable
            movable ^= low
            base = key ^ low
            targets = reach[low.bit_length() - 1] & enterable
            while targets:
                high = targets & -targets
                targets ^= high
                out.append(base | high)
        return out

    return expand


def _move_between(n: int, before: int, after: int) -> Move:
    """The move that turns key ``before`` into key ``after``: the color is the
    field of the two changed bits, the source the one ``before`` holds."""
    diff = before ^ after
    color, source = divmod((before & diff).bit_length() - 1, n)
    target = (after & diff).bit_length() - 1 - color * n
    return Move(color, source, target)


def _step(spec: ComplexSpec, key: int, move: Move) -> int | None:
    """The key after one move, or None when the move is illegal: the move
    flips the robot's bit at the source and at the target.

    The color range and the edge are checked before any shift, so moves read
    from outside (negative or out-of-range numbers) are rejected, not raised.
    """
    color, source, target = move.color, move.source, move.target
    if not 0 <= color < spec.colors.r or not spec.graph.has_edge(source, target):
        return None
    leave, blocked = _move_rule(spec, key)
    shift = color * spec.graph.n
    mask = key >> shift
    if not (mask & leave) >> source & 1 or (mask | blocked) >> target & 1:
        return None
    return key ^ ((1 << source) | (1 << target)) << shift


def is_valid_move(spec: ComplexSpec, cell: Cell, move: Move) -> bool:
    """Whether the slide is legal: the robot exists, the traversed 1-cell and
    the target 0-cell are both valid cells of the complex.  A cell that is not
    a 0-cell of the complex raises ``PlanningError``, a ``ValueError``."""
    return _step(spec, _zero_key_of(spec, cell, "cell"), move) is not None


def apply_move(spec: ComplexSpec, cell: Cell, move: Move) -> Cell:
    """The 0-cell after a legal move; an illegal move raises ``InvalidMoveError``,
    and a cell that is not a 0-cell of the complex ``PlanningError``."""
    nxt = _step(spec, _zero_key_of(spec, cell, "cell"), move)
    if nxt is None:
        raise InvalidMoveError(f"illegal move {move} in {format_cell(cell)}")
    return _decode(spec, nxt)


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
    """Mutable working copy of a 0-cell: its key and the log of emitted moves.

    What the planner asks of a vertex v (its colors, its robot count, whether
    it is available) is read from v's column of the key, ``key >> v &
    column``.  A move that the move rule rejects is a planner defect.
    """

    __slots__ = ("spec", "graph", "column", "key", "moves")

    def __init__(self, spec: ComplexSpec, key: int):
        self.spec = spec
        self.graph = spec.graph
        self.column = _column(spec)
        self.key = key
        self.moves: list[Move] = []

    def colors_at(self, v: int) -> set[int]:
        bits, n = self.key >> v & self.column, self.graph.n
        colors = set()
        while bits:
            low = bits & -bits
            bits ^= low
            colors.add((low.bit_length() - 1) // n)
        return colors

    def holds(self, v: int, color: int) -> bool:
        return self.key >> color * self.graph.n + v & 1 == 1

    def counts(self) -> list[int]:
        key, column = self.key, self.column
        return [(key >> v & column).bit_count() for v in range(self.graph.n)]

    def available(self, v: int) -> bool:
        return (self.key >> v & self.column).bit_count() >= 2

    def move(self, color: int, source: int, target: int) -> None:
        mv = Move(color, source, target)
        nxt = _step(self.spec, self.key, mv)
        if nxt is None:  # the message is built only on failure
            _ensure(False, f"illegal move ({color}, {source} -> {target}) while planning")
        self.key = nxt
        self.moves.append(mv)


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
    t = max(idx for idx, v in enumerate(path) if state.holds(v, k))
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
    if not state.holds(nxt, i):
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


def _borrow_swap(state: _State, x: int, y: int, i: int, j: int, z: int, k: int) -> None:
    """Swap across the edge (x, y), neither end having a spare robot, by
    borrowing the k robot of the available vertex ``z`` (k is neither i nor j).

    The k robot is relayed onto the nearer of the two ends (whose shortest
    path provably misses the other end), the two-move swap runs, and the relay
    is undone by replaying it backwards.
    """
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
    """Swap the i robot on x with the j robot on y across the edge (x, y):
    directly, else with the smallest third color of the first available
    vertex that has one, else by search."""
    if state.available(x):
        state.move(i, x, y)
        state.move(j, y, x)
        return
    if state.available(y):
        state.move(j, y, x)
        state.move(i, x, y)
        return
    _ensure(state.colors_at(x) == {i} and state.colors_at(y) == {j}, "swap_adjacent: bare ends")
    for z in range(state.graph.n):
        if state.available(z):
            spare = state.colors_at(z) - {i, j}
            if spare:
                _borrow_swap(state, x, y, i, j, z, min(spare))
                return
    _search_swap(state, x, y, i, j)


def _search_swap(state: _State, x: int, y: int, i: int, j: int) -> None:
    """Swap across the bare edge (x, y) when every available vertex carries
    exactly the colors i and j: the first shortest move sequence, in
    expansion order, to the current state with x and y exchanged between i
    and j.  The goal is reachable whenever the complex is path-connected, as
    the calling hypotheses guarantee.  The moves are replayed through the
    working state, which checks each one."""
    n, ends = state.graph.n, (1 << x) | (1 << y)
    keys = _first_shortest(_expander(state.spec), state.key, state.key ^ ends << i * n ^ ends << j * n)
    _ensure(keys is not None, f"no move sequence exchanges colors ({i}, {j}) between ({x}, {y})")
    for before, after in zip(keys, keys[1:]):
        mv = _move_between(n, before, after)
        state.move(mv.color, mv.source, mv.target)


def _swap_along(state: _State, path, i: int, j: int) -> None:
    """Swap the i robot on the first path vertex with the j robot on the last."""
    x, y = path[0], path[-1]
    _ensure(state.holds(x, i) and not state.holds(x, j), "swap_along: x must hold i and not j")
    _ensure(state.holds(y, j) and not state.holds(y, i), "swap_along: y must hold j and not i")
    if len(path) == 2:
        _swap_adjacent(state, x, y, i, j)
        return
    nxt = path[1]
    has_i, has_j = state.holds(nxt, i), state.holds(nxt, j)
    if has_i and not has_j:
        _swap_along(state, path[1:], i, j)
        _swap_adjacent(state, x, nxt, i, j)
    elif has_j and not has_i:
        _swap_adjacent(state, x, nxt, i, j)
        _swap_along(state, path[1:], i, j)
    elif has_i and has_j:
        state.move(j, nxt, x)
        _swap_along(state, path[1:], i, j)
        state.move(i, x, nxt)
    elif not state.available(x):
        k = min(state.colors_at(nxt))
        _swap_adjacent(state, x, nxt, i, k)
        _swap_along(state, path[1:], i, j)
        _swap_adjacent(state, x, nxt, k, j)
    else:
        state.move(i, x, nxt)
        _swap_along(state, path[1:], i, j)
        state.move(j, nxt, x)


def _swap(state: _State, x: int, y: int, i: int, j: int) -> None:
    _swap_along(state, shortest_path(state.graph, x, y), i, j)


def _realize_profile(state: _State, target: int) -> None:
    """Drive a 0-cell to the same-type target key through color swaps.

    Repeatedly extract a cycle of (extra color, vertex) pairs, each color being
    surplus where it stands and wanted at the next vertex, then realize the
    cycle's permutation by walking its lead color backwards through pairwise
    swaps, shrinking the cycle until it closes.
    """
    n, full, column = state.graph.n, (1 << state.graph.n) - 1, state.column

    def first(bits: int) -> int:
        return (bits & -bits).bit_length() - 1

    while True:
        # The robots standing where the target has none, and the reverse.
        surplus, wanted = state.key & ~target, target & ~state.key
        if not surplus:
            return
        v1 = next(v for v in range(n) if surplus >> v & column)
        seq = [(first(surplus >> v1 & column) // n, v1)]
        seen = {v1: 0}
        while True:
            c_last, _ = seq[-1]
            nxt = first(wanted >> c_last * n & full)
            if nxt in seen:
                cycle = seq[seen[nxt] :]
                break
            seq.append((first(surplus >> nxt & column) // n, nxt))
            seen[nxt] = len(seq) - 1
        _realize_cycle(state, cycle)


def _realize_cycle(state: _State, cycle: list[tuple[int, int]]) -> None:
    while len(cycle) > 1:
        i1, v1 = cycle[0]
        p = len(cycle)
        verts = [v for _, v in cycle] + [v1]
        cols = [c for c, _ in cycle] + [i1]
        t = min(s for s in range(2, p + 2) if state.holds(verts[s - 1], i1))
        _ensure(t >= 3, "realize_cycle: the lead color is already in place")
        for s in range(t, 2, -1):
            _swap(state, verts[s - 1], verts[s - 2], i1, cols[s - 2])
        if t == p + 1:
            return
        t = t if cols[t - 1] != i1 else t + 1
        cycle = [cycle[0]] + cycle[t - 1 :]


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


def _verified(plan: MovePlan) -> MovePlan:
    """Return a constructed plan once it replays; a failure is a planner defect."""
    check = verify_plan(plan)
    if not check:
        raise InternalPlanningError(f"internal: constructed plan fails replay at step {check.failed_at}")
    return plan


def _finish(state: _State, start: Cell) -> MovePlan:
    return _verified(MovePlan(state.spec, start, tuple(state.moves), _decode(state.spec, state.key)))


def leapfrog(spec: ComplexSpec, cell: Cell, z: int, path, k: int) -> MovePlan:
    """Relay a robot out of the available vertex ``z`` along ``path`` so its
    far end gains a k-colored robot.

    After the plan, the target's colors gain exactly k, ``z`` holds one robot
    fewer, interior path vertices keep their occupancy counts, and vertices off
    the path are untouched.
    """
    if not spec.require_cover:
        raise PlanningError("leapfrog: relays are defined on covering complexes")
    state = _State(spec, _zero_key_of(spec, cell, "start"))
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
    state = _State(spec, _zero_key_of(spec, cell, "start"))
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
    key = _zero_key_of(spec, cell, "start")
    if x == y or i == j:
        raise PlanningError("swap_colors: needs distinct vertices and distinct colors")
    occ_x, occ_y = occupancy(cell, x), occupancy(cell, y)
    if i not in occ_x or j in occ_x or j not in occ_y or i in occ_y:
        raise PlanningError(
            "swap_colors: needs i on x but not y, and j on y but not x"
        )
    state = _State(spec, key)
    _swap(state, x, y, i, j)
    return _finish(state, cell)


def same_type_plan(spec: ComplexSpec, cell: Cell, goal: Cell) -> MovePlan:
    """Connect two 0-cells with identical occupancy profiles."""
    _require_planner_hypotheses(spec)
    state = _State(spec, _zero_key_of(spec, cell, "start"))
    target = _zero_key_of(spec, goal, "goal")
    if not same_type(cell, goal):
        raise PlanningError("same_type_plan: the cells have different occupancy profiles")
    _realize_profile(state, target)
    _ensure(state.key == target, "same_type_plan did not reach the goal")
    return _finish(state, cell)


def plan(spec: ComplexSpec, start: Cell, goal: Cell) -> MovePlan:
    """A verified move sequence between any two 0-cells.

    Occupancy profiles are balanced first: while some vertex is over-occupied
    relative to the goal, a surplus robot is relayed toward an under-occupied
    one, worked from whichever side (start or goal) currently has the taller
    stack; goal-side work is recorded and replayed backwards at the end.  The
    same-type gap that remains is closed by color swaps.
    """
    fwd = _State(spec, _zero_key_of(spec, start, "start"))
    bwd = _State(spec, _zero_key_of(spec, goal, "goal"))
    _require_planner_hypotheses(spec)
    g = spec.graph
    while True:
        here = fwd.counts()
        diffs = [a - b for a, b in zip(here, bwd.counts())]
        over = [v for v, d in enumerate(diffs) if d > 0]
        if not over:
            break
        x = over[0]
        y = next(v for v, d in enumerate(diffs) if d < 0)
        if here[x] > here[y]:
            k = min(fwd.colors_at(x) - fwd.colors_at(y))
            _leapfrog(fwd, x, shortest_path(g, x, y), k)
        else:
            k = min(bwd.colors_at(y) - bwd.colors_at(x))
            _leapfrog(bwd, y, shortest_path(g, y, x), k)
    _realize_profile(fwd, bwd.key)
    _ensure(fwd.key == bwd.key, "the forward and backward halves of the plan do not meet")
    moves = list(fwd.moves) + [mv.flipped() for mv in reversed(bwd.moves)]
    return _verified(MovePlan(spec, start, tuple(moves), goal))


def plan_bfs(spec: ComplexSpec, start: Cell, goal: Cell) -> MovePlan | None:
    """A shortest move sequence over the 1-skeleton, or None when the goal is
    unreachable; works for any color count.  The plan is the forward
    breadth-first tree's path, the first shortest plan in expansion order
    (color, source vertex, target vertex), found by a bidirectional search."""
    source = _zero_key_of(spec, start, "start")
    target = _zero_key_of(spec, goal, "goal")
    n = spec.graph.n
    keys = _first_shortest(_expander(spec), source, target)
    if keys is None:
        return None
    moves = tuple(_move_between(n, before, after) for before, after in zip(keys, keys[1:]))
    return _verified(MovePlan(spec, start, moves, goal))


def verify_plan(plan: MovePlan) -> PlanVerification:
    """Replay a plan: the start must be a valid 0-cell, every move legal in
    sequence, and the final state must be the declared end's 0-cell, if any."""
    spec = plan.spec
    key = _zero_key(spec, plan.start)
    if key is None:
        return PlanVerification(False, 0)
    for step, mv in enumerate(plan.moves, start=1):
        key = _step(spec, key, mv)
        if key is None:
            return PlanVerification(False, step)
    if plan.end is not None and _zero_key(spec, plan.end) != key:
        return PlanVerification(False, len(plan.moves) + 1)
    return PlanVerification(True, None)


def format_plan(plan: MovePlan) -> str:
    """Serialize: the start cell in canonical text form, then one move per
    line as ``color source target``."""
    lines = [format_cell(Cell.make(plan.start.parts))]
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
