"""Reference computations for the benchmark, written apart from the program.

Nothing here imports ``stirling_complexes``.  A graph is ``(n, edges)`` with
vertices ``0..n-1``; a 0-cell is a tuple of vertex bitmasks, one per color.
The move rule is the paper's: a robot of color c slides from s to an adjacent
t when color c is not already on t and s keeps at least one other robot, so
that every vertex stays covered.
"""

from __future__ import annotations

from math import comb, factorial


def adjacency(n: int, edges) -> tuple[tuple[int, ...], ...]:
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return tuple(tuple(sorted(a)) for a in nbrs)


def _matchings(edges) -> list[tuple[int, int]]:
    """Every matching of the graph as (mask of matched vertices, edge count)."""
    out = [(0, 0)]

    def grow(start: int, used: int, k: int) -> None:
        for idx in range(start, len(edges)):
            u, v = edges[idx]
            bits = (1 << u) | (1 << v)
            if used & bits:
                continue
            out.append((used | bits, k + 1))
            grow(idx + 1, used | bits, k + 1)

    grow(0, 0, 0)
    return out


def f_vector(n: int, edges, sizes) -> tuple[int, ...]:
    """Cell counts per dimension of the covering complex, by inclusion-exclusion.

    A cell gives color i a matching of k edges plus l_i - k vertices off the
    matched endpoints; only vertex elements cover.  Counting configurations
    whose vertex elements all lie in T and alternating over T gives the cells
    whose vertex elements cover V:

        f(x) = sum_T (-1)^(n-|T|) prod_i sum_M x^|M| C(|T \\ V(M)|, l_i - |M|).

    With no edges held this is the f_0 sum  sum_T (-1)^(n-|T|) prod_i C(|T|, l_i);
    the x^1 coefficient is the same sum with one color holding an edge.
    """
    matchings = _matchings(list(edges))
    top = sum(sizes) - n
    if top < 0 or any(l > n for l in sizes):
        return (0,)
    totals: dict[int, int] = {}
    for T in range(1 << n):
        sign = -1 if (n - T.bit_count()) % 2 else 1
        poly = [1]
        for l in sizes:
            per_color = [0] * (l + 1)
            for mask, k in matchings:
                if k <= l:
                    per_color[k] += comb((T & ~mask).bit_count(), l - k)
            prod = [0] * (len(poly) + l)
            for a, ca in enumerate(poly):
                if ca:
                    for b, cb in enumerate(per_color):
                        prod[a + b] += ca * cb
            poly = prod
        for d, c in enumerate(poly):
            if c:
                totals[d] = totals.get(d, 0) + sign * c
    if any(c and d > top for d, c in totals.items()):
        raise ArithmeticError("inclusion-exclusion left cells above the dimension bound")
    return tuple(totals.get(d, 0) for d in range(top + 1))


def two_one_counts(n: int, m: int) -> tuple[int, int]:
    """(f_0, f_1) for the vector (2, 1, ..., 1) of length n (the paper's formula)."""
    return factorial(n) * (n * n + n - 2) // 4, m * factorial(n - 1) * (n * n + n - 4) // 2


def uniform_counts(n: int, edges, r: int) -> tuple[int, ...]:
    """f-vector for the vector (n-1, ..., n-1) with r colors (the paper's formula)."""
    m = len(edges)
    degs = [len(a) for a in adjacency(n, edges)]
    out = [comb(r, i) * (m**i * n ** (r - i) - sum(d**i for d in degs)) for i in range(r)]
    out.append(m**r + m - sum(d**r for d in degs))
    return tuple(out)


def closed_form(n: int, edges, sizes) -> tuple[str, tuple[int, ...]] | None:
    """The closed form that applies to this color vector, if one does."""
    if n >= 2 and len(sizes) == n and sorted(sizes, reverse=True) == [2] + [1] * (n - 1):
        return "two_one", two_one_counts(n, len(edges))
    if n >= 2 and len(sizes) >= 2 and all(l == n - 1 for l in sizes):
        return "uniform", uniform_counts(n, edges, len(sizes))
    return None


def is_connected(n: int, edges) -> bool:
    adj = adjacency(n, edges)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def is_nontrivial(n: int, sizes) -> bool:
    return sum(sizes) > n and all(l < n for l in sizes)


def one_component_by_theorem(n: int, edges, sizes) -> bool:
    """The paper's theorem: at least three groups, a connected graph and a
    non-trivial vector give a path-connected complex."""
    return len(sizes) >= 3 and is_connected(n, edges) and is_nontrivial(n, sizes)


def _subsets(n: int, size: int) -> list[int]:
    out = []

    def grow(start: int, mask: int, left: int) -> None:
        if left == 0:
            out.append(mask)
            return
        for v in range(start, n - left + 1):
            grow(v + 1, mask | (1 << v), left - 1)

    grow(0, 0, size)
    return out


def zero_cells(n: int, sizes) -> list[tuple[int, ...]]:
    """Every 0-cell: one size-l_i vertex set per color, jointly covering V."""
    full = (1 << n) - 1
    cells: list[tuple[int, ...]] = [()]
    covers = [0]
    for l in sizes:
        subsets = _subsets(n, l)
        cells, covers = (
            [c + (s,) for c in cells for s in subsets],
            [cov | s for cov in covers for s in subsets],
        )
    return [c for c, cov in zip(cells, covers) if cov == full]


def successors(adj, state: tuple[int, ...]):
    """Yield every 0-cell one legal move away."""
    for c, mask in enumerate(state):
        others = 0
        for j, m in enumerate(state):
            if j != c:
                others |= m
        movable = mask & others
        while movable:
            s = (movable & -movable).bit_length() - 1
            movable &= movable - 1
            for t in adj[s]:
                if not mask >> t & 1:
                    yield state[:c] + (mask ^ (1 << s) ^ (1 << t),) + state[c + 1 :]


def component_sizes(n: int, edges, sizes) -> list[int]:
    """Sorted component sizes of the 1-skeleton, by union-find over moves."""
    adj = adjacency(n, edges)
    cells = zero_cells(n, sizes)
    index = {c: i for i, c in enumerate(cells)}
    parent = list(range(len(cells)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for c in cells:
        a = find(index[c])
        for nxt in successors(adj, c):
            b = find(index[nxt])
            if a != b:
                parent[b] = a
    counts: dict[int, int] = {}
    for i in range(len(cells)):
        root = find(i)
        counts[root] = counts.get(root, 0) + 1
    return sorted(counts.values())


def bfs_distance(adj, start: tuple[int, ...], goal: tuple[int, ...]) -> int | None:
    """Fewest moves from start to goal, by bidirectional breadth-first search
    (every move can be undone, so the move graph is undirected)."""
    if start == goal:
        return 0
    dist_a, dist_b = {start: 0}, {goal: 0}
    front_a, front_b = [start], [goal]
    while front_a and front_b:
        if len(front_a) > len(front_b):
            dist_a, dist_b = dist_b, dist_a
            front_a, front_b = front_b, front_a
        nxt_front = []
        best = None
        for s in front_a:
            d = dist_a[s] + 1
            for t in successors(adj, s):
                if t in dist_b:
                    total = d + dist_b[t]
                    best = total if best is None else min(best, total)
                if t not in dist_a:
                    dist_a[t] = d
                    nxt_front.append(t)
        if best is not None:
            return best
        front_a = nxt_front
    return None


def min_moves(start: tuple[int, ...], goal: tuple[int, ...]) -> int:
    """Each robot off its goal vertex set moves at least once."""
    return sum((s & ~g).bit_count() for s, g in zip(start, goal))


def random_zero_cell(rng, n: int, sizes) -> tuple[int, ...]:
    """A uniformly random 0-cell, by rejection sampling of per-color vertex sets."""
    full = (1 << n) - 1
    vertices = range(n)
    while True:
        masks = tuple(sum(1 << v for v in rng.sample(vertices, l)) for l in sizes)
        cover = 0
        for m in masks:
            cover |= m
        if cover == full:
            return masks


def cell_text(state: tuple[int, ...]) -> str:
    """The program's cell text form for a 0-cell, e.g. ``{0,1}|{0,2}|{0}``."""
    return "|".join(
        "{" + ",".join(str(v) for v in range(mask.bit_length()) if mask >> v & 1) + "}"
        for mask in state
    )


def parse_zero_cell(text: str) -> tuple[int, ...]:
    """Inverse of :func:`cell_text`; raises ValueError on anything but vertices."""
    masks = []
    for chunk in text.strip().split("|"):
        if not (chunk.startswith("{") and chunk.endswith("}")):
            raise ValueError(f"bad part {chunk!r}")
        mask = 0
        for tok in filter(None, chunk[1:-1].split(",")):
            bit = 1 << int(tok)
            if mask & bit:
                raise ValueError(f"repeated vertex in {chunk!r}")
            mask |= bit
        masks.append(mask)
    return tuple(masks)


def replay_plan_text(n: int, edges, sizes, text: str) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Replay a serialized plan under the move rule.

    Returns (start, end, number of moves); raises ValueError at the first
    illegal line.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty plan")
    start = parse_zero_cell(lines[0])
    full = (1 << n) - 1
    if len(start) != len(sizes) or any(m.bit_count() != l or m > full for m, l in zip(start, sizes)):
        raise ValueError("start cell has the wrong shape")
    cover = 0
    for m in start:
        cover |= m
    if cover != full:
        raise ValueError("start cell leaves a vertex uncovered")
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    state = list(start)
    for step, line in enumerate(lines[1:], start=1):
        c, s, t = (int(f) for f in line.split())
        if not 0 <= c < len(state) or (min(s, t), max(s, t)) not in edge_set:
            raise ValueError(f"move {step}: no such color or edge")
        if not state[c] >> s & 1 or state[c] >> t & 1:
            raise ValueError(f"move {step}: color {c} is not on {s} or already on {t}")
        if sum(m >> s & 1 for m in state) < 2:
            raise ValueError(f"move {step}: vertex {s} would be left uncovered")
        state[c] ^= (1 << s) | (1 << t)
    return start, tuple(state), len(lines) - 1
