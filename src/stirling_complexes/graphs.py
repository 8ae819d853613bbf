"""Simple undirected graphs: parsing, generators, search and connectivity.

``_first_shortest`` is the package's one shortest-path search: a
bidirectional breadth-first search over any reversible successor function,
which returns the first shortest path in expansion order.  ``shortest_path``
runs it on the sorted adjacency lists of a graph, and the planner runs it on
the move graph of 0-cells, for ``plan_bfs`` and for the swap search.
``_labels`` is its one union-find, behind ``is_connected`` and the 1-skeleton.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations


class EdgeListError(ValueError):
    """Malformed edge-list text; ``line`` is the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class NoPathError(ValueError):
    """The requested endpoints lie in different connected components."""


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph on dense vertex indices 0..n-1.

    Edges are canonical ``(min, max)`` pairs in strictly increasing order, so
    loops, duplicates and unsorted edge tuples are rejected; cells built from
    the graph inherit that order.  Instances are immutable and hashable.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        prev = None
        for e in self.edges:
            u, v = e
            if u == v:
                raise ValueError(f"loop edge {e}")
            if not 0 <= u < v < self.n:
                raise ValueError(f"edge {e} is out of range or not in (min, max) form")
            if prev is not None and e <= prev:
                raise ValueError(f"edge {e} is a duplicate or out of order: edges must be sorted")
            prev = e

    @classmethod
    def from_edges(cls, n: int, edges) -> SimpleGraph:
        """Build a graph from unordered endpoint pairs, canonicalizing each."""
        canon = sorted({(min(u, v), max(u, v)) for u, v in edges})
        return cls(n, tuple(canon))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(a)) for a in nbrs)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adjacency)

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edge_set


def parse_edge_list(text: str) -> SimpleGraph:
    """Parse an edge-list document: a header ``n m`` followed by m lines ``u v``.

    Blank lines are ignored.  Every defect (malformed line, loop, duplicate
    edge, endpoint out of range, wrong edge count) raises ``EdgeListError``
    carrying the 1-based line number.
    """
    numbered = [(no, raw.strip()) for no, raw in enumerate(text.splitlines(), start=1)]
    numbered = [(no, s) for no, s in numbered if s]
    if not numbered:
        raise EdgeListError(1, "missing 'n m' header")
    header_no, header = numbered[0]
    fields = header.split()
    if len(fields) != 2:
        raise EdgeListError(header_no, f"header must be 'n m', got {header!r}")
    try:
        n, m = int(fields[0]), int(fields[1])
    except ValueError:
        raise EdgeListError(header_no, f"header must be two integers, got {header!r}") from None
    if n < 0 or m < 0:
        raise EdgeListError(header_no, "n and m must be non-negative")
    body = numbered[1:]
    if len(body) < m:
        last = body[-1][0] if body else header_no
        raise EdgeListError(last + 1, f"expected {m} edge lines, found {len(body)}")
    if len(body) > m:
        raise EdgeListError(body[m][0], "unexpected line after the declared edges")
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for no, line in body:
        fields = line.split()
        if len(fields) != 2:
            raise EdgeListError(no, f"edge line must be 'u v', got {line!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise EdgeListError(no, f"edge endpoints must be integers, got {line!r}") from None
        if u == v:
            raise EdgeListError(no, f"loop edge ({u}, {v})")
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListError(no, f"endpoint out of range in ({u}, {v}); vertices are 0..{n - 1}")
        e = (min(u, v), max(u, v))
        if e in seen:
            raise EdgeListError(no, f"duplicate edge {e}")
        seen.add(e)
        edges.append(e)
    return SimpleGraph(n, tuple(sorted(edges)))


# The named graph families, keyed by the letter that names them in ``parse_graph_name``.
GRAPH_FAMILIES = {"P": "path", "T": "star", "C": "cycle", "K": "complete"}


def generate_named(family: str, n: int) -> SimpleGraph:
    """Standard graphs: path, star (center at vertex 0), cycle (n >= 3), complete."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if family == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif family == "star":
        edges = [(0, i) for i in range(1, n)]
    elif family == "cycle":
        if n < 3:
            raise ValueError("a cycle needs at least three vertices")
        edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    elif family == "complete":
        edges = list(combinations(range(n), 2))
    else:
        raise ValueError(f"unknown family {family!r}; choose from {tuple(GRAPH_FAMILIES.values())}")
    return SimpleGraph.from_edges(n, edges)


def parse_graph_name(name: str) -> SimpleGraph:
    """The named graph ``P7`` (path), ``T4`` (star), ``C5`` (cycle) or ``K5``
    (complete); a size the family does not allow raises ``generate_named``'s
    error."""
    match = re.fullmatch(r"([PTCK])(\d+)", name)
    if not match:
        raise ValueError(f"--graph must look like K5, P3, T4 or C4, got {name!r}")
    return generate_named(GRAPH_FAMILIES[match.group(1)], int(match.group(2)))


def _first_shortest(expand, source, target) -> list | None:
    """The forward breadth-first tree's path from ``source`` to ``target``,
    the first shortest path in ``expand`` order, or None when there is none.

    ``expand(key)`` lists the keys one step from ``key``, and every step must
    be reversible.  Each round grows the end with the smaller frontier by one
    whole layer, keeping a parent per key on the forward end and a depth per
    key on the backward end.  A forward layer is built in the lexicographic
    order of its tree paths, so the first key it reaches in the backward ball
    is where the path crosses; after a backward layer, the crossing is the
    first key of the forward frontier in the grown ball.  All such keys have
    one backward depth, as the two balls were disjoint a layer earlier.  The
    path follows the parents from the crossing back to the source, then walks
    to the target, each time taking the first successor one step nearer.
    """
    if source == target:
        return [source]
    parents, depths = {source: None}, {target: 0}

    def crossing():
        forward, backward, radius = [source], [target], 0
        while forward and backward:
            layer = []
            if len(forward) <= len(backward):
                for key in forward:
                    for nxt in expand(key):
                        if nxt not in parents:
                            parents[nxt] = key
                            if nxt in depths:
                                return nxt
                            layer.append(nxt)
                forward = layer
            else:
                radius += 1
                for key in backward:
                    for nxt in expand(key):
                        if nxt not in depths:
                            depths[nxt] = radius
                            layer.append(nxt)
                backward = layer
                met = next((key for key in forward if key in depths), None)
                if met is not None:
                    return met
        return None

    met = crossing()
    if met is None:
        return None
    path = [met]
    while (parent := parents[path[-1]]) is not None:
        path.append(parent)
    path.reverse()
    for depth in range(depths[met] - 1, -1, -1):
        path.append(next(nxt for nxt in expand(path[-1]) if depths.get(nxt) == depth))
    return path


def shortest_path(g: SimpleGraph, u: int, v: int, forbidden=()) -> tuple[int, ...]:
    """Shortest vertex sequence from u to v; ties break to the lexicographically
    smallest sequence, the first shortest path in sorted adjacency order.

    ``forbidden`` vertices may not appear anywhere on the path.  Raises
    ``NoPathError`` when v is unreachable under that restriction.
    """
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError(f"endpoints ({u}, {v}) out of range for n={g.n}")
    blocked = set(forbidden)
    if u in blocked or v in blocked:
        raise NoPathError(f"endpoint of ({u}, {v}) is forbidden")
    adjacency = g.adjacency
    path = _first_shortest(lambda w: [x for x in adjacency[w] if x not in blocked], u, v)
    if path is None:
        raise NoPathError(f"no path from {u} to {v}")
    return tuple(path)


def _labels(node_count: int, arcs) -> tuple[int, tuple[int, ...]]:
    """Union-find over node indices: the component count plus a dense label
    per node, assigned in node order."""
    parent = list(range(node_count))
    # find() is inlined, with path halving: a call per lookup costs more than
    # the lookup itself
    for a, b in arcs:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[b] = a
    labels = []
    dense: dict[int, int] = {}
    for i in range(node_count):
        root = i
        while parent[root] != root:
            root = parent[root]
        parent[i] = root
        labels.append(dense.setdefault(root, len(dense)))
    return len(dense), tuple(labels)


def is_connected(g: SimpleGraph) -> bool:
    """True iff the graph has at most one connected component."""
    return _labels(g.n, g.edges)[0] <= 1
