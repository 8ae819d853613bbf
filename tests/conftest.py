import itertools

import hypothesis
import pytest

from stirling_complexes import (
    Cell,
    ComplexSpec,
    SimpleGraph,
    generate_named,
    is_connected,
    is_valid_cell,
)

hypothesis.settings.register_profile("suite", max_examples=40, deadline=None)
hypothesis.settings.load_profile("suite")


@pytest.fixture
def p3():
    return generate_named("path", 3)


@pytest.fixture
def p4():
    return generate_named("path", 4)


@pytest.fixture
def t4():
    # the 3-leg star; center is vertex 0
    return generate_named("star", 4)


@pytest.fixture
def c4():
    return generate_named("cycle", 4)


@pytest.fixture
def k4():
    return generate_named("complete", 4)


@pytest.fixture
def k5():
    return generate_named("complete", 5)


@pytest.fixture
def star_plus_edge():
    # the 3-leg star with one extra edge joining two leaves
    return SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (2, 3)])


def brute_force_cells(spec: ComplexSpec):
    """Independent route to the cell set: filter all raw element subsets."""
    g = spec.graph
    elements = list(range(g.n)) + list(g.edges)
    pools = [itertools.combinations(elements, size) for size in spec.colors.sizes]
    for combo in itertools.product(*pools):
        cell = Cell.make(combo)
        if is_valid_cell(spec, cell):
            yield cell


def all_simple_paths(g: SimpleGraph, u: int, v: int):
    """Every simple path between two vertices, by exhaustive search."""
    out = []

    def dfs(cur, seen, acc):
        if cur == v:
            out.append(tuple(acc))
            return
        for w in g.adjacency[cur]:
            if w not in seen:
                seen.add(w)
                acc.append(w)
                dfs(w, seen, acc)
                acc.pop()
                seen.discard(w)

    dfs(u, {u}, [u])
    return out


def labelled_graphs(n):
    """Every simple graph on the vertices 0..n-1, disconnected ones included:
    one per subset of the n(n-1)/2 possible edges."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield SimpleGraph(n, tuple(e for k, e in enumerate(pairs) if bits >> k & 1))


def connected_graphs(n):
    """Every connected simple graph on n vertices, one per isomorphism class:
    brute force over edge subsets, deduplicated by the least relabelling."""
    pairs = list(itertools.combinations(range(n), 2))
    perms = list(itertools.permutations(range(n)))
    seen = set()
    out = []
    for bits in range(1 << len(pairs)):
        edges = [e for k, e in enumerate(pairs) if bits >> k & 1]
        canon = min(
            tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges)) for p in perms
        )
        if canon in seen:
            continue
        seen.add(canon)
        g = SimpleGraph.from_edges(n, canon)
        if is_connected(g):
            out.append(g)
    return out


def color_vectors(n):
    """Every ordered vector of 2 or 3 positive sizes with total at most n + 2."""
    for r in (2, 3):
        for sizes in itertools.product(range(1, n + 2), repeat=r):
            if sum(sizes) <= n + 2:
                yield sizes
