"""Closed-form cell counts for two color-vector families, plus an independent
counting oracle that enumerates edge/vertex tuples directly.

All arithmetic uses exact Python integers (factorial growth is expected), and
the provably integral divisions check their divisibility before dividing.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb, factorial

from .graphs import SimpleGraph, is_connected


def two_one_cell_counts(g: SimpleGraph) -> tuple[int, int]:
    """0- and 1-cell counts for the color vector (2, 1, ..., 1) of length n.

    Higher dimensions are empty for this family.
    """
    n, m = g.n, g.m
    if n < 2:
        raise ValueError("the (2, 1, ..., 1) family needs at least two vertices")
    f0_num = factorial(n) * (n * n + n - 2)
    f1_num = m * factorial(n - 1) * (n * n + n - 4)
    if f0_num % 4 or f1_num % 2:
        raise ArithmeticError("internal: the (2, 1, ..., 1) closed form is not integral")
    return f0_num // 4, f1_num // 2


def wedge_count(g: SimpleGraph) -> int:
    """Number of circles in the wedge describing the (2, 1, ..., 1) complex.

    The complex is a connected graph-shaped space for this family, so the
    count is 1-cells minus 0-cells plus one.
    """
    if not is_connected(g):
        raise ValueError("the wedge description needs a connected graph")
    f0, f1 = two_one_cell_counts(g)
    return f1 - f0 + 1


def uniform_cell_counts(g: SimpleGraph, r: int) -> tuple[int, ...]:
    """Cell counts per dimension for the uniform vector (n-1, ..., n-1), r colors.

    Entry i for i < r is C(r, i) * (m^i n^(r-i) - sum_v deg(v)^i); entry r is
    m^r + m - sum_v deg(v)^r.  Dimensions above r are empty.
    """
    if r < 2:
        raise ValueError("the uniform family needs at least two colors")
    n, m = g.n, g.m
    degs = g.degrees
    counts = [comb(r, i) * (m**i * n ** (r - i) - sum(d**i for d in degs)) for i in range(r)]
    counts.append(m**r + m - sum(d**r for d in degs))
    return tuple(counts)


def count_valid_edge_tuples(g: SimpleGraph, r: int, i: int) -> int:
    """Count i-cells of the uniform (n-1, ..., n-1) complex by direct enumeration.

    Every i-cell corresponds to an r-tuple whose components are i edges (the
    edge carried by an edge color) and r-i vertices (the vertex missed by a
    vertex-only color).  A tuple fails to describe a cell exactly when all its
    vertex components equal one common vertex and every edge component touches
    that vertex; for i = r, when all edges share a common endpoint.  This scans
    all C(r, i) * m^i * n^(r-i) tuples and filters, independently of both the
    closed forms and the brute-force cell enumeration.
    """
    if r < 2:
        raise ValueError("the uniform family needs at least two colors")
    if not 0 <= i <= r:
        raise ValueError(f"edge count {i} must lie in 0..{r}")
    n = g.n
    count = 0
    for _positions in combinations(range(r), i):
        for edge_choice in product(g.edges, repeat=i):
            if i == r:
                common = set(edge_choice[0])
                for e in edge_choice[1:]:
                    common &= set(e)
                    if not common:
                        break
                if not common:
                    count += 1
                continue
            for vert_choice in product(range(n), repeat=r - i):
                distinct = set(vert_choice)
                if len(distinct) == 1:
                    v = vert_choice[0]
                    if all(v in e for e in edge_choice):
                        continue
                count += 1
    return count
