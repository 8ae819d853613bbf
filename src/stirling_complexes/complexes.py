"""Cells of grouped Stirling complexes: validity, enumeration, f-vectors,
and the 0- and 1-cells that make up the 1-skeleton, keyed as the planner
keys a 0-cell: one vertex mask per color.  The key codec is one pair here:
``_zero_key`` checks a 0-cell and encodes it, ``_zero_cells`` decodes keys.

A complex is determined by a simple graph and a color vector (l_1, ..., l_r):
color i owns l_i robots.  A cell assigns each color a set of vertices and
closed edges that are pairwise disjoint as point sets; in the covering complex
every vertex of the graph must appear in some color's set.  The dimension of a
cell is the total number of edge slots across all colors.

Turning coverage off yields the classical discrete configuration spaces used
as test fixtures; there the separation rule applies across *all* robots, which
is what the one-color and all-singleton vectors need to reproduce the known
hexagon and 12-gon complexes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, combinations
from math import prod

from .graphs import SimpleGraph

from typing import Union

# A cell element is a vertex index or a closed edge (u, v) with u < v.
Element = Union[int, tuple[int, int]]

# Cell counts per dimension.
FVector = tuple[int, ...]


class EmptyComplexError(ValueError):
    """Raised by operations that need at least one cell."""


def canonical_element(el):
    """Normalize an element: vertices pass through, edges get sorted endpoints."""
    if isinstance(el, int):
        return el
    u, v = el
    return (u, v) if u < v else (v, u)


def element_key(el):
    """Sort key: vertices by index, then edges by endpoint pair."""
    if isinstance(el, int):
        return (0, el, el)
    return (1, el[0], el[1])


def element_vertices(el) -> tuple[int, ...]:
    """Vertices of the closed point set of an element (endpoints for an edge)."""
    if isinstance(el, int):
        return (el,)
    return el


def is_edge_element(el) -> bool:
    return not isinstance(el, int)


def element_in_graph(g: SimpleGraph, el) -> bool:
    if isinstance(el, int):
        return 0 <= el < g.n
    return el in g.edge_set


@dataclass(frozen=True)
class ColorVector:
    """Group sizes (l_1, ..., l_r); color i places l_i robots."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.sizes) < 1:
            raise ValueError("need at least one color")
        if any(l < 1 for l in self.sizes):
            raise ValueError("every group size must be positive")

    @property
    def r(self) -> int:
        return len(self.sizes)

    @property
    def total(self) -> int:
        return sum(self.sizes)

    @classmethod
    def parse(cls, text: str) -> ColorVector:
        """Parse a comma-separated vector such as ``2,1,1``."""
        try:
            sizes = tuple(int(tok) for tok in text.split(","))
        except ValueError:
            raise ValueError(f"color vector must be comma-separated integers, got {text!r}") from None
        return cls(sizes)

    @classmethod
    def two_one(cls, n: int) -> ColorVector:
        """The vector (2, 1, ..., 1) of length n."""
        if n < 1:
            raise ValueError("length must be positive")
        return cls((2,) + (1,) * (n - 1))

    @classmethod
    def uniform(cls, size: int, r: int) -> ColorVector:
        """The vector (size, ..., size) with r entries."""
        return cls((size,) * r)


@dataclass(frozen=True)
class ComplexSpec:
    """A graph, a color vector, and whether every vertex must host a robot."""

    graph: SimpleGraph
    colors: ColorVector
    require_cover: bool = True


@dataclass(frozen=True)
class Cell:
    """An r-tuple of element sets, one per color, each kept in canonical order.

    Build instances through :meth:`make`, which sorts parts and normalizes
    edges; equality and hashing rely on that canonical form.
    """

    parts: tuple[tuple, ...]

    @classmethod
    def make(cls, parts) -> Cell:
        canon = tuple(
            tuple(sorted((canonical_element(el) for el in part), key=element_key))
            for part in parts
        )
        return cls(canon)

    @cached_property
    def dimension(self) -> int:
        """Number of edge slots across all parts, multiplicity included."""
        return sum(1 for part in self.parts for el in part if is_edge_element(el))


def cell_sort_key(cell: Cell):
    """Lexicographic key realizing the canonical order on cells."""
    return tuple(tuple(element_key(el) for el in part) for part in cell.parts)


def occupancy(cell: Cell, el) -> frozenset[int]:
    """Colors whose part contains the given vertex or edge."""
    el = canonical_element(el)
    return frozenset(i for i, part in enumerate(cell.parts) if el in part)


def is_available(cell: Cell, v: int) -> bool:
    """True iff at least two colors have a robot on the vertex itself."""
    return len(occupancy(cell, v)) >= 2


def occupancy_difference(cell: Cell, other: Cell, v: int) -> int:
    """Signed difference of vertex occupancy counts between two 0-cells."""
    if cell.dimension != 0 or other.dimension != 0:
        raise ValueError("occupancy differences are defined for 0-cells")
    return len(occupancy(cell, v)) - len(occupancy(other, v))


def same_type(cell: Cell, other: Cell) -> bool:
    """True iff the two 0-cells have identical occupancy counts everywhere."""
    if cell.dimension != 0 or other.dimension != 0:
        raise ValueError("types are defined for 0-cells")
    touched = {v for part in cell.parts for v in part}
    touched |= {v for part in other.parts for v in part}
    return all(occupancy_difference(cell, other, v) == 0 for v in touched)


def is_nonempty(spec: ComplexSpec) -> bool:
    """Whether the covering complex has any cell: total >= n and every size <= n."""
    if not spec.require_cover:
        raise ValueError("the emptiness criterion is stated for covering complexes")
    sizes = spec.colors.sizes
    n = spec.graph.n
    return sum(sizes) >= n and all(l <= n for l in sizes)


def is_nontrivial(spec: ComplexSpec) -> bool:
    """Whether total > n and every group is strictly smaller than n."""
    sizes = spec.colors.sizes
    n = spec.graph.n
    return sum(sizes) > n and all(l < n for l in sizes)


def max_dimension(spec: ComplexSpec) -> int:
    """Upper bound total - n on cell dimension; used to size f-vectors."""
    if not spec.require_cover:
        raise ValueError("the dimension bound is stated for covering complexes")
    return spec.colors.total - spec.graph.n


def _closure_mask(el) -> int:
    mask = 0
    for v in element_vertices(el):
        mask |= 1 << v
    return mask


def is_valid_cell(spec: ComplexSpec, cell: Cell) -> bool:
    """Check part sizes, membership in the graph, disjointness, and coverage.

    Disjointness is per color in the covering complex; with coverage off the
    separation rule binds across all colors.
    """
    g = spec.graph
    sizes = spec.colors.sizes
    if len(cell.parts) != len(sizes):
        return False
    global_mask = 0
    covered = 0
    for part, size in zip(cell.parts, sizes):
        if len(part) != size:
            return False
        part_mask = 0
        for el in part:
            if not element_in_graph(g, el):
                return False
            m = _closure_mask(el)
            if part_mask & m:
                return False
            part_mask |= m
            if not is_edge_element(el):
                covered |= 1 << el
        if not spec.require_cover:
            if global_mask & part_mask:
                return False
            global_mask |= part_mask
    if spec.require_cover and covered != (1 << g.n) - 1:
        return False
    return True


@dataclass(frozen=True)
class _Part:
    """A candidate part: elements plus precomputed masks for the walks, and
    the closure that ``f_vector`` groups parts by with coverage off."""

    elements: tuple
    closure: int
    cover: int
    edge_count: int


def valid_parts(g: SimpleGraph, size: int) -> tuple[_Part, ...]:
    """All size-subsets of vertices and edges whose members are pairwise
    disjoint, in canonical order."""
    full = (1 << g.n) - 1
    pool = [(v, 1 << v, False) for v in range(g.n)]
    pool += [(e, _closure_mask(e), True) for e in g.edges]
    out: list[_Part] = []

    def extend(start: int, chosen: list, mask: int):
        if len(chosen) == size:
            cover = 0
            edge_count = 0
            for el, m, is_e in chosen:
                if is_e:
                    edge_count += 1
                else:
                    cover |= m
            out.append(_Part(tuple(el for el, _, _ in chosen), mask, cover, edge_count))
            return
        # not enough elements, or free vertices (each element takes one), left
        # to fill the part
        missing = size - len(chosen)
        if len(pool) - start < missing or (full & ~mask).bit_count() < missing:
            return
        for idx in range(start, len(pool)):
            el, m, is_e = pool[idx]
            if mask & m:
                continue
            chosen.append(pool[idx])
            extend(idx + 1, chosen, mask | m)
            chosen.pop()

    extend(0, [], 0)
    del extend  # a closure that calls itself is a cycle; free it now, not at a full collection
    return tuple(out)


def _parts_by_color(spec: ComplexSpec) -> list[tuple[_Part, ...]]:
    cache: dict[int, tuple[_Part, ...]] = {}
    out = []
    for size in spec.colors.sizes:
        if size not in cache:
            cache[size] = valid_parts(spec.graph, size)
        out.append(cache[size])
    return out


def _matching_table(g: SimpleGraph) -> list[int]:
    """For every vertex mask S, the matching numbers of the induced subgraph
    G[S] packed into one int: the number of its e-edge matchings in bits
    ``e*W`` to ``(e+1)*W``, where ``W = m + 1`` holds any count of edge sets.

    With v the lowest vertex of S, a matching of G[S] leaves v bare or pairs
    it with a neighbour u in S, so ``table[S] = table[S - v] + sum(table[S -
    v - u] for u in N(v) & S) << W`` (the subset recursion of Bjorklund,
    Husfeldt and Koivisto, "Set partitioning via inclusion-exclusion", 2009).
    Both masks are smaller than S, so one pass in mask order fills the table.
    """
    w = g.m + 1
    nbrs = [0] * g.n
    for u, v in g.edges:
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    table = [1]
    for s in range(1, 1 << g.n):
        low = s & -s
        rest = s ^ low
        paired = 0
        nb = nbrs[low.bit_length() - 1] & rest
        while nb:
            bit = nb & -nb
            paired += table[rest ^ bit]
            nb ^= bit
        table.append(table[rest] + (paired << w))
    return table


def _covering_parts(g: SimpleGraph, size: int, table: list[int]) -> dict[int, tuple[int, int]]:
    """The size-parts that ``valid_parts`` lists, grouped by cover mask as
    ``{cover: (number of parts, edge count)}``.

    A part with cover C holds C's vertices and ``size - |C|`` edges, which
    form a matching of the graph less C, so ``_matching_table`` of the
    complement of C counts them.
    """
    full = (1 << g.n) - 1
    w = g.m + 1
    field = (1 << w) - 1
    out = {}
    for c in range(1 << g.n):
        e = size - c.bit_count()
        if e >= 0:
            k = table[full ^ c] >> e * w & field
            if k:
                out[c] = (k, e)
    return out


def _suffix_sums(values) -> list[int]:
    """``out[idx] = sum(values[idx:])``, with a trailing 0."""
    return list(accumulate(reversed(values), initial=0))[::-1]


def enumerate_cells(spec: ComplexSpec, dim: int | None = None):
    """Yield every cell exactly once, in canonical lexicographic order.

    Per-color candidate parts are precomputed, then their r-fold product is
    walked depth-first with coverage pruning (covering mode) or a shared
    occupancy mask (coverage off).  ``dim`` restricts to a single dimension.
    """
    g = spec.graph
    per_color = _parts_by_color(spec)
    if any(not parts for parts in per_color):
        return
    r = len(per_color)
    full = (1 << g.n) - 1
    # A color with any part has one of vertices only (a part of size s needs
    # s <= n), so colors idx.. cover at most sum(sizes[idx:]) vertices and
    # add between 0 and max_edges[idx] edges.
    cap = _suffix_sums(spec.colors.sizes)
    max_edges = _suffix_sums([max(p.edge_count for p in parts) for parts in per_color])
    bound = max_dimension(spec) if spec.require_cover else None
    chosen: list[_Part] = []

    def walk(idx: int, covered: int, used: int, dims: int):
        if idx == r:
            if bound is not None and dims > bound:
                raise RuntimeError(f"internal: cell dimension {dims} exceeds the bound {bound}")
            yield Cell(tuple(p.elements for p in chosen))
            return
        for part in per_color[idx]:
            d = dims + part.edge_count
            if dim is not None and not (d <= dim <= d + max_edges[idx + 1]):
                continue
            if spec.require_cover:
                new_cov = covered | part.cover
                if (full & ~new_cov).bit_count() > cap[idx + 1]:
                    continue
                chosen.append(part)
                yield from walk(idx + 1, new_cov, 0, d)
                chosen.pop()
            else:
                if used & part.closure:
                    continue
                chosen.append(part)
                yield from walk(idx + 1, 0, used | part.closure, d)
                chosen.pop()

    try:
        yield from walk(0, 0, 0, 0)
    finally:
        del walk  # a closure that calls itself is a cycle, also when the caller stops early


def _low_parts(g: SimpleGraph, size: int, cover: bool) -> list[tuple[int, int, tuple[int, int] | None]]:
    """The size-parts with at most one edge, in ``valid_parts``' canonical
    order, as ``(cover or closure mask, vertex mask, end bits of the edge or
    None)``; ``cover`` picks the first mask.

    Such a part holds only vertices in its first size - 1 elements, and its
    last element is a larger vertex or, as edges follow vertices in the pool,
    an edge clear of those vertices; so each prefix yields its vertex-only
    parts first, then its one-edge parts.
    """
    ends = [(1 << u, 1 << v) for u, v in g.edges]
    out = []
    for prefix in combinations(range(g.n), size - 1):
        mask = sum(1 << v for v in prefix)
        out += [(mask | 1 << v, mask | 1 << v, None) for v in range(prefix[-1] + 1 if prefix else 0, g.n)]
        out += [(mask if cover else mask | a | b, mask, (a, b)) for a, b in ends if not mask & (a | b)]
    return out


def _one_skeleton(spec: ComplexSpec) -> tuple[list[int], list[int], list[int]]:
    """The 0-cells' keys in canonical order, and two lists that hold, in the
    1-cells' canonical order, the indices of each one's two 0-cells.

    One walk over the parts with at most one edge (``_low_parts``) records
    each cell as a key, an int that holds color i's vertex mask
    (``_Part.cover``) in bits ``i*n`` to ``(i+1)*n``, as the planner encodes a
    0-cell; ints, unlike tuples, are not tracked by the garbage collector, so
    thousands of keys per complex cost it nothing.  A 1-cell has one one-edge
    part, and its two endpoints are its key with one or the other end of that
    edge added to the part's mask, so the walk carries those two bits.  No
    ``Cell`` is built; ``_zero_cells`` decodes the keys.  An empty complex
    raises ``EmptyComplexError``.
    """
    g = spec.graph
    n = g.n
    sizes = spec.colors.sizes
    cover = spec.require_cover
    full = (1 << n) - 1
    # per group size: the parts with at most one edge, and the vertex-only
    # ones among them
    by_size = {}
    for size in sizes:
        if size not in by_size:
            low = _low_parts(g, size, cover)
            by_size[size] = (low, [x for x in low if x[2] is None])
    levels = [by_size[size] for size in sizes]
    last = len(sizes) - 1
    # cap[idx]: the most vertices that colors idx.. can still cover
    cap = _suffix_sums(sizes)
    # The last color is indexed by vertex: bit k of fits[v] says that its k-th
    # low part covers v (covering) or keeps clear of v (coverage off), so the
    # parts that complete a prefix are one AND per missing or used vertex.
    tail = levels[last][0]
    fits = [0] * n
    for k, (m, _, _) in enumerate(tail):
        for v in range(n):
            if bool(m >> v & 1) == cover:
                fits[v] |= 1 << k
    tail_any = (1 << len(tail)) - 1
    tail_flat = sum(1 << k for k, x in enumerate(tail) if x[2] is None)

    zero_keys: list[int] = []
    first_ends: list[int] = []
    second_ends: list[int] = []

    # end_a and end_b are the shifted end bits of the chosen one-edge part's
    # edge, the u-end first; both are 0 until a one-edge part is chosen
    def walk(idx: int, mask: int, key: int, end_a: int, end_b: int):
        shift = idx * n
        if idx == last:
            bits = tail_flat if end_a else tail_any
            need = full & ~mask if cover else mask
            while need:
                bit = need & -need
                bits &= fits[bit.bit_length() - 1]
                need ^= bit
            while bits:
                bit = bits & -bits
                _, c, ends = tail[bit.bit_length() - 1]
                bits ^= bit
                cell = key | c << shift
                if ends:
                    a, b = ends
                    first_ends.append(cell | a << shift)
                    second_ends.append(cell | b << shift)
                elif end_a:
                    first_ends.append(cell | end_a)
                    second_ends.append(cell | end_b)
                else:
                    zero_keys.append(cell)
            return
        low, flat = levels[idx]
        for m, c, ends in flat if end_a else low:
            if cover:
                if (full & ~(mask | m)).bit_count() > cap[idx + 1]:
                    continue
            elif mask & m:
                continue
            if ends:
                a, b = ends
                walk(idx + 1, mask | m, key | c << shift, a << shift, b << shift)
            else:
                walk(idx + 1, mask | m, key | c << shift, end_a, end_b)

    walk(0, 0, 0, 0, 0)
    del walk  # a closure that calls itself is a cycle; free it now, not at a full collection
    if not zero_keys:
        raise EmptyComplexError("the complex has no cells")
    number = {key: i for i, key in enumerate(zero_keys)}.__getitem__
    return zero_keys, list(map(number, first_ends)), list(map(number, second_ends))


def _zero_key(spec: ComplexSpec, cell: Cell) -> int | None:
    """The key of a 0-cell of the complex, the inverse of ``_zero_cells``, or
    None for a cell that ``cell.dimension == 0 and is_valid_cell(spec, cell)``
    rejects.  One pass checks each part's size, its vertices (a repeat leaves
    fewer mask bits than elements), and coverage or, with it off, separation."""
    n, sizes = spec.graph.n, spec.colors.sizes
    if len(cell.parts) != len(sizes):
        return None
    key = union = 0
    for shift, part, size in zip(range(0, n * len(sizes), n), cell.parts, sizes):
        mask = 0
        for v in part:
            if not isinstance(v, int) or not 0 <= v < n:
                return None
            mask |= 1 << v
        if len(part) != size or mask.bit_count() != size or not spec.require_cover and union & mask:
            return None
        union |= mask
        key |= mask << shift
    return None if spec.require_cover and union != (1 << n) - 1 else key


def _zero_cells(spec: ComplexSpec, keys) -> tuple[Cell, ...]:
    """The 0-cells that ``_one_skeleton``'s keys stand for, as ``Cell``s:
    each color's field is a vertex mask, and its part lists those vertices."""
    n = spec.graph.n
    full = (1 << n) - 1
    shifts = range(0, n * spec.colors.r, n)
    parts: dict[int, tuple[int, ...]] = {}  # a mask's part, made when the mask is first seen
    cells = []
    for key in keys:
        row = []
        for shift in shifts:
            mask = key >> shift & full
            part = parts.get(mask)
            if part is None:
                part = parts[mask] = tuple(v for v in range(n) if mask >> v & 1)
            row.append(part)
        cells.append(Cell(tuple(row)))
    return tuple(cells)


def f_vector(spec: ComplexSpec):
    """Cell counts grouped by dimension.

    Covering complexes report ``max_dimension + 1`` entries (trailing zeros
    kept); with coverage off the length is the largest occupied dimension plus
    one.  An empty complex reports the single entry ``(0,)``.

    A dynamic program over vertex masks folds the colors in one at a time.
    Its state maps the union of the chosen parts' masks (vertex covers, or
    closures with coverage off) to one int that holds the number of partial
    cells of dimension d in bits ``d*B`` to ``(d+1)*B``.  No count exceeds
    the product of the colors' part counts, and the field width ``B`` is one
    bit wider than that product, so no field carries into the next.  The
    parts with one mask have one edge count e, so a color's k parts with mask
    m enter as the one weight ``k << e*B``, and a step multiplies by it.

    The covering complex takes each color's counts per cover mask from one
    table of the matching numbers of every induced subgraph
    (``_covering_parts``), so no part is built; with coverage off the parts
    of ``valid_parts`` are counted per closure.  The table holds 2^n ints, so
    a non-empty covering count needs memory that doubles with each vertex
    (building it alone peaks at 69 MB on P20 and 183 MB on K20); an empty
    covering complex returns before building it.

    With coverage on, a union that leaves more vertices uncovered than the
    later colors have robots is dropped (the cover bound), and the last color
    is joined into the full mask only: each state takes the summed weights
    of the masks that hold every vertex it still misses, read from a table
    filled once per mask over its subsets.  With coverage off the closures
    of all colors must be disjoint, and a union that leaves fewer vertices
    free than the later colors have robots is dropped (free-vertex bound).
    """
    cover = spec.require_cover
    g = spec.graph
    sizes = spec.colors.sizes
    # per color: {cover or closure mask: (number of parts, edge count)}
    if cover:
        if not is_nonempty(spec):
            return (0,)  # known without the table, which has 2^n entries
        table = _matching_table(g)
        by_size = {size: _covering_parts(g, size, table) for size in set(sizes)}
        per_color = [by_size[size] for size in sizes]
    else:
        per_color = []
        for parts in _parts_by_color(spec):
            groups: dict[int, tuple[int, int]] = {}
            for p in parts:
                k, _ = groups.get(p.closure, (0, 0))
                groups[p.closure] = (k + 1, p.edge_count)
            per_color.append(groups)
    width = prod(sum(k for k, _ in groups.values()) for groups in per_color).bit_length() + 1
    n = g.n
    full = (1 << n) - 1
    # cap[idx]: the robots of colors idx.., the most vertices they can cover
    cap = _suffix_sums(sizes)
    last = len(per_color) - 1
    state = {0: 1}
    for idx, groups in enumerate(per_color):
        weights = {m: k << e * width for m, (k, e) in groups.items()}
        if cover and idx == last:
            # fits[need]: the summed weights of the masks that hold need
            fits: dict[int, int] = {}
            for m, w in weights.items():
                sub = m
                while True:
                    fits[sub] = fits.get(sub, 0) + w
                    if not sub:
                        break
                    sub = (sub - 1) & m
            state = {full: sum(packed * fits.get(full & ~mask, 0) for mask, packed in state.items())}
            break
        least = n - cap[idx + 1]
        nxt: dict[int, int] = {}
        for mask, packed in state.items():
            for m, w in weights.items():
                u = mask | m
                if cover:
                    if u.bit_count() < least:
                        continue
                elif mask & m or u.bit_count() > least:
                    continue
                nxt[u] = nxt.get(u, 0) + packed * w
        state = nxt
    total = sum(state.values())
    field = (1 << width) - 1
    counts = []
    while total:
        counts.append(total & field)
        total >>= width
    if not counts:
        return (0,)
    length = max_dimension(spec) + 1 if cover else len(counts)
    if len(counts) > length:
        raise RuntimeError(f"internal: a cell of dimension {len(counts) - 1} exceeds {length - 1}")
    return tuple(counts) + (0,) * (length - len(counts))


def format_element(el) -> str:
    if isinstance(el, int):
        return str(el)
    return f"({el[0]},{el[1]})"


def format_cell(cell: Cell) -> str:
    """Text form: parts joined by ``|``, e.g. ``{0,1}|{0,2}|{(0,1)}``, each
    written in the order given, which is canonical for any ``Cell.make`` or
    ``parse_cell`` result.  ``parse_cell`` reads this text back."""
    return "|".join("{" + ",".join(format_element(el) for el in part) + "}" for part in cell.parts)


# The cell text grammar: a vertex is an optional minus and ASCII digits, an
# edge is two vertices in parentheses, and a part's elements are split at each
# comma outside an edge's parentheses; whitespace may surround any token.
# The patterns stay strings, which ``re`` compiles and caches on first use, so
# importing the package compiles none of them.
_VERTEX = r"\s*(-?[0-9]+)\s*"
_EDGE = r"\s*\(\s*(-?[0-9]+)\s*,\s*(-?[0-9]+)\s*\)\s*"
_SEPARATOR = r",(?![^(]*\))"


def parse_cell(text: str) -> Cell:
    """Parse the text form that :func:`format_cell` writes, into canonical
    order: parts in braces joined by ``|``, each a comma-separated list of
    vertices ``v`` and edges ``(u,v)``, or blank for an empty part.

    Every element must be a vertex or an edge, so an empty element (``{0,}``),
    a sign other than a leading minus, an underscore or a non-ASCII digit
    raises ``ValueError``, as do a loop edge and a part without braces.
    Whether the cell belongs to a complex is not checked here.
    """
    parts = []
    for chunk in text.strip().split("|"):
        chunk = chunk.strip()
        if not (chunk.startswith("{") and chunk.endswith("}")):
            raise ValueError(f"part {chunk!r} must be brace-delimited")
        body = chunk[1:-1]
        elements = []
        for token in re.split(_SEPARATOR, body) if body.strip() else ():
            if vertex := re.fullmatch(_VERTEX, token):
                elements.append(int(vertex[1]))
            elif edge := re.fullmatch(_EDGE, token):
                u, v = int(edge[1]), int(edge[2])
                if u == v:
                    raise ValueError(f"loop edge in {token.strip()!r}")
                elements.append((u, v))
            else:
                raise ValueError(f"element {token.strip()!r} is neither a vertex nor an edge")
        parts.append(elements)
    return Cell.make(parts)
