"""Cells of grouped Stirling complexes: validity, enumeration, f-vectors,
and the 0- and 1-cells that make up the 1-skeleton, keyed as the planner
keys a 0-cell: one vertex mask per color.

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

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

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
    """A candidate part: elements plus precomputed masks for the walks and the
    f-vector DP."""

    elements: tuple
    closure: int
    cover: int
    edge_count: int


def valid_parts(g: SimpleGraph, size: int) -> tuple[_Part, ...]:
    """All size-subsets of vertices and edges whose members are pairwise
    disjoint, in canonical order."""
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
        # not enough elements left to fill the part
        if len(pool) - start < size - len(chosen):
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


def _one_skeleton(spec: ComplexSpec) -> tuple[tuple[Cell, ...], tuple[tuple[int, int], ...]]:
    """The 0-cells in canonical order, and one pair of 0-cell indices per
    1-cell, also in canonical order: the 1-skeleton.

    One walk over the parts with at most one edge records each cell as a key,
    an int that holds color i's vertex mask (``_Part.cover``) in bits ``i*n``
    to ``(i+1)*n``, as the planner encodes a 0-cell; ints, unlike tuples, are
    not tracked by the garbage collector, so thousands of keys per complex
    cost it nothing.  A 1-cell has one one-edge part, and its two endpoints
    are its key with one or the other end of that edge added to the part's
    mask, so the walk carries those two bits.  Only the 0-cells are built as
    ``Cell``.
    """
    n = spec.graph.n
    sizes = spec.colors.sizes
    cover = spec.require_cover
    full = (1 << n) - 1
    # per group size: (cover or closure mask, vertex mask, end bits of the
    # edge or None) of the parts with at most one edge, the vertex-only ones
    # among them, and the vertex-only parts' elements by vertex mask
    by_size = {}
    for size, parts in zip(sizes, _parts_by_color(spec)):
        if size not in by_size:
            low = []
            for p in parts:
                if p.edge_count <= 1:
                    # vertices precede edges in a part, so the one edge comes last
                    ends = tuple(1 << v for v in p.elements[-1]) if p.edge_count else None
                    low.append((p.cover if cover else p.closure, p.cover, ends))
            elements = {p.cover: p.elements for p in parts if p.edge_count == 0}
            by_size[size] = (low, [x for x in low if x[2] is None], elements)
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
        low, flat, _ = levels[idx]
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
    decode = [elements for _, _, elements in levels]
    nodes = tuple(Cell(tuple(els[key >> i * n & full] for i, els in enumerate(decode))) for key in zero_keys)
    number = {key: i for i, key in enumerate(zero_keys)}
    arcs = tuple(zip(map(number.__getitem__, first_ends), map(number.__getitem__, second_ends)))
    return nodes, arcs


def f_vector(spec: ComplexSpec):
    """Cell counts grouped by dimension.

    Covering complexes report ``max_dimension + 1`` entries (trailing zeros
    kept); with coverage off the length is the largest occupied dimension plus
    one.  An empty complex reports the single entry ``(0,)``.

    A dynamic program over vertex masks folds the colors in one at a time:
    the state maps the union of the chosen parts' masks (vertex covers, or
    closures with coverage off) to the number of partial cells per dimension,
    and each color's parts enter grouped by (mask, edge count).
    """
    cover = spec.require_cover
    state: dict[int, dict[int, int]] = {0: {0: 1}}
    for parts in _parts_by_color(spec):
        groups = Counter((p.cover if cover else p.closure, p.edge_count) for p in parts)
        nxt: dict[int, dict[int, int]] = {}
        for mask, dims in state.items():
            for (m, e), k in groups.items():
                # with coverage off the closures of all colors are disjoint
                if not cover and mask & m:
                    continue
                acc = nxt.setdefault(mask | m, {})
                for d, c in dims.items():
                    acc[d + e] = acc.get(d + e, 0) + c * k
        state = nxt
    full = (1 << spec.graph.n) - 1
    counts: dict[int, int] = {}
    for mask, dims in state.items():
        if cover and mask != full:
            continue
        for d, c in dims.items():
            counts[d] = counts.get(d, 0) + c
    if not counts:
        return (0,)
    length = (max_dimension(spec) if cover else max(counts)) + 1
    if max(counts) >= length:
        raise RuntimeError(f"internal: a cell of dimension {max(counts)} exceeds {length - 1}")
    return tuple(counts.get(i, 0) for i in range(length))


def format_element(el) -> str:
    if isinstance(el, int):
        return str(el)
    return f"({el[0]},{el[1]})"


def format_cell(cell: Cell) -> str:
    """Canonical text form: parts joined by ``|``, e.g. ``{0,1}|{0,2}|{(0,1)}``."""
    return "|".join("{" + ",".join(format_element(el) for el in part) + "}" for part in cell.parts)


def _split_elements(body: str) -> list[str]:
    tokens: list[str] = []
    depth = 0
    cur = ""
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced parentheses")
        if ch == "," and depth == 0:
            tokens.append(cur)
            cur = ""
        else:
            cur += ch
    tokens.append(cur)
    return [t.strip() for t in tokens if t.strip()]


def parse_cell(text: str) -> Cell:
    """Parse the canonical cell text form produced by :func:`format_cell`."""
    parts = []
    for chunk in text.strip().split("|"):
        chunk = chunk.strip()
        if not (chunk.startswith("{") and chunk.endswith("}")):
            raise ValueError(f"part {chunk!r} must be brace-delimited")
        elements = []
        for token in _split_elements(chunk[1:-1]):
            if token.startswith("(") and token.endswith(")"):
                ends = token[1:-1].split(",")
                if len(ends) != 2:
                    raise ValueError(f"edge {token!r} must have two endpoints")
                try:
                    u, v = int(ends[0]), int(ends[1])
                except ValueError:
                    raise ValueError(f"edge endpoints must be integers in {token!r}") from None
                if u == v:
                    raise ValueError(f"loop edge in {token!r}")
                elements.append((u, v))
            else:
                try:
                    elements.append(int(token))
                except ValueError:
                    raise ValueError(f"element {token!r} is neither a vertex nor an edge") from None
        parts.append(elements)
    return Cell.make(parts)
