"""The 1-skeleton of a complex: 0-cells as nodes, 1-cells as arcs.

Connectivity of the whole complex is decided here: higher cells never join
components that their own 0-dimensional corners do not already join.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    Cell,
    ComplexSpec,
    EmptyComplexError,
    _low_cells,
    cell_sort_key,
    format_cell,
    is_edge_element,
)


@dataclass(frozen=True)
class SkeletonGraph:
    """Canonically ordered 0-cells plus one arc per 1-cell.

    Arcs are index pairs into ``nodes``; parallel arcs are kept distinct so
    that arc counts agree with the f-vector.
    """

    nodes: tuple[Cell, ...]
    arcs: tuple[tuple[int, int], ...]


def boundary_endpoints(spec: ComplexSpec, cell: Cell) -> tuple[Cell, Cell]:
    """The two 0-cells bounding a 1-cell: its edge replaced by either endpoint.

    Both replacements are valid automatically (the endpoints are free in the
    owning part, and coverage only improves).  Results come back in canonical
    cell order.
    """
    if cell.dimension != 1:
        raise ValueError("boundary endpoints are defined for 1-cells")
    color, edge = next(
        (i, el) for i, part in enumerate(cell.parts) for el in part if is_edge_element(el)
    )
    u, v = edge

    def replaced(vertex: int) -> Cell:
        parts = list(cell.parts)
        part = [vertex if el == edge else el for el in parts[color]]
        parts[color] = part
        return Cell.make(parts)

    pair = sorted((replaced(u), replaced(v)), key=cell_sort_key)
    return pair[0], pair[1]


def _endpoint_table(parts) -> dict[int, tuple[int, int]]:
    """Map each one-edge part to the two vertex-only parts that replace its
    edge (u, v) by u and by v; the u-part comes first in canonical order."""
    flat = {p.cover: j for j, p in enumerate(parts) if p.edge_count == 0}
    table = {}
    for j, p in enumerate(parts):
        if p.edge_count == 1:
            # vertices precede edges in a part, so the one edge comes last
            u, v = p.elements[-1]
            table[j] = (flat[p.cover | 1 << u], flat[p.cover | 1 << v])
    return table


def build_one_skeleton(spec: ComplexSpec) -> SkeletonGraph:
    """Assemble nodes from the 0-cells and one arc per 1-cell.

    The 0- and 1-cells come from one walk as int keys of part indices.  A
    1-cell's endpoints swap its one-edge part for the two vertex-only parts
    of :func:`_endpoint_table`; only the 0-cells are built as ``Cell``.
    """
    per_color, shifts, zero_keys, one_keys, edge_colors = _low_cells(spec)
    if not zero_keys:
        raise EmptyComplexError("the complex has no cells")
    tables = {}
    fields = []
    for i, (size, parts) in enumerate(zip(spec.colors.sizes, per_color)):
        if size not in tables:
            tables[size] = _endpoint_table(parts)
        fields.append((parts, shifts[i], (1 << (shifts[i + 1] - shifts[i])) - 1, tables[size]))
    nodes = tuple(
        Cell(tuple(parts[(key >> s) & m].elements for parts, s, m, _ in fields)) for key in zero_keys
    )
    number = {key: i for i, key in enumerate(zero_keys)}
    arcs = []
    for key, c in zip(one_keys, edge_colors):
        _, s, m, ends = fields[c]
        j = (key >> s) & m
        a, b = ends[j]
        rest = key ^ (j << s)
        arcs.append((number[rest | (a << s)], number[rest | (b << s)]))
    return SkeletonGraph(nodes, tuple(arcs))


def component_labels(sk: SkeletonGraph) -> tuple[int, tuple[int, ...]]:
    """Component count plus a dense label per node, assigned in node order."""
    parent = list(range(len(sk.nodes)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in sk.arcs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    labels = []
    dense: dict[int, int] = {}
    for i in range(len(sk.nodes)):
        root = find(i)
        if root not in dense:
            dense[root] = len(dense)
        labels.append(dense[root])
    return len(dense), tuple(labels)


def connected_components(spec: ComplexSpec) -> tuple[int, tuple[int, ...]]:
    """Connected components of the complex via its 1-skeleton."""
    return component_labels(build_one_skeleton(spec))


def euler_characteristic(fvec) -> int:
    """Alternating sum of the cell counts."""
    return sum(count if i % 2 == 0 else -count for i, count in enumerate(fvec))


def skeleton_edge_list_text(sk: SkeletonGraph) -> str:
    """Arcs in the same text format the graph parser ingests."""
    lines = [f"{len(sk.nodes)} {len(sk.arcs)}"]
    lines += [f"{a} {b}" for a, b in sk.arcs]
    return "\n".join(lines) + "\n"


def skeleton_node_lines(sk: SkeletonGraph) -> tuple[str, ...]:
    """One ``index<TAB>cell`` line per node, for external visualization."""
    return tuple(f"{i}\t{format_cell(cell)}" for i, cell in enumerate(sk.nodes))
