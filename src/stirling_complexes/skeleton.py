"""The 1-skeleton of a complex: 0-cells as nodes, 1-cells as arcs.

Connectivity of the whole complex is decided here: higher cells never join
components that their own 0-dimensional corners do not already join.  The
nodes and arcs come from ``complexes``, the one module that knows how cells
are keyed; this module labels components and writes the exports.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    Cell,
    ComplexSpec,
    EmptyComplexError,
    _one_skeleton,
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


def build_one_skeleton(spec: ComplexSpec) -> SkeletonGraph:
    """Nodes from the 0-cells and one arc per 1-cell, both in canonical order.

    ``complexes`` finds both in one walk over the candidate parts and builds
    only the 0-cells as ``Cell``; an arc joins the two 0-cells that replace
    its 1-cell's edge by one endpoint and by the other.
    """
    nodes, arcs = _one_skeleton(spec)
    if not nodes:
        raise EmptyComplexError("the complex has no cells")
    return SkeletonGraph(nodes, arcs)


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
