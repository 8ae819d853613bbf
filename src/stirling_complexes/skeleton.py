"""The 1-skeleton of a complex: 0-cells as nodes, 1-cells as arcs.

Connectivity of the whole complex is decided here: higher cells never join
components that their own 0-dimensional corners do not already join.  The
0-cells' keys and the arcs come from ``complexes._one_skeleton``, which keys a
0-cell as the planner does: one vertex mask per color.  Components are
labelled on the keys by ``graphs._labels``, the package's one union-find, with
no ``Cell`` built; only ``build_one_skeleton`` and the exports decode the
0-cells.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    Cell,
    ComplexSpec,
    _one_skeleton,
    _zero_cells,
    cell_sort_key,
    format_cell,
    is_edge_element,
)
from .graphs import _labels


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

    ``complexes`` finds both as int keys in one walk over the parts with at
    most one edge; the 0-cells' keys are then decoded into ``Cell``s.  An arc
    joins the two 0-cells that replace its 1-cell's edge by one endpoint and
    by the other.
    """
    keys, firsts, seconds = _one_skeleton(spec)
    return SkeletonGraph(_zero_cells(spec, keys), tuple(zip(firsts, seconds)))


def component_labels(sk: SkeletonGraph) -> tuple[int, tuple[int, ...]]:
    """Component count plus a dense label per node, assigned in node order."""
    return _labels(len(sk.nodes), sk.arcs)


def connected_components(spec: ComplexSpec) -> tuple[int, tuple[int, ...]]:
    """Connected components of the complex via its 1-skeleton: the count and
    one label per 0-cell in canonical order, found on the keys without
    building a ``Cell``."""
    keys, firsts, seconds = _one_skeleton(spec)
    return _labels(len(keys), zip(firsts, seconds))


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
