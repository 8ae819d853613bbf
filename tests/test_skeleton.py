import gc
import itertools
from collections import Counter

import pytest

from conftest import color_vectors, connected_graphs
from stirling_complexes import (
    Cell,
    ColorVector,
    ComplexSpec,
    EmptyComplexError,
    boundary_endpoints,
    build_one_skeleton,
    component_labels,
    connected_components,
    enumerate_cells,
    euler_characteristic,
    f_vector,
    is_nontrivial,
    is_valid_cell,
    parse_edge_list,
    parse_graph_name,
)
from stirling_complexes.cli import main
from stirling_complexes.skeleton import SkeletonGraph, skeleton_edge_list_text, skeleton_node_lines


def reference_skeleton(spec):
    """The Cell-level construction: every 0- and 1-cell built as a Cell, each
    arc found through boundary_endpoints."""
    nodes = tuple(enumerate_cells(spec, dim=0))
    if not nodes:
        raise EmptyComplexError("the complex has no cells")
    index = {cell: i for i, cell in enumerate(nodes)}
    arcs = []
    for one_cell in enumerate_cells(spec, dim=1):
        a, b = boundary_endpoints(spec, one_cell)
        arcs.append((index[a], index[b]))
    return SkeletonGraph(nodes, tuple(arcs))


class TestBoundaryEndpoints:
    def test_square_bottom_edge(self, p3):
        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        one_cell = Cell.make([(0, 1), (0, 2), ((0, 1),)])
        a, b = boundary_endpoints(spec, one_cell)
        assert a == Cell.make([(0, 1), (0, 2), (0,)])
        assert b == Cell.make([(0, 1), (0, 2), (1,)])

    def test_rejects_other_dimensions(self, p3):
        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        with pytest.raises(ValueError):
            boundary_endpoints(spec, Cell.make([(0, 1), (0, 2), (0,)]))

    def test_endpoints_valid_and_local(self, t4):
        spec = ComplexSpec(t4, ColorVector((3, 2)))
        for one_cell in enumerate_cells(spec, dim=1):
            a, b = boundary_endpoints(spec, one_cell)
            assert is_valid_cell(spec, a) and is_valid_cell(spec, b)
            assert a != b
            diff = [
                (pa, pb) for pa, pb in zip(a.parts, b.parts) if pa != pb
            ]
            assert len(diff) == 1
            pa, pb = diff[0]
            assert len(set(pa) ^ set(pb)) == 2


class TestSkeleton:
    def test_two_hexagons_complex(self, p3):
        sk = build_one_skeleton(ComplexSpec(p3, ColorVector((2, 1, 1))))
        assert (len(sk.nodes), len(sk.arcs)) == (15, 16)

    def test_star_two_colors(self, t4):
        sk = build_one_skeleton(ComplexSpec(t4, ColorVector((3, 2))))
        assert (len(sk.nodes), len(sk.arcs)) == (12, 9)

    def test_discrete_case_has_no_arcs(self, c4):
        sk = build_one_skeleton(ComplexSpec(c4, ColorVector((1, 1, 1, 1))))
        assert len(sk.arcs) == 0 and len(sk.nodes) > 0

    def test_empty_complex_rejected(self, p3):
        with pytest.raises(EmptyComplexError):
            build_one_skeleton(ComplexSpec(p3, ColorVector((1, 1))))

    @pytest.mark.parametrize(
        "family,sizes,cover",
        [
            ("path3", (2, 2, 1), True),
            ("star", (3, 2), True),
            ("star", (2,), False),
            ("star", (1, 1), False),
        ],
    )
    def test_counts_match_f_vector(self, family, sizes, cover, p3, t4):
        g = p3 if family == "path3" else t4
        spec = ComplexSpec(g, ColorVector(sizes), require_cover=cover)
        sk = build_one_skeleton(spec)
        fv = f_vector(spec)
        assert len(sk.nodes) == fv[0]
        assert len(sk.arcs) == (fv[1] if len(fv) > 1 else 0)


class TestDifferential:
    """build_one_skeleton against the Cell-level reference: same nodes in the
    same order, same arcs in the same order, same empty-complex error; and
    connected_components, which labels the keys without building a Cell,
    against the labels of the reference."""

    @staticmethod
    def check_all(n):
        cases = 0
        for g in connected_graphs(n):
            for sizes in color_vectors(n):
                for cover in (True, False):
                    spec = ComplexSpec(g, ColorVector(sizes), require_cover=cover)
                    try:
                        expected = reference_skeleton(spec)
                    except EmptyComplexError:
                        with pytest.raises(EmptyComplexError):
                            build_one_skeleton(spec)
                        with pytest.raises(EmptyComplexError):
                            connected_components(spec)
                    else:
                        assert build_one_skeleton(spec) == expected, (g.edges, sizes, cover)
                        labels = component_labels(expected)
                        assert connected_components(spec) == labels, (g.edges, sizes, cover)
                    cases += 1
        return cases

    def test_graph_census(self):
        assert [len(connected_graphs(n)) for n in range(1, 6)] == [1, 1, 2, 6, 21]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_connected_graph(self, n):
        assert self.check_all(n) > 0

    @pytest.mark.slow
    def test_every_connected_graph_on_five_vertices(self):
        assert self.check_all(5) == 21 * 56 * 2

    def test_key_wider_than_a_machine_word(self):
        """P33 with two singleton colors and coverage off has a cell key of
        n * r = 66 bits."""
        spec = ComplexSpec(parse_graph_name("P33"), ColorVector((1, 1)), require_cover=False)
        assert build_one_skeleton(spec) == reference_skeleton(spec)

    @pytest.mark.parametrize("graph,colors", [("P7", "3,3,2"), ("C10", "7,4")])
    def test_export_matches_reference(self, graph, colors, tmp_path, capsys):
        base = tmp_path / "sk"
        argv = ["components", "--graph", graph, "--colors", colors, "--export-skeleton", str(base)]
        assert main(argv) == 0
        capsys.readouterr()
        ref = reference_skeleton(ComplexSpec(parse_graph_name(graph), ColorVector.parse(colors)))
        assert base.with_suffix(".edgelist").read_bytes() == skeleton_edge_list_text(ref).encode()
        nodes_text = "\n".join(skeleton_node_lines(ref)) + "\n"
        assert base.with_suffix(".nodes").read_bytes() == nodes_text.encode()


class TestNoCyclicGarbage:
    def test_calls_leave_nothing_for_the_cycle_collector(self, capsys):
        """The walks behind the 1-skeleton and the candidate parts are closures
        that call themselves; each is freed on return, so a call leaves no
        unreachable objects for a full collection to find."""
        spec = ComplexSpec(parse_graph_name("C7"), ColorVector((3, 3, 2)))
        argv = ["components", "--graph", "C7", "--colors", "3,3,2", "--format", "tsv"]
        main(argv)  # builds the CLI parser, whose cycles live as long as the process
        gc.collect()
        gc.disable()
        try:
            build_one_skeleton(spec)
            assert gc.collect() == 0
            connected_components(spec)
            assert gc.collect() == 0
            f_vector(spec)
            assert gc.collect() == 0
            assert main(argv) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "call",
        [
            lambda spec: list(enumerate_cells(spec)),
            lambda spec: list(enumerate_cells(spec, dim=0)),
            lambda spec: next(enumerate_cells(spec)),
        ],
        ids=["all", "dim0", "abandoned"],
    )
    def test_enumeration_leaves_nothing_for_the_cycle_collector(self, call):
        """enumerate_cells frees its self-calling walk when the generator
        finishes or is dropped before it finishes."""
        spec = ComplexSpec(parse_graph_name("C7"), ColorVector((3, 3, 2)))
        gc.collect()
        gc.disable()
        try:
            call(spec)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestComponents:
    def test_star_two_colors_splits_in_three(self, t4):
        count, labels = connected_components(ComplexSpec(t4, ColorVector((3, 2))))
        assert count == 3
        assert sorted(Counter(labels).values()) == [4, 4, 4]

    def test_star_balanced_two_colors_connected(self, t4):
        count, _ = connected_components(ComplexSpec(t4, ColorVector((3, 3))))
        assert count == 1

    def test_path_three_colors_connected(self, p3):
        count, _ = connected_components(ComplexSpec(p3, ColorVector((2, 2, 1))))
        assert count == 1

    def test_labels_dense_in_node_order(self, t4):
        _, labels = connected_components(ComplexSpec(t4, ColorVector((3, 2))))
        seen = []
        for lab in labels:
            if lab not in seen:
                seen.append(lab)
        assert seen == sorted(seen) and seen[0] == 0

    def test_invariant_under_color_permutation(self, t4):
        a, _ = connected_components(ComplexSpec(t4, ColorVector((3, 2))))
        b, _ = connected_components(ComplexSpec(t4, ColorVector((2, 3))))
        assert a == b


class TestConnectivityTheorem:
    """The paper's theorem: a non-trivial covering complex with at least three
    colors is connected.  Checked on every connected graph with at most five
    vertices and every vector of three or four sizes with total at most
    n + 3; with two colors some of these complexes split."""

    @staticmethod
    def connected_tally(ns, r):
        tally = Counter()
        for n in ns:
            for g in connected_graphs(n):
                for sizes in itertools.product(range(1, n), repeat=r):
                    spec = ComplexSpec(g, ColorVector(sizes))
                    if sum(sizes) <= n + 3 and is_nontrivial(spec):
                        tally[connected_components(spec)[0] == 1] += 1
        return tally

    @pytest.mark.parametrize("r, complexes", [(3, 129), (4, 203)])
    def test_up_to_four_vertices(self, r, complexes):
        assert self.connected_tally(range(1, 5), r) == Counter({True: complexes})

    @pytest.mark.slow
    @pytest.mark.parametrize("r, complexes", [(3, 714), (4, 1281)])
    def test_five_vertices(self, r, complexes):
        assert self.connected_tally((5,), r) == Counter({True: complexes})

    def test_two_colors_can_split(self):
        assert self.connected_tally(range(1, 6), 2) == Counter({True: 97, False: 49})


def facets(cell):
    """The cells that replace one edge slot of ``cell`` by one of its ends."""
    for c, part in enumerate(cell.parts):
        for k, el in enumerate(part):
            if isinstance(el, tuple):
                for end in el:
                    yield Cell.make(cell.parts[:c] + (part[:k] + (end,) + part[k + 1 :],) + cell.parts[c + 1 :])


def gf2_rank(rows):
    """The rank over GF(2) of rows given as int bitsets, by elimination on
    each row's highest bit."""
    pivots = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(pivots)


def mod2_betti(spec):
    """The mod-2 Betti numbers of a non-empty complex, read as a chain complex
    over GF(2) whose boundary takes a cell to the sum of its facets; asserts on
    the way that every facet is a cell of the complex and that the boundary of
    a boundary is 0."""
    by_dim = {}
    for cell in enumerate_cells(spec):
        by_dim.setdefault(cell.dimension, []).append(cell)
    cells = [by_dim.get(d, []) for d in range(max(by_dim) + 1)]
    # boundary[d][i]: the facets of the i-th d-cell, as a bitset over (d-1)-cells
    boundary = [[0] * len(cells[0])]
    for d in range(1, len(cells)):
        index = {cell: i for i, cell in enumerate(cells[d - 1])}
        rows = []
        for cell in cells[d]:
            row = 0
            for facet in facets(cell):
                assert facet in index, (spec, cell, facet)
                row ^= 1 << index[facet]
            twice, bits = 0, row
            while bits:
                low = bits & -bits
                twice ^= boundary[d - 1][low.bit_length() - 1]
                bits ^= low
            assert twice == 0, (spec, cell)
            rows.append(row)
        boundary.append(rows)
    ranks = [gf2_rank(rows) for rows in boundary] + [0]
    return tuple(len(cells[d]) - ranks[d] - ranks[d + 1] for d in range(len(cells)))


class TestChainComplex:
    """The cells form a closed complex: each facet of a cell, which replaces
    one edge slot by one of its ends, is a cell, and over GF(2) the boundary
    of a boundary is 0.  Then beta_0, from the rank of the boundary on
    1-cells, is a third count of components beside the union-find and the
    planner; it must equal ``connected_components``'."""

    @staticmethod
    def check_all(ns):
        checked = 0
        for n in ns:
            for g, sizes, cover in itertools.product(connected_graphs(n), color_vectors(n), (True, False)):
                spec = ComplexSpec(g, ColorVector(sizes), require_cover=cover)
                if f_vector(spec) == (0,):
                    continue
                assert mod2_betti(spec)[0] == connected_components(spec)[0], (g.edges, sizes, cover)
                checked += 1
        return checked

    def test_every_connected_graph_up_to_four_vertices(self):
        assert self.check_all(range(1, 5)) == 287

    @pytest.mark.slow
    def test_five_vertices(self):
        assert self.check_all((5,)) == 1344

    @pytest.mark.parametrize(
        "name, sizes, betti",
        [
            ("P4", (2, 2, 2), (1, 8, 1)),
            ("C4", (2, 2, 2), (1, 5, 10)),
            ("K4", (3, 3, 3), (1, 9, 27, 1)),
            pytest.param("K5", (3, 3, 3), (1, 21, 150, 341, 1), marks=pytest.mark.slow),
        ],
    )
    def test_betti_numbers(self, name, sizes, betti):
        assert mod2_betti(ComplexSpec(parse_graph_name(name), ColorVector(sizes))) == betti


class TestEuler:
    def test_examples(self):
        assert euler_characteristic((15, 16)) == -1
        assert euler_characteristic((7,)) == 7
        assert euler_characteristic((21, 32, 10)) == -1


class TestExports:
    def test_edge_list_round_trip_shape(self, t4):
        sk = build_one_skeleton(ComplexSpec(t4, ColorVector((3, 2))))
        text = skeleton_edge_list_text(sk)
        header = text.splitlines()[0].split()
        assert header == ["12", "9"]
        reparsed = parse_edge_list(text)
        assert reparsed.n == 12 and reparsed.m == 9

    def test_node_lines(self, t4):
        sk = build_one_skeleton(ComplexSpec(t4, ColorVector((3, 2))))
        lines = skeleton_node_lines(sk)
        assert len(lines) == 12
        assert lines[0].startswith("0\t{")
