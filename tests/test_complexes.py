import itertools
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import brute_force_cells, color_vectors, connected_graphs, labelled_graphs
from stirling_complexes import (
    Cell,
    ColorVector,
    ComplexSpec,
    SimpleGraph,
    cell_sort_key,
    enumerate_cells,
    f_vector,
    format_cell,
    generate_named,
    is_available,
    is_nonempty,
    is_nontrivial,
    is_valid_cell,
    max_dimension,
    occupancy,
    occupancy_difference,
    parse_cell,
    parse_graph_name,
    same_type,
    two_one_cell_counts,
    uniform_cell_counts,
    valid_parts,
)
from stirling_complexes.complexes import _covering_parts, _low_parts, _matching_table, _zero_cells, _zero_key, element_key

# The benchmark's reference module counts cells by inclusion-exclusion and
# imports nothing from the package; its workloads module names the complexes
# that ``stirling count`` is benchmarked on.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import reference as bench_reference  # noqa: E402
import workloads as bench_workloads  # noqa: E402


def closed_form(spec):
    """The closed-form f-vector for the families the CLI checks, else None."""
    n, sizes = spec.graph.n, spec.colors.sizes
    if not spec.require_cover or n < 2:
        return None
    if len(sizes) == n and sorted(sizes, reverse=True) == [2] + [1] * (n - 1):
        return two_one_cell_counts(spec.graph)
    if len(sizes) >= 2 and all(l == n - 1 for l in sizes):
        return uniform_cell_counts(spec.graph, len(sizes))
    return None


def pad(fv, width):
    return tuple(fv) + (0,) * (width - len(fv))


def small_spec_strategy():
    """Specs tiny enough for brute-force cross-checks."""

    def build(args):
        n, extra_edges, sizes = args
        pool = list(itertools.combinations(range(n), 2))
        edges = [pool[i % len(pool)] for i in extra_edges] if pool else []
        g = SimpleGraph.from_edges(n, edges)
        return ComplexSpec(g, ColorVector(tuple(sizes)))

    return st.tuples(
        st.integers(min_value=1, max_value=4),
        st.lists(st.integers(min_value=0, max_value=12), max_size=6),
        st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3),
    ).map(build)


class TestColorVector:
    def test_validation(self):
        with pytest.raises(ValueError):
            ColorVector(())
        with pytest.raises(ValueError):
            ColorVector((2, 0))

    def test_parse(self):
        assert ColorVector.parse("2,1,1").sizes == (2, 1, 1)
        with pytest.raises(ValueError):
            ColorVector.parse("2,x")

    def test_builders(self):
        assert ColorVector.two_one(4).sizes == (2, 1, 1, 1)
        assert ColorVector.two_one(1).sizes == (2,)
        assert ColorVector.uniform(3, 2).sizes == (3, 3)
        with pytest.raises(ValueError):
            ColorVector.two_one(0)


class TestPredicates:
    def test_nonempty(self, p3, k5):
        assert is_nonempty(ComplexSpec(p3, ColorVector((2, 2, 1))))
        assert not is_nonempty(ComplexSpec(p3, ColorVector((1, 1))))
        assert not is_nonempty(ComplexSpec(k5, ColorVector((6, 1))))

    def test_nonempty_needs_cover_mode(self, p3):
        with pytest.raises(ValueError):
            is_nonempty(ComplexSpec(p3, ColorVector((2,)), require_cover=False))

    def test_nontrivial(self, t4):
        assert is_nontrivial(ComplexSpec(t4, ColorVector((3, 2))))
        assert not is_nontrivial(ComplexSpec(t4, ColorVector((4, 2))))
        assert not is_nontrivial(ComplexSpec(t4, ColorVector((2, 2))))

    def test_max_dimension(self, p3, t4, c4):
        assert max_dimension(ComplexSpec(p3, ColorVector((2, 2, 1)))) == 2
        assert max_dimension(ComplexSpec(t4, ColorVector((3, 2)))) == 1
        assert max_dimension(ComplexSpec(c4, ColorVector((1, 1, 1, 1)))) == 0
        with pytest.raises(ValueError):
            max_dimension(ComplexSpec(t4, ColorVector((2,)), require_cover=False))


class TestCellValidity:
    def test_square_two_cell(self, p3):
        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        cell = Cell.make([(0, 1), ((0, 1), 2), ((0, 1),)])
        assert cell.dimension == 2
        assert is_valid_cell(spec, cell)

    def test_uncovered_vertex_rejected(self, star_plus_edge):
        # edge colors on (0,2) and (2,3), vertex-only colors both missing 2:
        # nothing stands on vertex 2
        spec = ComplexSpec(star_plus_edge, ColorVector((3, 3, 3, 3)))
        cell = Cell.make(
            [
                (1, 3, (0, 2)),
                (0, 1, (2, 3)),
                (0, 1, 3),
                (0, 1, 3),
            ]
        )
        assert not is_valid_cell(spec, cell)

    def test_touching_edges_in_one_part_rejected(self, p3):
        spec = ComplexSpec(p3, ColorVector((2, 3)))
        cell = Cell.make([((0, 1), (1, 2)), (0, 1, 2)])
        assert not is_valid_cell(spec, cell)

    def test_vertex_on_own_edge_rejected(self, p3):
        spec = ComplexSpec(p3, ColorVector((2, 3)))
        cell = Cell.make([(0, (0, 1)), (0, 1, 2)])
        assert not is_valid_cell(spec, cell)

    def test_size_mismatch_rejected(self, p3):
        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        assert not is_valid_cell(spec, Cell.make([(0, 1), (2,), (0,)]))

    def test_part_count_mismatch_rejected(self, p3):
        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        assert not is_valid_cell(spec, Cell.make([(0, 1), (0, 2)]))

    def test_foreign_element_rejected(self, p3):
        spec = ComplexSpec(p3, ColorVector((1, 3)))
        assert not is_valid_cell(spec, Cell.make([((0, 2),), (0, 1, 2)]))

    def test_cross_color_sharing_allowed_with_cover(self, p3):
        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        assert is_valid_cell(spec, Cell.make([(0, 1), (0, 2), (0,)]))

    def test_cross_color_sharing_rejected_without_cover(self, t4):
        spec = ComplexSpec(t4, ColorVector((1, 1)), require_cover=False)
        assert not is_valid_cell(spec, Cell.make([(1,), (1,)]))
        assert is_valid_cell(spec, Cell.make([(1,), (2,)]))


class TestOccupancy:
    def test_square_bottom_edge(self, p3):
        cell = Cell.make([(0, 1), (0, 2), ((0, 1),)])
        assert occupancy(cell, 0) == {0, 1}
        assert occupancy(cell, 1) == {0}
        assert occupancy(cell, 2) == {1}
        assert occupancy(cell, (0, 1)) == {2}
        assert occupancy(cell, (1, 2)) == frozenset()

    def test_availability(self, p3):
        cell = Cell.make([(0, 1), (0, 2), ((0, 1),)])
        assert is_available(cell, 0)
        assert not any(is_available(cell, v) for v in (1, 2))
        # a robot on an incident edge does not make the endpoint available
        assert not is_available(Cell.make([(0, 1), ((1, 2),), (2,)]), 2)

    def test_occupancy_difference(self, p3):
        a = Cell.make([(0, 1), (0, 1), (0, 2)])
        b = Cell.make([(0, 1), (1, 2), (1, 2)])
        assert occupancy_difference(a, a, 0) == 0
        assert occupancy_difference(a, b, 0) == 2
        assert occupancy_difference(a, b, 1) == -1
        assert not same_type(a, b)
        assert sum(occupancy_difference(a, b, v) for v in range(3)) == 0

    def test_zero_cells_required(self, p3):
        one_cell = Cell.make([(0, 1), (2, (0, 1)), (0,)])
        zero = Cell.make([(0, 1), (0, 2), (0,)])
        with pytest.raises(ValueError):
            occupancy_difference(one_cell, zero, 0)
        with pytest.raises(ValueError):
            same_type(one_cell, zero)


class TestEnumeration:
    def test_star_two_colors(self, t4):
        spec = ComplexSpec(t4, ColorVector((3, 2)))
        cells = list(enumerate_cells(spec))
        dims = [c.dimension for c in cells]
        assert dims.count(0) == 12 and dims.count(1) == 9 and len(cells) == 21

    def test_path_counts(self, p3):
        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        assert f_vector(spec) == (21, 32, 10)

    def test_empty_complex(self, p3):
        spec = ComplexSpec(p3, ColorVector((1, 1)))
        assert list(enumerate_cells(spec)) == []
        assert f_vector(spec) == (0,)

    def test_canonical_order_and_validity(self, t4):
        spec = ComplexSpec(t4, ColorVector((3, 2)))
        cells = list(enumerate_cells(spec))
        keys = [cell_sort_key(c) for c in cells]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        assert all(is_valid_cell(spec, c) for c in cells)

    def test_dim_filter(self, p3):
        spec = ComplexSpec(p3, ColorVector((2, 2, 1)))
        for d, expected in enumerate((21, 32, 10)):
            assert sum(1 for _ in enumerate_cells(spec, dim=d)) == expected

    @given(small_spec_strategy())
    def test_matches_brute_force_filter(self, spec):
        mine = list(enumerate_cells(spec))
        reference = sorted(set(brute_force_cells(spec)), key=cell_sort_key)
        assert mine == reference

    @given(small_spec_strategy())
    def test_dimension_bound(self, spec):
        bound = max_dimension(spec)
        assert all(c.dimension <= bound for c in enumerate_cells(spec))

    @given(small_spec_strategy())
    def test_emptiness_criterion_matches_enumeration(self, spec):
        assert is_nonempty(spec) == any(True for _ in enumerate_cells(spec))

    def test_covered_f_vector_length_is_dimension_bound(self, k5):
        # trailing zeros are kept up to the bound
        spec = ComplexSpec(k5, ColorVector.uniform(4, 2))
        fv = f_vector(spec)
        assert len(fv) == max_dimension(spec) + 1 == 4
        assert fv == (20, 60, 30, 0)

    @given(small_spec_strategy(), st.randoms(use_true_random=False))
    def test_color_permutation_symmetry(self, spec, rng):
        sizes = list(spec.colors.sizes)
        rng.shuffle(sizes)
        shuffled = ComplexSpec(spec.graph, ColorVector(tuple(sizes)), spec.require_cover)
        assert f_vector(spec) == f_vector(shuffled)

    def test_discrete_degeneracy(self, c4):
        # group sizes summing to n leave no room to move: 0-cells only
        spec = ComplexSpec(c4, ColorVector((2, 1, 1)))
        fv = f_vector(spec)
        assert len(fv) == 1 and fv[0] > 0


class TestCoverOffFixtures:
    def test_one_color_pair_on_star(self, t4):
        spec = ComplexSpec(t4, ColorVector((2,)), require_cover=False)
        assert f_vector(spec) == (6, 6)

    def test_two_singleton_colors_on_star(self, t4):
        spec = ComplexSpec(t4, ColorVector((1, 1)), require_cover=False)
        assert f_vector(spec) == (12, 12)

    def test_one_color_pair_on_star_plus_edge(self, star_plus_edge):
        spec = ComplexSpec(star_plus_edge, ColorVector((2,)), require_cover=False)
        assert f_vector(spec) == (6, 8, 1)

    def test_singleton_colors_scale_by_permutations(self, t4):
        # each unordered cell corresponds to r! ordered ones
        unordered = f_vector(ComplexSpec(t4, ColorVector((2,)), require_cover=False))
        ordered = f_vector(ComplexSpec(t4, ColorVector((1, 1)), require_cover=False))
        assert ordered == tuple(2 * x for x in unordered)


class TestCountingDifferential:
    """f_vector against the enumerate_cells walk, counted per dimension, and
    against the closed forms where the CLI applies them; enumerate_cells with
    dim= against the full walk filtered to that dimension."""

    @staticmethod
    def check_all(n):
        cases = 0
        for g in connected_graphs(n):
            for sizes in color_vectors(n):
                for cover in (True, False):
                    spec = ComplexSpec(g, ColorVector(sizes), require_cover=cover)
                    cells = list(enumerate_cells(spec))
                    dims = Counter(cell.dimension for cell in cells)
                    for d in range(max(dims, default=0) + 2):
                        expected = [cell for cell in cells if cell.dimension == d]
                        assert list(enumerate_cells(spec, dim=d)) == expected, (g.edges, sizes, cover, d)
                    fv = f_vector(spec)
                    if not dims:
                        assert fv == (0,), (g.edges, sizes, cover)
                    else:
                        length = (max_dimension(spec) if cover else max(dims)) + 1
                        walked = tuple(dims.get(d, 0) for d in range(length))
                        assert fv == walked, (g.edges, sizes, cover)
                    formula = closed_form(spec)
                    if formula is not None:
                        width = max(len(fv), len(formula))
                        assert pad(fv, width) == pad(formula, width), (g.edges, sizes)
                    cases += 1
        return cases

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_connected_graph(self, n):
        assert self.check_all(n) > 0

    @pytest.mark.slow
    def test_every_connected_graph_on_five_vertices(self):
        assert self.check_all(5) == 21 * 56 * 2


class TestCountingEveryLabelledGraph:
    """f_vector against the enumerate_cells walk, counted per dimension as in
    TestCountingDifferential, on every labelled graph with at most four
    vertices: disconnected graphs, isolated vertices and the empty graph,
    whose neighbour masks the matching table reads."""

    def test_every_labelled_graph_up_to_four_vertices(self):
        cases = 0
        for n in range(5):
            for g in labelled_graphs(n):
                for sizes in color_vectors(n):
                    for cover in (True, False):
                        spec = ComplexSpec(g, ColorVector(sizes), require_cover=cover)
                        dims = Counter(cell.dimension for cell in enumerate_cells(spec))
                        if dims:
                            length = (max_dimension(spec) if cover else max(dims)) + 1
                            walked = tuple(dims[d] for d in range(length))
                        else:
                            walked = (0,)
                        assert f_vector(spec) == walked, (g.n, g.edges, sizes, cover)
                        cases += 1
        assert cases == 4850


class TestEmptyCoveringComplex:
    def test_builds_no_matching_table(self, monkeypatch):
        """An empty covering complex is (0,) at once: its matching table, of
        2^40 entries on P40, is never built."""
        import stirling_complexes.complexes as complexes

        monkeypatch.setattr(complexes, "_matching_table", lambda g: pytest.fail("table built"))
        for sizes in ((1, 1), (41, 1), (20, 19)):
            spec = ComplexSpec(parse_graph_name("P40"), ColorVector(sizes))
            assert not is_nonempty(spec)
            assert f_vector(spec) == (0,)


class TestReferenceOracle:
    """f_vector against the benchmark's inclusion-exclusion count on six or
    more vertices, where the exhaustive differential does not reach."""

    @pytest.mark.parametrize("label", bench_workloads.CountWorkload.labels + ("K8:4,4,4", "C10:4,4,4"))
    def test_inclusion_exclusion(self, label):
        s = bench_workloads.Spec.parse(label)
        spec = ComplexSpec(SimpleGraph.from_edges(s.n, s.edges), ColorVector(s.sizes))
        assert f_vector(spec) == bench_reference.f_vector(s.n, s.edges, s.sizes)

    def test_uniform_closed_form(self):
        g = parse_graph_name("K7")
        fv = f_vector(ComplexSpec(g, ColorVector.uniform(6, 4)))
        formula = uniform_cell_counts(g, 4)
        assert len(fv) == 24 - 7 + 1
        assert fv == pad(formula, len(fv))


class TestPacking:
    """The edge cases of the DP's packed counts and of its last color."""

    def test_one_color_fills_the_field_width(self):
        # with one color and coverage off every part is a cell, so the counts
        # sum to the bound that sizes each field
        g = parse_graph_name("K7")
        fv = f_vector(ComplexSpec(g, ColorVector((3,)), require_cover=False))
        parts = valid_parts(g, 3)
        assert sum(fv) == len(parts)
        assert fv == tuple(Counter(p.edge_count for p in parts)[d] for d in range(len(fv)))

    # P8 3,3,3, K6 3,3,2 and C10 4,4,4 have more robots than vertices, so
    # with coverage off they are empty, (0,), although every color has parts
    @pytest.mark.parametrize(
        "name, sizes",
        [
            ("P8", (3, 3, 3)),
            ("K6", (3, 3, 2)),
            ("P8", (3, 2, 2)),
            ("K7", (2, 2)),
            ("K8", (2, 2, 1)),
            ("P10", (2, 2, 2)),
            ("C10", (4, 4, 4)),
        ],
    )
    def test_coverage_off_matches_the_walk(self, name, sizes):
        spec = ComplexSpec(parse_graph_name(name), ColorVector(sizes), require_cover=False)
        dims = Counter(cell.dimension for cell in enumerate_cells(spec))
        assert f_vector(spec) == tuple(dims[d] for d in range(max(dims, default=0) + 1))

    @pytest.mark.parametrize("cover", [True, False])
    def test_color_without_parts(self, p3, cover):
        assert valid_parts(p3, 5) == ()
        for sizes in ((5,), (2, 5), (5, 1, 1)):
            assert f_vector(ComplexSpec(p3, ColorVector(sizes), require_cover=cover)) == (0,)

    @pytest.mark.parametrize("name", ["P3", "C4", "K4", "T5", "K6"])
    def test_one_covering_color(self, name):
        # the first color is also the last: only a part of n vertices covers
        g = parse_graph_name(name)
        for size in range(1, g.n + 2):
            spec = ComplexSpec(g, ColorVector((size,)))
            fv = f_vector(spec)
            assert fv == ((1,) if size == g.n else (0,))
            assert sum(fv) == sum(1 for _ in enumerate_cells(spec))


class TestValidParts:
    def test_complete_graph_parts_of_size_n_minus_one(self):
        # each element takes a free vertex, so a part of 11 on K12 is 11
        # vertices, or one edge and the 10 vertices off it
        g = parse_graph_name("K12")
        vertices = set(range(12))
        expected = [tuple(sorted(vertices - {v})) for v in range(12)]
        expected += [tuple(sorted(vertices - set(e))) + (e,) for e in g.edges]
        expected.sort(key=lambda elements: [element_key(el) for el in elements])
        parts = valid_parts(g, 11)
        assert [p.elements for p in parts] == expected
        assert len(parts) == 12 + 66
        assert [p.edge_count for p in parts] == [int(isinstance(els[-1], tuple)) for els in expected]

    @pytest.mark.parametrize("n", range(6))
    def test_matching_table_counts_the_covering_parts(self, n):
        """The covering weights f_vector takes from the matching table are
        valid_parts counted by cover mask and edge count, on every labelled
        graph with at most five vertices and every size up to n + 1."""
        graphs = 0
        for g in labelled_graphs(n):
            table = _matching_table(g)
            for size in range(1, n + 2):
                parts = valid_parts(g, size)
                counts = _covering_parts(g, size, table)
                expected = Counter((p.cover, p.edge_count) for p in parts)
                assert Counter({(c, e): k for c, (k, e) in counts.items()}) == expected, (g.edges, size)
                assert sum(k for k, _ in counts.values()) == len(parts), (g.edges, size)
            graphs += 1
        assert graphs == (1, 1, 2, 8, 64, 1024)[n]


class TestLowParts:
    """The 1-skeleton's part builder against ``valid_parts`` filtered to the
    parts with at most one edge: same parts, same canonical order, in the
    form the walk reads."""

    @staticmethod
    def check(g):
        for size in range(1, g.n + 3):
            parts = [p for p in valid_parts(g, size) if p.edge_count <= 1]
            for cover in (True, False):
                expected = [
                    (
                        p.cover if cover else p.closure,
                        p.cover,
                        tuple(1 << v for v in p.elements[-1]) if p.edge_count else None,
                    )
                    for p in parts
                ]
                assert _low_parts(g, size, cover) == expected, (g.edges, size, cover)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_connected_graph(self, n):
        for g in connected_graphs(n):
            self.check(g)

    @pytest.mark.parametrize("name", ["K7", "C10"])
    def test_larger_graphs(self, name):
        self.check(parse_graph_name(name))


class TestZeroKey:
    """``_zero_key``, the one check and encoder of a 0-cell, against the
    reference: it returns None exactly when ``is_valid_cell`` or the
    dimension rejects a cell, and otherwise a key that ``_zero_cells`` decodes
    back to the cell.  The cells are seeded random 0-cells of the complex,
    kept or broken one way (an edge slot, a vertex out of range or negative,
    a repeat, a part of the wrong size, a missing part, a vertex moved, which
    may leave one bare or shared), plus cells drawn with no regard to it."""

    SIZES = [(1, 1), (2, 1), (2, 1, 1), (2, 2, 1), (3, 2), (1, 1, 1, 1)]

    @staticmethod
    def random_cell(rng, spec, zero_cells):
        n, edges = spec.graph.n, spec.graph.edges
        pool = list(range(-1, n + 1)) + list(edges)
        if not zero_cells or rng.random() < 0.1:
            return Cell.make(
                [rng.choice(pool) for _ in range(size + rng.choice((-1, 0, 0, 1)))]
                for size in spec.colors.sizes
            )
        parts = [list(part) for part in rng.choice(zero_cells).parts]
        c = rng.randrange(len(parts))
        part, i = parts[c], rng.randrange(len(parts[c]))
        kind = rng.randrange(8)
        if kind == 1 and edges:
            part[i] = rng.choice(edges)
        elif kind == 2:
            part[i] = rng.choice((-1, n, n + 1))
        elif kind == 3:
            part[i] = rng.choice(part)
        elif kind == 4 and rng.random() < 0.5:
            part.pop()
        elif kind == 4:
            part.append(rng.randrange(n))
        elif kind == 5:
            parts.pop(c)
        elif kind >= 6:
            part[i] = rng.randrange(n)
        return Cell.make(parts)

    @pytest.mark.parametrize("cover", [True, False])
    def test_matches_the_reference(self, p3, t4, c4, k4, cover):
        rng = random.Random(19)
        outcomes = Counter()
        for g, sizes in itertools.product((p3, t4, c4, k4), self.SIZES):
            spec = ComplexSpec(g, ColorVector(sizes), require_cover=cover)
            zero_cells = list(enumerate_cells(spec, dim=0))
            for _ in range(250):
                cell = self.random_cell(rng, spec, zero_cells)
                key = _zero_key(spec, cell)
                valid = cell.dimension == 0 and is_valid_cell(spec, cell)
                assert (key is not None) == valid, (g.edges, sizes, cover, cell)
                if valid:
                    assert _zero_cells(spec, (key,)) == (cell,), (g.edges, sizes, cover, cell)
                outcomes[valid] += 1
        # both answers are common, so neither side of the check is vacuous
        assert min(outcomes.values()) > 1000, outcomes


class TestColorOrder:
    @pytest.mark.parametrize(
        "family, n, sizes, cover",
        [
            ("path", 5, (3, 2, 1), True),
            ("cycle", 5, (1, 2, 2, 3), True),
            ("star", 4, (2, 1, 1), False),
        ],
    )
    def test_f_vector_ignores_color_order(self, family, n, sizes, cover):
        g = generate_named(family, n)
        expected = f_vector(ComplexSpec(g, ColorVector(sizes), require_cover=cover))
        for order in set(itertools.permutations(sizes)):
            spec = ComplexSpec(g, ColorVector(order), require_cover=cover)
            assert f_vector(spec) == expected


class TestCellText:
    def test_format_example(self, p3):
        cell = Cell.make([(0, 1), (0, 2), ((0, 1),)])
        assert format_cell(cell) == "{0,1}|{0,2}|{(0,1)}"

    def test_round_trip(self, t4):
        spec = ComplexSpec(t4, ColorVector((3, 2)))
        for cell in enumerate_cells(spec):
            assert parse_cell(format_cell(cell)) == cell

    def test_parse_normalizes_edge_order(self):
        assert parse_cell("{(1,0)}") == Cell.make([((0, 1),)])

    @pytest.mark.parametrize(
        "bad",
        [
            "0,1|{2}", "{(0,0)}", "{(1)}", "{x}", "{(0,1,2)}", "{0)}", "{(a,b)}",
            "{0,,1}", "{0,}", "{,0}|{1}", "{ , }", "{+1}", "{1_0}",
        ],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(ValueError):
            parse_cell(bad)

    @pytest.mark.parametrize(
        "text, cell",
        [
            ("{ 0 , ( 2 , 1 ) }", Cell.make([(0, (1, 2))])),
            ("{}", Cell(((),))),
            ("{-1}", Cell(((-1,),))),
        ],
    )
    def test_parse_accepts(self, text, cell):
        """Spaces around any token, a blank part, and a negative vertex, which
        ``_zero_key`` rejects later, not the grammar."""
        assert parse_cell(text) == cell
