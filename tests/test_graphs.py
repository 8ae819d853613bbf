import pytest
from hypothesis import given, strategies as st

from conftest import all_simple_paths
from stirling_complexes import (
    EdgeListError,
    NoPathError,
    SimpleGraph,
    generate_named,
    is_connected,
    parse_edge_list,
    parse_graph_name,
    shortest_path,
)


def random_graph_strategy(max_n=6):
    def build(draw_pair):
        n, picks = draw_pair
        import itertools

        pool = list(itertools.combinations(range(n), 2))
        chosen = [pool[i % len(pool)] for i in picks] if pool else []
        return SimpleGraph.from_edges(n, chosen)

    return st.tuples(
        st.integers(min_value=1, max_value=max_n),
        st.lists(st.integers(min_value=0, max_value=30), max_size=10),
    ).map(build)


class TestParseEdgeList:
    def test_path_on_three_vertices(self):
        g = parse_edge_list("3 2\n0 1\n1 2")
        assert g.n == 3 and g.edges == ((0, 1), (1, 2))

    def test_isolated_vertices(self):
        g = parse_edge_list("2 0")
        assert g.n == 2 and g.m == 0

    def test_loop_rejected_with_line_number(self):
        with pytest.raises(EdgeListError) as exc:
            parse_edge_list("3 1\n0 0")
        assert exc.value.line == 2 and "loop" in str(exc.value)

    def test_duplicate_rejected(self):
        with pytest.raises(EdgeListError) as exc:
            parse_edge_list("3 2\n0 1\n1 0")
        assert exc.value.line == 3 and "duplicate" in str(exc.value)

    def test_out_of_range_endpoint(self):
        with pytest.raises(EdgeListError) as exc:
            parse_edge_list("3 1\n0 7")
        assert exc.value.line == 2 and "range" in str(exc.value)

    def test_malformed_line(self):
        with pytest.raises(EdgeListError) as exc:
            parse_edge_list("2 1\n0 1 9")
        assert exc.value.line == 2

    def test_bad_header(self):
        with pytest.raises(EdgeListError) as exc:
            parse_edge_list("two zero")
        assert exc.value.line == 1
        with pytest.raises(EdgeListError):
            parse_edge_list("")
        with pytest.raises(EdgeListError):
            parse_edge_list("3")
        with pytest.raises(EdgeListError):
            parse_edge_list("-3 0")

    def test_non_integer_endpoints(self):
        with pytest.raises(EdgeListError) as exc:
            parse_edge_list("3 1\na b")
        assert exc.value.line == 2

    def test_missing_edges(self):
        with pytest.raises(EdgeListError):
            parse_edge_list("4 3\n0 1")

    def test_extra_lines(self):
        with pytest.raises(EdgeListError) as exc:
            parse_edge_list("2 1\n0 1\n1 0")
        assert exc.value.line == 3

    def test_blank_lines_ignored(self):
        g = parse_edge_list("\n3 1\n\n0 2\n\n")
        assert g.edges == ((0, 2),)


class TestGenerators:
    def test_star_matches_three_leg_picture(self):
        y = generate_named("star", 4)
        assert y.m == 3 and y.degrees == (3, 1, 1, 1)

    def test_complete_five(self):
        k5 = generate_named("complete", 5)
        assert k5.n == 5 and k5.m == 10 and set(k5.degrees) == {4}

    def test_path_three(self):
        assert generate_named("path", 3).edges == ((0, 1), (1, 2))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_edge_counts(self, n):
        assert generate_named("path", n).m == n - 1
        assert generate_named("star", n).m == n - 1
        assert generate_named("complete", n).m == n * (n - 1) // 2
        if n >= 3:
            assert generate_named("cycle", n).m == n

    def test_small_cycle_rejected(self):
        with pytest.raises(ValueError):
            generate_named("cycle", 2)

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            generate_named("path", 0)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            generate_named("wheel", 4)


class TestParseGraphName:
    @pytest.mark.parametrize(
        "name,family,n",
        [("P7", "path", 7), ("T4", "star", 4), ("C3", "cycle", 3), ("K5", "complete", 5)],
    )
    def test_families(self, name, family, n):
        assert parse_graph_name(name) == generate_named(family, n)

    @pytest.mark.parametrize("name", ["Q7", "P", "7", "p7", "P-1", "P7x", " P7", ""])
    def test_malformed_names(self, name):
        with pytest.raises(ValueError, match="must look like K5"):
            parse_graph_name(name)

    def test_error_names_the_option(self):
        with pytest.raises(ValueError, match="^--graph must look like"):
            parse_graph_name("W5")

    @pytest.mark.parametrize("name,message", [("C2", "three vertices"), ("P0", "one vertex")])
    def test_sizes_the_family_rejects(self, name, message):
        with pytest.raises(ValueError, match=message):
            parse_graph_name(name)


class TestSimpleGraph:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            SimpleGraph(3, ((1, 1),))
        with pytest.raises(ValueError):
            SimpleGraph(3, ((0, 5),))
        with pytest.raises(ValueError):
            SimpleGraph(3, ((0, 1), (0, 1)))
        with pytest.raises(ValueError):
            SimpleGraph(-1, ())

    @given(random_graph_strategy())
    def test_degree_sum_is_twice_edge_count(self, g):
        assert sum(g.degrees) == 2 * g.m


class TestShortestPath:
    def test_adjacent(self, k5):
        assert shortest_path(k5, 0, 3) == (0, 3)

    def test_unique_path(self, p3):
        assert shortest_path(p3, 0, 2) == (0, 1, 2)

    def test_no_path(self):
        g = SimpleGraph(2, ())
        with pytest.raises(NoPathError):
            shortest_path(g, 0, 1)

    def test_trivial_endpoints(self, p3):
        assert shortest_path(p3, 1, 1) == (1,)

    def test_forbidden_vertices(self, c4):
        assert shortest_path(c4, 0, 2) == (0, 1, 2)
        assert shortest_path(c4, 0, 2, forbidden=(1,)) == (0, 3, 2)
        with pytest.raises(NoPathError):
            shortest_path(c4, 0, 2, forbidden=(1, 3))
        with pytest.raises(NoPathError):
            shortest_path(c4, 0, 2, forbidden=(0,))

    def test_out_of_range_endpoints(self, c4):
        with pytest.raises(ValueError):
            shortest_path(c4, 0, 9)

    @given(random_graph_strategy(max_n=6), st.data())
    def test_never_longer_than_any_simple_path(self, g, data):
        u = data.draw(st.integers(min_value=0, max_value=g.n - 1))
        v = data.draw(st.integers(min_value=0, max_value=g.n - 1))
        candidates = all_simple_paths(g, u, v)
        if not candidates:
            with pytest.raises(NoPathError):
                shortest_path(g, u, v)
            return
        found = shortest_path(g, u, v)
        best = min(len(p) for p in candidates)
        assert len(found) == best
        assert found == min(p for p in candidates if len(p) == best)


class TestConnectivity:
    def test_examples(self, p3, k5):
        assert is_connected(p3)
        assert is_connected(k5)
        assert not is_connected(SimpleGraph(2, ()))
        assert is_connected(SimpleGraph(1, ()))
        assert is_connected(SimpleGraph(0, ()))
