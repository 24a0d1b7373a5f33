import pytest

from mbgames.graphs import (
    CapacityError,
    ColourComponents,
    Graph,
    ParseError,
    iter_graph6,
    parse_edge_list,
    parse_graph6,
    relabel,
    to_edge_list,
    to_graph6,
)

from components_oracle import component_sets, from_edge_colours, same_component


K3_TEXT = "3 3\n1 2\n1 3\n2 3"

FIG3_TEXT = (
    "7 13\n"
    "1 2\n1 4\n1 5\n1 6\n1 7\n"
    "2 5\n2 6\n2 7\n"
    "3 5\n3 7\n"
    "4 6\n5 7\n6 7"
)


class TestEdgeList:
    def test_triangle(self):
        g = parse_edge_list(K3_TEXT)
        assert g.n == 3
        assert g.edges == ((1, 2), (1, 3), (2, 3))

    def test_single_isolated_vertex(self):
        g = parse_edge_list("1 0")
        assert g.n == 1
        assert g.m == 0

    def test_fig3_transcription(self):
        g = parse_edge_list(FIG3_TEXT)
        assert g.n == 7
        assert g.m == 13
        assert sum(g.degree(v) for v in range(1, 8)) == 26

    def test_roundtrip(self):
        g = parse_edge_list(FIG3_TEXT)
        assert parse_edge_list(to_edge_list(g)) == g

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("3 1\n1 1", "self-loop"),
            ("3 1\n1 4", "violates"),
            ("3 2\n1 2\n1 2", "duplicate"),
            ("3 1\n2 1", "violates"),
            ("3 1\nx y", "non-integer"),
            ("3 2\n1 2", "promises 2 edges"),
            ("", "empty"),
        ],
    )
    def test_errors_name_the_line(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_edge_list(text)

    def test_negative_vertex_count(self):
        with pytest.raises(ParseError, match='line 1: negative vertex count in "-1 0"'):
            parse_edge_list("-1 0")

    def test_over_capacity_stays_a_capacity_error(self):
        with pytest.raises(CapacityError, match="65 vertices") as info:
            parse_edge_list("65 0")
        assert not isinstance(info.value, ParseError)


class TestGraph:
    def test_degree_sum_is_twice_m(self):
        g = parse_edge_list(FIG3_TEXT)
        assert sum(g.degree(v) for v in range(1, g.n + 1)) == 2 * g.m

    def test_neighbours(self):
        g = parse_edge_list(K3_TEXT)
        assert g.neighbours(1) == {2, 3}

    def test_delete_edge(self):
        g = parse_edge_list(K3_TEXT)
        h = g.delete_edge((1, 2))
        assert h.n == 3
        assert h.edges == ((1, 3), (2, 3))

    def test_delete_edge_absent(self):
        g = Graph(3, [(1, 2)])
        with pytest.raises(ValueError, match="not in the graph"):
            g.delete_edge((1, 3))

    def test_delete_last_edge_gives_isolated_vertices(self):
        g = Graph(2, [(1, 2)])
        h = g.delete_edge((1, 2))
        assert h.m == 0
        assert not h.is_connected()

    def test_is_connected(self):
        assert parse_edge_list(K3_TEXT).is_connected()
        assert not Graph(2, []).is_connected()
        assert Graph(0, []).is_connected()

    def test_capacity_bound(self):
        Graph(64, [])
        with pytest.raises(CapacityError):
            Graph(65, [])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(2, 2)])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(1, 2), (2, 1)])

    def test_survives_pickling(self):
        # scan hands graphs to its worker pool pickled
        import pickle

        g = Graph(5, [(1, 2), (2, 3), (3, 1), (4, 5)])
        again = pickle.loads(pickle.dumps(g))
        assert again == g and hash(again) == hash(g)
        assert to_graph6(again) == to_graph6(g)
        assert again.adj == g.adj and again.edge_index == g.edge_index


class TestGraph6:
    def test_single_edge(self):
        # 'A' encodes n=2; '_' = 95-63 = 32 = 100000, so bit x(0,1) is set
        g = parse_graph6("A_")
        assert (g.n, g.edges) == (2, ((1, 2),))

    def test_empty_three_vertices(self):
        # 'B' encodes n=3; '?' = 63-63 = 0: no edges
        g = parse_graph6("B?")
        assert (g.n, g.m) == (3, 0)

    def test_triangle(self):
        # bits 111 padded to 111000 = 56 -> 'w'
        assert to_graph6(Graph(3, [(1, 2), (1, 3), (2, 3)])) == "Bw"
        assert parse_graph6("Bw").edges == ((1, 2), (1, 3), (2, 3))

    def test_header_prefix_accepted(self):
        assert parse_graph6(">>graph6<<A_").m == 1

    def test_roundtrip_reference_n5(self):
        # one line per non-isomorphic 5-vertex graph, from the enumerator,
        # count cross-checked against the published value 34
        from mbgames.search import enumerate_graphs

        lines = [to_graph6(g) for g in enumerate_graphs(5)]
        assert len(lines) == 34
        assert len(set(lines)) == 34
        for line in lines:
            assert to_graph6(parse_graph6(line)) == line

    def test_roundtrip_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        from mbgames.search import enumerate_graphs

        for n in range(0, 7):
            if n == 0:
                graphs = [Graph(0, [])]
            else:
                graphs = list(enumerate_graphs(n))
            for g in graphs:
                G = nx.Graph()
                G.add_nodes_from(range(g.n))
                G.add_edges_from((u - 1, v - 1) for u, v in g.edges)
                reference = nx.to_graph6_bytes(G, header=False).decode().strip()
                assert to_graph6(g) == reference
                assert parse_graph6(reference) == g

    def test_long_form_n63(self):
        g = Graph(63, [(1, 63)])
        line = to_graph6(g)
        assert line.startswith("~")
        assert parse_graph6(line) == g

    def test_invalid_byte(self):
        with pytest.raises(ParseError, match="invalid graph6 byte"):
            parse_graph6("B!")

    def test_truncated_body(self):
        with pytest.raises(ParseError, match="needs"):
            parse_graph6("D?")

    def test_overlong_body(self):
        with pytest.raises(ParseError, match="needs"):
            parse_graph6("Bww")

    def test_capacity(self):
        line = to_graph6(Graph(64, []))
        assert parse_graph6(line).n == 64
        with pytest.raises(CapacityError):
            parse_graph6("~?@@")  # n = 65 header

    def test_iter_graph6_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            list(iter_graph6("A_\nD?\n"))

    def test_iter_graph6_capacity_error_names_the_line(self):
        with pytest.raises(CapacityError, match="^line 2: graph6 line encodes 65") as info:
            list(iter_graph6("A_\n~?@@\n"))
        assert not isinstance(info.value, ParseError)


class TestRelabel:
    def test_renames_edges(self):
        # vertex 3 becomes 1, vertex 1 becomes 2 and vertex 2 becomes 3
        g = relabel(Graph(3, [(1, 2), (2, 3)]), [3, 1, 2])
        assert g.edges == ((1, 3), (2, 3))

    def test_identity_keeps_the_graph(self):
        g = parse_graph6("HpAICJP")
        assert relabel(g, range(1, g.n + 1)) == g

    def test_non_permutation_rejected(self):
        for order in ([1, 1, 2], [1, 2], [1, 2, 3, 4], [0, 1, 2]):
            with pytest.raises(ValueError, match="is not a permutation of 1..3"):
                relabel(Graph(3, [(1, 2)]), order)


class TestColourComponents:
    def test_empty_is_discrete(self):
        comp = ColourComponents.empty(4, 2)
        assert not same_component(comp, 1, 1, 2)
        assert component_sets(comp, 1) == [
            frozenset({1}), frozenset({2}), frozenset({3}), frozenset({4})
        ]

    def test_merge_grows_components(self):
        comp = ColourComponents.empty(4, 2).merged(1, 1, 2).merged(1, 2, 3)
        assert same_component(comp, 1, 1, 3)
        assert not same_component(comp, 2, 1, 3)
        assert frozenset({1, 2, 3}) in component_sets(comp, 1)

    def test_merge_same_component_rejected(self):
        comp = ColourComponents.empty(3, 1).merged(1, 1, 2)
        with pytest.raises(ValueError):
            comp.merged(1, 2, 1)

    def test_merge_is_monotone(self):
        comp = ColourComponents.empty(5, 1)
        sets_before = component_sets(comp, 1)
        merged = comp.merged(1, 4, 5)
        for s in component_sets(merged, 1):
            assert any(old <= s for old in sets_before)

    def test_from_edge_colours(self):
        g = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        assert g.edges == ((1, 2), (1, 4), (2, 3), (3, 4))
        comp = from_edge_colours(g, [1, 1, 2, 2], 2)
        assert same_component(comp, 1, 2, 4)
        assert same_component(comp, 2, 2, 4)
        assert not same_component(comp, 1, 1, 3)
        assert not same_component(comp, 2, 1, 2)
