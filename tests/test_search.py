import hashlib

import pytest

from mbgames import search
from mbgames.families import complete, fig3_graph, fig4_graph, path, star
from mbgames.graphs import Graph, parse_graph6, to_graph6
from mbgames.rules import Variant
from mbgames.search import (
    ChiGLessThanChiCg,
    ColCgEdgeNonMonotone,
    Hit,
    NonMonotoneProfile,
    ParameterEquals,
    canonical_form,
    enumerate_graphs,
    graph_from_canonical,
    parse_predicate,
    scan,
)


class TestCanonicalForm:
    def test_relabelling_invariance(self):
        a = path(4)  # 1-2-3-4
        b = parse_graph6(to_graph6(a))
        assert canonical_form(a) == canonical_form(b)
        # a different labelling of the same path
        from mbgames.graphs import Graph

        c = Graph(4, [(1, 3), (2, 3), (2, 4)])  # path 1-3-2-4
        assert canonical_form(a) == canonical_form(c)

    def test_distinguishes_non_isomorphic(self):
        assert canonical_form(path(4)) != canonical_form(star(4))

    def test_reconstruction_roundtrip(self):
        for g in enumerate_graphs(5):
            assert graph_from_canonical(g.n, canonical_form(g)) == g

    def test_pairwise_non_isomorphic_by_vf2(self):
        nx = pytest.importorskip("networkx")
        graphs = list(enumerate_graphs(4))
        as_nx = []
        for g in graphs:
            G = nx.Graph()
            G.add_nodes_from(range(1, g.n + 1))
            G.add_edges_from(g.edges)
            as_nx.append(G)
        for i in range(len(graphs)):
            for j in range(i + 1, len(graphs)):
                assert not nx.is_isomorphic(as_nx[i], as_nx[j])


# Published counts of non-isomorphic simple graphs: all graphs and connected
# graphs on 1..8 vertices.
KNOWN_GRAPH_COUNTS = (1, 2, 4, 11, 34, 156, 1044, 12346)
KNOWN_CONNECTED_COUNTS = (1, 1, 2, 6, 21, 112, 853, 11117)


class TestEnumeration:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_counts_match_published_tables(self, n):
        assert len(list(enumerate_graphs(n))) == KNOWN_GRAPH_COUNTS[n - 1]
        assert (
            len(list(enumerate_graphs(n, connected_only=True)))
            == KNOWN_CONNECTED_COUNTS[n - 1]
        )

    def test_n3_connected_is_path_and_triangle(self):
        graphs = list(enumerate_graphs(3, connected_only=True))
        assert len(graphs) == 2
        assert sorted(g.m for g in graphs) == [2, 3]

    def test_too_large_redirects_to_graph6(self):
        with pytest.raises(ValueError, match="graph6"):
            list(enumerate_graphs(9))

    def test_deterministic_order(self):
        first = [to_graph6(g) for g in enumerate_graphs(5)]
        second = [to_graph6(g) for g in enumerate_graphs(5)]
        assert first == second

    def test_n7_stream_is_pinned(self):
        # sha256 of the graph6 lines of enumerate_graphs(7), recorded before
        # the least-degree extension rule: a pruning that drops a class or
        # changes its canonical labelling or order fails here
        stream = "".join(to_graph6(g) + "\n" for g in enumerate_graphs(7))
        assert hashlib.sha256(stream.encode()).hexdigest() == (
            "32b9061013e584436d372c480fb5ee91f18cc1ddfe3777772b542b3398b0b3ce"
        )


class TestPredicates:
    def test_fig3_hits_chi_gap(self):
        answer = ChiGLessThanChiCg().evaluate(fig3_graph())
        assert answer is not None
        witness, profiles = answer
        assert witness == {"chi_g": 4, "chi_cg": 5}
        assert set(profiles) == {"vertex", "cvertex"}

    def test_triangle_misses_chi_gap(self):
        assert ChiGLessThanChiCg().evaluate(complete(3)) is None

    def test_fig4_hits_edge_nonmonotone(self):
        g, e = fig4_graph()
        answer = ColCgEdgeNonMonotone().evaluate(g)
        assert answer is not None
        witness, _ = answer
        assert witness["col_cg"] == 3
        assert {"edge": [1, 3], "col_cg_minus_e": 4} in witness["edges"]

    def test_h1_ordered_profile_nonmonotone(self):
        from mbgames.families import h_r

        answer = NonMonotoneProfile(Variant.ORDERED_VERTEX, 1, 4).evaluate(h_r(1))
        assert answer is not None
        witness, _ = answer
        assert 3 in witness["violations"]

    def test_trees_have_monotone_arboricity_profiles(self):
        # Maker wins on every forest at every k >= 1
        trees = [g for g in enumerate_graphs(5, connected_only=True) if g.m == 4]
        report = scan(trees, NonMonotoneProfile(Variant.ARBORICITY))
        assert report.hits == []

    def test_parameter_equals(self):
        answer = ParameterEquals("chi_g", 3).evaluate(complete(3))
        assert answer is not None
        assert answer[0] == {"chi_g": 3}
        assert ParameterEquals("chi_g", 2).evaluate(complete(3)) is None

    def test_parameter_equals_solves_its_own_variant_only(self, monkeypatch):
        from mbgames import parameters

        seen = set()
        real = parameters.win_profile

        def spy(g, variant, *args, **kwargs):
            seen.add(variant)
            return real(g, variant, *args, **kwargs)

        monkeypatch.setattr(parameters, "win_profile", spy)
        report = scan(enumerate_graphs(6), ParameterEquals("chi_g", 3))
        assert (report.scanned, len(report.hits), report.skipped) == (156, 77, [])
        assert seen == {Variant.VERTEX}

    @pytest.mark.parametrize("g", [Graph(4, [(1, 2), (3, 4)]), Graph(0)])
    @pytest.mark.parametrize("predicate", [ChiGLessThanChiCg(), ColCgEdgeNonMonotone()])
    def test_connected_predicates_miss_without_a_gap(self, g, predicate):
        assert predicate.evaluate(g) is None

    def test_chi_gap_skips_chi_g_where_chi_cg_is_undefined(self, monkeypatch):
        # named_parameter alone decides that a disconnected graph has no
        # chi_cg; the predicate then never solves chi_g
        asked = []
        real = search.named_parameter

        def spy(g, name, *args, **kwargs):
            asked.append(name)
            return real(g, name, *args, **kwargs)

        monkeypatch.setattr(search, "named_parameter", spy)
        assert ChiGLessThanChiCg().evaluate(Graph(4, [(1, 2), (3, 4)])) is None
        assert asked == ["chi_cg"]

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            ParameterEquals("chromatic_polynomial", 2).evaluate(complete(3))


class TestParsePredicate:
    def test_forms(self):
        assert isinstance(parse_predicate("chi_g_lt_chi_cg"), ChiGLessThanChiCg)
        assert parse_predicate("chi_g_lt_chi_cg:5").k_max == 5
        assert isinstance(
            parse_predicate("col_cg_edge_nonmonotone"), ColCgEdgeNonMonotone
        )
        p = parse_predicate("nonmonotone_profile:arboricity")
        assert p.variant is Variant.ARBORICITY
        p = parse_predicate("nonmonotone_profile:overtex:1-4")
        assert (p.k_lo, p.k_hi) == (1, 4)
        p = parse_predicate("param:col_cg=3")
        assert (p.parameter, p.value) == ("col_cg", 3)

    def test_bad_forms(self):
        with pytest.raises(ValueError):
            parse_predicate("frobnicate")
        with pytest.raises(ValueError):
            parse_predicate("nonmonotone_profile:nosuch")
        with pytest.raises(ValueError):
            parse_predicate("param:chi_g")

    @pytest.mark.parametrize("text", ["nonmonotone_profile:vertex:5-2", "chi_g_lt_chi_cg:0"])
    def test_bad_bounds(self, text):
        with pytest.raises(ValueError, match="needs"):
            parse_predicate(text)

    @pytest.mark.parametrize(
        "text, form",
        [
            ("nonmonotone_profile:vertex:5", "nonmonotone_profile:VARIANT[:KLO-KHI]"),
            ("nonmonotone_profile:vertex:1-", "nonmonotone_profile:VARIANT[:KLO-KHI]"),
            ("nonmonotone_profile:vertex:a-b", "nonmonotone_profile:VARIANT[:KLO-KHI]"),
            ("chi_g_lt_chi_cg:x", "chi_g_lt_chi_cg[:KMAX]"),
            ("param:chi_g=x", "param:NAME=VALUE"),
        ],
    )
    def test_malformed_numbers_name_the_form(self, text, form):
        with pytest.raises(ValueError) as info:
            parse_predicate(text)
        assert repr(text) in str(info.value) and form in str(info.value)

    def test_negative_lower_bound_reaches_the_bounds_check(self):
        with pytest.raises(ValueError, match="0 <= k_lo <= k_hi; got k_lo=-1, k_hi=2"):
            parse_predicate("nonmonotone_profile:vertex:-1-2")

    def test_profile_bounds(self):
        with pytest.raises(ValueError, match="both k bounds or neither"):
            NonMonotoneProfile(Variant.VERTEX, k_lo=2)
        with pytest.raises(ValueError, match="both k bounds or neither"):
            NonMonotoneProfile(Variant.VERTEX, k_hi=2)
        with pytest.raises(ValueError, match="0 <= k_lo <= k_hi"):
            NonMonotoneProfile(Variant.VERTEX, -1, 2)
        assert NonMonotoneProfile(Variant.MARKING, 0, 0).k_hi == 0


class FailsOnTriangle:
    """Predicate that raises on K3 and hits every other graph."""

    name = "fails_on_triangle"

    def evaluate(self, g, deadline=None):
        if g.m == 3 and g.n == 3:
            raise RecursionError("maximum recursion depth exceeded")
        return {"m": g.m}, {}


class RecordingPool:
    """Stands in for ``ProcessPoolExecutor``: records the worker count asked
    for and maps in this process, so that no process is started."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def map(self, fn, items, chunksize=1):
        return map(fn, items)

    def shutdown(self):
        pass


class TestScan:
    @pytest.mark.parametrize(
        "jobs, count, pools",
        [(64, 2, [2]), (2, 3, [2]), (3, 3, [3]), (8, 1, []), (8, 0, []), (1, 3, [])],
    )
    def test_at_most_one_worker_per_graph(self, monkeypatch, jobs, count, pools):
        sizes = []
        monkeypatch.setattr(
            "mbgames.search.ProcessPoolExecutor",
            lambda max_workers: RecordingPool(sizes, max_workers),
        )
        graphs = [path(3), complete(3), star(3)][:count]
        report = scan(graphs, FailsOnTriangle(), jobs=jobs)
        assert sizes == pools
        assert report.scanned == count
        assert len(report.hits) + len(report.skipped) == count

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            scan([path(3)], FailsOnTriangle(), jobs=jobs)

    def test_budget_below_zero_rejected(self):
        with pytest.raises(ValueError, match="budget_ms must be >= 0, got -1"):
            scan([path(3)], FailsOnTriangle(), budget_ms=-1)

    def test_disconnected_graph_has_no_connected_profile(self):
        # a connectivity-restricted variant answers None on a disconnected
        # graph instead of raising, so the scan records neither hit nor skip
        g = Graph(4, [(1, 2), (3, 4)])
        predicate = NonMonotoneProfile(Variant.CONNECTED_VERTEX)
        assert predicate.evaluate(g) is None
        report = scan([g], predicate)
        assert (report.scanned, report.hits, report.skipped) == (1, [], [])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_is_a_typed_skip(self, jobs):
        # one raising graph keeps the other graphs' finished results
        graphs = [path(3), complete(3), star(3)]
        report = scan(graphs, FailsOnTriangle(), jobs=jobs)
        assert report.scanned == 3
        # scan records each answer under the graph6 and the predicate's name
        assert report.hits == [
            Hit(to_graph6(path(3)), "fails_on_triangle", {"m": 2}, {}),
            Hit(to_graph6(star(3)), "fails_on_triangle", {"m": 2}, {}),
        ]
        assert [(s.index, s.graph6) for s in report.skipped] == [
            (1, to_graph6(complete(3)))
        ]
        assert report.skipped[0].reason.startswith("RecursionError: ")

    def test_hits_self_certify(self):
        report = scan([fig3_graph(), complete(3)], ChiGLessThanChiCg())
        assert len(report.hits) == 1
        hit = report.hits[0]
        again = ChiGLessThanChiCg().evaluate(parse_graph6(hit.graph6))
        assert again == (hit.witness, hit.profiles)

    def test_budget_skips_are_recorded(self):
        report = scan([complete(6)], NonMonotoneProfile(Variant.ARBORICITY), budget_ms=50)
        assert report.hits == []
        assert len(report.skipped) == 1
        assert "budget" in report.skipped[0].reason

    def test_zero_budget_skips_even_a_small_graph(self):
        # every solve with a budget checks it at its first node, so a spent
        # budget skips fig3, whose solves are far below any count stride
        report = scan([fig3_graph()], ChiGLessThanChiCg(), budget_ms=0)
        assert report.hits == []
        assert [(s.index, s.graph6) for s in report.skipped] == [
            (0, to_graph6(fig3_graph()))
        ]
        assert report.skipped[0].reason.startswith("BudgetExceededError")

    def test_parallel_matches_serial(self):
        graphs = list(enumerate_graphs(4, connected_only=True))
        predicate = ParameterEquals("chi_g", 3)
        serial = scan(graphs, predicate, jobs=1)
        parallel = scan(graphs, predicate, jobs=2)
        assert [h.as_dict() for h in serial.hits] == [
            h.as_dict() for h in parallel.hits
        ]

    def test_report_as_dict(self):
        import json

        report = scan([complete(3)], ParameterEquals("chi_g", 3))
        blob = json.loads(json.dumps(report.as_dict()))
        assert blob["scanned"] == 1
        assert len(blob["hits"]) == 1

    def test_report_json_is_the_records_fields(self):
        import json

        report = scan([path(3), complete(3)], FailsOnTriangle())
        assert json.dumps(report.as_dict()) == (
            '{"predicate": "fails_on_triangle", "scanned": 2, '
            '"hits": [{"graph6": "Bg", "predicate": "fails_on_triangle", '
            '"witness": {"m": 2}, "profiles": {}}], '
            '"skipped": [{"index": 1, "graph6": "Bw", '
            '"reason": "RecursionError: maximum recursion depth exceeded"}]}'
        )

    def test_n7_chi_gap_hits_are_pinned(self):
        # sha256 of every hit of the connected n = 7 sweep (graph6, witness
        # and both profiles), recorded before the solver ordered its vertex
        # moves: a search order that changes any winner fails here
        import json

        report = scan(enumerate_graphs(7, connected_only=True), ChiGLessThanChiCg())
        assert (report.scanned, len(report.hits), report.skipped) == (853, 12, [])
        lines = "".join(
            json.dumps(h.as_dict(), sort_keys=True) + "\n" for h in report.hits
        )
        assert hashlib.sha256(lines.encode()).hexdigest() == (
            "6a38652f536a25aacdbba851e8f1eeb48556c866c851caf07cbfdca6752c5b0e"
        )

    def test_vertex_profiles_are_monotone_up_to_seven_vertices(self):
        # Zhu's question, whether a Maker win with k colours implies one with
        # k + 1, for the vertex game and its connected version: no connected
        # graph with at most 7 vertices answers it over its default k range
        graphs = [
            g for n in range(1, 8) for g in enumerate_graphs(n, connected_only=True)
        ]
        for variant in (Variant.VERTEX, Variant.CONNECTED_VERTEX):
            report = scan(graphs, NonMonotoneProfile(variant))
            assert (report.scanned, report.hits, report.skipped) == (996, [], [])

    def test_hit_line_format(self):
        report = scan([fig3_graph()], ChiGLessThanChiCg())
        line = report.hits[0].line()
        assert line.startswith(to_graph6(fig3_graph()) + "\t")
        assert "chi_g=4" in line
