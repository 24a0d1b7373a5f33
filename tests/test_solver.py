import sys

import pytest

from mbgames.families import (
    complete,
    edgeless,
    fig3_graph,
    fig4_graph,
    h_r,
    path,
    star,
    theorem14_graph,
)
from mbgames.graphs import identity_ordering, parse_graph6
from mbgames.rules import GameSpec, Move, Status, Variant, engine
from mbgames.search import enumerate_graphs
from mbgames.solver import (
    ResourceLimitError,
    Solver,
    naive_solve,
    solve,
)

K3 = complete(3)
VERTEX_VARIANTS = [v for v in Variant if not (v.marking or v.plays_edges)]


class TestSolve:
    def test_k3_needs_three_colours(self):
        assert solve(GameSpec(Variant.VERTEX, 2), K3).winner is Status.BREAKER_WIN
        assert solve(GameSpec(Variant.VERTEX, 3), K3).winner is Status.MAKER_WIN

    def test_max_degree_plus_one_always_wins(self):
        for g in (path(5), star(5), complete(4)):
            k = g.max_degree() + 1
            assert solve(GameSpec(Variant.VERTEX, k), g).winner is Status.MAKER_WIN

    def test_arboricity_one_colour(self):
        # a single colour class must stay a forest
        assert solve(GameSpec(Variant.ARBORICITY, 1), K3).winner is Status.BREAKER_WIN
        assert solve(GameSpec(Variant.ARBORICITY, 1), path(4)).winner is Status.MAKER_WIN

    def test_star_game_chromatic_number_two(self):
        g = star(4)
        assert solve(GameSpec(Variant.VERTEX, 1), g).winner is Status.BREAKER_WIN
        assert solve(GameSpec(Variant.VERTEX, 2), g).winner is Status.MAKER_WIN

    def test_deterministic(self):
        g = fig3_graph()
        spec = GameSpec(Variant.VERTEX, 4)
        first = solve(spec, g)
        second = solve(spec, g)
        assert first.winner is second.winner
        first_pv = Solver(spec, g).principal_variation()
        assert Solver(spec, g).principal_variation() == first_pv

    def test_result_statistics(self):
        result = solve(GameSpec(Variant.VERTEX, 2), K3)
        assert result.elapsed >= 0
        assert result.table_entries >= 0
        assert result.oracle is not None

    def test_table_cap_fails_loudly(self):
        g = fig3_graph()
        with pytest.raises(ResourceLimitError):
            solve(GameSpec(Variant.VERTEX, 3), g, max_table_entries=2)

    def test_recursion_limit_restored(self):
        # K42 is deep enough (n + m = 903) that a search raises the limit
        spec = GameSpec(Variant.ARBORICITY, 1)
        g = complete(42)
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            assert solve(spec, g).winner is Status.BREAKER_WIN
            assert sys.getrecursionlimit() == 1000
            Solver(spec, g).best_move(engine(spec, g).initial())
            assert sys.getrecursionlimit() == 1000
        finally:
            sys.setrecursionlimit(saved)

    def test_edgeless_any_k(self):
        g = edgeless(4)
        assert solve(GameSpec(Variant.VERTEX, 1), g).winner is Status.MAKER_WIN


class TestBestMove:
    def test_all_moves_win_picks_least(self):
        spec = GameSpec(Variant.VERTEX, 3)
        solver = Solver(spec, K3)
        assert solver.best_move(engine(spec, K3).initial()) == Move(vertex=1, colour=1)

    def test_lemma_winning_colour_at_vertex_three(self):
        og = h_r(1)
        spec = GameSpec(Variant.ORDERED_VERTEX, 3, og.ordering)
        eng = engine(spec, og.graph)
        pos = eng.initial()
        pos = eng.apply(pos, Move(colour=1))
        pos = eng.apply(pos, Move(colour=2))
        # colour 2 at vertex 3 loses; colour 3 is Maker's winning move
        assert Solver(spec, og.graph).best_move(pos) == Move(colour=3)

    def test_fig3_opening_is_vertex_one_or_two(self):
        g = fig3_graph()
        spec = GameSpec(Variant.VERTEX, 4)
        move = Solver(spec, g).best_move(engine(spec, g).initial())
        assert move.vertex in (1, 2)

    def test_repeated_question_reads_the_memo(self):
        spec = GameSpec(Variant.VERTEX, 3)
        g = fig3_graph()
        solver = Solver(spec, g)
        pos = engine(spec, g).initial()
        move = solver.best_move(pos)
        assert solver.best_move(pos) is move
        assert solver.decided_positions == 1

    def test_terminal_position_rejected_after_memo_filled(self):
        spec = GameSpec(Variant.VERTEX, 2)
        eng = engine(spec, K3)
        solver = Solver(spec, K3)
        solver.principal_variation()
        assert solver.decided_positions > 0
        pos = eng.apply(eng.initial(), Move(vertex=1, colour=1))
        pos = eng.apply(pos, Move(vertex=2, colour=2))
        with pytest.raises(ValueError, match="over"):
            solver.best_move(pos)

    def test_lost_marking_position_rejected_after_memo_filled(self):
        # on a star with centre 1 and bound s=1, the marked set {1, 2, 3} is
        # ongoing when the centre is marked first and lost when it is last
        g = star(4)
        spec = GameSpec(Variant.MARKING, 1)
        eng = engine(spec, g)
        solver = Solver(spec, g)
        ongoing = eng.initial()
        for v in (1, 2, 3):
            ongoing = eng.apply(ongoing, Move(vertex=v))
        assert solver.best_move(ongoing) == Move(vertex=4)
        lost = eng.initial()
        for v in (2, 3, 1):
            lost = eng.apply(lost, Move(vertex=v))
        assert lost.marked == ongoing.marked
        with pytest.raises(ValueError, match="over"):
            solver.best_move(lost)

    def test_terminal_position_rejected(self):
        spec = GameSpec(Variant.VERTEX, 2)
        eng = engine(spec, K3)
        pos = eng.apply(eng.initial(), Move(vertex=1, colour=1))
        pos = eng.apply(pos, Move(vertex=2, colour=2))
        with pytest.raises(ValueError, match="over"):
            Solver(spec, K3).best_move(pos)


class TestPrincipalVariation:
    def test_k3_three_colours_runs_to_completion(self):
        pv = Solver(GameSpec(Variant.VERTEX, 3), K3).principal_variation()
        assert len(pv) == 3

    def test_k3_two_colours_ends_in_two_moves(self):
        spec = GameSpec(Variant.VERTEX, 2)
        pv = Solver(spec, K3).principal_variation()
        assert len(pv) <= 2
        eng = engine(spec, K3)
        pos = eng.initial()
        for move in pv:
            pos = eng.apply(pos, move)
        assert eng.status(pos) is Status.BREAKER_WIN

    def test_pv_terminal_status_matches_winner(self):
        for k in (2, 3, 4):
            g = fig3_graph()
            spec = GameSpec(Variant.VERTEX, k)
            result = solve(spec, g)
            eng = engine(spec, g)
            pos = eng.initial()
            for move in result.oracle.principal_variation():
                pos = eng.apply(pos, move)
            assert eng.status(pos) is result.winner


class TestNaiveOracle:
    def test_agrees_on_k3_arboricity(self):
        for k in (1, 2):
            spec = GameSpec(Variant.ARBORICITY, k)
            assert naive_solve(spec, K3).winner is solve(spec, K3).winner

    def test_reports_node_count(self):
        result = naive_solve(GameSpec(Variant.VERTEX, 2), K3)
        assert result.nodes_searched > 0
        assert result.table_entries == 0

    def test_agrees_on_vertex_variants_up_to_five_vertices(self):
        # the counting shortcuts (Maker-safe, Breaker one-move kill), the
        # reduced move set and the colour-canonical keys, against plain search
        checked = 0
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                for variant in VERTEX_VARIANTS:
                    if variant.connectivity_restricted and not g.is_connected():
                        continue
                    ordering = identity_ordering(n) if variant.ordered else None
                    for k in range(1, g.max_degree() + 2):
                        spec = GameSpec(variant, k, ordering)
                        assert solve(spec, g).winner is naive_solve(spec, g).winner, (
                            g.edges, variant, k
                        )
                        checked += 1
        assert checked == 836


def _pinned_instance(name):
    if name == "fig3":
        return fig3_graph(), None
    if name == "thm14(4,5)":
        og = theorem14_graph(4, 5)
        return og.graph, og.ordering
    if name == "H_2":
        og = h_r(2)
        return og.graph, og.ordering
    if name == "fig4":
        return fig4_graph()[0], None
    if name == "K5":
        return complete(5), None
    return parse_graph6(name), None


class TestPinnedCounts:
    """Exact search counts of fixed instances. Node and table counts are
    deterministic, so a refactor of the rules layer or the solver that
    changes any of them has changed what the search visits."""

    @pytest.mark.parametrize(
        "graph, variant, k, winner, nodes, entries, orbit_hits",
        [
            ("fig3", Variant.VERTEX, 4, Status.MAKER_WIN, 64, 64, 0),
            ("fig3", Variant.CONNECTED_VERTEX, 4, Status.BREAKER_WIN, 73, 73, 0),
            ("fig3", Variant.CONNECTED_VERTEX, 5, Status.MAKER_WIN, 17, 17, 0),
            ("thm14(4,5)", Variant.ORDERED_VERTEX, 5, Status.BREAKER_WIN, 27, 27, 0),
            ("H_2", Variant.ORDERED_VERTEX, 4, Status.BREAKER_WIN, 61, 61, 0),
            ("fig4", Variant.CONNECTED_MARKING, 2, Status.MAKER_WIN, 60, 60, 0),
            ("fig3", Variant.GREEDY, 3, Status.BREAKER_WIN, 17, 17, 0),
            ("K5", Variant.ARBORICITY, 3, Status.MAKER_WIN, 283, 832, 288),
            ("E^~w", Variant.ARBORICITY, 4, Status.MAKER_WIN, 30237, 77893, 17620),
        ],
    )
    def test_counts(self, graph, variant, k, winner, nodes, entries, orbit_hits):
        g, ordering = _pinned_instance(graph)
        result = solve(GameSpec(variant, k, ordering), g)
        assert (
            result.winner, result.nodes_searched, result.table_entries,
            result.orbit_hits,
        ) == (winner, nodes, entries, orbit_hits)
