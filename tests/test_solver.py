import copy
import sys
import time
import weakref

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
from mbgames.graphs import Graph, parse_graph6
from mbgames import rules
from mbgames.rules import GameSpec, Move, Status, Variant, engine
from mbgames.parameters import win_profile
from mbgames.search import NonMonotoneProfile, enumerate_graphs, scan
from mbgames.solver import (
    BudgetExceededError,
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
        assert not any(isinstance(v, Solver) for v in vars(result).values())

    def test_table_cap_fails_loudly(self):
        g = fig3_graph()
        with pytest.raises(ResourceLimitError):
            Solver(GameSpec(Variant.VERTEX, 3), g, max_table_entries=2).solve()

    @pytest.mark.parametrize(
        "variant, g, k",
        [
            (Variant.ARBORICITY, parse_graph6("E^~w"), 3),  # K6-e
            (Variant.VERTEX, fig3_graph(), 4),  # 35 nodes in all
        ],
    )
    def test_deadline_checked_at_the_first_node(self, variant, g, k):
        # a passed deadline stops the solve at its first searched node, so
        # neither a long solve nor a short one outruns its budget
        solver = Solver(GameSpec(variant, k), g, deadline=time.perf_counter())
        with pytest.raises(BudgetExceededError, match="time budget"):
            solver.solve()
        assert solver.nodes_searched == 1

    def test_recursion_limit_left_alone(self, monkeypatch):
        # K42 has n + m = 903, deeper than the default limit allows a game to
        # go; the solver still answers it within that limit and never sets it
        def refuse(limit):
            raise AssertionError(f"the solver set the recursion limit to {limit}")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        spec = GameSpec(Variant.ARBORICITY, 1)
        g = complete(42)
        assert solve(spec, g).winner is Status.BREAKER_WIN
        Solver(spec, g).best_move(engine(spec, g).initial())

    def test_edgeless_any_k(self):
        g = edgeless(4)
        assert solve(GameSpec(Variant.VERTEX, 1), g).winner is Status.MAKER_WIN


class TestBestMove:
    def test_all_moves_win_picks_least(self):
        spec = GameSpec(Variant.VERTEX, 3)
        solver = Solver(spec, K3)
        assert solver.best_move(engine(spec, K3).initial()) == Move(vertex=1, colour=1)

    def test_lemma_winning_colour_at_vertex_three(self):
        g = h_r(1)
        spec = GameSpec(Variant.ORDERED_VERTEX, 3)
        eng = engine(spec, g)
        pos = eng.initial()
        pos = eng.apply(pos, Move(colour=1))
        pos = eng.apply(pos, Move(colour=2))
        # colour 2 at vertex 3 loses; colour 3 is Maker's winning move
        assert Solver(spec, g).best_move(pos) == Move(colour=3)

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
            solver = Solver(spec, g)
            result = solver.solve()
            eng = engine(spec, g)
            pos = eng.initial()
            for move in solver.principal_variation():
                pos = eng.apply(pos, move)
            assert eng.status(pos) is result.winner


class TestResultsHoldNoSolver:
    """Results are plain values: once ``solve``, ``win_profile`` or ``scan``
    returns, no ``Solver`` built on the way is alive, so a kept result does
    not keep a memo table. Every solver is tracked through a weak reference,
    and the garbage collector is not run, so a solver freed only by a cycle
    collection would count as alive."""

    @pytest.fixture
    def built(self, monkeypatch):
        refs = []
        init = Solver.__init__

        def tracked(self, *args, **kwargs):
            init(self, *args, **kwargs)
            refs.append(weakref.ref(self))

        monkeypatch.setattr(Solver, "__init__", tracked)
        return refs

    def test_solve(self, built):
        result = solve(GameSpec(Variant.ARBORICITY, 4), complete(5))
        assert result.winner is Status.MAKER_WIN
        assert result.nodes_searched > 0
        assert len(built) == 1
        assert built[0]() is None

    def test_win_profile(self, built):
        g = complete(4)
        profile = win_profile(g, Variant.ARBORICITY, (1, g.m))
        assert profile.parameter_value() == 3
        assert len(built) == g.m
        assert [ref() for ref in built] == [None] * g.m

    def test_scan(self, built):
        graphs = [g for g in enumerate_graphs(4) if g.m]
        report = scan(graphs, NonMonotoneProfile(Variant.ARBORICITY))
        assert report.scanned == len(graphs) and not report.hits
        assert len(built) == sum(g.m for g in graphs)
        assert all(ref() is None for ref in built)


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
                    for k in range(1, g.max_degree() + 2):
                        spec = GameSpec(variant, k)
                        assert solve(spec, g).winner is naive_solve(spec, g).winner, (
                            g.edges, variant, k
                        )
                        checked += 1
        assert checked == 836


class TestSearchOrderAblation:
    """Maker's vertices are searched hubs first (``search_order``); the
    winner must not depend on that order. Each instance is solved again with
    the order put back to index order."""

    @staticmethod
    def graphs():
        import random

        yield from (g for n in range(1, 6) for g in enumerate_graphs(n))
        yield from random.Random("search-order").sample(list(enumerate_graphs(6)), 60)

    def test_winners_match_index_order(self):
        checked = 0
        for g in self.graphs():
            for variant in VERTEX_VARIANTS:
                if variant.connectivity_restricted and not g.is_connected():
                    continue
                for k in range(1, g.max_degree() + 2):
                    spec = GameSpec(variant, k)
                    hubs_first = Solver(spec, g)
                    index_order = Solver(spec, g)
                    # a copy: the engine is cached and shared with hubs_first
                    index_order.eng = copy.copy(index_order.eng)
                    index_order.eng.search_order = tuple(range(g.n))
                    assert hubs_first.winner() is index_order.winner(), (
                        g.edges, variant, k
                    )
                    checked += 1
        assert checked == 2185


class TestRuleAblation:
    """Each exact rule of the arboricity engine's ``assess`` must fire on
    these cases, and switching it off must not change a winner. The cases
    are every connected graph with n <= 5 at every k of its default range,
    and every connected graph with n = 6 at k = 2, where a rule that took
    parallel edges for bridges first erred. A capacity of ``m`` switches off
    the capacity bound and, with it, the wasting-move lookahead that only
    runs where the bound is tight. The kill, the bound and the lookahead
    only declare Breaker wins, and the safe-edge rule only Maker wins, so
    the cases include winners of both sides."""

    RULES = {
        "_kill_available": (lambda self, pos: False, lambda self, pos, r: r),
        # the bound fires where fewer than the u uncoloured edges fit
        "_remaining_capacity": (
            lambda self, pos: self.m,
            lambda self, pos, r: r < self.m - pos.count,
        ),
        "_waste_available": (lambda self, pos: False, lambda self, pos, r: r),
        "_all_safe": (lambda self, pos: False, lambda self, pos, r: r),
    }

    @pytest.mark.parametrize("name", list(RULES))
    def test_winners_match_without_the_rule(self, monkeypatch, name):
        from mbgames.rules import _ArboricityEngine

        cases = [
            (g, k)
            for n in range(1, 6)
            for g in enumerate_graphs(n, connected_only=True)
            for k in range(1, max(g.m, 1) + 1)
        ]
        cases += [(g, 2) for g in enumerate_graphs(6, connected_only=True)]

        def winners():
            return [
                Solver(GameSpec(Variant.ARBORICITY, k), g).winner() for g, k in cases
            ]

        off, fires = self.RULES[name]
        rule = getattr(_ArboricityEngine, name)
        fired = 0

        def counted(self, pos):
            nonlocal fired
            result = rule(self, pos)
            fired += bool(fires(self, pos, result))
            return result

        monkeypatch.setattr(_ArboricityEngine, name, counted)
        with_rule = winners()
        monkeypatch.setattr(_ArboricityEngine, name, off)
        assert winners() == with_rule
        assert {Status.MAKER_WIN, Status.BREAKER_WIN} <= set(with_rule)
        assert fired > 0 and len(cases) == 274


class TestOverfullGames:
    """With c components and m > k(n - c), no k forests hold every edge, so
    the arboricity capacity bound settles the root: the solve searches no
    node and stores no entry, and ``assess`` calls every position two moves
    in or fewer a Breaker win. K5 and two disjoint K4s (c = 2), at k = 1."""

    K4 = complete(4).edges
    TWO_K4 = Graph(8, K4 + tuple((u + 4, v + 4) for u, v in K4))

    @pytest.mark.parametrize("g", [complete(5), TWO_K4], ids=["K5", "2K4"])
    def test_breaker_wins_at_the_root(self, g):
        spec = GameSpec(Variant.ARBORICITY, 1)
        result = solve(spec, g)
        assert (result.winner, result.nodes_searched, result.table_entries) == (
            Status.BREAKER_WIN, 0, 0
        )
        eng = engine(spec, g)
        level = [eng.initial()]
        for _ in range(3):
            assert all(eng.assess(pos) is Status.BREAKER_WIN for pos in level)
            level = [child for pos in level for _, child in eng.children(pos)]


class TestEachPositionBuiltOnce:
    """The arboricity solver looks each child's key up before building it,
    and stores every position it builds, whether ``assess`` settles it or it
    is searched: no key is built twice, and the table holds one entry per
    built child plus the root's."""

    @pytest.mark.parametrize("g6, k", [("E^~w", 3), ("FDZJw", 2)])
    def test_no_key_built_twice(self, monkeypatch, g6, k):
        keys = []
        child = rules._ArboricityEngine._child

        def recorded(eng, pos, i, c):
            built = child(eng, pos, i, c)
            keys.append(eng.canonical_key(built))
            return built

        monkeypatch.setattr(rules._ArboricityEngine, "_child", recorded)
        result = solve(GameSpec(Variant.ARBORICITY, k), parse_graph6(g6))
        assert result.nodes_searched > 0
        assert len(set(keys)) == len(keys)
        assert result.table_entries == len(keys) + 1


def _pinned_instance(name):
    if name == "fig3":
        return fig3_graph()
    if name == "thm14(4,5)":
        return theorem14_graph(4, 5)
    if name == "H_2":
        return h_r(2)
    if name == "fig4":
        return fig4_graph()[0]
    if name == "K5":
        return complete(5)
    return parse_graph6(name)


class TestPinnedCounts:
    """Exact search counts of fixed instances. Node and table counts are
    deterministic, so a refactor of the rules layer or the solver that
    changes the winner or the node count has changed what the search
    visits. Table entries and hits also move when what the table stores
    does, as when positions settled by ``assess`` began to be stored."""

    @pytest.mark.parametrize(
        "graph, variant, k, winner, nodes, entries, table_hits",
        [
            ("fig3", Variant.VERTEX, 4, Status.MAKER_WIN, 35, 35, 4),
            ("fig3", Variant.CONNECTED_VERTEX, 4, Status.BREAKER_WIN, 58, 58, 13),
            ("fig3", Variant.CONNECTED_VERTEX, 5, Status.MAKER_WIN, 6, 6, 0),
            ("thm14(4,5)", Variant.ORDERED_VERTEX, 5, Status.BREAKER_WIN, 27, 27, 0),
            ("H_2", Variant.ORDERED_VERTEX, 4, Status.BREAKER_WIN, 61, 61, 0),
            ("fig4", Variant.CONNECTED_MARKING, 2, Status.MAKER_WIN, 60, 60, 40),
            ("fig3", Variant.GREEDY, 3, Status.BREAKER_WIN, 17, 17, 0),
            ("K5", Variant.ARBORICITY, 3, Status.MAKER_WIN, 174, 326, 307),
            ("E^~w", Variant.ARBORICITY, 4, Status.MAKER_WIN, 8662, 21601, 20472),
            ("E~~w", Variant.ARBORICITY, 3, Status.BREAKER_WIN, 12128, 23704, 33516),
        ],
    )
    def test_counts(self, graph, variant, k, winner, nodes, entries, table_hits):
        result = solve(GameSpec(variant, k), _pinned_instance(graph))
        assert (
            result.winner, result.nodes_searched, result.table_entries,
            result.table_hits,
        ) == (winner, nodes, entries, table_hits)
