import itertools

import pytest

from mbgames.families import complete, edgeless, fig3_graph, fig4_graph, h_r, path
from mbgames.graphs import ColourComponents, Graph, identity_ordering
from mbgames.rules import (
    GameSpec,
    IllegalMoveError,
    Move,
    Player,
    RulesError,
    Status,
    Variant,
    apply,
    canonical_key,
    engine,
    initial_position,
    legal_moves,
    status,
    to_move,
)

K3 = complete(3)


def play(spec, g, moves):
    pos = initial_position(spec, g)
    for m in moves:
        pos = apply(spec, g, pos, m)
    return pos


class TestSpecValidation:
    def test_negative_k(self):
        with pytest.raises(RulesError):
            GameSpec(Variant.VERTEX, -1)

    def test_ordered_needs_ordering(self):
        with pytest.raises(RulesError, match="ordering"):
            GameSpec(Variant.ORDERED_VERTEX, 3)

    def test_unordered_rejects_ordering(self):
        with pytest.raises(RulesError):
            GameSpec(Variant.VERTEX, 3, (1, 2, 3))

    def test_connected_variant_rejects_disconnected(self):
        with pytest.raises(RulesError, match="connected"):
            initial_position(GameSpec(Variant.CONNECTED_VERTEX, 5), edgeless(2))

    def test_initial_is_empty(self):
        pos = initial_position(GameSpec(Variant.VERTEX, 3), K3)
        assert pos.count == 0
        assert to_move(pos) is Player.MAKER


class TestVertexGame:
    def test_legal_moves_after_opening(self):
        spec = GameSpec(Variant.VERTEX, 2)
        pos = play(spec, K3, [Move(vertex=1, colour=1)])
        assert legal_moves(spec, K3, pos) == [
            Move(vertex=2, colour=2),
            Move(vertex=3, colour=2),
        ]

    def test_blocked_vertex_is_breaker_win(self):
        spec = GameSpec(Variant.VERTEX, 2)
        pos = play(spec, K3, [Move(vertex=1, colour=1), Move(vertex=2, colour=2)])
        assert status(spec, K3, pos) is Status.BREAKER_WIN
        assert legal_moves(spec, K3, pos) == []

    def test_full_colouring_is_maker_win(self):
        spec = GameSpec(Variant.VERTEX, 3)
        pos = play(
            spec,
            K3,
            [Move(vertex=1, colour=1), Move(vertex=2, colour=2), Move(vertex=3, colour=3)],
        )
        assert status(spec, K3, pos) is Status.MAKER_WIN

    def test_permanence(self):
        spec = GameSpec(Variant.VERTEX, 2)
        pos = play(spec, K3, [Move(vertex=1, colour=1), Move(vertex=2, colour=2)])
        with pytest.raises(IllegalMoveError, match="already over"):
            apply(spec, K3, pos, Move(vertex=3, colour=1))

    def test_adjacent_same_colour_rejected(self):
        spec = GameSpec(Variant.VERTEX, 3)
        pos = play(spec, K3, [Move(vertex=1, colour=1)])
        with pytest.raises(IllegalMoveError, match="neighbour"):
            apply(spec, K3, pos, Move(vertex=2, colour=1))

    def test_recolour_rejected(self):
        spec = GameSpec(Variant.VERTEX, 3)
        pos = play(spec, K3, [Move(vertex=1, colour=1)])
        with pytest.raises(IllegalMoveError, match="already coloured"):
            apply(spec, K3, pos, Move(vertex=1, colour=2))

    def test_k0_is_immediate_breaker_win(self):
        spec = GameSpec(Variant.VERTEX, 0)
        assert status(spec, K3, initial_position(spec, K3)) is Status.BREAKER_WIN

    def test_empty_graph_is_maker_win(self):
        g = Graph(0, [])
        spec = GameSpec(Variant.VERTEX, 0)
        assert status(spec, g, initial_position(spec, g)) is Status.MAKER_WIN

    def test_turn_parity(self):
        spec = GameSpec(Variant.VERTEX, 4)
        g = path(4)
        pos = initial_position(spec, g)
        for t in range(4):
            assert to_move(pos) is (Player.MAKER if t % 2 == 0 else Player.BREAKER)
            pos = apply(spec, g, pos, legal_moves(spec, g, pos)[0])


class TestConnectedVertexGame:
    def test_moves_restricted_to_neighbourhood(self):
        g = path(4)
        spec = GameSpec(Variant.CONNECTED_VERTEX, 3)
        pos = play(spec, g, [Move(vertex=2, colour=1)])
        vertices = {m.vertex for m in legal_moves(spec, g, pos)}
        assert vertices == {1, 3}

    def test_first_move_unrestricted(self):
        g = path(4)
        spec = GameSpec(Variant.CONNECTED_VERTEX, 3)
        vertices = {m.vertex for m in legal_moves(spec, g, initial_position(spec, g))}
        assert vertices == {1, 2, 3, 4}

    def test_nonadjacent_rejected(self):
        g = path(4)
        spec = GameSpec(Variant.CONNECTED_VERTEX, 3)
        pos = play(spec, g, [Move(vertex=1, colour=1)])
        with pytest.raises(IllegalMoveError, match="adjacent"):
            apply(spec, g, pos, Move(vertex=3, colour=1))


class TestOrderedVertexGame:
    def test_lemma_opening_colours(self):
        og = h_r(1)
        spec = GameSpec(Variant.ORDERED_VERTEX, 3, og.ordering)
        pos = play(spec, og.graph, [Move(colour=1), Move(colour=2)])
        # vertex 3 is adjacent to vertex 1 (colour 1) only
        assert legal_moves(spec, og.graph, pos) == [Move(colour=2), Move(colour=3)]

    def test_move_applies_to_next_in_order(self):
        og = h_r(1)
        spec = GameSpec(Variant.ORDERED_VERTEX, 3, og.ordering)
        pos = play(spec, og.graph, [Move(colour=1), Move(colour=2), Move(colour=3), Move(colour=2)])
        assert pos.colour(4) == 2

    def test_out_of_order_vertex_rejected(self):
        og = h_r(1)
        spec = GameSpec(Variant.ORDERED_VERTEX, 3, og.ordering)
        pos = initial_position(spec, og.graph)
        with pytest.raises(IllegalMoveError, match="out of order"):
            apply(spec, og.graph, pos, Move(vertex=5, colour=1))

    def test_prefix_invariant(self):
        og = h_r(1)
        spec = GameSpec(Variant.ORDERED_VERTEX, 3, og.ordering)
        pos = play(spec, og.graph, [Move(colour=1), Move(colour=2)])
        assert [pos.colour(v) for v in range(1, 10)] == [1, 2, 0, 0, 0, 0, 0, 0, 0]


class TestGreedyGame:
    def test_colour_is_first_fit(self):
        g = path(3)  # edges 1-2, 2-3
        spec = GameSpec(Variant.GREEDY, 3)
        pos = play(spec, g, [Move(vertex=1), Move(vertex=2)])
        assert pos.colour(1) == 1
        assert pos.colour(2) == 2
        pos = apply(spec, g, pos, Move(vertex=3))
        assert pos.colour(3) == 1

    def test_moves_carry_no_colour(self):
        spec = GameSpec(Variant.GREEDY, 3)
        pos = initial_position(spec, K3)
        with pytest.raises(IllegalMoveError, match="forced"):
            apply(spec, K3, pos, Move(vertex=1, colour=2))

    def test_forced_colour_three_when_two_blocked(self):
        og = h_r(1)
        g = og.graph
        spec = GameSpec(Variant.GREEDY, 3)
        # colour 9's neighbours 1 and 2 first: first-fit gives them 1 and 2
        pos = play(spec, g, [Move(vertex=1), Move(vertex=2)])
        pos = apply(spec, g, pos, Move(vertex=9))
        assert pos.colour(9) == 3

    def test_greedy_ignores_connectivity(self):
        g = path(4)
        spec = GameSpec(Variant.GREEDY, 2)
        pos = play(spec, g, [Move(vertex=1)])
        vertices = {m.vertex for m in legal_moves(spec, g, pos)}
        assert vertices == {2, 3, 4}


class TestOrderedGreedyGame:
    def test_fully_forced(self):
        og = h_r(1)
        spec = GameSpec(Variant.ORDERED_GREEDY, 3, og.ordering)
        pos = initial_position(spec, og.graph)
        assert legal_moves(spec, og.graph, pos) == [Move()]
        for _ in range(8):
            pos = apply(spec, og.graph, pos, Move())
        assert tuple(pos.colours[:8]) == (1, 2, 2, 1, 1, 2, 1, 3)
        assert status(spec, og.graph, pos) is Status.BREAKER_WIN


class TestArboricityGame:
    def test_monochromatic_cycle_blocked(self):
        spec = GameSpec(Variant.ARBORICITY, 1)
        pos = play(
            spec, K3,
            [Move(edge=(1, 2), colour=1), Move(edge=(2, 3), colour=1)],
        )
        assert status(spec, K3, pos) is Status.BREAKER_WIN
        assert legal_moves(spec, K3, pos) == []

    def test_cycle_closing_move_rejected(self):
        spec = GameSpec(Variant.ARBORICITY, 2)
        pos = play(
            spec, K3,
            [Move(edge=(1, 2), colour=1), Move(edge=(2, 3), colour=1)],
        )
        with pytest.raises(IllegalMoveError, match="cycle"):
            apply(spec, K3, pos, Move(edge=(1, 3), colour=1))
        pos = apply(spec, K3, pos, Move(edge=(1, 3), colour=2))
        assert status(spec, K3, pos) is Status.MAKER_WIN

    def test_second_colour_keeps_classes_forests(self):
        spec = GameSpec(Variant.ARBORICITY, 2)
        pos = play(
            spec, K3,
            [Move(edge=(1, 3), colour=1), Move(edge=(2, 3), colour=1)],
        )
        pos = apply(spec, K3, pos, Move(edge=(1, 2), colour=2))
        comps = pos.components
        assert comps.same_component(1, 1, 2)
        assert comps.same_component(2, 1, 2)
        assert not comps.same_component(2, 1, 3)

    def test_components_match_fresh_recomputation(self):
        g = complete(4)
        spec = GameSpec(Variant.ARBORICITY, 2)
        pos = initial_position(spec, g)
        eng = engine(spec, g)
        for move in [
            Move(edge=(1, 2), colour=1),
            Move(edge=(3, 4), colour=1),
            Move(edge=(1, 3), colour=2),
            Move(edge=(2, 3), colour=1),
        ]:
            pos = apply(spec, g, pos, move)
            fresh = ColourComponents.from_edge_colours(g, pos.edge_colours, spec.k)
            assert fresh.reps == pos.components.reps

    def test_unknown_edge_rejected(self):
        g = path(3)
        spec = GameSpec(Variant.ARBORICITY, 1)
        pos = initial_position(spec, g)
        with pytest.raises(IllegalMoveError, match="not in the graph"):
            apply(spec, g, pos, Move(edge=(1, 3), colour=1))


class TestMarkingGame:
    def test_any_unmarked_vertex_is_legal(self):
        g = path(3)
        spec = GameSpec(Variant.MARKING, 1)
        pos = play(spec, g, [Move(vertex=2)])
        assert {m.vertex for m in legal_moves(spec, g, pos)} == {1, 3}

    def test_violation_latches_breaker_win(self):
        g, _ = fig4_graph()
        spec = GameSpec(Variant.CONNECTED_MARKING, 2)
        # walk 2-6-7-8 marks three of vertex 1's neighbours (2, 6, 8)
        pos = play(spec, g, [Move(vertex=2), Move(vertex=6), Move(vertex=7)])
        pos = apply(spec, g, pos, Move(vertex=8))
        assert status(spec, g, pos) is Status.ONGOING
        pos = apply(spec, g, pos, Move(vertex=1))
        assert pos.lost
        assert status(spec, g, pos) is Status.BREAKER_WIN

    def test_violation_counts_for_either_mover(self):
        # Breaker marking the over-degree vertex still ends the game
        g = complete(4)
        spec = GameSpec(Variant.MARKING, 1)
        pos = play(spec, g, [Move(vertex=1), Move(vertex=2)])
        pos = apply(spec, g, pos, Move(vertex=3))  # Maker's mark: 2 marked nbrs
        assert status(spec, g, pos) is Status.BREAKER_WIN

    def test_all_marked_within_bound_is_maker_win(self):
        g = path(3)
        spec = GameSpec(Variant.MARKING, 1)
        # marking the middle vertex first keeps every back-degree at most 1
        pos = play(spec, g, [Move(vertex=2), Move(vertex=1), Move(vertex=3)])
        assert status(spec, g, pos) is Status.MAKER_WIN

    def test_connected_marking_restricts_moves(self):
        g = path(4)
        spec = GameSpec(Variant.CONNECTED_MARKING, 3)
        pos = play(spec, g, [Move(vertex=1)])
        assert {m.vertex for m in legal_moves(spec, g, pos)} == {2}

    def test_bound_zero_on_edgeless_graph(self):
        g = edgeless(3)
        spec = GameSpec(Variant.MARKING, 0)
        pos = play(spec, g, [Move(vertex=1), Move(vertex=2), Move(vertex=3)])
        assert status(spec, g, pos) is Status.MAKER_WIN


class TestCanonicalKeys:
    def test_vertex_colour_swap_same_key(self):
        spec = GameSpec(Variant.VERTEX, 3)
        g = path(3)
        a = play(spec, g, [Move(vertex=1, colour=1), Move(vertex=2, colour=2)])
        b = play(spec, g, [Move(vertex=1, colour=2), Move(vertex=2, colour=1)])
        assert canonical_key(spec, g, a) == canonical_key(spec, g, b)

    def test_vertex_different_pattern_different_key(self):
        spec = GameSpec(Variant.VERTEX, 3)
        g = path(3)
        a = play(spec, g, [Move(vertex=1, colour=1), Move(vertex=2, colour=2)])
        b = play(spec, g, [Move(vertex=1, colour=1), Move(vertex=3, colour=2)])
        assert canonical_key(spec, g, a) != canonical_key(spec, g, b)

    def test_greedy_keys_are_identity(self):
        spec = GameSpec(Variant.GREEDY, 3)
        g = path(3)
        a = play(spec, g, [Move(vertex=1)])   # vertex 1 takes colour 1
        b = play(spec, g, [Move(vertex=3)])   # vertex 3 takes colour 1
        assert canonical_key(spec, g, a) != canonical_key(spec, g, b)

    def test_arboricity_colour_swap_same_key(self):
        spec = GameSpec(Variant.ARBORICITY, 2)
        a = play(spec, K3, [Move(edge=(1, 2), colour=1)])
        b = play(spec, K3, [Move(edge=(1, 2), colour=2)])
        assert canonical_key(spec, K3, a) == canonical_key(spec, K3, b)

    def test_marking_key_distinguishes_lost_flag(self):
        g = complete(3)
        spec = GameSpec(Variant.MARKING, 0)
        ongoing = play(spec, g, [Move(vertex=1)])
        assert canonical_key(spec, g, ongoing) == 0b001 << 1


class TestNonStalemate:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_random_playouts_never_stall(self, variant):
        import random

        rng = random.Random(11)
        g = complete(4) if not variant.ordered else h_r(1).graph
        n = g.n
        ordering = tuple(range(1, n + 1)) if variant.ordered else None
        for k in (1, 2, 3):
            spec = GameSpec(variant, k, ordering)
            pos = initial_position(spec, g)
            for _ in range(g.n + g.m + 1):
                st = status(spec, g, pos)
                moves = legal_moves(spec, g, pos)
                if st is not Status.ONGOING:
                    assert moves == []
                    break
                assert moves, f"stalemate in {variant} k={k}"
                pos = apply(spec, g, pos, rng.choice(moves))
            else:
                pytest.fail("game did not terminate")


def _syntactic_moves(spec, g):
    """Every move of the variant's payload shape, in (element, colour)
    order, including elements and colours just outside their ranges; built
    from the graph alone, without the engine's move generator."""
    variant = spec.variant
    vertices = range(0, g.n + 2)
    colours = range(0, spec.k + 2)
    if variant is Variant.ARBORICITY:
        pairs = itertools.combinations(range(1, g.n + 1), 2)
        return [Move(edge=e, colour=c) for e in pairs for c in colours]
    if variant.marking or variant is Variant.GREEDY:
        return [Move(vertex=v) for v in vertices]
    if variant is Variant.ORDERED_GREEDY:
        return [Move()]
    if variant is Variant.ORDERED_VERTEX:
        return [Move(colour=c) for c in colours]
    return [Move(vertex=v, colour=c) for v in vertices for c in colours]


def _state(pos):
    """Everything that tells two positions of one game apart."""
    for field in ("colours", "edge_colours"):
        if hasattr(pos, field):
            return getattr(pos, field)
    return pos.marked, pos.lost


class TestMoveOracle:
    """legal_moves, children and search_children against a move list that
    does not share the engine's generator: every payload ``apply`` accepts."""

    GRAPHS = {
        "K4": complete(4),
        "P5": path(5),
        "fig3": fig3_graph(),
        "H_1": h_r(1).graph,
    }

    @pytest.mark.parametrize("graph", list(GRAPHS))
    @pytest.mark.parametrize("variant", list(Variant))
    def test_generators_match_apply(self, variant, graph):
        import random

        g = self.GRAPHS[graph]
        ordering = identity_ordering(g.n) if variant.ordered else None
        rng = random.Random(f"{variant.value}/{graph}")
        checked = 0
        for k in (1, 2, 3):
            spec = GameSpec(variant, k, ordering)
            eng = engine(spec, g)
            syntactic = _syntactic_moves(spec, g)
            for _ in range(3):
                pos = eng.initial()
                while eng.status(pos) is Status.ONGOING:
                    accepted = []
                    for move in syntactic:
                        try:
                            eng.apply(pos, move)
                        except IllegalMoveError:
                            continue
                        accepted.append(move)
                    moves = eng.legal_moves(pos)
                    assert moves == accepted
                    children = list(eng.children(pos))
                    assert [move for move, _ in children] == moves
                    for move, child in children:
                        assert _state(child) == _state(eng.apply(pos, move))
                    states = iter([_state(child) for _, child in children])
                    reduced = list(eng.search_children(pos))
                    # a subsequence: each reduced child is found, in order
                    assert all(_state(child) in states for child in reduced)
                    if variant.colour_symmetric:
                        assert {eng.canonical_key(c) for c in reduced} == {
                            eng.canonical_key(c) for _, c in children
                        }
                    else:
                        assert len(reduced) == len(children)
                    checked += 1
                    pos = eng.apply(pos, rng.choice(moves))
        assert checked > 0
