import itertools
import random
import re

import pytest

from mbgames.families import (
    complete,
    edgeless,
    fig3_graph,
    fig4_graph,
    h_r,
    path,
    star,
)
from mbgames.graphs import Graph, parse_graph6
from mbgames.rules import (
    GameSpec,
    IllegalMoveError,
    Move,
    Player,
    RulesError,
    Status,
    Variant,
    engine,
    to_move,
)
from mbgames.search import enumerate_graphs

from components_oracle import from_edge_colours, same_component

K3 = complete(3)


def play(eng, moves):
    pos = eng.initial()
    for m in moves:
        pos = eng.apply(pos, m)
    return pos


class TestSpecValidation:
    def test_negative_k(self):
        with pytest.raises(RulesError):
            GameSpec(Variant.VERTEX, -1)

    def test_connected_variant_rejects_disconnected(self):
        with pytest.raises(RulesError, match="connected"):
            engine(GameSpec(Variant.CONNECTED_VERTEX, 5), edgeless(2)).initial()

    def test_initial_is_empty(self):
        pos = engine(GameSpec(Variant.VERTEX, 3), K3).initial()
        assert pos.count == 0
        assert to_move(pos) is Player.MAKER


class TestVertexGame:
    def test_legal_moves_after_opening(self):
        eng = engine(GameSpec(Variant.VERTEX, 2), K3)
        pos = play(eng, [Move(vertex=1, colour=1)])
        assert eng.legal_moves(pos) == [
            Move(vertex=2, colour=2),
            Move(vertex=3, colour=2),
        ]

    def test_blocked_vertex_is_breaker_win(self):
        eng = engine(GameSpec(Variant.VERTEX, 2), K3)
        pos = play(eng, [Move(vertex=1, colour=1), Move(vertex=2, colour=2)])
        assert eng.status(pos) is Status.BREAKER_WIN
        assert eng.legal_moves(pos) == []

    def test_full_colouring_is_maker_win(self):
        eng = engine(GameSpec(Variant.VERTEX, 3), K3)
        pos = play(
            eng,
            [Move(vertex=1, colour=1), Move(vertex=2, colour=2), Move(vertex=3, colour=3)],
        )
        assert eng.status(pos) is Status.MAKER_WIN

    def test_permanence(self):
        eng = engine(GameSpec(Variant.VERTEX, 2), K3)
        pos = play(eng, [Move(vertex=1, colour=1), Move(vertex=2, colour=2)])
        with pytest.raises(IllegalMoveError, match="already over"):
            eng.apply(pos, Move(vertex=3, colour=1))

    def test_adjacent_same_colour_rejected(self):
        eng = engine(GameSpec(Variant.VERTEX, 3), K3)
        pos = play(eng, [Move(vertex=1, colour=1)])
        with pytest.raises(
            IllegalMoveError,
            match="^v2=1 is not legal; the legal moves at vertex 2: v2=2, v2=3$",
        ):
            eng.apply(pos, Move(vertex=2, colour=1))

    def test_recolour_rejected(self):
        eng = engine(GameSpec(Variant.VERTEX, 3), K3)
        pos = play(eng, [Move(vertex=1, colour=1)])
        with pytest.raises(
            IllegalMoveError, match="^v1=2 is not legal; the legal moves at vertex 1: none$"
        ):
            eng.apply(pos, Move(vertex=1, colour=2))

    def test_k0_is_immediate_breaker_win(self):
        eng = engine(GameSpec(Variant.VERTEX, 0), K3)
        assert eng.status(eng.initial()) is Status.BREAKER_WIN

    def test_empty_graph_is_maker_win(self):
        eng = engine(GameSpec(Variant.VERTEX, 0), Graph(0, []))
        assert eng.status(eng.initial()) is Status.MAKER_WIN

    def test_turn_parity(self):
        eng = engine(GameSpec(Variant.VERTEX, 4), path(4))
        pos = eng.initial()
        for t in range(4):
            assert to_move(pos) is (Player.MAKER if t % 2 == 0 else Player.BREAKER)
            pos = eng.apply(pos, eng.legal_moves(pos)[0])


class TestConnectedVertexGame:
    def test_moves_restricted_to_neighbourhood(self):
        eng = engine(GameSpec(Variant.CONNECTED_VERTEX, 3), path(4))
        pos = play(eng, [Move(vertex=2, colour=1)])
        vertices = {m.vertex for m in eng.legal_moves(pos)}
        assert vertices == {1, 3}

    def test_first_move_unrestricted(self):
        eng = engine(GameSpec(Variant.CONNECTED_VERTEX, 3), path(4))
        vertices = {m.vertex for m in eng.legal_moves(eng.initial())}
        assert vertices == {1, 2, 3, 4}

    def test_nonadjacent_rejected(self):
        eng = engine(GameSpec(Variant.CONNECTED_VERTEX, 3), path(4))
        pos = play(eng, [Move(vertex=1, colour=1)])
        with pytest.raises(
            IllegalMoveError, match="^v3=1 is not legal; the legal moves at vertex 3: none$"
        ):
            eng.apply(pos, Move(vertex=3, colour=1))


class TestOrderedVertexGame:
    def test_lemma_opening_colours(self):
        eng = engine(GameSpec(Variant.ORDERED_VERTEX, 3), h_r(1))
        pos = play(eng, [Move(colour=1), Move(colour=2)])
        # vertex 3 is adjacent to vertex 1 (colour 1) only
        assert eng.legal_moves(pos) == [Move(colour=2), Move(colour=3)]

    def test_move_applies_to_next_in_order(self):
        eng = engine(GameSpec(Variant.ORDERED_VERTEX, 3), h_r(1))
        pos = play(eng, [Move(colour=1), Move(colour=2), Move(colour=3), Move(colour=2)])
        assert pos.colour(4) == 2

    def test_out_of_order_vertex_rejected(self):
        eng = engine(GameSpec(Variant.ORDERED_VERTEX, 3), h_r(1))
        with pytest.raises(IllegalMoveError, match="out of order"):
            eng.apply(eng.initial(), Move(vertex=5, colour=1))

    def test_prefix_invariant(self):
        eng = engine(GameSpec(Variant.ORDERED_VERTEX, 3), h_r(1))
        pos = play(eng, [Move(colour=1), Move(colour=2)])
        assert [pos.colour(v) for v in range(1, 10)] == [1, 2, 0, 0, 0, 0, 0, 0, 0]


class TestGreedyGame:
    def test_colour_is_first_fit(self):
        eng = engine(GameSpec(Variant.GREEDY, 3), path(3))  # edges 1-2, 2-3
        pos = play(eng, [Move(vertex=1), Move(vertex=2)])
        assert pos.colour(1) == 1
        assert pos.colour(2) == 2
        pos = eng.apply(pos, Move(vertex=3))
        assert pos.colour(3) == 1

    def test_moves_carry_no_colour(self):
        eng = engine(GameSpec(Variant.GREEDY, 3), K3)
        with pytest.raises(IllegalMoveError, match="forced"):
            eng.apply(eng.initial(), Move(vertex=1, colour=2))

    def test_forced_colour_three_when_two_blocked(self):
        eng = engine(GameSpec(Variant.GREEDY, 3), h_r(1))
        # colour 9's neighbours 1 and 2 first: first-fit gives them 1 and 2
        pos = play(eng, [Move(vertex=1), Move(vertex=2)])
        pos = eng.apply(pos, Move(vertex=9))
        assert pos.colour(9) == 3

    def test_greedy_ignores_connectivity(self):
        eng = engine(GameSpec(Variant.GREEDY, 2), path(4))
        pos = play(eng, [Move(vertex=1)])
        vertices = {m.vertex for m in eng.legal_moves(pos)}
        assert vertices == {2, 3, 4}


class TestOrderedGreedyGame:
    def test_fully_forced(self):
        eng = engine(GameSpec(Variant.ORDERED_GREEDY, 3), h_r(1))
        pos = eng.initial()
        assert eng.legal_moves(pos) == [Move()]
        for _ in range(8):
            pos = eng.apply(pos, Move())
        assert tuple(pos.colours[:8]) == (1, 2, 2, 1, 1, 2, 1, 3)
        assert eng.status(pos) is Status.BREAKER_WIN


class TestArboricityGame:
    def test_monochromatic_cycle_blocked(self):
        eng = engine(GameSpec(Variant.ARBORICITY, 1), K3)
        pos = play(eng, [Move(edge=(1, 2), colour=1), Move(edge=(2, 3), colour=1)])
        assert eng.status(pos) is Status.BREAKER_WIN
        assert eng.legal_moves(pos) == []

    def test_cycle_closing_move_rejected(self):
        eng = engine(GameSpec(Variant.ARBORICITY, 2), K3)
        pos = play(eng, [Move(edge=(1, 2), colour=1), Move(edge=(2, 3), colour=1)])
        with pytest.raises(
            IllegalMoveError,
            match=re.escape("e1-3=1 is not legal; the legal moves at edge (1,3): e1-3=2"),
        ):
            eng.apply(pos, Move(edge=(1, 3), colour=1))
        pos = eng.apply(pos, Move(edge=(1, 3), colour=2))
        assert eng.status(pos) is Status.MAKER_WIN

    def test_second_colour_keeps_classes_forests(self):
        eng = engine(GameSpec(Variant.ARBORICITY, 2), K3)
        pos = play(eng, [Move(edge=(1, 3), colour=1), Move(edge=(2, 3), colour=1)])
        pos = eng.apply(pos, Move(edge=(1, 2), colour=2))
        comps = pos.components
        assert same_component(comps, 1, 1, 2)
        assert same_component(comps, 2, 1, 2)
        assert not same_component(comps, 2, 1, 3)

    def test_components_match_fresh_recomputation(self):
        g = complete(4)
        spec = GameSpec(Variant.ARBORICITY, 2)
        eng = engine(spec, g)
        pos = eng.initial()
        for move in [
            Move(edge=(1, 2), colour=1),
            Move(edge=(3, 4), colour=1),
            Move(edge=(1, 3), colour=2),
            Move(edge=(2, 3), colour=1),
        ]:
            pos = eng.apply(pos, move)
            fresh = from_edge_colours(g, pos.edge_colours, spec.k)
            assert fresh.reps == pos.components.reps

    def test_unknown_edge_rejected(self):
        eng = engine(GameSpec(Variant.ARBORICITY, 1), path(3))
        with pytest.raises(IllegalMoveError, match="not in the graph"):
            eng.apply(eng.initial(), Move(edge=(1, 3), colour=1))


class TestMarkingGame:
    def test_any_unmarked_vertex_is_legal(self):
        eng = engine(GameSpec(Variant.MARKING, 1), path(3))
        pos = play(eng, [Move(vertex=2)])
        assert {m.vertex for m in eng.legal_moves(pos)} == {1, 3}

    def test_violation_latches_breaker_win(self):
        g, _ = fig4_graph()
        eng = engine(GameSpec(Variant.CONNECTED_MARKING, 2), g)
        # walk 2-6-7-8 marks three of vertex 1's neighbours (2, 6, 8)
        pos = play(eng, [Move(vertex=2), Move(vertex=6), Move(vertex=7)])
        pos = eng.apply(pos, Move(vertex=8))
        assert eng.status(pos) is Status.ONGOING
        pos = eng.apply(pos, Move(vertex=1))
        assert pos.lost
        assert eng.status(pos) is Status.BREAKER_WIN

    def test_violation_counts_for_either_mover(self):
        # Breaker marking the over-degree vertex still ends the game
        eng = engine(GameSpec(Variant.MARKING, 1), complete(4))
        pos = play(eng, [Move(vertex=1), Move(vertex=2)])
        pos = eng.apply(pos, Move(vertex=3))  # Maker's mark: 2 marked nbrs
        assert eng.status(pos) is Status.BREAKER_WIN

    def test_all_marked_within_bound_is_maker_win(self):
        eng = engine(GameSpec(Variant.MARKING, 1), path(3))
        # marking the middle vertex first keeps every back-degree at most 1
        pos = play(eng, [Move(vertex=2), Move(vertex=1), Move(vertex=3)])
        assert eng.status(pos) is Status.MAKER_WIN

    def test_connected_marking_restricts_moves(self):
        eng = engine(GameSpec(Variant.CONNECTED_MARKING, 3), path(4))
        pos = play(eng, [Move(vertex=1)])
        assert {m.vertex for m in eng.legal_moves(pos)} == {2}

    def test_bound_zero_on_edgeless_graph(self):
        eng = engine(GameSpec(Variant.MARKING, 0), edgeless(3))
        pos = play(eng, [Move(vertex=1), Move(vertex=2), Move(vertex=3)])
        assert eng.status(pos) is Status.MAKER_WIN


class TestCanonicalKeys:
    def test_vertex_colour_swap_same_key(self):
        eng = engine(GameSpec(Variant.VERTEX, 3), path(3))
        a = play(eng, [Move(vertex=1, colour=1), Move(vertex=2, colour=2)])
        b = play(eng, [Move(vertex=1, colour=2), Move(vertex=2, colour=1)])
        assert eng.canonical_key(a) == eng.canonical_key(b)

    def test_vertex_different_pattern_different_key(self):
        eng = engine(GameSpec(Variant.VERTEX, 3), path(3))
        a = play(eng, [Move(vertex=1, colour=1), Move(vertex=2, colour=2)])
        b = play(eng, [Move(vertex=1, colour=1), Move(vertex=3, colour=2)])
        assert eng.canonical_key(a) != eng.canonical_key(b)

    def test_greedy_keys_are_identity(self):
        eng = engine(GameSpec(Variant.GREEDY, 3), path(3))
        a = play(eng, [Move(vertex=1)])   # vertex 1 takes colour 1
        b = play(eng, [Move(vertex=3)])   # vertex 3 takes colour 1
        assert eng.canonical_key(a) != eng.canonical_key(b)

    def test_arboricity_colour_swap_same_key(self):
        eng = engine(GameSpec(Variant.ARBORICITY, 2), K3)
        a = play(eng, [Move(edge=(1, 2), colour=1)])
        b = play(eng, [Move(edge=(1, 2), colour=2)])
        assert eng.canonical_key(a) == eng.canonical_key(b)

    def test_marking_key_distinguishes_lost_flag(self):
        eng = engine(GameSpec(Variant.MARKING, 0), complete(3))
        ongoing = play(eng, [Move(vertex=1)])
        assert eng.canonical_key(ongoing) == 0b001 << 1


class TestNonStalemate:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_random_playouts_never_stall(self, variant):
        rng = random.Random(11)
        g = complete(4) if not variant.ordered else h_r(1)
        for k in (1, 2, 3):
            eng = engine(GameSpec(variant, k), g)
            pos = eng.initial()
            for _ in range(g.n + g.m + 1):
                st = eng.status(pos)
                moves = eng.legal_moves(pos)
                if st is not Status.ONGOING:
                    assert moves == []
                    break
                assert moves, f"stalemate in {variant} k={k}"
                pos = eng.apply(pos, rng.choice(moves))
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


def _played_vertex(pos, child):
    """The 0-based vertex a vertex-game move from ``pos`` to ``child`` colours."""
    return (child.played & ~pos.played).bit_length() - 1


def _joined(g, colour, u, v, c):
    """u and v are joined by a path of edges that ``colour`` (a map from each
    edge of ``g`` to its colour, 0 for none) colours c."""
    reached, stack = {u}, [u]
    while stack:
        x = stack.pop()
        for y in g.neighbours(x) - reached:
            if colour[min(x, y), max(x, y)] == c:
                reached.add(y)
                stack.append(y)
    return v in reached


def _legal_from_scratch(spec, g, pos, move):
    """Whether ``move`` is legal at the ongoing position ``pos``, from the game
    definitions alone. It reads the graph, the spec and the position's
    colouring or marked set, and nothing the engine derives from them."""
    variant = spec.variant
    k = spec.k
    if variant.plays_edges:
        colour = dict(zip(g.edges, pos.edge_colours))
        c = move.colour
        return (
            move.vertex is None
            and colour.get(move.edge) == 0
            and c is not None
            and 1 <= c <= k
            # a colour class stays a forest: no c-path joins the endpoints
            and not _joined(g, colour, *move.edge, c)
        )
    if move.edge is not None:
        return False
    vertices = range(1, g.n + 1)
    if variant.marking:
        taken = {v for v in vertices if pos.marked >> (v - 1) & 1}
    else:
        taken = {v for v in vertices if pos.colours[v - 1]}
    if variant.ordered:
        v = len(taken) + 1
        if move.vertex not in (None, v):
            return False
    else:
        v = move.vertex
        if v not in vertices or v in taken:
            return False
        if variant.connectivity_restricted and taken and not g.neighbours(v) & taken:
            return False
    if variant.marking:
        return move.colour is None
    used = {pos.colours[u - 1] for u in g.neighbours(v)}
    if variant.greedy:
        first_fit = min(set(range(1, k + 2)) - used)
        return move.colour is None and first_fit <= k
    return move.colour in range(1, k + 1) and move.colour not in used


def _terminal_status(spec, g, pos, marks):
    """The end-of-game test from scratch: Breaker has won once some element
    is unplayable, Maker once every element is played. It reads the graph,
    the position's colouring and, in marking games, the order of the marks."""
    k = spec.k
    if spec.variant.marking:
        marked = set()
        for v in marks:
            if len(g.neighbours(v) & marked) > k:
                return Status.BREAKER_WIN
            marked.add(v)
        return Status.MAKER_WIN if len(marked) == g.n else Status.ONGOING
    if spec.variant.plays_edges:
        colour = dict(zip(g.edges, pos.edge_colours))
        uncoloured = [e for e in g.edges if not colour[e]]
        dead = any(
            all(_joined(g, colour, u, v, c) for c in range(1, k + 1))
            for u, v in uncoloured
        )
    else:
        colours = pos.colours
        uncoloured = [v for v in range(1, g.n + 1) if not colours[v - 1]]
        dead = any(
            {colours[u - 1] for u in g.neighbours(v)} >= set(range(1, k + 1))
            for v in uncoloured
        )
    if dead:
        return Status.BREAKER_WIN
    return Status.ONGOING if uncoloured else Status.MAKER_WIN


class TestMoveOracle:
    """legal_moves against a rules reference that does not share the engine's
    move generator: every payload of the variant's shape that
    ``_legal_from_scratch`` accepts. ``apply`` accepts the same payloads, and
    ``children`` and ``search_children`` agree with ``legal_moves``. The
    vertex engines' ``search_steps`` yields the reduced children, Maker's
    vertices in ``search_order`` and Breaker's in ``search_children``'s order.
    At every position, the last one included, ``status`` is checked against
    the terminal test from scratch, and at the last one ``assess`` gives the
    same verdict."""

    GRAPHS = {
        "K4": complete(4),
        "P5": path(5),
        "fig3": fig3_graph(),
        "H_1": h_r(1),
    }

    @pytest.mark.parametrize("graph", list(GRAPHS))
    @pytest.mark.parametrize("variant", list(Variant))
    def test_generators_match_apply(self, variant, graph):
        g = self.GRAPHS[graph]
        rng = random.Random(f"{variant.value}/{graph}")
        checked = 0
        for k in (1, 2, 3):
            spec = GameSpec(variant, k)
            eng = engine(spec, g)
            syntactic = _syntactic_moves(spec, g)
            for _ in range(3):
                pos = eng.initial()
                marks = []
                while True:
                    status = eng.status(pos)
                    assert status is _terminal_status(spec, g, pos, marks)
                    if status is not Status.ONGOING:
                        assert eng.assess(pos) is status
                        break
                    moves = eng.legal_moves(pos)
                    assert moves == [
                        move
                        for move in syntactic
                        if _legal_from_scratch(spec, g, pos, move)
                    ]
                    accepted = []
                    for move in syntactic:
                        try:
                            eng.apply(pos, move)
                        except IllegalMoveError:
                            continue
                        accepted.append(move)
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
                    if variant in VERTEX_VARIANTS:
                        steps = [child for _, child, _ in eng.search_steps(pos, {})]
                        assert sorted(map(_state, steps)) == sorted(
                            map(_state, reduced)
                        )
                        vertices = [_played_vertex(pos, child) for child in steps]
                        if to_move(pos) is Player.MAKER:
                            ranks = [eng.search_order.index(v) for v in vertices]
                            assert ranks == sorted(ranks)
                        else:
                            assert vertices == [
                                _played_vertex(pos, child) for child in reduced
                            ]
                    checked += 1
                    move = rng.choice(moves)
                    marks.append(move.vertex)
                    pos = eng.apply(pos, move)
        assert checked > 0


class TestLostLatch:
    """The marking games' ``lost`` latch against a replay of the marks that
    reads only the graph: a mark is lost when its vertex already had more
    than s marked neighbours. Along seeded playouts, at every ongoing
    position, each child's ``lost`` and ``status`` match that replay."""

    GRAPHS = {
        "K4": complete(4),
        "P5": path(5),
        "fig3": fig3_graph(),
        "fig4": fig4_graph()[0],
    }

    @pytest.mark.parametrize("graph", list(GRAPHS))
    @pytest.mark.parametrize("variant", [Variant.MARKING, Variant.CONNECTED_MARKING])
    def test_children_latch_as_the_replay_does(self, variant, graph):
        g = self.GRAPHS[graph]
        rng = random.Random(f"latch/{variant.value}/{graph}")
        checked = lost = 0
        for s in (0, 1, 2):
            spec = GameSpec(variant, s)
            eng = engine(spec, g)
            for _ in range(4):
                pos = eng.initial()
                marks = []
                while eng.status(pos) is Status.ONGOING:
                    children = list(eng.children(pos))
                    for move, child in children:
                        line = marks + [move.vertex]
                        replay = any(
                            len(g.neighbours(v) & set(line[:i])) > s
                            for i, v in enumerate(line)
                        )
                        assert child.lost is replay, (graph, s, line)
                        assert eng.status(child) is _terminal_status(
                            spec, g, child, line
                        )
                        checked += 1
                        lost += replay
                    move, pos = rng.choice(children)
                    marks.append(move.vertex)
        assert 0 < lost < checked


VERTEX_VARIANTS = [v for v in Variant if not (v.marking or v.plays_edges)]


def _lane_values(eng, x):
    """The per-vertex lanes of one of a vertex position's packed ints, read
    at the engine's lane width; bits above the last lane fail the check."""
    w = eng.width
    assert x >> eng.n * w == 0
    return [x >> v * w & ((1 << w) - 1) for v in range(eng.n)]


def _lanes_from_scratch(g, k, colours):
    """Per vertex: the colours on its neighbours as a bitmask (bit c-1 for
    colour c), the number of the k colours not among them, and its
    uncoloured neighbours."""
    blocked, free, udeg = [], [], []
    for v in range(1, g.n + 1):
        used = {colours[u - 1] for u in g.neighbours(v)} - {0}
        blocked.append(sum(1 << c - 1 for c in used))
        free.append(k - len(used))
        udeg.append(sum(not colours[u - 1] for u in g.neighbours(v)))
    return blocked, free, udeg


class TestLaneOracle:
    """The vertex engines' packed lanes against values recomputed from the
    colouring and the adjacency lists alone, along seeded playouts. The
    graphs and palettes reach the lane edges: an uncoloured degree of n - 1
    (K1,7 and K8), n = 1, and k >= n, where the lane is exactly k bits wide.
    At every position ``status`` is the terminal test from scratch, and at an
    ongoing one ``assess`` gives Maker's count-rule win exactly when every
    uncoloured vertex keeps more free colours than uncoloured neighbours. In
    the greedy games every move colours its vertex first-fit."""

    GRAPHS = {"K1": complete(1), "K1,7": star(8), "K8": complete(8)}

    @pytest.mark.parametrize("graph", list(GRAPHS))
    @pytest.mark.parametrize("variant", VERTEX_VARIANTS)
    def test_lanes_match_the_colouring(self, variant, graph):
        g = self.GRAPHS[graph]
        rng = random.Random(f"lanes/{variant.value}/{graph}")
        checked = 0
        for k in sorted({0, 1, 2, g.n, g.n + 3}):
            spec = GameSpec(variant, k)
            eng = engine(spec, g)
            for _ in range(4):
                pos = eng.initial()
                while True:
                    colours = pos.colours
                    blocked, free, udeg = _lanes_from_scratch(g, k, colours)
                    assert _lane_values(eng, pos.blocked) == blocked
                    assert _lane_values(eng, pos.free) == free
                    assert _lane_values(eng, pos.udeg) == udeg
                    uncoloured = [int(not c) for c in colours]
                    assert _lane_values(eng, pos.open) == uncoloured
                    status = eng.status(pos)
                    assert status is _terminal_status(spec, g, pos, [])
                    checked += 1
                    if status is not Status.ONGOING:
                        break
                    maker_safe = all(
                        free[v] > udeg[v] for v in range(g.n) if not colours[v]
                    )
                    assert (eng.assess(pos) is Status.MAKER_WIN) == maker_safe
                    children = list(eng.children(pos))
                    if variant.greedy:
                        for _, child in children:
                            v = _played_vertex(pos, child)
                            used = {colours[u - 1] for u in g.neighbours(v + 1)}
                            first_fit = min(set(range(1, k + 2)) - used)
                            assert child.colours[v] == first_fit
                    pos = rng.choice(children)[1]
        assert checked > 0


def _kill_from_scratch(spec, g, eng, pos):
    """Some legal child of ``pos`` is already lost for Maker, by the terminal
    test from scratch on the child's colouring."""
    return any(
        _terminal_status(spec, g, child, []) is Status.BREAKER_WIN
        for _, child in eng.children(pos)
    )


class TestKillExit:
    """The Breaker one-move kill against its definition: at a Breaker-to-move
    position, the vertex engines' ``assess`` gives a quick Breaker win, and
    the arboricity engine's ``_kill_available`` holds, exactly when some
    legal child is already a Breaker win. The oracle reads the full move list
    through ``children`` and decides each child's end from its colouring and
    the graph, not through the engine's lanes or colour components."""

    @pytest.mark.parametrize("variant", VERTEX_VARIANTS)
    def test_quick_breaker_win_iff_child_is_breaker_win(self, variant):
        rng = random.Random(f"kill/{variant.value}")
        checked = fired = 0
        for n in (4, 5, 6):
            for g in enumerate_graphs(n, connected_only=True):
                for k in (2, 3, 4):
                    spec = GameSpec(variant, k)
                    eng = engine(spec, g)
                    for _ in range(3):
                        pos = eng.initial()
                        while eng.status(pos) is Status.ONGOING:
                            if to_move(pos) is Player.BREAKER:
                                quick = eng.assess(pos)
                                kill = _kill_from_scratch(spec, g, eng, pos)
                                assert (quick is Status.BREAKER_WIN) == kill, (
                                    g.edges, k, pos.colours
                                )
                                checked += 1
                                fired += kill
                            pos = eng.apply(pos, rng.choice(eng.legal_moves(pos)))
        assert checked > 0 and fired > 0

    def test_arboricity_kill_iff_child_is_breaker_win(self):
        checked = fired = 0
        for graph, g in TestWasteExit.GRAPHS.items():
            for eng, pos in _breaker_turns(g, f"waste/{graph}"):
                kill = eng._kill_available(pos)
                assert kill == _kill_from_scratch(eng.spec, g, eng, pos), (
                    graph, eng.k, pos.edge_colours
                )
                if kill:
                    assert eng.assess(pos) is Status.BREAKER_WIN
                checked += 1
                fired += kill
        assert 0 < fired < checked

    # After Maker's first move at k = 2, a vertex next to it is critical: its
    # last colour is 2. Each pair of cases differs only in whether the
    # variant's rules let Breaker's move take that colour.
    P4 = path(4)
    K3 = complete(3)
    # a triangle 1, 3, 4 beside vertex 2: vertex 4 could take vertex 3's last
    # colour, greedily too, but vertex 2 is the next in order
    AWAY = Graph(4, [(1, 3), (1, 4), (3, 4)])
    NEXT = Graph(4, [(1, 3), (2, 3)])

    @pytest.mark.parametrize(
        "variant, g, opening, fires",
        [
            pytest.param(
                Variant.VERTEX, P4, Move(vertex=1, colour=1), True, id="vertex-P4"
            ),
            # colour 2 on vertex 3 would kill vertex 2, but 3 is not yet
            # adjacent to a coloured vertex
            pytest.param(
                Variant.CONNECTED_VERTEX, P4, Move(vertex=1, colour=1), False,
                id="cvertex-P4",
            ),
            pytest.param(
                Variant.CONNECTED_VERTEX, K3, Move(vertex=1, colour=1), True,
                id="cvertex-K3",
            ),
            pytest.param(
                Variant.ORDERED_VERTEX, AWAY, Move(colour=1), False, id="overtex-away"
            ),
            pytest.param(
                Variant.ORDERED_VERTEX, NEXT, Move(colour=1), True, id="overtex-next"
            ),
            # vertex 3's first fit is colour 1, not vertex 2's last colour 2
            pytest.param(
                Variant.GREEDY, path(3), Move(vertex=1), False, id="greedy-P3"
            ),
            pytest.param(Variant.GREEDY, K3, Move(vertex=1), True, id="greedy-K3"),
            pytest.param(
                Variant.ORDERED_GREEDY, AWAY, Move(), False, id="ogreedy-away"
            ),
            pytest.param(Variant.ORDERED_GREEDY, K3, Move(), True, id="ogreedy-K3"),
        ],
    )
    def test_each_rule_bounds_the_kill(self, variant, g, opening, fires):
        spec = GameSpec(variant, 2)
        eng = engine(spec, g)
        pos = eng.apply(eng.initial(), opening)
        assert to_move(pos) is Player.BREAKER
        assert _kill_from_scratch(spec, g, eng, pos) is fires
        assert (eng.assess(pos) is Status.BREAKER_WIN) is fires


def _breaker_turns(g, seed):
    """The arboricity engine and position at every Breaker-to-move turn of
    six seeded random playouts of ``g`` at each k = 2, 3, 4."""
    rng = random.Random(seed)
    for k in (2, 3, 4):
        eng = engine(GameSpec(Variant.ARBORICITY, k), g)
        for _ in range(6):
            pos = eng.initial()
            while eng.status(pos) is Status.ONGOING:
                if to_move(pos) is Player.BREAKER:
                    yield eng, pos
                pos = eng.apply(pos, rng.choice(eng.legal_moves(pos)))


class TestWasteExit:
    """The arboricity engine's capacity-wasting move against a brute force
    that shares no bridge code. At a Breaker-to-move position,
    ``_waste_available`` holds exactly when some legal move leaves a child
    whose remaining capacity is at least two below the position's. Where
    the capacity equals the u uncoloured edges (slack 0), such a child has
    capacity below its u - 1 edges, and ``assess`` calls the position a
    Breaker win."""

    GRAPHS = {
        "K4": complete(4),
        "fig3": fig3_graph(),
        "K6-e": parse_graph6("E^~w"),
        "K6": complete(6),
        # three of the connected n=7, m=12 graphs
        "F?F~w": parse_graph6("F?F~w"),
        "FAh|w": parse_graph6("FAh|w"),
        "FpLYw": parse_graph6("FpLYw"),
    }

    @pytest.mark.parametrize("graph", list(GRAPHS))
    def test_waste_iff_a_child_loses_two(self, graph):
        g = self.GRAPHS[graph]
        checked = wasted = at_zero = 0
        for eng, pos in _breaker_turns(g, f"waste/{graph}"):
            capacity = eng._remaining_capacity(pos)
            brute = any(
                eng._remaining_capacity(child) < capacity - 1
                for _, child in eng.children(pos)
            )
            waste = eng._waste_available(pos)
            assert waste == brute, (eng.k, pos.edge_colours)
            checked += 1
            wasted += waste
            if capacity == g.m - pos.count:
                at_zero += 1
                if waste:
                    assert eng.assess(pos) is Status.BREAKER_WIN
        assert 0 < wasted < checked and at_zero > 0


def _never_unplayable(eng, pos, safe):
    """True iff no continuation of ``pos`` reaches an unplayable edge, found
    by playing every legal move; ``safe`` collects the exact positions
    already shown to be so."""
    if pos.edge_colours in safe:
        return True
    st = eng.status(pos)
    if st is Status.BREAKER_WIN:
        return False
    if st is Status.ONGOING and not all(
        _never_unplayable(eng, eng.apply(pos, move), safe)
        for move in eng.legal_moves(pos)
    ):
        return False
    safe.add(pos.edge_colours)
    return True


class TestSafeEdges:
    """The arboricity engine's safe-edge rule (``_all_safe``) against
    exhaustive play through ``legal_moves``, ``apply`` and ``status`` alone.
    Wherever the rule calls every uncoloured edge safe on a seeded playout,
    no continuation, whoever moves, may leave an edge unplayable. The rule's
    free-colour case, where every uncoloured edge keeps at least u free
    colours, is checked on its own: there ``assess`` gives a Maker win
    whichever side is to move. Fired positions outside that case are counted
    apart, so the test shows the rule firing beyond it."""

    U_MAX = 5
    GRAPHS = {
        "K4": complete(4),
        "fig3": fig3_graph(),
        "K5": complete(5),
        "K6-e": parse_graph6("E^~w"),
        # three of the connected n=7, m=12 graphs
        "F?F~w": parse_graph6("F?F~w"),
        "FAh|w": parse_graph6("FAh|w"),
        "FpLYw": parse_graph6("FpLYw"),
    }

    @pytest.mark.parametrize("graph", list(GRAPHS))
    def test_fired_positions_never_lose_an_edge(self, graph):
        g = self.GRAPHS[graph]
        rng = random.Random(f"safe/{graph}")
        fired = beyond_free = 0
        free = {Player.MAKER: 0, Player.BREAKER: 0}
        for k in (2, 3, 4):
            eng = engine(GameSpec(Variant.ARBORICITY, k), g)
            safe: set[bytes] = set()
            for _ in range(6):
                pos = eng.initial()
                while eng.status(pos) is Status.ONGOING:
                    u = g.m - pos.count
                    # each later play blocks at most one more colour per edge
                    all_free = all(
                        pos.blocked_counts[i] <= k - u for i in pos.uncoloured
                    )
                    if all_free:
                        assert eng.assess(pos) is Status.MAKER_WIN, (k, pos.edge_colours)
                        free[to_move(pos)] += 1
                    # the exhaustive check is kept to small u: it visits up
                    # to (k+1)^u positions, and the later positions of a
                    # playout are then already in ``safe``
                    if u <= self.U_MAX and eng._all_safe(pos):
                        assert _never_unplayable(eng, pos, safe), (k, pos.edge_colours)
                        fired += 1
                        beyond_free += not all_free
                    pos = eng.apply(pos, rng.choice(eng.legal_moves(pos)))
        assert beyond_free > 0 and fired > beyond_free
        assert all(free.values())
