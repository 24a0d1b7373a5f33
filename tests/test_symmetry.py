"""Graph-automorphism memo keys of the arboricity solver.

The group is checked against networkx's VF2 matcher, ``canonical_key`` against
random relabellings of random playouts and against orbits enumerated from
every vertex and colour permutation, and the solver's winners against a
solver whose group holds the identity alone.
"""

import itertools
import random
import time

import pytest

from mbgames import rules
from mbgames.families import complete
from mbgames.graphs import parse_graph6
from mbgames.rules import GameSpec, Move, Status, Variant, edge_automorphisms, engine
from mbgames.search import enumerate_graphs
from mbgames.solver import ResourceLimitError, Solver, solve

K6_MINUS_E = parse_graph6("E^~w")


def _nx_edge_group(nx, g):
    """Edge permutations induced by the vertex automorphisms VF2 finds."""
    h = nx.Graph()
    h.add_nodes_from(range(1, g.n + 1))
    h.add_edges_from(g.edges)
    perms = set()
    for iso in nx.algorithms.isomorphism.GraphMatcher(h, h).isomorphisms_iter():
        perm = []
        for u, v in g.edges:
            a, b = iso[u], iso[v]
            perm.append(g.edge_index[(a, b) if a < b else (b, a)])
        perms.add(tuple(perm))
    return perms


@pytest.mark.parametrize("n", range(1, 7))
def test_group_matches_vf2(n):
    nx = pytest.importorskip("networkx")
    for g in enumerate_graphs(n):
        group = edge_automorphisms(g)
        assert len(group) == len(set(group)) == len(_nx_edge_group(nx, g)), g.edges
        assert group[0] == tuple(range(g.m))
        for p in group:
            assert sorted(p) == list(range(g.m))
            for i, e in enumerate(g.edges):
                for j, f in enumerate(g.edges):
                    touch = bool(set(e) & set(f))
                    image_touch = bool(set(g.edges[p[i]]) & set(g.edges[p[j]]))
                    assert touch == image_touch, (g.edges, p)


def _playout(eng, rng, steps):
    pos = eng.initial()
    moves = []
    for _ in range(steps):
        if eng.status(pos) is not Status.ONGOING:
            break
        move = rng.choice(eng.legal_moves(pos))
        pos = eng.apply(pos, move)
        moves.append(move)
    return pos, moves


# |Aut| = 720, 48, 24, 10, 8, 4
SYMMETRIC = [
    ("E~~w", 3), ("E~~w", 5), ("E^~w", 4), ("C~", 2), ("Dhc", 3), ("Cr", 3),
    ("FKY}o", 2),
]


@pytest.mark.parametrize("g6,k", SYMMETRIC)
def test_orbit_key_is_invariant(g6, k):
    g = parse_graph6(g6)
    eng = engine(GameSpec(Variant.ARBORICITY, k), g)
    group = edge_automorphisms(g)
    assert len(group) > 1
    rng = random.Random(f"{g6}:{k}")
    for _ in range(150):
        pos, moves = _playout(eng, rng, rng.randrange(g.m + 1))
        key = eng.canonical_key(pos)
        assert sum(1 for c in key if c) == pos.count
        sizes = sorted(pos.edge_colours.count(c) for c in range(1, k + 1))
        assert sorted(key.count(c) for c in range(1, k + 1)) == sizes
        # replay the same moves through sigma^-1 on edges and lam on colours:
        # the result is lam . pos . sigma
        sigma = rng.choice(group)
        inverse = [0] * g.m
        for i, j in enumerate(sigma):
            inverse[j] = i
        lam = [0] + rng.sample(range(1, k + 1), k)
        image = eng.initial()
        for mv in moves:
            i = g.edge_index[mv.edge]
            image = eng.apply(image, Move(edge=g.edges[inverse[i]], colour=lam[mv.colour]))
        assert image.edge_colours == bytes(
            lam[pos.edge_colours[sigma[i]]] for i in range(g.m)
        )
        assert eng.canonical_key(image) == key


def _oracle_group(g):
    """The automorphisms of ``g`` as maps from edge index to edge index:
    every vertex permutation, all n! of them, that maps the edge set onto
    itself."""
    edges = set(g.edges)
    group = []
    for pi in itertools.permutations(range(1, g.n + 1)):
        image = [tuple(sorted((pi[u - 1], pi[v - 1]))) for u, v in g.edges]
        if set(image) == edges:
            group.append([g.edges.index(e) for e in image])
    return group


def _oracle_orbit(group, k, colours):
    """Every colouring that an automorphism and a colour permutation make
    of ``colours``."""
    orbit = set()
    for sigma in group:
        moved = [0] * len(colours)
        for i, j in enumerate(sigma):
            moved[j] = colours[i]
        for lam in itertools.permutations(range(1, k + 1)):
            orbit.add(bytes((0, *lam)[c] for c in moved))
    return frozenset(orbit)


def _reachable(eng):
    positions = {}
    stack = [eng.initial()]
    while stack:
        pos = stack.pop()
        if pos.edge_colours not in positions:
            positions[pos.edge_colours] = pos
            stack.extend(child for _, child in eng.children(pos))
    return list(positions.values())


def _sampled(eng, g, k, group, rng, count):
    """Positions of random playouts, each with images of it under random
    automorphisms and colour permutations, reached by replaying its moves."""
    positions = []
    for _ in range(count):
        pos, moves = _playout(eng, rng, rng.randrange(g.m + 1))
        positions.append(pos)
        for _ in range(2):
            sigma = rng.choice(group)
            lam = [0] + rng.sample(range(1, k + 1), k)
            image = eng.initial()
            for mv in moves:
                e = g.edges[sigma[g.edge_index[mv.edge]]]
                image = eng.apply(image, Move(edge=e, colour=lam[mv.colour]))
            positions.append(image)
    return positions


@pytest.mark.parametrize("g6,k,samples", [
    ("C~", 2, None), ("C~", 3, None), ("Dhc", 3, 120), ("Cr", 3, 120),
])
def test_orbit_key_separates_orbits(g6, k, samples):
    # every reachable position of K4, or sampled positions of C5 and C4,
    # against orbits that share no code with the engine's group or key
    g = parse_graph6(g6)
    eng = engine(GameSpec(Variant.ARBORICITY, k), g)
    group = _oracle_group(g)
    if samples is None:
        positions = _reachable(eng)
    else:
        positions = _sampled(eng, g, k, group, random.Random(f"{g6}:{k}"), samples)
    orbit_of_key = {}
    key_of_orbit = {}
    for pos in positions:
        orbit = _oracle_orbit(group, k, pos.edge_colours)
        key = eng.canonical_key(pos)
        # one key per orbit, and one orbit per key
        assert key_of_orbit.setdefault(orbit, key) == key, pos.edge_colours
        assert orbit_of_key.setdefault(key, orbit) == orbit, pos.edge_colours
    for key, orbit in orbit_of_key.items():
        assert key in orbit, key
    assert len(key_of_orbit) > 1
    if samples is not None:
        # the replayed images put several positions in one orbit
        assert len(key_of_orbit) < len(positions)


@pytest.mark.parametrize("g6,order", [("E@Uw", 1), ("FBjew", 2), ("DQw", 2)])
def test_small_group_has_no_orbit_key(g6, order):
    # a group of fewer than _MIN_GROUP elements is not folded: every position
    # keys by its colour-canonical form
    g = parse_graph6(g6)
    assert len(edge_automorphisms(g)) == order < rules._MIN_GROUP
    eng = engine(GameSpec(Variant.ARBORICITY, 2), g)
    rng = random.Random(g6)
    for _ in range(30):
        pos, _ = _playout(eng, rng, rng.randrange(g.m + 1))
        assert eng.canonical_key(pos) == rules._canonical_colours(pos.edge_colours, 2)
    assert eng.group_order() == 1


def _identity_group(g):
    return (tuple(range(g.m)),)


def _clear_caches():
    # engines and the per-graph groups they fold, so that a patched
    # edge_automorphisms takes effect
    rules.engine.cache_clear()
    rules._folding.cache_clear()


def _solves(cases):
    """(winner, group order) of each case's solve."""
    _clear_caches()
    try:
        return [
            (r.winner, r.automorphisms)
            for r in (solve(GameSpec(Variant.ARBORICITY, k), g) for g, k in cases)
        ]
    finally:
        _clear_caches()


def _ablation_cases():
    cases = [
        (g, k)
        for n in range(1, 6)
        for g in enumerate_graphs(n, connected_only=True)
        for k in range(1, g.m + 1)
    ]
    # connected n=6 graphs of at most 12 edges, whose solves without the
    # group take up to about a second each (K6 minus e at k=3 takes minutes)
    sample = random.Random(2308).sample(
        [g for g in enumerate_graphs(6, connected_only=True) if g.m <= 12], 16
    )
    return cases + [(g, k) for g in sample for k in (2, 3)]


def test_winners_match_identity_group(monkeypatch):
    cases = _ablation_cases()
    with_group = _solves(cases)
    monkeypatch.setattr(rules, "edge_automorphisms", _identity_group)
    without = _solves(cases)
    assert [w for w, _ in with_group] == [w for w, _ in without]
    assert any(order > 4 for _, order in with_group)
    assert all(order == 1 for _, order in without)


def test_orbit_keys_are_counted(monkeypatch):
    # K5's 120 automorphisms fold positions that the identity group keeps
    # apart, so the same winner is found from fewer expanded positions
    spec = GameSpec(Variant.ARBORICITY, 4)
    _clear_caches()
    try:
        result = solve(spec, complete(5))
        monkeypatch.setattr(rules, "edge_automorphisms", _identity_group)
        _clear_caches()
        plain = solve(spec, complete(5))
    finally:
        _clear_caches()
    assert (result.automorphisms, plain.automorphisms) == (120, 1)
    assert result.table_hits > 0
    assert result.winner is plain.winner
    assert result.nodes_searched < plain.nodes_searched


def test_moves_match_identity_group(monkeypatch):
    # best_move and the principal variation still take the first winning move
    # in (edge, colour) order
    cases = [(complete(4), 2), (complete(5), 4), (parse_graph6("DF{"), 2)]

    def lines():
        _clear_caches()
        try:
            solvers = [Solver(GameSpec(Variant.ARBORICITY, k), g) for g, k in cases]
            return (
                [s.principal_variation() for s in solvers],
                [s.eng.group_order() for s in solvers],
            )
        finally:
            _clear_caches()

    # K6 minus the edge 1-2: Maker's first winning move
    spec = GameSpec(Variant.ARBORICITY, 4)
    solver = Solver(spec, K6_MINUS_E)
    assert solver.best_move(engine(spec, K6_MINUS_E).initial()) == Move(edge=(1, 3), colour=1)
    with_group, orders = lines()
    monkeypatch.setattr(rules, "edge_automorphisms", _identity_group)
    without, identity = lines()
    assert without == with_group
    assert orders == [24, 120, 12] and identity == [1, 1, 1]


def test_table_cap_counts_orbit_keys():
    # one orbit key per searched position and per position settled by
    # assess, and the cap is checked on every insert: a cap below the
    # uncapped table size raises with the table at most that full, and a cap
    # equal to it is enough
    spec = GameSpec(Variant.ARBORICITY, 3)
    full = solve(spec, complete(5))
    assert full.automorphisms == 120
    assert full.nodes_searched < full.table_entries
    for cap in (1, full.nodes_searched, full.table_entries - 1):
        capped = Solver(spec, complete(5), max_table_entries=cap)
        with pytest.raises(ResourceLimitError):
            capped.solve()
        assert len(capped._table) <= cap
    capped = Solver(spec, complete(5), max_table_entries=full.table_entries)
    assert capped.solve().winner is full.winner


def test_settled_at_root_reports_identity():
    # one colour cannot hold K5's 10 edges: settled before any position is
    # expanded
    result = solve(GameSpec(Variant.ARBORICITY, 1), complete(5))
    assert result.nodes_searched == 0
    assert result.automorphisms == 1
    assert result.table_hits == 0


def test_group_cap_bounds_k12():
    start = time.perf_counter()
    _clear_caches()
    g = complete(12)
    eng = engine(GameSpec(Variant.ARBORICITY, 3), g)
    pos = eng.initial()
    for e, c in (((1, 2), 1), ((3, 4), 2), ((1, 3), 1), ((5, 6), 3)):
        pos = eng.apply(pos, Move(edge=e, colour=c))
    key = eng.canonical_key(pos)
    assert eng.group_order() == rules._GROUP_CAP
    assert sorted(key.count(c) for c in (1, 2, 3)) == [1, 1, 2]
    assert time.perf_counter() - start < 30
    _clear_caches()
