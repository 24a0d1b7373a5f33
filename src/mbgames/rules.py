"""Rules for every Maker-Breaker colouring and marking game variant.

Positions are immutable values: ``apply`` returns a new position and the turn
is always derived from the move count (Maker moves first). Breaker wins are
declared the moment some element becomes unplayable, matching the game
definitions; marking-bound violations latch the position at apply time.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from operator import attrgetter, itemgetter

from .graphs import ColourComponents, Graph


class RulesError(ValueError):
    """A game specification that cannot be played on the given graph."""


class IllegalMoveError(RulesError):
    """A move that violates the variant's rules at the current position."""


class Variant(Enum):
    VERTEX = "vertex"
    CONNECTED_VERTEX = "cvertex"
    ORDERED_VERTEX = "overtex"
    GREEDY = "greedy"
    ORDERED_GREEDY = "ogreedy"
    ARBORICITY = "arboricity"
    MARKING = "marking"
    CONNECTED_MARKING = "cmarking"

    @property
    def ordered(self) -> bool:
        """Variants that play the vertices in label order 1..n."""
        return self in (Variant.ORDERED_VERTEX, Variant.ORDERED_GREEDY)

    @property
    def connectivity_restricted(self) -> bool:
        return self in (Variant.CONNECTED_VERTEX, Variant.CONNECTED_MARKING)

    @property
    def marking(self) -> bool:
        return self in (Variant.MARKING, Variant.CONNECTED_MARKING)

    @property
    def greedy(self) -> bool:
        return self in (Variant.GREEDY, Variant.ORDERED_GREEDY)

    @property
    def colour_symmetric(self) -> bool:
        """Variants whose positions may be relabelled by any colour permutation."""
        return self in (
            Variant.VERTEX,
            Variant.CONNECTED_VERTEX,
            Variant.ORDERED_VERTEX,
            Variant.ARBORICITY,
        )

    @property
    def plays_edges(self) -> bool:
        return self is Variant.ARBORICITY


class Status(Enum):
    ONGOING = "ongoing"
    MAKER_WIN = "maker"
    BREAKER_WIN = "breaker"


class Player(Enum):
    MAKER = "maker"
    BREAKER = "breaker"

    @property
    def win(self) -> Status:
        return Status.MAKER_WIN if self is Player.MAKER else Status.BREAKER_WIN

    @property
    def opponent(self) -> "Player":
        return Player.BREAKER if self is Player.MAKER else Player.MAKER


@dataclass(frozen=True)
class GameSpec:
    """One game: a variant plus its palette size k.

    For marking variants ``k`` is the back-degree bound s (Maker wins iff every
    vertex is marked with at most s already-marked neighbours). Ordered
    variants play the vertices in label order 1..n; to play another order,
    ``relabel`` the graph.
    """

    variant: Variant
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise RulesError(f"palette size / bound must be >= 0, got {self.k}")


@dataclass(frozen=True)
class Move:
    """Variant-family move payload.

    vertex games: (vertex, colour); ordered vertex: (colour); greedy: (vertex);
    ordered greedy: empty; arboricity: (edge, colour); marking: (vertex).
    """

    vertex: int | None = None
    colour: int | None = None
    edge: tuple[int, int] | None = None

    def __post_init__(self):
        if self.edge is not None:
            u, v = self.edge
            if u > v:
                object.__setattr__(self, "edge", (v, u))

    def __str__(self) -> str:
        if self.edge is not None:
            return f"e{self.edge[0]}-{self.edge[1]}={self.colour}"
        if self.vertex is not None and self.colour is not None:
            return f"v{self.vertex}={self.colour}"
        if self.vertex is not None:
            return f"v{self.vertex}"
        if self.colour is not None:
            return f"c{self.colour}"
        return "pass"


class VertexPosition:
    """Partial proper colouring: ``colours[i]`` is vertex i+1's colour, 0 = none.

    Four ints pack one lane of ``w`` bits per vertex (the engine's ``width``;
    vertex i+1 owns bits i*w to i*w + w - 1), and only the vertex engine
    reads them: ``blocked`` holds the bitmask of colours present in the
    vertex's coloured neighbourhood (bit c-1 for colour c), ``free`` the
    number of colours not blocked there, ``udeg`` its uncoloured neighbours,
    and ``open`` 1 while it is uncoloured. ``played`` is the bitmask of
    coloured vertices and ``colour_mask`` the set of colours used anywhere.
    """

    __slots__ = (
        "colours",
        "blocked",
        "free",
        "udeg",
        "open",
        "played",
        "count",
        "colour_mask",
    )

    def __init__(
        self,
        colours: bytes,
        blocked: int,
        free: int,
        udeg: int,
        open: int,
        played: int,
        count: int,
        colour_mask: int,
    ):
        self.colours = colours
        self.blocked = blocked
        self.free = free
        self.udeg = udeg
        self.open = open
        self.played = played
        self.count = count
        self.colour_mask = colour_mask

    def colour(self, v: int) -> int:
        return self.colours[v - 1]

    def coloured_vertices(self) -> dict[int, int]:
        return {i + 1: c for i, c in enumerate(self.colours) if c}


class EdgePosition:
    """Partial edge colouring for the arboricity game, plus colour components.

    ``blocked_counts[i]`` holds, for each still-uncoloured edge i, how many
    palette colours are blocked there (endpoints in one c-component); a
    coloured edge keeps the count it had when coloured, which is below k.
    ``uncoloured`` lists the uncoloured edge indices in increasing order and
    ``colour_mask`` is the set of colours in use.
    """

    __slots__ = (
        "edge_colours",
        "components",
        "count",
        "blocked_counts",
        "uncoloured",
        "colour_mask",
    )

    def __init__(
        self,
        edge_colours: bytes,
        components: ColourComponents,
        count: int,
        blocked_counts: bytes,
        uncoloured: tuple[int, ...],
        colour_mask: int = 0,
    ):
        self.edge_colours = edge_colours
        self.components = components
        self.count = count
        self.blocked_counts = blocked_counts
        self.uncoloured = uncoloured
        self.colour_mask = colour_mask

    def coloured_edges(self, g: Graph) -> dict[tuple[int, int], int]:
        return {
            g.edges[i]: c for i, c in enumerate(self.edge_colours) if c
        }


class MarkPosition:
    """Marked-vertex set; ``lost`` latches once a mark exceeded the bound."""

    __slots__ = ("marked", "count", "lost")

    def __init__(self, marked: int, count: int, lost: bool):
        self.marked = marked
        self.count = count
        self.lost = lost

    def marked_vertices(self) -> frozenset[int]:
        return frozenset(
            i + 1 for i in range(self.marked.bit_length()) if self.marked >> i & 1
        )


Position = VertexPosition | EdgePosition | MarkPosition


def _iter_bits(mask: int):
    while mask:
        b = mask & -mask
        mask ^= b
        yield b.bit_length() - 1


class _EngineBase:
    # the vertex order in which search_steps takes Maker's moves; None keeps
    # the (element, colour) order
    search_order: tuple[int, ...] | None = None

    def __init__(self, spec: GameSpec, g: Graph):
        self.spec = spec
        self.g = g
        self.n = g.n
        self.k = spec.k
        self.all_mask = (1 << self.n) - 1
        self.connected = spec.variant.connectivity_restricted
        if self.connected and not g.is_connected():
            raise RulesError(
                f"{spec.variant.value} requires a connected graph; this one has "
                f"{g.component_count()} components"
            )

    def status(self, pos: Position) -> Status:
        """The terminal test: Breaker has won once some element is
        unplayable, Maker once every element is played."""
        raise NotImplementedError

    def exact_key(self, pos: Position):
        """The fields that determine every other field of ``pos``: a key for
        answers that hold for this exact position and not for its colour
        permutations, such as a strategy's reply."""
        raise NotImplementedError

    def assess(self, pos: Position) -> Status | None:
        """The exact winner when no search is needed: the terminal status,
        or the verdict of a counting argument on an ongoing position; None
        otherwise. It never guesses."""
        raise NotImplementedError

    def initial(self) -> Position:
        raise NotImplementedError

    def _moves(self, pos: Position, reduced: bool, order=None):
        """Yield every move as an (element, colour) pair of ints, in (element,
        colour) order: the 0-based vertex or edge index, and the colour played
        there (0 in marking games). With ``reduced``, colour-symmetric variants
        try at most one unused colour per element: children reached through
        distinct fresh colours are identical up to a colour swap, so skipping
        the rest never changes any winner. ``order``, when given, is a
        sequence of elements: only the moves at those elements are yielded,
        element by element in that sequence (the ordered games, whose one
        playable vertex is fixed, ignore it)."""
        raise NotImplementedError

    def _decode(self, pos: Position, move: Move) -> tuple[int, int | None]:
        """The (element, colour) pair a ``Move`` payload names, colour None
        where the rules force it; raises IllegalMoveError for a payload of the
        wrong shape or out of range. Legality is left to ``_moves``."""
        raise NotImplementedError

    def _move(self, element: int, colour: int) -> Move:
        """The ``Move`` payload of an (element, colour) pair."""
        raise NotImplementedError

    def _child(self, pos: Position, element: int, colour: int) -> Position:
        """The position after a legal (element, colour) move, unvalidated."""
        raise NotImplementedError

    def legal_moves(self, pos: Position) -> list[Move]:
        if self.status(pos) is not Status.ONGOING:
            return []
        moves = [self._move(e, c) for e, c in self._moves(pos, False)]
        assert moves, "stalemate: ongoing position with no legal move"
        return moves

    def children(self, pos: Position):
        """Yield (move, child) pairs in the legal-move order, skipping the
        per-move validation (each generated move is legal by construction)."""
        for e, c in self._moves(pos, False):
            yield self._move(e, c), self._child(pos, e, c)

    def search_children(self, pos: Position):
        """Yield child positions only, over the reduced move set."""
        for e, c in self._moves(pos, True):
            yield self._child(pos, e, c)

    def search_steps(self, pos: Position, table: dict):
        """Yield (cached winner, child, child key) triples over the reduced
        move set, for the solver's inner loop, Maker's moves taken in
        ``search_order``. An engine may answer a child from the memo table
        without building it, or hand over the canonical key it has just looked
        up and missed; this one always builds the child."""
        order = self.search_order if pos.count % 2 == 0 else None
        for e, c in self._moves(pos, True, order):
            yield None, self._child(pos, e, c), None

    def _allowed(self, colour_mask: int, reduced: bool) -> int:
        """The colours ``_moves`` tries on each element, as a bitmask (bit c-1
        for colour c): all k, or with ``reduced`` the used ones and the
        lowest unused one."""
        full = (1 << self.k) - 1
        return (colour_mask | colour_mask + 1) & full if reduced else full

    def _playable(self, taken: int) -> int:
        """The vertices not in ``taken`` (the played or marked set) that may
        be played next, as a mask: in the connected variants, once any vertex
        is taken, only those adjacent to a taken one."""
        free = self.all_mask & ~taken
        if self.connected and taken:
            nb = 0
            adj = self.g.adj
            for v in _iter_bits(taken):
                nb |= adj[v]
            free &= nb
        return free

    def _candidates(self, taken: int, order=None):
        """The ``_playable`` vertices, in increasing order or in ``order``."""
        free = self._playable(taken)
        if order is None:
            return _iter_bits(free)
        return [v for v in order if free >> v & 1]

    def apply(self, pos: Position, move: Move) -> Position:
        """The position after ``move``: the first pair ``_moves`` yields at
        the element the move names, with the colour it names if any."""
        st = self.status(pos)
        if st is not Status.ONGOING:
            raise IllegalMoveError(f"the game is already over ({st.value} win)")
        element, colour = self._decode(pos, move)
        for e, c in self._moves(pos, False, (element,)):
            if colour is None or c == colour:
                return self._child(pos, e, c)
        if self.spec.variant.plays_edges:
            where = "edge ({},{})".format(*self.g.edges[element])
        else:
            where = f"vertex {element + 1}"
        legal = ", ".join(
            str(self._move(e, c)) for e, c in self._moves(pos, False, (element,))
        )
        raise IllegalMoveError(
            f"{move} is not legal; the legal moves at {where}: {legal or 'none'}"
        )

    def canonical_key(self, pos: Position):
        raise NotImplementedError

    def group_order(self) -> int:
        """Number of graph automorphisms ``canonical_key`` folds (1: none)."""
        return 1


def _canonical_colours(values: bytes, k: int) -> bytes:
    """Rename colours in order of first occurrence under the element scan."""
    out = bytearray(len(values))
    rename = [0] * (k + 1)
    nxt = 0
    for i, c in enumerate(values):
        if c:
            r = rename[c]
            if r == 0:
                nxt += 1
                rename[c] = r = nxt
            out[i] = r
    return bytes(out)


class _Lanes:
    """The constants of the packed vertex lanes of one graph at lane width
    ``w``: ``low`` has 1 in every lane, ``guard`` the top bit of every lane
    and ``below_guard`` the w - 1 bits under it; ``lane[v]`` has 1 in v's
    lane, ``spread[v]`` 1 in each of v's neighbours' lanes, and ``degrees``
    each vertex's degree in its lane."""

    def __init__(self, g: Graph, w: int):
        self.lane = tuple(1 << v * w for v in range(g.n))
        self.low = sum(self.lane)
        self.guard = self.low << (w - 1)
        self.below_guard = self.low * ((1 << (w - 1)) - 1)
        self.spread = tuple(
            sum(self.lane[u] for u in _iter_bits(a)) for a in g.adj
        )
        degree = [a.bit_count() for a in g.adj]
        self.degrees = sum(d << v * w for v, d in enumerate(degree))
        # the solver tries Maker's vertices hubs first: a high-degree vertex
        # blocks a colour at the most neighbours, so Maker's first winning
        # move tends to come early. Breaker's moves keep index order: ordering
        # them too made strategy checks, whose best_move questions search
        # below Breaker's moves, search more nodes.
        self.search_order = tuple(sorted(range(g.n), key=lambda v: -degree[v]))


@lru_cache(maxsize=512)
def _lanes(g: Graph, w: int) -> _Lanes:
    """One graph's lane constants, shared by the engines of a k-range."""
    return _Lanes(g, w)


class _VertexEngine(_EngineBase):
    """Vertex, ConnectedVertex, OrderedVertex, Greedy and OrderedGreedy rules.

    The lanes of a ``VertexPosition`` are ``width`` bits wide: wide enough for
    a blocked-colour mask (k bits), and for a guard bit above every free count
    (at most k) and uncoloured degree (at most n - 1). The guard lets one
    integer sum test every vertex at once, with no carry or borrow between
    lanes."""

    exact_key = staticmethod(attrgetter("colours"))

    def __init__(self, spec: GameSpec, g: Graph):
        super().__init__(spec, g)
        k = self.k
        self.full = (1 << k) - 1
        self.greedy = spec.variant.greedy
        self.ordered = spec.variant.ordered
        self.colour_symmetric = spec.variant.colour_symmetric
        self.width = w = max(k, 1 + max(k.bit_length(), self.n.bit_length()))
        self.top = w - 1
        lanes = _lanes(g, w)
        self.lane = lanes.lane
        self.spread = lanes.spread
        self.low = lanes.low
        self.guard = lanes.guard
        self.below_guard = lanes.below_guard
        self.degrees = lanes.degrees
        self.search_order = lanes.search_order

    def initial(self) -> VertexPosition:
        return VertexPosition(
            bytes(self.n), 0, self.low * self.k, self.degrees, self.low, 0, 0, 0
        )

    def blocked_colours(self, pos: VertexPosition, v: int) -> int:
        """The colours present among vertex v's coloured neighbours, as a
        bitmask (bit c-1 for colour c); v is 1-based."""
        return pos.blocked >> (v - 1) * self.width & self.full

    def status(self, pos: VertexPosition) -> Status:
        if pos.count == self.n:
            return Status.MAKER_WIN
        # free + below_guard carries into the guard bit of exactly the lanes
        # with a free colour, so an uncoloured lane left without it is a
        # vertex that no colour can reach
        if pos.open << self.top & ~(pos.free + self.below_guard):
            return Status.BREAKER_WIN
        return Status.ONGOING

    def assess(self, pos: VertexPosition) -> Status | None:
        st = self.status(pos)
        if st is not Status.ONGOING:
            return st
        # v can never be blocked if it keeps more free colours than it has
        # uncoloured neighbours; if that holds everywhere the game must run to
        # completion, so Maker wins outright. The guard bit of a lane survives
        # guard + free - udeg - 1 exactly when free > udeg.
        opened = pos.open << self.top
        if ((pos.free | self.guard) - pos.udeg - self.low) & opened == opened:
            return Status.MAKER_WIN
        if pos.count % 2 == 1 and self._kill_available(pos, opened):
            # Breaker, to move, can take the last free colour of some vertex:
            # an immediate exact win
            return Status.BREAKER_WIN
        return None

    def _kill_available(self, pos: VertexPosition, opened: int) -> bool:
        """True iff Breaker has a move that colours a neighbour of a critical
        vertex (an uncoloured one with a single free colour) with that colour.
        ``opened`` holds the guard bits of the uncoloured lanes; the critical
        ones are those where free ^ low is zero. Killers are the vertices
        ``_moves`` plays (``_playable``, or the ordered games' next vertex);
        the greedy rule, which sets the colour, is checked per killer. No
        colour is out of reach: a critical vertex's last colour, if unused
        everywhere, is the only unused colour, so the reduced set tries it."""
        critical = opened & ~((pos.free ^ self.low) + self.below_guard)
        if not critical:
            return False
        adj = self.g.adj
        w = self.width
        full = self.full
        blocked = pos.blocked
        if self.ordered:
            killers = 1 << pos.count  # the one vertex Breaker may colour
        else:
            killers = self._playable(pos.played)
        while critical:
            b = critical & -critical
            critical ^= b
            v = b.bit_length() // w - 1
            last = full & ~(blocked >> v * w)
            for u in _iter_bits(adj[v] & killers):
                bl = blocked >> u * w & full
                if self.greedy:
                    # greedy play colours u with its lowest free colour
                    if ~bl & (bl + 1) == last:
                        return True
                elif not bl & last:
                    return True
        return False

    def _moves(self, pos: VertexPosition, reduced: bool, order=None):
        if self.ordered:
            vertices = (pos.count,)
        else:
            vertices = self._candidates(pos.played, order)
        if self.greedy:
            for v in vertices:
                yield v, self._forced_colour(pos, v)
            return
        allowed = self._allowed(pos.colour_mask, reduced)
        blocked = pos.blocked
        w = self.width
        for v in vertices:
            free = allowed & ~(blocked >> v * w)
            while free:
                b = free & -free
                free ^= b
                yield v, b.bit_length()

    def _move(self, v0: int, c: int) -> Move:
        if self.greedy:
            return Move() if self.ordered else Move(vertex=v0 + 1)
        return Move(colour=c) if self.ordered else Move(vertex=v0 + 1, colour=c)

    def _forced_colour(self, pos: VertexPosition, v0: int) -> int:
        blocked = self.blocked_colours(pos, v0 + 1)
        c = (~blocked & (blocked + 1)).bit_length()
        assert c <= self.k, "forced colour exceeds the palette in an ongoing game"
        return c

    def _child(self, pos: VertexPosition, v0: int, c: int) -> VertexPosition:
        colours = bytearray(pos.colours)
        colours[v0] = c
        spread = self.spread[v0]
        shift = c - 1
        blocked = pos.blocked
        return VertexPosition(
            bytes(colours),
            blocked | spread << shift,
            # a neighbour loses a free colour only where c was not yet blocked
            pos.free - (spread & ~(blocked >> shift)),
            pos.udeg - spread,
            pos.open - self.lane[v0],
            pos.played | 1 << v0,
            pos.count + 1,
            pos.colour_mask | 1 << shift,
        )

    def _decode(self, pos: VertexPosition, move: Move) -> tuple[int, int | None]:
        variant = self.spec.variant
        if move.edge is not None:
            raise IllegalMoveError(f"{variant.value} moves do not name an edge")
        if self.ordered:
            v0 = pos.count
            if move.vertex is not None and move.vertex != v0 + 1:
                raise IllegalMoveError(
                    f"vertex {move.vertex} is out of order; vertex {v0 + 1} is next"
                )
        else:
            if move.vertex is None:
                raise IllegalMoveError(f"{variant.value} moves must name a vertex")
            if not (1 <= move.vertex <= self.n):
                raise IllegalMoveError(f"vertex {move.vertex} out of range 1..{self.n}")
            v0 = move.vertex - 1
        c = move.colour
        if self.greedy:
            if c is not None:
                raise IllegalMoveError(
                    f"{variant.value} colours are forced; moves carry no colour"
                )
        elif c is None:
            raise IllegalMoveError(f"{variant.value} moves must name a colour")
        elif not (1 <= c <= self.k):
            raise IllegalMoveError(f"colour {c} out of range 1..{self.k}")
        return v0, c

    def canonical_key(self, pos: VertexPosition):
        if self.colour_symmetric:
            return _canonical_colours(pos.colours, self.k)
        return pos.colours


# Vertex automorphisms enumerated per graph before the search stops. Any
# subset of Aut(G) keeps orbit keys sound, so the cap only costs merges; it
# keeps K6 (720 elements) whole.
_GROUP_CAP = 1024


def edge_automorphisms(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Distinct edge permutations induced by automorphisms of ``g``.

    Element ``p`` maps the colouring ``c`` to ``c[p[0]], c[p[1]], ...``: edge
    ``i`` is sent to edge ``p[i]``, and the identity comes first. Vertex maps
    are found by backtracking over the non-isolated vertices, each restricted
    to vertices of equal degree and equal sorted neighbour degrees, and the
    search stops after _GROUP_CAP of them.
    """
    adj = g.adj
    deg = [a.bit_count() for a in adj]
    sig = [
        (deg[v], tuple(sorted(deg[u] for u in _iter_bits(adj[v]))))
        for v in range(g.n)
    ]
    # breadth-first from each component's highest-degree vertex, so that every
    # vertex but a component's first meets an already-mapped neighbour
    order: list[int] = []
    seen = 0
    for root in sorted(range(g.n), key=lambda v: -deg[v]):
        if not adj[root] or seen >> root & 1:
            continue
        seen |= 1 << root
        queue = [root]
        for v in queue:
            order.append(v)
            for u in _iter_bits(adj[v] & ~seen):
                seen |= 1 << u
                queue.append(u)
    cands = [[w for w in range(g.n) if sig[w] == sig[v]] for v in order]
    image = [0] * g.n
    found: list[list[int]] = []

    def extend(i: int, used: int) -> bool:
        if i == len(order):
            found.append(image.copy())
            return len(found) >= _GROUP_CAP
        v = order[i]
        av = adj[v]
        for w in cands[i]:
            if used >> w & 1:
                continue
            aw = adj[w]
            if all(
                (av >> order[j] & 1) == (aw >> image[order[j]] & 1)
                for j in range(i)
            ):
                image[v] = w
                if extend(i + 1, used | 1 << w):
                    return True
        return False

    extend(0, 0)
    index = g.edge_index
    perms: dict[tuple[int, ...], None] = {}
    for im in found:
        perm = []
        for u, v in g.edges:
            a, b = im[u - 1] + 1, im[v - 1] + 1
            perm.append(index[(a, b) if a < b else (b, a)])
        perms[tuple(perm)] = None
    identity = tuple(range(g.m))
    perms.pop(identity, None)
    return (identity, *perms)


# A group of two elements merges positions at most in pairs: its orbit keys
# saved about 15 % of the time on Breaker-win solves but cost about 30 % on
# Maker wins, where they almost never hit, so canonical_key folds only groups
# of at least _MIN_GROUP elements.
_MIN_GROUP = 3

# translation table to a colouring's pattern: 0 at coloured edges, 1 at
# uncoloured ones, so that coloured edges sort first
_PATTERN = b"\1" + bytes(255)


class _Folding:
    """The edge permutations ``orbit_key`` folds on one graph: Aut(G), or
    the identity alone when Aut(G) has fewer than _MIN_GROUP elements.

    ``coset(pattern)`` lists, per pattern of coloured edges, the elements
    that send it to its least image; it is kept for every pattern asked
    about, so the engines of every k on the graph share it.
    """

    def __init__(self, group: tuple[tuple[int, ...], ...]):
        if len(group) < _MIN_GROUP:
            group = group[:1]
        self.order = len(group)
        self._getters = [itemgetter(*p) for p in group] if self.order > 1 else []
        self._cosets: dict[bytes, list] = {}

    def coset(self, pattern: bytes) -> list:
        """Itemgetters of the elements sending ``pattern`` to its least
        image."""
        coset = self._cosets.get(pattern)
        if coset is None:
            images = [g(pattern) for g in self._getters]
            least = min(images)
            coset = self._cosets[pattern] = [
                g for g, image in zip(self._getters, images) if image == least
            ]
        return coset


@lru_cache(maxsize=512)
def _folding(g: Graph) -> _Folding:
    return _Folding(edge_automorphisms(g))


def _severs(adj: list[int], a: int, b: int) -> bool:
    """True iff b is out of a's reach once the link between them is gone;
    ``adj`` holds neighbour bitmasks, and a and b are joined by one edge."""
    target = 1 << b
    reach = 1 << a
    new = adj[a] & ~target
    while new:
        if new & target:
            return False
        reach |= new
        step = 0
        while new:
            low = new & -new
            step |= adj[low.bit_length() - 1]
            new ^= low
        new = step & ~reach
    return True


class _ArboricityEngine(_EngineBase):
    """Edge-colouring game: no colour class may contain a cycle."""

    exact_key = staticmethod(attrgetter("edge_colours"))

    def __init__(self, spec: GameSpec, g: Graph):
        super().__init__(spec, g)
        self.m = g.m
        self.edges0 = tuple((u - 1, v - 1) for u, v in g.edges)
        # With c components in G, a colour class holds at most n - c edges, so
        # at most k * (n - c) edges are ever coloured. The slack in that bound
        # gates the per-position capacity check: each move wastes at most k-1
        # units of capacity, and slack never rises. When m > k * (n - c) the
        # margin is negative, so slack stays below 0 and the capacity check
        # settles every position, the root included, as a Breaker win.
        self.margin = self.k * (g.n - g.component_count()) - self.m
        # the group orbit_key folds, fetched on the first orbit_key call, so
        # solves settled at the root never pay
        self._fold: _Folding | None = None
        self._palette = range(1, self.k + 1)
        # colour-class sizes -> (labels of the classes of unique size, the
        # classes of shared size as (first label, colours) pairs)
        self._labellings: dict[tuple[int, ...], tuple[bytes, tuple]] = {}

    def group_order(self) -> int:
        return 1 if self._fold is None else self._fold.order

    def _labelling(self, col: bytes) -> tuple[bytes, tuple]:
        """Colour classes labelled 1, 2, ... by increasing size: a
        translation table for the classes whose size no other class shares,
        and the tied classes, each with the first of the labels it shares."""
        sizes = tuple(map(col.count, self._palette))
        labelling = self._labellings.get(sizes)
        if labelling is None:
            classes: dict[int, list[int]] = {}
            for c, size in enumerate(sizes, 1):
                if size:
                    classes.setdefault(size, []).append(c)
            table = bytearray(256)
            tied = []
            label = 1
            for size in sorted(classes):
                cs = classes[size]
                if len(cs) == 1:
                    table[cs[0]] = label
                else:
                    tied.append((label, cs))
                label += len(cs)
            labelling = self._labellings[sizes] = (bytes(table), tuple(tied))
        return labelling

    def orbit_key(self, col: bytes) -> bytes:
        """The memo key of the positions with edge colouring ``col``: a key
        shared by exactly the colourings in the orbit of ``col`` under
        Aut(G) x Sym(k), or the colour-canonical key when the group folded is
        the identity alone.

        The key is itself a colouring in that orbit, with 0 for uncoloured
        edges, built in two steps. First the coloured-edge pattern of ``col``
        is sent to its least image, coloured edges sorting first; only the
        group elements that reach that pattern (its cached coset) go on.
        Then colour classes are labelled 1, 2, ... by increasing size, and
        classes of equal size take their shared labels in order of first
        appearance in each element's image; the least labelled image is the
        key. Any two positions in one orbit have the same least pattern and
        the same set of images reaching it, hence the same key.
        """
        fold = self._fold
        if fold is None:
            fold = self._fold = _folding(self.g)
        if fold.order == 1:
            return _canonical_colours(col, self.k)
        coset = fold.coset(col.translate(_PATTERN))
        table, tied = self._labelling(col)
        least = None
        full = bytearray(table)
        for g in coset:
            image = bytes(g(col))
            for first, cs in tied:
                for label, c in enumerate(sorted(cs, key=image.index), first):
                    full[c] = label
            image = image.translate(full)
            if least is None or image < least:
                least = image
        return least

    def initial(self) -> EdgePosition:
        return EdgePosition(
            bytes(self.m),
            ColourComponents.empty(self.n, self.k),
            0,
            bytes(self.m),
            tuple(range(self.m)),
        )

    def status(self, pos: EdgePosition) -> Status:
        if pos.count == self.m:
            return Status.MAKER_WIN
        # a coloured edge keeps the count it had when it was still playable,
        # below k, so a count of k is an uncoloured edge that is unplayable
        if max(pos.blocked_counts) == self.k:
            return Status.BREAKER_WIN
        return Status.ONGOING

    def assess(self, pos: EdgePosition) -> Status | None:
        st = self.status(pos)
        if st is not Status.ONGOING:
            return st
        # exact rules cannot disagree, so the side to move's, likelier to fire, go first
        breaker = pos.count % 2
        if not breaker and self._all_safe(pos):
            return Status.MAKER_WIN
        if breaker and self._kill_available(pos):
            # Breaker, to move, can colour some edge so that a critical edge
            # loses its last colour: an immediate exact win
            return Status.BREAKER_WIN
        # slack = capacity - u >= margin - (k-1) * count; Breaker (odd count)
        # can use a slack of 0, Maker only a negative one
        if (self.k - 1) * pos.count + breaker > self.margin:
            slack = self._remaining_capacity(pos) - (self.m - pos.count)
            if slack < 0 or (slack == 0 and breaker and self._waste_available(pos)):
                # no continuation can colour all remaining edges (after
                # Breaker's wasting move, when slack is 0), and a game that
                # cannot complete must end with an unplayable edge
                return Status.BREAKER_WIN
        if breaker and self._all_safe(pos):
            return Status.MAKER_WIN
        return None

    def _parallel(
        self, rep: bytes, a: int, b: int, j: int, unc: tuple[int, ...]
    ) -> bool:
        """True iff an uncoloured edge other than j joins components a and b
        of the colour whose components ``rep`` holds."""
        edges0 = self.edges0
        for i in unc:
            x, y = edges0[i]
            rx = rep[x]
            ry = rep[y]
            if ((rx == a and ry == b) or (rx == b and ry == a)) and i != j:
                return True
        return False

    def _kill_available(self, pos: EdgePosition) -> bool:
        """True iff some legal move takes the last free colour of a critical
        edge, one with k - 1 colours blocked."""
        blocked = pos.blocked_counts
        last = self.k - 1
        reps = pos.components.reps
        edges0 = self.edges0
        unc = pos.uncoloured
        for j in unc:
            if blocked[j] != last:
                continue
            p, q = edges0[j]
            for rep in reps:
                a = rep[p]
                b = rep[q]
                if a != b:
                    # the one remaining colour of edge j; any other uncoloured
                    # edge joining the same pair of components kills j
                    if self._parallel(rep, a, b, j, unc):
                        return True
                    break
        return False

    def _remaining_capacity(self, pos: EdgePosition) -> int:
        """Upper bound on how many more edges can ever be coloured: per colour,
        the spanning-forest size of the c-components contracted along the
        still-usable uncoloured edges. Usable edge sets only shrink as play
        proceeds, so the bound is valid for every continuation."""
        edges0 = self.edges0
        unc = pos.uncoloured
        base = list(range(self.n))
        total = 0
        for rep in pos.components.reps:
            parent = base.copy()
            for i in unc:
                p, q = edges0[i]
                a = rep[p]
                b = rep[q]
                if a == b:
                    continue
                while parent[a] != a:
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                while parent[b] != b:
                    parent[b] = parent[parent[b]]
                    b = parent[b]
                if a != b:
                    parent[a] = b
                    total += 1
        return total

    def _waste_available(self, pos: EdgePosition) -> bool:
        """True iff some uncoloured edge is a bridge of one colour's contracted
        usable graph and playable in another colour. Colouring it there costs
        two units of capacity, one per colour, for one edge."""
        blocked = pos.blocked_counts
        unc = pos.uncoloured
        # a bridge is playable in its own colour, so it is playable in another
        # one too iff at most k-2 colours are blocked there
        spare = self.k - 2
        candidates = [i for i in unc if blocked[i] <= spare]
        if not candidates:
            return False
        edges0 = self.edges0
        for rep in pos.components.reps:
            adj, doubled = self._contracted(rep, unc)
            for i in candidates:
                x, y = edges0[i]
                a = rep[x]
                b = rep[y]
                if a != b and 1 << a | 1 << b not in doubled and _severs(adj, a, b):
                    return True
        return False

    def _all_safe(self, pos: EdgePosition) -> bool:
        """True iff every uncoloured edge j is safe: j is a bridge of G_c,
        colour c's contracted usable graph, for a free colour c; or blocking
        j in all its free colours takes at least u other edges (only u - 1
        remain), counting 1 for c if another edge joins j's two
        c-components in G_c and 2 if none does."""
        edges0 = self.edges0
        blocked = pos.blocked_counts
        reps = pos.components.reps
        unc = pos.uncoloured
        u = self.m - pos.count
        threshold = self.k - u
        graphs: dict[bytes, list[int]] = {}
        # the most blocked edges are the likeliest to fail
        for j in sorted(unc, key=blocked.__getitem__, reverse=True):
            if blocked[j] <= threshold:
                break  # this edge and the rest keep u free colours
            p, q = edges0[j]
            score = 0
            lone = []  # free colours in which no other edge joins p and q
            for rep in reps:
                a = rep[p]
                b = rep[q]
                if a == b:
                    continue
                if self._parallel(rep, a, b, j, unc):
                    score += 1
                else:
                    score += 2
                    lone.append((rep, a, b))
            if score >= u:
                continue
            for rep, a, b in lone:
                adj = graphs.get(rep)
                if adj is None:
                    adj = graphs[rep] = self._contracted(rep, unc)[0]
                if _severs(adj, a, b):
                    break
            else:
                return False
        return True

    def _contracted(
        self, rep: bytes, unc: tuple[int, ...]
    ) -> tuple[list[int], set[int]]:
        """The contracted usable graph of the colour with components ``rep``:
        neighbour bitmasks, and the pairs ``1 << a | 1 << b`` it doubles."""
        edges0 = self.edges0
        adj = [0] * self.n
        doubled = set()
        for i in unc:
            x, y = edges0[i]
            a = rep[x]
            b = rep[y]
            if a != b:
                if adj[a] >> b & 1:
                    doubled.add(1 << a | 1 << b)
                adj[a] |= 1 << b
                adj[b] |= 1 << a
        return adj, doubled

    def _moves(self, pos: EdgePosition, reduced: bool, order=None):
        reps = pos.components.reps
        edges0 = self.edges0
        colours = [b + 1 for b in _iter_bits(self._allowed(pos.colour_mask, reduced))]
        if order is None:
            edges = pos.uncoloured
        else:
            edges = [i for i in order if not pos.edge_colours[i]]
        for i in edges:
            x, y = edges0[i]
            for c in colours:
                if reps[c - 1][x] != reps[c - 1][y]:
                    yield i, c

    def _move(self, i: int, c: int) -> Move:
        return Move(edge=self.g.edges[i], colour=c)

    def search_steps(self, pos: EdgePosition, table: dict):
        """Look each child's canonical key up before building the child: a
        child already in the memo table is answered without being built, and
        any other child is handed over with its key."""
        edge_colours = pos.edge_colours
        key_of = self.orbit_key
        for i, c in self._moves(pos, True):
            patched = bytearray(edge_colours)
            patched[i] = c
            key = key_of(bytes(patched))
            cached = table.get(key)
            if cached is not None:
                yield cached, None, None
                continue
            yield None, self._child(pos, i, c), key

    def _child(self, pos: EdgePosition, i: int, c: int) -> EdgePosition:
        x, y = self.edges0[i]
        colours = bytearray(pos.edge_colours)
        colours[i] = c
        rep = pos.components.reps[c - 1]
        ra = rep[x]
        rb = rep[y]
        blocked = bytearray(pos.blocked_counts)
        edges0 = self.edges0
        child_unc = []
        for j in pos.uncoloured:
            if j == i:
                continue
            child_unc.append(j)
            p, q = edges0[j]
            rp = rep[p]
            rq = rep[q]
            if (rp == ra and rq == rb) or (rp == rb and rq == ra):
                blocked[j] += 1
        return EdgePosition(
            bytes(colours),
            pos.components.merged(c, x + 1, y + 1),
            pos.count + 1,
            bytes(blocked),
            tuple(child_unc),
            pos.colour_mask | 1 << (c - 1),
        )

    def _decode(self, pos: EdgePosition, move: Move) -> tuple[int, int]:
        if move.edge is None or move.colour is None:
            raise IllegalMoveError("arboricity moves name an edge and a colour")
        if move.vertex is not None:
            raise IllegalMoveError("arboricity moves do not name a vertex")
        i = self.g.edge_index.get(move.edge)
        if i is None:
            raise IllegalMoveError(
                f"edge ({move.edge[0]},{move.edge[1]}) is not in the graph"
            )
        c = move.colour
        if not (1 <= c <= self.k):
            raise IllegalMoveError(f"colour {c} out of range 1..{self.k}")
        return i, c

    def canonical_key(self, pos: EdgePosition):
        return self.orbit_key(pos.edge_colours)


class _MarkingEngine(_EngineBase):
    """Marking games: Maker wins iff every vertex is marked with at most s
    already-marked neighbours; a violating mark latches a Breaker win."""

    def __init__(self, spec: GameSpec, g: Graph):
        super().__init__(spec, g)
        self.s = spec.k
        # the vertices whose degree exceeds s; any other vertex's whole
        # neighbourhood fits the bound, so marking it never violates it
        self.risky = sum(
            1 << v for v, a in enumerate(g.adj) if a.bit_count() > self.s
        )

    def initial(self) -> MarkPosition:
        return MarkPosition(0, 0, False)

    def status(self, pos: MarkPosition) -> Status:
        if pos.lost:
            return Status.BREAKER_WIN
        if pos.count == self.n:
            return Status.MAKER_WIN
        return Status.ONGOING

    def assess(self, pos: MarkPosition) -> Status | None:
        st = self.status(pos)
        if st is not Status.ONGOING:
            return st
        if not self.risky & ~pos.marked:
            return Status.MAKER_WIN
        return None

    def _moves(self, pos: MarkPosition, reduced: bool, order=None):
        for v in self._candidates(pos.marked, order):
            yield v, 0

    def _move(self, v0: int, c: int) -> Move:
        return Move(vertex=v0 + 1)

    def _child(self, pos: MarkPosition, v0: int, c: int) -> MarkPosition:
        lost = pos.lost or (self.g.adj[v0] & pos.marked).bit_count() > self.s
        return MarkPosition(pos.marked | 1 << v0, pos.count + 1, lost)

    def _decode(self, pos: MarkPosition, move: Move) -> tuple[int, None]:
        if move.vertex is None or move.colour is not None or move.edge is not None:
            raise IllegalMoveError("marking moves name a vertex only")
        if not (1 <= move.vertex <= self.n):
            raise IllegalMoveError(f"vertex {move.vertex} out of range 1..{self.n}")
        return move.vertex - 1, None

    def canonical_key(self, pos: MarkPosition):
        # one marked set can be reached both ongoing and lost
        return pos.marked << 1 | pos.lost

    exact_key = canonical_key  # with no colours to fold, the two keys are one


@lru_cache(maxsize=512)
def engine(spec: GameSpec, g: Graph) -> _EngineBase:
    """The rules of one game, cached per (spec, graph): ``initial``,
    ``legal_moves``, ``apply``, ``status``, ``canonical_key`` and
    ``exact_key``."""
    if spec.variant is Variant.ARBORICITY:
        return _ArboricityEngine(spec, g)
    if spec.variant.marking:
        return _MarkingEngine(spec, g)
    return _VertexEngine(spec, g)


def to_move(pos: Position) -> Player:
    return Player.MAKER if pos.count % 2 == 0 else Player.BREAKER
