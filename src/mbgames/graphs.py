"""Bitmask graphs on at most 64 vertices, with edge-list and graph6 codecs.

Vertices are numbered 1..n at every public interface. Adjacency is stored as
per-vertex integer bitmasks (bit i set = adjacent to vertex i+1), which keeps
neighbourhood queries and connectivity checks branch-free in the game engines.
"""

from __future__ import annotations

from typing import Iterable, Iterator

MAX_VERTICES = 64

GRAPH6_HEADER = ">>graph6<<"


class ParseError(ValueError):
    """Malformed edge-list or graph6 input."""


class CapacityError(ValueError):
    """Graph larger than the supported 64-vertex capacity."""


class Graph:
    """Immutable simple undirected graph on vertices 1..n."""

    __slots__ = ("n", "edges", "adj", "edge_index", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        if n > MAX_VERTICES:
            raise CapacityError(
                f"{n} vertices exceeds the {MAX_VERTICES}-vertex capacity"
            )
        adj = [0] * n
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) out of range 1..{n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge ({e[0]},{e[1]})")
            seen.add(e)
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
        self.n = n
        self.edges = tuple(sorted(seen))
        self.adj = tuple(adj)
        self.edge_index = {e: i for i, e in enumerate(self.edges)}
        self._hash = hash((n, self.edges))

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbours(self, v: int) -> frozenset[int]:
        mask = self.adj[v - 1]
        return frozenset(i + 1 for i in range(self.n) if mask >> i & 1)

    def degree(self, v: int) -> int:
        return self.adj[v - 1].bit_count()

    def max_degree(self) -> int:
        return max((a.bit_count() for a in self.adj), default=0)

    def delete_edge(self, e: tuple[int, int]) -> "Graph":
        """Return the graph with edge ``e`` removed; error if ``e`` is absent."""
        u, v = e
        key = (u, v) if u < v else (v, u)
        if key not in self.edge_index:
            raise ValueError(f"edge ({key[0]},{key[1]}) is not in the graph")
        return Graph(self.n, tuple(x for x in self.edges if x != key))

    def is_connected(self) -> bool:
        """True iff the graph has a single connected component (n=0 counts)."""
        return self.component_count() <= 1

    def component_count(self) -> int:
        adj = self.adj
        unseen = (1 << self.n) - 1
        count = 0
        while unseen:
            count += 1
            seed = unseen & -unseen
            reached = seed
            frontier = seed
            while frontier:
                nxt = 0
                while frontier:
                    b = frontier & -frontier
                    frontier ^= b
                    nxt |= adj[b.bit_length() - 1]
                frontier = nxt & ~reached
                reached |= frontier
            unseen &= ~reached
        return count

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def relabel(g: Graph, order: Iterable[int]) -> Graph:
    """``g`` with vertex ``order[i]`` renamed i + 1, so that label order is
    ``order``: the way to play an ordered game in another vertex order."""
    order = tuple(order)
    if sorted(order) != list(range(1, g.n + 1)):
        raise ValueError(f"ordering {order} is not a permutation of 1..{g.n}")
    label = {v: i for i, v in enumerate(order, 1)}
    return Graph(g.n, [(label[u], label[v]) for u, v in g.edges])


# ---------------------------------------------------------------------------
# Edge-list format: first line "n m", then m lines "u v" with 1 <= u < v <= n.
# Blank lines and lines starting with '#' are ignored.
# ---------------------------------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    rows: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append((lineno, line))
    if not rows:
        raise ParseError("empty edge-list input")

    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(f'line {lineno}: expected header "n m", got "{header}"')
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f'line {lineno}: non-integer header "{header}"') from None
    if m != len(rows) - 1:
        raise ParseError(
            f"line {lineno}: header promises {m} edges but {len(rows) - 1} edge "
            f"lines follow"
        )

    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f'line {lineno}: expected "u v", got "{line}"')
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f'line {lineno}: non-integer endpoint in "{line}"') from None
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at vertex {u}")
        if not (1 <= u < v <= n):
            raise ParseError(
                f"line {lineno}: edge ({u},{v}) violates 1 <= u < v <= {n}"
            )
        if (u, v) in seen:
            raise ParseError(f"line {lineno}: duplicate edge ({u},{v})")
        seen.add((u, v))
        edges.append((u, v))
    try:
        return Graph(n, edges)
    except (ValueError, CapacityError) as exc:
        raise ParseError(str(exc)) from None


def to_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# graph6 codec, bit-exact per the published format: header byte(s) encode n,
# then the upper triangle of the adjacency matrix in column order x(0,1),
# x(0,2), x(1,2), x(0,3), ... packed big-endian into 6-bit printable bytes.
# ---------------------------------------------------------------------------

def parse_graph6(line: str) -> Graph:
    s = line.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise ParseError("empty graph6 line")
    data = [ord(ch) - 63 for ch in s]
    if any(x < 0 or x > 63 for x in data):
        raise ParseError(f'invalid graph6 byte in "{s}"')

    if data[0] < 63:
        n = data[0]
        body = data[1:]
    else:
        # long form: '~' then three 6-bit groups holding an 18-bit n
        if len(data) < 4 or data[1] == 63:
            raise ParseError(f'invalid graph6 header in "{s}"')
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    if n > MAX_VERTICES:
        raise CapacityError(
            f"graph6 line encodes {n} vertices; capacity is {MAX_VERTICES}"
        )

    nbits = n * (n - 1) // 2
    expect = (nbits + 5) // 6
    if len(body) != expect:
        raise ParseError(
            f"graph6 body for n={n} needs {expect} bytes, got {len(body)}"
        )
    bits = 0
    for x in body:
        bits = bits << 6 | x
    bits >>= (6 * expect - nbits)  # drop padding

    edges = []
    pos = nbits - 1
    for j in range(1, n):
        for i in range(j):
            if bits >> pos & 1:
                edges.append((i + 1, j + 1))
            pos -= 1
    return Graph(n, edges)


def to_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + chr((n >> 12) + 63) + chr((n >> 6 & 63) + 63) + chr((n & 63) + 63)
    nbits = n * (n - 1) // 2
    bits = 0
    for j in range(1, n):
        col = g.adj[j]
        for i in range(j):
            bits = bits << 1 | (col >> i & 1)
    pad = (6 - nbits % 6) % 6
    bits <<= pad
    body = []
    for shift in range(nbits + pad - 6, -1, -6):
        body.append(chr((bits >> shift & 63) + 63))
    return head + "".join(body)


def iter_graph6(text: str) -> Iterator[Graph]:
    """Yield one graph per non-blank line; parse errors name the line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            yield parse_graph6(line)
        except (ParseError, CapacityError) as exc:
            raise ParseError(f"line {lineno}: {exc}") from None


# ---------------------------------------------------------------------------
# Colour components: for each palette colour, the connected components of the
# edges carrying that colour, kept as per-colour representative arrays (the
# representative is the smallest vertex of the component).
# ---------------------------------------------------------------------------

class ColourComponents:
    """Per-colour vertex partition tracking the components of each colour class."""

    __slots__ = ("reps",)

    def __init__(self, reps: tuple[bytes, ...]):
        self.reps = reps

    @classmethod
    def empty(cls, n: int, colours: int) -> "ColourComponents":
        base = bytes(range(n))
        return cls((base,) * colours)

    def merged(self, colour: int, u: int, v: int) -> "ColourComponents":
        """New structure with u's and v's components of ``colour`` united."""
        r = self.reps[colour - 1]
        ru, rv = r[u - 1], r[v - 1]
        if ru == rv:
            raise ValueError(
                f"vertices {u} and {v} already share a {colour}-component"
            )
        lo, hi = (ru, rv) if ru < rv else (rv, ru)
        c = colour - 1
        return ColourComponents(
            self.reps[:c]
            + (r.replace(bytes((hi,)), bytes((lo,))),)
            + self.reps[c + 1:],
        )
