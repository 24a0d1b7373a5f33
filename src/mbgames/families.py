"""Generators for the concrete graphs studied in the paper-claims suite,
plus standard sanity families (paths, cycles, complete graphs, stars).

Unlabelled figure vertices receive fixed deterministic indices so that every
test and CLI run sees identical labellings. The ordered graphs are labelled
in play order: their ordered games colour vertex 1 first, then 2, and so on.
"""

from __future__ import annotations

from .graphs import Graph


def h_r(r: int) -> Graph:
    """The 2r+7-vertex ordered graph whose ordered colouring game is won by
    Maker with 3 colours but by Breaker with 3+r colours."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    top = 2 * r + 7
    edges = [(1, 2)]
    for i in range(1, r + 1):
        edges += [(1, 2 * i + 1), (2 * i + 1, 2 * i + 2), (2 * i + 2, top)]
    edges += [
        (1, 2 * r + 4),
        (1, 2 * r + 6),
        (1, top),
        (2, 2 * r + 5),
        (2, top),
        (2 * r + 3, 2 * r + 4),
        (2 * r + 4, 2 * r + 6),
        (2 * r + 6, top),
    ]
    return Graph(top, edges)


def fig3_graph() -> Graph:
    """7-vertex, 13-edge graph whose game chromatic number (4) is below its
    connected game chromatic number (5). Labels 1..3 follow the figure;
    the unlabelled vertices are numbered 4..7."""
    return Graph(
        7,
        [
            (1, 2), (1, 4), (1, 5), (1, 6), (1, 7),
            (2, 5), (2, 6), (2, 7),
            (3, 5), (3, 7),
            (4, 6), (5, 7), (6, 7),
        ],
    )


FIG4_EDGE = (1, 3)


def fig4_graph() -> tuple[Graph, tuple[int, int]]:
    """8-vertex, 12-edge graph G with the edge e = (1,3) whose removal raises
    the connected game colouring number from 3 to 4. Labels 1..3 follow the
    figure; the unlabelled vertices are numbered 4..8."""
    g = Graph(
        8,
        [
            (4, 7), (4, 5), (5, 6), (5, 8),
            (2, 6), (1, 2), (3, 8), (1, 3),
            (6, 7), (1, 6), (7, 8), (1, 8),
        ],
    )
    return g, FIG4_EDGE


def theorem14_graph(k: int, l: int) -> Graph:
    """Ordered graph on which Maker wins the ordered colouring game with k
    colours and Breaker wins with l > k colours.

    For k = 3 this is exactly h_r(l-3). For k > 3, vertices u_1..u_{2(k-3)}
    precede a copy of h_r(l-k): odd u's are isolated, even u's form a clique
    joined completely to every h_r vertex.
    """
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    if l <= k:
        raise ValueError(f"l must exceed k, got l={l}, k={k}")
    if k == 3:
        return h_r(l - 3)
    base = h_r(l - k)
    shift = 2 * (k - 3)
    n = shift + base.n
    edges = [(u + shift, v + shift) for u, v in base.edges]
    evens = [2 * i for i in range(1, k - 2)]
    for a in range(len(evens)):
        for b in range(a + 1, len(evens)):
            edges.append((evens[a], evens[b]))
    for u in evens:
        for h in range(1, base.n + 1):
            edges.append((u, h + shift))
    return Graph(n, edges)


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph(n, [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)])


def star(n: int) -> Graph:
    if n < 1:
        raise ValueError("star needs n >= 1")
    return Graph(n, [(1, i) for i in range(2, n + 1)])


def edgeless(n: int) -> Graph:
    if n < 1:
        raise ValueError("edgeless graph needs n >= 1")
    return Graph(n, [])


_STANDARD = {
    "path": path,
    "cycle": cycle,
    "complete": complete,
    "star": star,
    "edgeless": edgeless,
}


def build(name_spec: str) -> Graph:
    """Build a named family instance from CLI syntax ``name[:params]``.

    Known names: fig3, fig4, fig4_minus_e, h_r:R, thm14:K,L, and the standard
    families path/cycle/complete/star/edgeless with a single size parameter.
    """
    name, _, params = name_spec.partition(":")
    name = name.strip().lower()
    args = [p for p in params.split(",") if p.strip() != ""]

    def int_args(expected: int) -> list[int]:
        if len(args) != expected:
            raise ValueError(
                f"family {name!r} takes {expected} integer parameter(s), "
                f"got {args or 'none'}"
            )
        try:
            return [int(a) for a in args]
        except ValueError:
            raise ValueError(f"non-integer parameter for family {name!r}") from None

    if name == "fig3":
        int_args(0)
        return fig3_graph()
    if name == "fig4":
        int_args(0)
        return fig4_graph()[0]
    if name in ("fig4_minus_e", "fig4-minus-e"):
        int_args(0)
        g, e = fig4_graph()
        return g.delete_edge(e)
    if name == "h_r":
        (r,) = int_args(1)
        return h_r(r)
    if name in ("thm14", "theorem14"):
        k, l = int_args(2)
        return theorem14_graph(k, l)
    if name in _STANDARD:
        (n,) = int_args(1)
        return _STANDARD[name](n)
    raise ValueError(f"unknown family {name!r}")
