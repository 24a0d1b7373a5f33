"""Reference views of ``ColourComponents`` for the tests.

``from_edge_colours`` rebuilds the components of a position from its edge
colouring alone, one merge per coloured edge, so it shares no state with the
incremental updates the arboricity engine makes move by move.
"""

from mbgames.graphs import ColourComponents, Graph


def same_component(comps: ColourComponents, colour: int, u: int, v: int) -> bool:
    r = comps.reps[colour - 1]
    return r[u - 1] == r[v - 1]


def component_sets(comps: ColourComponents, colour: int) -> list[frozenset[int]]:
    groups: dict[int, set[int]] = {}
    for v0, rep in enumerate(comps.reps[colour - 1]):
        groups.setdefault(rep, set()).add(v0 + 1)
    return [frozenset(groups[rep]) for rep in sorted(groups)]


def from_edge_colours(g: Graph, edge_colours, colours: int) -> ColourComponents:
    comps = ColourComponents.empty(g.n, colours)
    for (u, v), c in zip(g.edges, edge_colours):
        if c:
            comps = comps.merged(c, u, v)
    return comps
