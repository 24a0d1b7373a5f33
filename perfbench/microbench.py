"""Rules- and graph-layer rates over seeded playout positions.

Positions come from random playouts (seeded) on a workload's own graphs, one
set per variant. Each operation is timed over repeated sweeps of its inputs
until ``MIN_S`` has passed, and reported as operations per second:

- ``assess``: the status and counting-shortcut check the solver runs first
- ``search_children``: children yielded by the solver's move generator
- ``canonical_key``: the memo-table key of a position
- ``apply``: a validated move from a position
- ``ColourComponents.merged``: the union step behind every arboricity move
"""

from __future__ import annotations

import random
from time import perf_counter

VARIANTS = ("arboricity", "vertex", "cvertex")
MAX_POSITIONS = 300
MIN_S = 0.1


def _rate(op, items) -> float:
    done = 0
    start = perf_counter()
    while True:
        done += op(items)
        elapsed = perf_counter() - start
        if elapsed >= MIN_S:
            return done / elapsed


def _assess(items):
    for eng, pos, _ in items:
        eng.assess(pos)
    return len(items)


def _search_children(items):
    n = 0
    for eng, pos, _ in items:
        for _ in eng.search_children(pos):
            n += 1
    return n


def _canonical_key(items):
    for eng, pos, _ in items:
        eng.canonical_key(pos)
    return len(items)


def _apply(items):
    for eng, pos, move in items:
        eng.apply(pos, move)
    return len(items)


def _merged(items):
    for comps, colour, u, v in items:
        comps.merged(colour, u, v)
    return len(items)


def _positions(mb, variant, specs, rng) -> list:
    """(engine, ongoing position, one legal move) from random playouts."""
    out = []
    v = mb.Variant(variant)
    while len(out) < MAX_POSITIONS:
        before = len(out)
        for k, g in specs:
            eng = mb.rules.engine(mb.GameSpec(v, k), g)
            pos = eng.initial()
            while eng.status(pos) is mb.Status.ONGOING and len(out) < MAX_POSITIONS:
                move, child = rng.choice(list(eng.children(pos)))
                out.append((eng, pos, move))
                pos = child
        if len(out) == before:  # every game is over at the start
            break
    return out


def rates(mb, specs: list[tuple[str, int, object]], seed: int) -> dict[str, float]:
    out: dict[str, float] = {}
    merges = []
    for variant in VARIANTS:
        rng = random.Random(f"{seed}:{variant}")
        items = _positions(mb, variant, [(k, g) for v, k, g in specs if v == variant], rng)
        prefix = f"rules.{variant}"
        if not items:
            for op in ("assess", "search_children", "canonical_key", "apply"):
                out[f"{prefix}.{op}_per_s"] = 0.0
            continue
        out[f"{prefix}.assess_per_s"] = _rate(_assess, items)
        out[f"{prefix}.search_children_per_s"] = _rate(_search_children, items)
        out[f"{prefix}.canonical_key_per_s"] = _rate(_canonical_key, items)
        out[f"{prefix}.apply_per_s"] = _rate(_apply, items)
        if variant == "arboricity":
            merges = [
                (pos.components, move.colour, *move.edge) for _, pos, move in items
            ]
    out["graphs.merged_per_s"] = _rate(_merged, merges) if merges else 0.0
    return out
