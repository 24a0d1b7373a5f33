"""The paper-claims regression suite: ten checks covering every concrete
game-value claim plus the property suites that stand in for the general
theorems. ``run_checks`` prints one PASS/FAIL line per check and is the
engine behind both ``mbgames verify-paper`` and tests/test_acceptance.py.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from . import families
from .graphs import Graph, identity_ordering, to_graph6
from .imagination import SolverAgent, TransformedBreakerAgent, verify_agent_wins
from .parameters import win_profile
from .rules import GameSpec, Move, Player, Status, Variant, engine
from .search import (
    ChiGLessThanChiCg,
    ColCgEdgeNonMonotone,
    NonMonotoneProfile,
    ScanReport,
    enumerate_graphs,
    scan,
)
from .solver import Solver, naive_solve, solve


@dataclass
class CheckResult:
    check_id: str
    title: str
    ok: bool
    elapsed: float
    budget_s: float
    details: list[str] = field(default_factory=list)

    @property
    def within_budget(self) -> bool:
        return self.elapsed <= self.budget_s

    def line(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        return (
            f"{verdict} {self.check_id}: {self.title} "
            f"[{self.elapsed:.2f}s / budget {self.budget_s:.0f}s]"
        )


class _Check:
    def __init__(self, check_id: str, title: str, budget_s: float, fn: Callable):
        self.check_id = check_id
        self.title = title
        self.budget_s = budget_s
        self.fn = fn

    def run(self) -> CheckResult:
        details: list[str] = []
        start = time.perf_counter()
        try:
            ok = self.fn(details)
        except Exception as exc:  # a crashed check is a failed check
            details.append(f"error: {type(exc).__name__}: {exc}")
            ok = False
        elapsed = time.perf_counter() - start
        return CheckResult(self.check_id, self.title, ok, elapsed, self.budget_s, details)


def _expect(details: list[str], label: str, got, want) -> bool:
    ok = got == want
    details.append(f"{'ok' if ok else 'MISMATCH'}: {label}: got {got}, want {want}")
    return ok


def _winner(variant: Variant, k: int, g: Graph, ordering=None) -> Status:
    return solve(GameSpec(variant, k, ordering), g).winner


def _scan(details: list[str], graphs: Iterable[Graph], predicate) -> tuple[ScanReport, bool]:
    """``scan`` with a detail line per skipped graph; the flag is False on any
    skip, so a check never passes on graphs it did not evaluate."""
    report = scan(graphs, predicate)
    for skip in report.skipped:
        details.append(f"SKIPPED {skip.graph6}: {skip.reason}")
    return report, not report.skipped


def _graphs_up_to(n_max: int) -> list[Graph]:
    out: list[Graph] = []
    for n in range(1, n_max + 1):
        out.extend(enumerate_graphs(n))
    return out


def check_t1(details: list[str]) -> bool:
    g = families.fig3_graph()
    ok = True
    for k in (1, 2, 3):
        ok &= _expect(details, f"vertex k={k}", _winner(Variant.VERTEX, k, g), Status.BREAKER_WIN)
    ok &= _expect(details, "vertex k=4", _winner(Variant.VERTEX, 4, g), Status.MAKER_WIN)
    for k in (1, 2, 3, 4):
        ok &= _expect(
            details, f"cvertex k={k}", _winner(Variant.CONNECTED_VERTEX, k, g), Status.BREAKER_WIN
        )
    ok &= _expect(details, "cvertex k=5", _winner(Variant.CONNECTED_VERTEX, 5, g), Status.MAKER_WIN)
    details.append("hence chi_g=4 < chi_cg=5")
    return ok


def check_t2(details: list[str]) -> bool:
    g, e = families.fig4_graph()
    reduced = g.delete_edge(e)
    ok = _expect(details, "G connected after deleting e", reduced.is_connected(), True)
    profile = win_profile(g, Variant.CONNECTED_MARKING, (0, 3))
    ok &= _expect(details, "G s=1", profile.outcome(1), Status.BREAKER_WIN)
    ok &= _expect(details, "G s=2", profile.outcome(2), Status.MAKER_WIN)
    ok &= _expect(details, "col_cg(G)", profile.parameter_value(), 3)
    profile_e = win_profile(reduced, Variant.CONNECTED_MARKING, (0, 4))
    for s in (1, 2):
        ok &= _expect(details, f"G-e s={s}", profile_e.outcome(s), Status.BREAKER_WIN)
    ok &= _expect(details, "G-e s=3", profile_e.outcome(3), Status.MAKER_WIN)
    ok &= _expect(details, "col_cg(G-e)", profile_e.parameter_value(), 4)
    return ok


def check_t3(details: list[str]) -> bool:
    h1 = families.h_r(1)
    ok = _expect(
        details, "H_1 overtex k=3",
        _winner(Variant.ORDERED_VERTEX, 3, h1.graph, h1.ordering), Status.MAKER_WIN,
    )
    ok &= _expect(
        details, "H_1 overtex k=4",
        _winner(Variant.ORDERED_VERTEX, 4, h1.graph, h1.ordering), Status.BREAKER_WIN,
    )
    h2 = families.h_r(2)
    ok &= _expect(
        details, "H_2 overtex k=3",
        _winner(Variant.ORDERED_VERTEX, 3, h2.graph, h2.ordering), Status.MAKER_WIN,
    )
    ok &= _expect(
        details, "H_2 overtex k=5",
        _winner(Variant.ORDERED_VERTEX, 5, h2.graph, h2.ordering), Status.BREAKER_WIN,
    )
    # undetermined in the source material at k=4; reported, not asserted
    k4 = _winner(Variant.ORDERED_VERTEX, 4, h2.graph, h2.ordering)
    details.append(f"reported (not asserted): H_2 overtex k=4 -> {k4.value}")
    return ok


def check_t4(details: list[str]) -> bool:
    og = families.theorem14_graph(4, 5)
    ok = _expect(details, "thm14(4,5) n", og.graph.n, 11)
    ok &= _expect(
        details, "overtex k=4",
        _winner(Variant.ORDERED_VERTEX, 4, og.graph, og.ordering), Status.MAKER_WIN,
    )
    ok &= _expect(
        details, "overtex k=5",
        _winner(Variant.ORDERED_VERTEX, 5, og.graph, og.ordering), Status.BREAKER_WIN,
    )
    return ok


def check_t5(details: list[str]) -> bool:
    h1 = families.h_r(1)
    spec = GameSpec(Variant.ORDERED_GREEDY, 3, h1.ordering)
    result = solve(spec, h1.graph)
    ok = _expect(details, "ogreedy k=3 winner", result.winner, Status.BREAKER_WIN)
    pv = result.oracle.principal_variation()
    ok &= _expect(details, "forced trace length", len(pv), 8)
    eng = engine(spec, h1.graph)
    pos = eng.initial()
    for move in pv:
        pos = eng.apply(pos, move)
    trace = tuple(pos.colours[:8])
    ok &= _expect(details, "first-fit colour trace", trace, (1, 2, 2, 1, 1, 2, 1, 3))
    ok &= _expect(details, "vertex 9 uncoloured", pos.colour(9), 0)
    blocked = pos.blocked[8]
    ok &= _expect(details, "vertex 9 blocked on all 3 colours", blocked, 0b111)
    return ok


def check_t6(details: list[str]) -> bool:
    stream = [g for g in _graphs_up_to(5) if g.m]
    report, ok = _scan(details, stream, NonMonotoneProfile(Variant.ARBORICITY))
    for hit in report.hits:
        ok = False
        details.append(
            f"MONOTONICITY VIOLATION (mathematically significant!): "
            f"graph {hit.graph6} arboricity profile {hit.profiles}"
        )
    checked = len(stream) - len(report.skipped)
    details.append(f"checked arboricity profiles of {checked} graphs, n <= 5")
    return ok


def check_t7(details: list[str]) -> bool:
    ok = True
    verified = 0
    for g in _graphs_up_to(5):
        if g.m == 0:
            continue
        for k_plus in range(2, g.m + 1):
            spec_plus = GameSpec(Variant.ARBORICITY, k_plus)
            solver = Solver(spec_plus, g)
            if solver.winner() is not Status.BREAKER_WIN:
                continue
            k = k_plus - 1
            inner = SolverAgent(spec_plus, g, Player.BREAKER, solver)
            agent = TransformedBreakerAgent(inner, g, k)
            result = verify_agent_wins(GameSpec(Variant.ARBORICITY, k), g, agent)
            verified += 1
            if not result.ok:
                ok = False
                line = " ".join(map(str, result.maker_line or ()))
                details.append(
                    f"TRANSFORM DEFEATED on {g.edges} at k={k}: Maker line {line}"
                )
    details.append(
        f"verified {verified} transformed agents exhaustively "
        f"(zero concessions, zero containment violations)"
    )
    return ok


def check_t8(details: list[str]) -> bool:
    ok = True
    compared = 0
    for g in _graphs_up_to(4):
        connected = g.is_connected()
        identity = identity_ordering(g.n)
        for variant in Variant:
            if variant.connectivity_restricted and not connected:
                continue
            ordering = identity if variant.ordered else None
            for k in range(0, 4):
                spec = GameSpec(variant, k, ordering)
                fast = solve(spec, g).winner
                slow = naive_solve(spec, g).winner
                compared += 1
                if fast is not slow:
                    ok = False
                    details.append(
                        f"ORACLE MISMATCH {variant.value} k={k} on {g.edges}: "
                        f"solve={fast.value} naive={slow.value}"
                    )
    details.append(f"solve == naive_solve on {compared} instances")
    return ok


def check_t9(details: list[str]) -> bool:
    ok = True
    graphs5 = _graphs_up_to(5)

    # (a) marking and greedy profiles are upward-closed
    closed = 0
    for g in graphs5:
        connected = g.is_connected()
        delta = g.max_degree()
        cases: list[tuple[Variant, tuple[int, int]]] = [
            (Variant.MARKING, (0, g.n)),
            (Variant.GREEDY, (1, delta + 2)),
            (Variant.ORDERED_GREEDY, (1, delta + 2)),
        ]
        if connected:
            cases.append((Variant.CONNECTED_MARKING, (0, g.n)))
        for variant, k_range in cases:
            profile = win_profile(g, variant, k_range)
            closed += 1
            if profile.monotonicity_violations():
                ok = False
                details.append(
                    f"UPWARD-CLOSURE FAILURE {variant.value} on {g.edges}: "
                    f"{profile.as_dict()}"
                )
    details.append(f"(a) {closed} marking/greedy profiles upward-closed")

    # (b) trivial-win bounds
    bounds = 0
    for g in graphs5:
        delta = g.max_degree()
        connected = g.is_connected()
        for variant in (
            Variant.VERTEX,
            Variant.CONNECTED_VERTEX,
            Variant.ORDERED_VERTEX,
            Variant.GREEDY,
            Variant.ORDERED_GREEDY,
        ):
            if variant.connectivity_restricted and not connected:
                continue
            ordering = identity_ordering(g.n) if variant.ordered else None
            w = _winner(variant, delta + 1, g, ordering)
            bounds += 1
            if w is not Status.MAKER_WIN:
                ok = False
                details.append(
                    f"TRIVIAL BOUND FAILURE {variant.value} k=Delta+1={delta + 1} "
                    f"on {g.edges}: {w.value}"
                )
        w = _winner(Variant.ARBORICITY, g.m, g)
        bounds += 1
        if w is not Status.MAKER_WIN:
            ok = False
            details.append(
                f"TRIVIAL BOUND FAILURE arboricity k=m={g.m} on {g.edges}: {w.value}"
            )
    details.append(f"(b) {bounds} trivial-win bounds hold")

    # (c) colour-permutation winner invariance on all n <= 4 graphs: permuting
    # the colours of any opening's moves never changes the winner. Each
    # permuted opening gets a fresh solver: the one holding the unpermuted
    # answer would read it back under the same colour-canonical key
    invariant = 0
    k = 3
    for g in _graphs_up_to(4):
        connected = g.is_connected()
        for variant in (
            Variant.VERTEX,
            Variant.CONNECTED_VERTEX,
            Variant.ORDERED_VERTEX,
            Variant.ARBORICITY,
        ):
            if variant.connectivity_restricted and not connected:
                continue
            ordering = identity_ordering(g.n) if variant.ordered else None
            spec = GameSpec(variant, k, ordering)
            eng = engine(spec, g)
            solver = Solver(spec, g)
            start = eng.initial()
            if eng.status(start) is not Status.ONGOING:
                continue
            openings: list[list[Move]] = []
            for m1, p1 in eng.children(start):
                if eng.status(p1) is not Status.ONGOING:
                    continue
                openings.append([m1])
                for m2, p2 in eng.children(p1):
                    openings.append([m1, m2])
            for moves in openings:
                base = start
                for mv in moves:
                    base = eng.apply(base, mv)
                want = solver.winner(base)
                for perm in itertools.permutations(range(1, k + 1)):
                    pos = start
                    for mv in moves:
                        pos = eng.apply(
                            pos,
                            Move(
                                vertex=mv.vertex,
                                colour=perm[mv.colour - 1],
                                edge=mv.edge,
                            ),
                        )
                    got = Solver(spec, g).winner(pos)
                    invariant += 1
                    if got is not want:
                        ok = False
                        details.append(
                            f"COLOUR-PERMUTATION MISMATCH {variant.value} on "
                            f"{g.edges}: opening {[str(m) for m in moves]} perm {perm}"
                        )
    details.append(f"(c) {invariant} colour-permuted openings winner-invariant")
    return ok


def check_t10(details: list[str]) -> bool:
    fig3 = families.fig3_graph()
    fig4, e = families.fig4_graph()

    report, ok = _scan(details, [fig3, fig4], ChiGLessThanChiCg())
    found = any(
        h.graph6 == to_graph6(fig3) and h.witness == {"chi_g": 4, "chi_cg": 5}
        for h in report.hits
    )
    ok &= _expect(details, "fig3 flagged with chi_g=4 < chi_cg=5", found, True)

    report, complete = _scan(details, [fig3, fig4], ColCgEdgeNonMonotone())
    ok &= complete
    found = False
    for h in report.hits:
        if h.graph6 == to_graph6(fig4) and h.witness.get("col_cg") == 3:
            for w in h.witness.get("edges", []):
                if w["edge"] == [1, 3] and w["col_cg_minus_e"] == 4:
                    found = True
    ok &= _expect(
        details, "fig4 flagged with witness edge (1,3): col_cg 3 -> 4", found, True
    )

    stream = [
        g for n in range(1, 7) for g in enumerate_graphs(n, connected_only=True)
    ]
    report, complete = _scan(details, stream, NonMonotoneProfile(Variant.ARBORICITY))
    ok &= complete
    ok &= _expect(
        details,
        f"arboricity nonmonotonicity hits over {len(stream)} connected graphs n<=6",
        len(report.hits),
        0,
    )
    return ok


CHECKS: tuple[_Check, ...] = (
    _Check("T1", "fig. 3 graph: chi_g=4 below chi_cg=5", 10, check_t1),
    _Check("T2", "fig. 4 graph: col_cg rises from 3 to 4 when e is removed", 5, check_t2),
    _Check("T3", "ordered game on H_1/H_2: Maker wins k=3, Breaker wins k=3+r", 60, check_t3),
    _Check("T4", "ordered game construction for k=4, l=5", 120, check_t4),
    _Check("T5", "ordered greedy game on H_1: forced 8-move Breaker win", 1, check_t5),
    _Check("T6", "arboricity profiles monotone on every graph n<=5", 600, check_t6),
    _Check("T7", "imagination transform wins every verified instance n<=5", 900, check_t7),
    _Check("T8", "solve equals naive_solve on every instance n<=4", 300, check_t8),
    _Check("T9", "property suites: closure, trivial bounds, colour symmetry", 600, check_t9),
    _Check("T10", "computer-search reproduction", 900, check_t10),
)


def run_checks(
    ids: Iterable[str] | None = None, emit: Callable[[str], None] | None = None
) -> list[CheckResult]:
    wanted = None if ids is None else {i.upper() for i in ids}
    results = []
    for check in CHECKS:
        if wanted is not None and check.check_id not in wanted:
            continue
        result = check.run()
        if emit is not None:
            emit(result.line())
        results.append(result)
    return results
