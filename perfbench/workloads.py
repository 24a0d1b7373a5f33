"""The benchmark's workloads: seeded inputs, one timed pass, answer checks.

Each workload is built from the freshly imported package ``mb``, the pinned
reference answers and the run's seed (its set-up), then runs any number of
identical passes. A pass returns its wall time, the latency of each graph's
answer, and how many answers it attempted and got wrong. Only the calls that
produce answers run inside the timed (and, when traced, wrapped) region; the
answers are checked after it. Those calls go through package attributes at
call time, so a traced pass sees the wrapped entry points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter

from inputs import GNP_FILE, M12_FILE, read_pool

# arb-dense: one m=12 graph from each block of this many pool graphs, sorted
# by recorded node count, so that every seed gets about the same work. The
# graphs and palettes themselves come from the reference file.
M12_STRATUM = 6
# strategy-replay: a seeded set of REPLAY_DRAWS draws whose recorded
# verification leaves lie in REPLAY_BAND (so one graph's answer takes a similar
# time whichever draws a seed picks) and sum to REPLAY_LEAVES within
# REPLAY_SLACK.
REPLAY_BAND = (17_000, 23_000)
REPLAY_DRAWS = 13
REPLAY_LEAVES = 260_000
REPLAY_SLACK = 0.01
TINY_CHECKS = ("T1", "T2", "T3", "T4", "T5")


@dataclass
class PassResult:
    wall_s: float = 0.0
    graph_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    # exact counts and benchmark-side per-layer values of this pass
    counts: dict[str, float] = field(default_factory=dict)
    # per-instance exact counts that differ from the reference (not gated)
    drift: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def answer(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


def _compare(result: PassResult, label: str, got: dict, want: dict) -> None:
    for key, value in got.items():
        if key in want and want[key] != value:
            result.drift.append(f"{label} {key}: {value} (reference {want[key]})")


class ArbDense:
    """Fresh arboricity solves: K6-e at k=4, and a seeded stratified sample of
    the connected n=7, m=12 graphs at k=2."""

    name = "arb-dense"

    def __init__(self, mb, ref: dict, seed: int, tiny: bool):
        self.mb = mb
        rng = random.Random(seed)
        recorded = ref[self.name]
        pool = read_pool(M12_FILE)
        by_g6 = {r["graph6"]: r for r in recorded["m12"]}
        order = sorted(pool, key=lambda g6: (by_g6[g6]["nodes"], g6))
        sample = [
            rng.choice(order[i:i + M12_STRATUM])
            for i in range(0, len(order), M12_STRATUM)
        ]
        cases = [] if tiny else list(recorded["k6e"])
        cases += [by_g6[g6] for g6 in (sample[:3] if tiny else sample)]
        rng.shuffle(cases)
        self.cases = [(c, mb.parse_graph6(c["graph6"])) for c in cases]

    def run_pass(self, tracer) -> PassResult:
        mb = self.mb
        out = PassResult()
        answers = []
        start = perf_counter()
        with tracer.installed():
            for case, g in self.cases:
                t0 = perf_counter()
                try:
                    r = mb.solve(mb.GameSpec(mb.Variant.ARBORICITY, case["k"]), g)
                except Exception as exc:  # a raised answer is a failed answer
                    r = exc
                out.graph_ms.append((perf_counter() - t0) * 1e3)
                answers.append(r)
        out.wall_s = perf_counter() - start
        for (case, _), r in zip(self.cases, answers):
            label = f"{case['graph6']} k={case['k']}"
            if isinstance(r, Exception):
                out.answer(False, f"{label}: {type(r).__name__}: {r}")
                continue
            out.answer(r.winner.value == case["winner"], f"{label}: {r.winner.value}")
            _compare(out, label, {"nodes": r.nodes_searched, "table_entries": r.table_entries}, case)
        return out

    def playout_specs(self) -> list[tuple[str, int, object]]:
        graphs = [g for _, g in self.cases]
        return (
            [("arboricity", case["k"], g) for case, g in self.cases]
            + [("vertex", 3, g) for g in graphs]
            + [("cvertex", 3, g) for g in graphs]
        )


class _TimedPredicate:
    """Forwards to the scan predicate and records each graph's latency."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.ms: list[float] = []

    def evaluate(self, g, deadline=None):
        t0 = perf_counter()
        try:
            return self.inner.evaluate(g, deadline=deadline)
        finally:
            self.ms.append((perf_counter() - t0) * 1e3)


class SweepN7:
    """``mbgames search --n 7 --connected``: enumerate, then scan all 853
    connected graphs for chi_g < chi_cg, in a seeded order."""

    name = "sweep-n7"
    CONNECTED_N7 = 853

    def __init__(self, mb, ref: dict, seed: int, tiny: bool):
        self.mb = mb
        self.seed = seed
        self.tiny = tiny
        recorded = ref[self.name]
        self.hits = {h["graph6"]: h["witness"] for h in recorded["hits"]}
        self.fig3 = mb.parse_graph6(recorded["fig3"])
        self.graphs: list = []

    def run_pass(self, tracer) -> PassResult:
        mb = self.mb
        out = PassResult()
        predicate = _TimedPredicate(mb.ChiGLessThanChiCg())
        report = None
        graphs: list = []
        start = perf_counter()
        with tracer.installed():
            try:
                graphs = list(mb.enumerate_graphs(7, connected_only=True))
                random.Random(self.seed).shuffle(graphs)
                if self.tiny:
                    graphs = graphs[:40]
                report = mb.scan(graphs, predicate, jobs=1)
            except Exception as exc:  # every graph of a raised scan is a failed answer
                out.errors.append(f"scan: {type(exc).__name__}: {exc}")
        out.wall_s = perf_counter() - start
        out.graph_ms = predicate.ms
        self.graphs = graphs
        if report is None:
            out.attempted = out.failed = self.CONNECTED_N7 + 1
            return out
        if not self.tiny:
            out.answer(len(graphs) == self.CONNECTED_N7, f"{len(graphs)} connected graphs")
        found = {h.graph6: h.witness for h in report.hits}
        skipped = {s.graph6 for s in report.skipped}
        for g in graphs:
            g6 = mb.to_graph6(g)
            ok = g6 not in skipped and found.get(g6) == self.hits.get(g6)
            out.answer(ok, f"{g6}: hit {found.get(g6)}, reference {self.hits.get(g6)}")
        if not self.tiny:
            fig3 = mb.search.canonical_form(self.fig3)
            ok = any(
                mb.search.canonical_form(mb.parse_graph6(g6)) == fig3
                and w == {"chi_g": 4, "chi_cg": 5}
                for g6, w in found.items()
            )
            out.answer(ok, "fig. 3 graph not found with chi_g=4 < chi_cg=5")
        out.counts["search.hits"] = len(report.hits)
        out.counts["search.skipped"] = len(report.skipped)
        return out

    def playout_specs(self) -> list[tuple[str, int, object]]:
        graphs = self.graphs or list(self.mb.enumerate_graphs(7, connected_only=True))
        sample = random.Random(self.seed).sample(graphs, 40)
        return (
            [("arboricity", 2, g) for g in sample]
            + [("vertex", 4, g) for g in sample]
            + [("cvertex", 4, g) for g in sample]
        )


class StrategyReplay:
    """The paper checks T1..T9, then exhaustive verification of solver-built
    Breaker strategies on seeded G(11, 0.4) vertex games at k=3."""

    name = "strategy-replay"

    def __init__(self, mb, ref: dict, seed: int, tiny: bool):
        self.mb = mb
        recorded = ref[self.name]
        self.checks = TINY_CHECKS if tiny else tuple(recorded["checks"])
        by_g6 = {r["graph6"]: r for r in recorded["draws"]}
        lo, hi = REPLAY_BAND
        eligible = [
            by_g6[g6] for g6 in read_pool(GNP_FILE)
            if by_g6[g6]["winner"] == "breaker" and lo <= by_g6[g6]["leaves"] <= hi
        ]
        rng = random.Random(seed)
        if tiny:
            picked = [rng.choice(eligible)]
        else:
            for _ in range(10_000):
                picked = rng.sample(eligible, REPLAY_DRAWS)
                if abs(sum(d["leaves"] for d in picked) - REPLAY_LEAVES) <= (
                    REPLAY_SLACK * REPLAY_LEAVES
                ):
                    break
            else:
                raise ValueError("no set of draws has the target number of leaves")
        self.draws = [(d, mb.parse_graph6(d["graph6"])) for d in picked]
        self.leaves = sum(d["leaves"] for d in picked)

    def run_pass(self, tracer) -> PassResult:
        mb = self.mb
        out = PassResult()
        checks = []
        replays = []
        start = perf_counter()
        with tracer.installed():
            for check_id in self.checks:
                with tracer.span(f"acceptance.{check_id}"):
                    try:
                        checks.append(mb.acceptance.run_checks([check_id])[0])
                    except Exception as exc:  # a raised check is a failed check
                        checks.append(exc)
            for draw, g in self.draws:
                t0 = perf_counter()
                try:
                    spec = mb.GameSpec(mb.Variant.VERTEX, draw["k"])
                    agent = mb.solver_strategy(spec, g, mb.Player.BREAKER)
                    entries = agent.solver.table_entries
                    v = mb.verify_agent_wins(spec, g, agent)
                    replays.append((v, entries, agent.solver.table_entries - entries))
                except Exception as exc:  # a raised verification is a failed answer
                    replays.append(exc)
                out.graph_ms.append((perf_counter() - t0) * 1e3)
        out.wall_s = perf_counter() - start

        for check_id, r in zip(self.checks, checks):
            ok = not isinstance(r, Exception) and r.ok
            out.answer(ok, f"{check_id}: {r if isinstance(r, Exception) else r.details}")
        new_entries = nodes = leaves = 0
        for (draw, _), r in zip(self.draws, replays):
            label = f"{draw['graph6']} k={draw['k']}"
            if isinstance(r, Exception):
                out.answer(False, f"{label}: {type(r).__name__}: {r}")
                continue
            v, entries, new = r
            out.answer(v.ok, f"{label}: Maker line {v.maker_line}")
            nodes += v.nodes
            leaves += v.leaves
            new_entries += new
            _compare(out, label, {
                "leaves": v.leaves, "verify_nodes": v.nodes,
                "table_entries": entries, "new_entries": new,
            }, draw)
        out.counts.update({
            "imagination.verify_nodes": nodes,
            "imagination.verify_leaves": leaves,
            "solver.replay_new_entries": new_entries,
            "solver.replay_reuse": nodes / new_entries if new_entries else 0.0,
        })
        return out

    def playout_specs(self) -> list[tuple[str, int, object]]:
        graphs = [g for _, g in self.draws]
        return (
            [("arboricity", 3, g) for g in graphs]
            + [("vertex", 3, g) for g in graphs]
            + [("cvertex", 3, g) for g in graphs if g.is_connected()]
        )


WORKLOADS = {w.name: w for w in (ArbDense, SweepN7, StrategyReplay)}
