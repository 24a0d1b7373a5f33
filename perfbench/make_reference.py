"""Write ``data/reference.json``: pinned answers and recorded exact counts.

The benchmark checks every answer against this file (winners, sweep hits,
verification verdicts). The counts beside them (solver nodes, table entries,
verification nodes and leaves) are reported against the run's own counts but
never gated, because a correct optimisation may change them. Two recorded
quantities also fix the workloads' inputs, so later solver changes cannot
resize them: ``arb-dense`` stratifies the m=12 pool by recorded node count,
and ``strategy-replay`` sizes its instance set by recorded verification
leaves, which depend only on the rules and on first-winning-move order.

Run from the repository root (takes a few minutes):

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys

from inputs import BENCH_DIR, DATA_DIR, GNP_FILE, M12_FILE, read_pool

K6E = "E^~w"
K6E_KS = (4,)
M12_K = 2
REPLAY_K = 3
REPLAY_CHECKS = tuple(f"T{i}" for i in range(1, 10))


def _solve(mb, variant, k: int, g6: str) -> dict:
    r = mb.solve(mb.GameSpec(variant, k), mb.parse_graph6(g6))
    return {
        "graph6": g6,
        "k": k,
        "winner": r.winner.value,
        "nodes": r.nodes_searched,
        "table_entries": r.table_entries,
    }


def _replay(mb, g6: str) -> dict:
    g = mb.parse_graph6(g6)
    spec = mb.GameSpec(mb.Variant.VERTEX, REPLAY_K)
    solver = mb.Solver(spec, g)
    winner = solver.winner()
    out = {"graph6": g6, "k": REPLAY_K, "winner": winner.value}
    if winner is not mb.Status.BREAKER_WIN:
        return out
    entries = solver.table_entries
    agent = mb.SolverAgent(spec, g, mb.Player.BREAKER, solver)
    v = mb.verify_agent_wins(spec, g, agent)
    out.update(
        verified=v.ok,
        leaves=v.leaves,
        verify_nodes=v.nodes,
        table_entries=entries,
        new_entries=solver.table_entries - entries,
    )
    return out


def build(mb) -> dict:
    sweep = mb.scan(
        mb.enumerate_graphs(7, connected_only=True), mb.ChiGLessThanChiCg(), jobs=1
    )
    return {
        "arb-dense": {
            "k6e": [_solve(mb, mb.Variant.ARBORICITY, k, K6E) for k in K6E_KS],
            "m12": [
                _solve(mb, mb.Variant.ARBORICITY, M12_K, g6)
                for g6 in read_pool(M12_FILE)
            ],
        },
        "sweep-n7": {
            "fig3": mb.to_graph6(mb.fig3_graph()),
            "hits": [{"graph6": h.graph6, "witness": h.witness} for h in sweep.hits],
        },
        "strategy-replay": {
            "checks": list(REPLAY_CHECKS),
            "draws": [_replay(mb, g6) for g6 in read_pool(GNP_FILE)],
        },
    }


def main() -> int:
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    import mbgames

    ref = build(mbgames)
    path = DATA_DIR / "reference.json"
    path.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
