"""Command-line front end.

Commands: solve, profile, report, verify-paper, search, transform, play.
Exit codes: 0 success; 1 a checked claim or verification failed; 2 usage
error; 3 resource limit (capacity, memo-table cap, time budget, memory or
recursion depth).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import IO

from . import families
from .acceptance import CHECKS, run_checks
from .graphs import (
    CapacityError,
    Graph,
    iter_graph6,
    parse_edge_list,
    relabel,
    to_edge_list,
    to_graph6,
)
from .imagination import (
    AgentError,
    ImaginationError,
    SolverAgent,
    TransformedBreakerAgent,
    verify_agent_wins,
)
from .parameters import default_k_range, parameter_report, win_profile
from .rules import (
    GameSpec,
    IllegalMoveError,
    Move,
    Player,
    Position,
    Status,
    Variant,
    engine,
    to_move,
)
from .search import enumerate_graphs, parse_predicate, scan
from .solver import BudgetExceededError, ResourceLimitError, Solver

EXIT_OK = 0
EXIT_CLAIM_FALSE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


class UsageError(ValueError):
    pass


def _add_graph_args(
    p: argparse.ArgumentParser, *, order: bool = False, emit_edges: bool = False
):
    """The graph source, plus ``--order`` and ``--emit-edges`` where the
    command uses them (a command that would ignore one does not take it)."""
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", metavar="FILE", help="edge-list file ('-' for stdin)")
    src.add_argument("--graph6", metavar="FILE", help="graph6 file (first graph)")
    src.add_argument(
        "--family",
        metavar="NAME[:PARAMS]",
        help="built-in family, e.g. fig3, fig4, fig4_minus_e, h_r:2, "
        "thm14:4,5, complete:5, path:6, cycle:5, star:4, edgeless:3",
    )
    if order:
        p.add_argument(
            "--order",
            metavar="PERM",
            help="play order for the ordered variants: a permutation "
            "separated by commas or spaces, or a file holding one; the graph "
            "is relabelled so that this order is 1..n, and output keeps the "
            "source's vertex names; defaults to 1..n",
        )
    if emit_edges:
        p.add_argument(
            "--emit-edges",
            action="store_true",
            help="print the resolved graph in edge-list format before the "
            "result; with --json, add its graph6 and edges to the JSON object",
        )


def _add_game_args(p: argparse.ArgumentParser, *, with_k: bool = True):
    p.add_argument(
        "--variant",
        required=True,
        choices=[v.value for v in Variant],
        help="game variant",
    )
    if with_k:
        kk = p.add_mutually_exclusive_group(required=True)
        kk.add_argument("--colours", type=int, help="palette size k (colouring games)")
        kk.add_argument("--bound", type=int, help="back-degree bound s (marking games)")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from None


def _resolve_graph(args) -> tuple[Graph, tuple[int, ...]]:
    """The graph to play, relabelled by --order if given, and ``names``:
    ``names[i]`` is the source's name for vertex i + 1, so that output
    names vertices as the source does."""
    if args.graph:
        g = parse_edge_list(_read_text(args.graph))
    elif args.graph6:
        g = next(iter_graph6(_read_text(args.graph6)), None)
        if g is None:
            raise UsageError(f"no graphs in {args.graph6}")
    else:
        g = families.build(args.family)
    names = tuple(range(1, g.n + 1))
    if getattr(args, "order", None):
        if not Variant(args.variant).ordered:
            raise UsageError(
                f"--order applies only to the ordered variants, not {args.variant}"
            )
        text = args.order
        if "," not in text and not "".join(text.split()).isdigit():
            # not a list of vertices: the name of a file holding one
            text = _read_text(text)
        try:
            names = tuple(int(x) for x in text.replace(",", " ").split())
        except ValueError:
            raise UsageError(f"cannot parse ordering {args.order!r}") from None
        g = relabel(g, names)
    return g, names


def _build_spec(args) -> GameSpec:
    variant = Variant(args.variant)
    if variant.marking:
        if args.bound is None:
            raise UsageError(f"{variant.value} needs --bound S")
        k = args.bound
    else:
        if args.colours is None:
            raise UsageError(f"{variant.value} needs --colours K")
        k = args.colours
    return GameSpec(variant, k)


def _describe_move(spec: GameSpec, names: tuple[int, ...], ply: int, move: Move) -> str:
    """``move``, played at ply ``ply`` (0-based), naming the vertex an ordered
    game forces, by its source name, when the move itself names none."""
    if spec.variant.ordered and move.vertex is None:
        v = names[ply]
        if move.colour is None:
            return f"v{v} (forced colour)"
        return f"v{v}={move.colour}"
    return str(move)


def _emit_edges(args, g: Graph, names: tuple[int, ...], out: IO[str]) -> dict:
    """``--emit-edges``: as text, print the graph as read now, before the
    result; as JSON, return it as fields for the payload, so that the output
    stays one JSON object. Returns no fields when the option is off or already
    printed."""
    if not args.emit_edges:
        return {}
    g = Graph(g.n, [(names[u - 1], names[v - 1]) for u, v in g.edges])
    if args.json:
        return {"graph6": to_graph6(g), "edges": [list(e) for e in g.edges]}
    out.write(f"# graph6: {to_graph6(g)}\n")
    out.write(to_edge_list(g))
    return {}


def cmd_solve(args, out: IO[str]) -> int:
    g, names = _resolve_graph(args)
    spec = _build_spec(args)
    edges = _emit_edges(args, g, names, out)
    solver = Solver(spec, g, max_table_entries=args.max_table)
    result = solver.solve()
    payload = {
        "command": "solve",
        "variant": spec.variant.value,
        "k": spec.k,
        "graph": {"n": g.n, "m": g.m},
        "winner": result.winner.value,
        "nodes_searched": result.nodes_searched,
        "table_entries": result.table_entries,
        "table_hits": result.table_hits,
        "automorphisms": result.automorphisms,
        "elapsed_s": round(result.elapsed, 6),
        **edges,
    }
    pv = None
    if args.pv:
        pv = solver.principal_variation()
        payload["pv"] = [
            _describe_move(spec, names, ply, move) for ply, move in enumerate(pv)
        ]
    if args.json:
        out.write(json.dumps(payload) + "\n")
    else:
        out.write(
            f"{'Maker' if result.winner is Status.MAKER_WIN else 'Breaker'} wins "
            f"{spec.variant.value} with k={spec.k} on n={g.n}, m={g.m} "
            f"({result.nodes_searched} nodes, {result.table_entries} table entries, "
            f"{result.elapsed:.3f}s)\n"
        )
        if pv is not None:
            out.write("principal variation: " + " ".join(payload["pv"]) + "\n")
    return EXIT_OK


def cmd_profile(args, out: IO[str]) -> int:
    g, names = _resolve_graph(args)
    variant = Variant(args.variant)
    edges = _emit_edges(args, g, names, out)
    k_lo, k_hi = default_k_range(g, variant)
    if args.k_min is not None:
        k_lo = args.k_min
    if args.k_max is not None:
        k_hi = args.k_max
    profile = win_profile(g, variant, (k_lo, k_hi))
    violations = profile.monotonicity_violations()
    if args.json:
        out.write(
            json.dumps(
                {
                    "command": "profile",
                    "variant": variant.value,
                    "graph": {"n": g.n, "m": g.m},
                    "outcomes": profile.as_dict(),
                    "monotonicity_violations": violations,
                    **edges,
                }
            )
            + "\n"
        )
    else:
        label = "s" if variant.marking else "k"
        for k, outcome in profile.items():
            out.write(f"{label}={k}: {outcome.value}\n")
        if violations:
            out.write(f"monotonicity violations at: {violations}\n")
        else:
            out.write("profile is upward-closed\n")
    return EXIT_OK


def cmd_report(args, out: IO[str]) -> int:
    g, names = _resolve_graph(args)
    edges = _emit_edges(args, g, names, out)
    report = parameter_report(g, args.k_max)
    if args.json:
        out.write(
            json.dumps({"command": "report", **report.as_dict(), **edges}) + "\n"
        )
    else:
        out.write(f"graph: n={report.n}, m={report.m}\n")
        for name, pv in report.values.items():
            if not pv.applicable:
                out.write(f"{name}: not applicable ({pv.note})\n")
            elif pv.value is None:
                out.write(f"{name}: undetermined ({pv.note})\n")
            else:
                out.write(
                    f"{name} = {pv.value}   profile {pv.profile.as_dict()}\n"
                )
    return EXIT_OK


def cmd_verify_paper(args, out: IO[str]) -> int:
    ids = args.only.split(",") if args.only else None
    if args.list:
        for check in CHECKS:
            out.write(f"{check.check_id}: {check.title} (budget {check.budget_s:.0f}s)\n")
        return EXIT_OK
    # with --json, the JSON object (details included) is the whole output
    emit = None if args.json else lambda line: out.write(line + "\n")
    results = run_checks(ids, emit=emit)
    if args.verbose and not args.json:
        for result in results:
            for line in result.details:
                out.write(f"    {result.check_id} {line}\n")
    if args.json:
        out.write(
            json.dumps(
                {
                    "command": "verify-paper",
                    "checks": [
                        {
                            "id": r.check_id,
                            "title": r.title,
                            "ok": r.ok,
                            "elapsed_s": round(r.elapsed, 3),
                            "budget_s": r.budget_s,
                            "details": r.details,
                        }
                        for r in results
                    ],
                    "all_ok": all(r.ok for r in results),
                }
            )
            + "\n"
        )
    return EXIT_OK if all(r.ok for r in results) else EXIT_CLAIM_FALSE


def cmd_search(args, out: IO[str]) -> int:
    predicate = parse_predicate(args.predicate)
    if args.graph6 is not None:
        graphs = list(iter_graph6(_read_text(args.graph6)))
        if args.connected:
            graphs = [g for g in graphs if g.is_connected()]
    else:
        graphs = list(enumerate_graphs(args.n, connected_only=args.connected))
    # opened before the scan, so that an unusable path costs no scan
    with _open_report(args.json_report) as fh:
        report = scan(graphs, predicate, jobs=args.jobs, budget_ms=args.budget_ms)
        for hit in report.hits:
            out.write(hit.line() + "\n")
        for skip in report.skipped:
            out.write(f"# skipped {skip.graph6}: {skip.reason}\n")
        out.write(
            f"# scanned {report.scanned} graphs, {len(report.hits)} hits, "
            f"{len(report.skipped)} skipped\n"
        )
        if fh is not None:
            json.dump(report.as_dict(), fh, indent=2)
            out.write(f"# JSON report written to {args.json_report}\n")
    return EXIT_OK


def _open_report(path: str | None):
    if not path:
        return contextlib.nullcontext()
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def cmd_transform(args, out: IO[str]) -> int:
    g, _ = _resolve_graph(args)
    k = args.colours
    if k is None or k < 1:
        raise UsageError("transform needs --colours K with K >= 1")
    spec_k = GameSpec(Variant.ARBORICITY, k)
    spec_k1 = GameSpec(Variant.ARBORICITY, k + 1)
    payload = {"command": "transform", "graph": {"n": g.n, "m": g.m}, "k": k}
    upstream = Solver(spec_k1, g)
    upstream_winner = upstream.winner()
    if upstream_winner is not Status.BREAKER_WIN:
        if args.json:
            payload["verified"] = False
            payload["winner_k_plus_1"] = upstream_winner.value
            out.write(json.dumps(payload) + "\n")
        else:
            out.write(
                f"Breaker does not win arboricity with k+1={k + 1} colours on "
                f"this graph; nothing to transform\n"
            )
        return EXIT_CLAIM_FALSE
    inner = SolverAgent(spec_k1, g, Player.BREAKER, upstream)
    agent = TransformedBreakerAgent(inner, g, k)
    result = verify_agent_wins(spec_k, g, agent)
    payload.update(
        verified=result.ok,
        leaves=result.leaves,
        nodes=result.nodes,
        expanded=result.expanded,
        agent_positions=upstream.decided_positions,
    )
    if not args.json:
        out.write(
            f"transformed Breaker agent (k+1={k + 1} -> k={k}): "
            f"{'wins every Maker line' if result.ok else 'DEFEATED'} "
            f"({result.leaves} leaves, {result.nodes} nodes)\n"
        )
    if args.trace:
        # demonstration game: Maker plays its own best moves against the agent
        trace_rows = _demonstration_trace(spec_k, g, agent)
        payload["trace"] = trace_rows
        if not args.json:
            for row in trace_rows:
                out.write(row + "\n")
    if args.json:
        out.write(json.dumps(payload) + "\n")
    return EXIT_OK if result.ok else EXIT_CLAIM_FALSE


def _demonstration_trace(spec_k: GameSpec, g: Graph, agent) -> list[str]:
    """One row per ply: the real move and the agent's imagined move on the
    same edge. The agent raises on a broken invariant, so containment holds
    on every row that is written."""
    eng = engine(spec_k, g)
    maker = Solver(spec_k, g)
    pos = eng.initial()
    rows = []
    while eng.status(pos) is Status.ONGOING:
        mover = to_move(pos)
        if mover is Player.MAKER:
            move = maker.best_move(pos)
            pos = eng.apply(pos, move)
            agent = agent.observe(move, pos)
        else:
            move, agent = agent.propose(pos)
            pos = eng.apply(pos, move)
        imagined = Move(
            edge=move.edge, colour=agent.imagined.edge_colours[g.edge_index[move.edge]]
        )
        rows.append(
            f"ply {pos.count:2d} {mover.value:7s} "
            f"real {str(move):10s} imagined {str(imagined):10s} containment ok"
        )
    return rows


def cmd_play(args, out: IO[str], in_stream: IO[str] | None = None) -> int:
    g, names = _resolve_graph(args)
    spec = _build_spec(args)
    human = Player(args.side)
    eng = engine(spec, g)
    solver = Solver(spec, g)
    stream = in_stream if in_stream is not None else sys.stdin
    pos = eng.initial()
    out.write(
        f"playing {spec.variant.value} with "
        f"{'s' if spec.variant.marking else 'k'}={spec.k} on n={g.n}, m={g.m}; "
        f"you are {human.value}\n"
    )
    out.write(_move_syntax_help(spec) + "\n")
    while eng.status(pos) is Status.ONGOING:
        out.write(_render_position(spec, g, names, pos) + "\n")
        mover = to_move(pos)
        if mover is human:
            step = _prompt_move(spec, g, names, pos, out, stream)
            if step is None:
                out.write("session aborted\n")
                return EXIT_OK
            move, pos = step
        else:
            move = solver.best_move(pos)
            out.write(
                f"solver ({mover.value}) plays "
                f"{_describe_move(spec, names, pos.count, move)}\n"
            )
            pos = eng.apply(pos, move)
    final = eng.status(pos)
    out.write(_render_position(spec, g, names, pos) + "\n")
    out.write(f"game over: {'Maker' if final is Status.MAKER_WIN else 'Breaker'} wins\n")
    return EXIT_OK


def _move_syntax_help(spec: GameSpec) -> str:
    v = spec.variant
    if v is Variant.ORDERED_VERTEX:
        return "enter a colour, e.g. '2' (vertices are forced by the ordering)"
    if v is Variant.ORDERED_GREEDY:
        return "press enter to make the forced move"
    if v is Variant.GREEDY:
        return "enter a vertex, e.g. '3' (colours are first-fit)"
    if v.marking:
        return "enter a vertex to mark, e.g. '3'"
    if v.plays_edges:
        return "enter an edge and colour, e.g. '1 2 3' for edge (1,2) colour 3"
    return "enter vertex and colour, e.g. '3 1'"


def _prompt_move(
    spec: GameSpec, g: Graph, names: tuple[int, ...], pos, out: IO[str], stream: IO[str]
) -> tuple[Move, Position] | None:
    """The first legal move typed at ``pos`` and the position it leads to;
    None when the input ends or the player quits."""
    v = spec.variant
    while True:
        out.write("move> ")
        out.flush()
        line = stream.readline()
        if not line:
            return None
        line = line.strip()
        if line.lower() in ("q", "quit", "exit"):
            return None
        try:
            parts = [int(x) for x in line.split()]
        except ValueError:
            out.write("enter integers only; 'q' quits\n")
            continue
        try:
            if v is Variant.ORDERED_GREEDY:
                move = Move()
            elif v is Variant.ORDERED_VERTEX:
                if len(parts) != 1:
                    raise IllegalMoveError("enter exactly one colour")
                move = Move(colour=parts[0])
            elif v.greedy or v.marking:
                if len(parts) != 1:
                    raise IllegalMoveError("enter exactly one vertex")
                move = Move(vertex=parts[0])
            elif v.plays_edges:
                if len(parts) != 3:
                    raise IllegalMoveError("enter: u v colour")
                move = Move(edge=(parts[0], parts[1]), colour=parts[2])
            else:
                if len(parts) != 2:
                    raise IllegalMoveError("enter: vertex colour")
                move = Move(vertex=parts[0], colour=parts[1])
            return move, engine(spec, g).apply(pos, move)
        except IllegalMoveError as exc:
            # name the vertex an ordered game plays as the source does
            here = pos.count + 1
            text = str(exc).replace(f"vertex {here}:", f"vertex {names[here - 1]}:")
            out.write(f"illegal move: {text}\n")


def _render_position(spec: GameSpec, g: Graph, names: tuple[int, ...], pos) -> str:
    if spec.variant.marking:
        marked = sorted(pos.marked_vertices())
        return f"marked: {marked if marked else 'none'}"
    if spec.variant.plays_edges:
        parts = [
            f"{u}-{v}:{c}" for (u, v), c in pos.coloured_edges(g).items()
        ]
        return "edge colours: " + (" ".join(parts) if parts else "none")
    coloured = sorted((names[v - 1], c) for v, c in pos.coloured_vertices().items())
    parts = [f"{v}:{c}" for v, c in coloured]
    return "vertex colours: " + (" ".join(parts) if parts else "none")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbgames",
        description="Exact solvers for Maker-Breaker graph colouring games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one game and print the winner")
    _add_graph_args(p, order=True, emit_edges=True)
    _add_game_args(p)
    p.add_argument("--pv", action="store_true", help="print the principal variation")
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-table", type=int, default=None, help="memo entry cap")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("profile", help="win/loss profile over a k range")
    _add_graph_args(p, order=True, emit_edges=True)
    _add_game_args(p, with_k=False)
    p.add_argument("--k-min", type=int, default=None)
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("report", help="all named game parameters with profiles")
    _add_graph_args(p, emit_edges=True)
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("verify-paper", help="run the paper-claims suite")
    p.add_argument("--only", help="comma-separated check ids, e.g. T1,T5")
    p.add_argument("--list", action="store_true", help="list checks and exit")
    p.add_argument("--verbose", action="store_true", help="print per-claim detail lines")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify_paper)

    p = sub.add_parser("search", help="scan a graph stream for a predicate")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--n", type=int, help="enumerate all graphs on n vertices")
    src.add_argument("--graph6", metavar="FILE", help="graph6 stream to scan")
    p.add_argument("--connected", action="store_true", help="connected graphs only")
    p.add_argument("--predicate", required=True, help="see README for syntax")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--budget-ms", type=int, default=None, help="per-graph budget")
    p.add_argument("--json-report", metavar="FILE", help="write a JSON report")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser(
        "transform",
        help="build, transform and exhaustively verify an arboricity Breaker agent",
    )
    _add_graph_args(p)
    p.add_argument("--colours", type=int, required=True, help="real palette size k")
    p.add_argument("--trace", action="store_true", help="print a demonstration game trace")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("play", help="interactive game against the solver")
    _add_graph_args(p, order=True)
    _add_game_args(p)
    p.add_argument(
        "--side",
        choices=[pl.value for pl in Player],
        default="maker",
        help="the human's side",
    )
    p.set_defaults(fn=cmd_play)

    return parser


def run(argv: list[str] | None = None, out: IO[str] | None = None, in_stream: IO[str] | None = None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.fn is cmd_play:
            return cmd_play(args, out, in_stream)
        return args.fn(args, out)
    except (CapacityError, ResourceLimitError, BudgetExceededError) as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (MemoryError, RecursionError) as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"resource error: {type(exc).__name__}{detail}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:  # UsageError, ParseError and RulesError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AgentError, ImaginationError) as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        raise


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
