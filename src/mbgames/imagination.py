"""Playable strategy agents and the arboricity imagination-strategy transform.

Agents play on the caller's positions: the caller applies and validates every
move and hands each agent the position it built, so an agent keeps only the
state the caller cannot know. The transformer wraps a Breaker agent for
palette k+1 and plays the palette-k game by mirroring every real move into an
imagined k+1-colour game it keeps, translating the inner agent's imagined
replies back to legal real colours. Two invariants are asserted after every
observe/propose: the imagined and real games colour the same edge set, and any
two vertices sharing a c-component (c <= k) in the imagined game share one in
the real game. A violation is a bug, never a loss.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from .graphs import Graph
from .rules import (
    EdgePosition,
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
from .solver import Solver


class ImaginationError(RuntimeError):
    """Base for hard failures of the transformer's proof invariants."""


class ConcedeError(ImaginationError):
    """Maker's real move could not be copied into the imagined game.

    The containment claim proves this unreachable; raising means the
    implementation or the wrapped agent is broken.
    """


class InvariantViolation(ImaginationError):
    """An imagination-state invariant failed after a move."""


class AgentError(RuntimeError):
    """A strategy agent broke its protocol or proposed an illegal move."""


class StrategyAgent:
    """Behavioural interface for a strategy played on the caller's game.

    The caller owns the game: it applies every move, the agent's included.
    ``observe(move, pos)`` reports the opponent's ``move`` together with the
    position ``pos`` it led to; ``propose(pos)`` returns the agent's move at
    ``pos`` without applying it. Agents are deterministic given their history
    and support ``copy`` for branch-and-replay verification.

    An agent whose ``copy()`` returns itself is positional: it carries no
    history, so its reply depends on the position alone. ``verify_agent_wins``
    relies on that and checks the Maker lines below each position such an
    agent reaches once, however many lines lead there. An agent that keeps
    state must return a fresh copy.
    """

    def observe(self, move: Move, pos: Position) -> None:
        raise NotImplementedError

    def propose(self, pos: Position) -> Move:
        raise NotImplementedError

    def copy(self) -> "StrategyAgent":
        raise NotImplementedError


class SolverAgent(StrategyAgent):
    """Plays ``best_move`` for one side; keeps no state between moves."""

    def __init__(self, spec: GameSpec, g: Graph, side: Player, solver: Solver | None = None):
        self.side = side
        self.solver = solver if solver is not None else Solver(spec, g)

    def observe(self, move: Move, pos: Position) -> None:
        if to_move(pos) is not self.side:
            raise AgentError("observe() called on the agent's own turn")

    def propose(self, pos: Position) -> Move:
        if to_move(pos) is not self.side:
            raise AgentError("propose() called out of turn")
        return self.solver.best_move(pos)

    def copy(self) -> "SolverAgent":
        # no state to isolate, and the solver's memo tables are append-only
        return self


def solver_strategy(spec: GameSpec, g: Graph, side: Player) -> SolverAgent:
    """Winning agent for ``side``; errors if ``side`` loses the game."""
    solver = Solver(spec, g)
    winner = solver.winner()
    if winner is not side.win:
        raise ValueError(
            f"cannot build a winning {side.value} agent: "
            f"{spec.variant.value} with k={spec.k} is a {winner.value} win"
        )
    return SolverAgent(spec, g, side, solver)


@dataclass(frozen=True)
class TraceEntry:
    ply: int
    mover: Player
    real_move: Move
    imagined_move: Move
    containment_ok: bool

    def __str__(self) -> str:
        return (
            f"ply {self.ply:2d} {self.mover.value:7s} "
            f"real {str(self.real_move):10s} imagined {str(self.imagined_move):10s} "
            f"containment {'ok' if self.containment_ok else 'VIOLATED'}"
        )


class TransformedBreakerAgent(StrategyAgent):
    """Breaker agent for the arboricity game with k colours, driven by a
    wrapped Breaker agent for k+1 colours on the same graph. The real game is
    the caller's; the agent keeps the imagined one."""

    def __init__(self, inner: StrategyAgent, g: Graph, k: int, trace: list[TraceEntry] | None = None):
        if k < 1:
            raise ValueError(f"transform needs k >= 1, got {k}")
        self.inner = inner
        self.g = g
        self.k = k
        self.eng_real = engine(GameSpec(Variant.ARBORICITY, k), g)
        self.eng_imag = engine(GameSpec(Variant.ARBORICITY, k + 1), g)
        self.imagined: EdgePosition = self.eng_imag.initial()
        self.trace = trace

    def observe(self, move: Move, pos: EdgePosition) -> None:
        if pos.count % 2 != 1:
            raise AgentError("observe() called on Breaker's turn")
        try:
            imagined = self.eng_imag.apply(self.imagined, move)
        except IllegalMoveError as exc:
            raise ConcedeError(
                f"Maker's move {move} cannot be copied into the imagined game: {exc}"
            ) from None
        self.inner.observe(move, imagined)
        self.imagined = imagined
        self._check_invariants(pos, move, move)

    def propose(self, pos: EdgePosition) -> Move:
        if pos.count % 2 != 1:
            raise AgentError("propose() called on Maker's turn")
        imagined_move = self.inner.propose(self.imagined)
        if imagined_move.edge is None or imagined_move.colour is None:
            raise AgentError(f"inner agent proposed a non-edge move {imagined_move}")
        try:
            imagined = self.eng_imag.apply(self.imagined, imagined_move)
        except IllegalMoveError as exc:
            raise AgentError(
                f"inner agent proposed an illegal imagined move {imagined_move}: {exc}"
            ) from None

        e = imagined_move.edge
        c = imagined_move.colour
        free = [m.colour for m in self.eng_real.legal_moves(pos) if m.edge == e]
        if not free:
            # an edge with no real colour means the rules layer already
            # declared a Breaker win, so propose() could not have been called
            raise AgentError(
                f"edge {e} is unplayable in the real game, which should already "
                f"be over"
            )
        real_colour = c if (c <= self.k and c in free) else free[0]
        real_move = Move(edge=e, colour=real_colour)
        real = self.eng_real.apply(pos, real_move)
        self.imagined = imagined
        self._check_invariants(real, real_move, imagined_move)
        return real_move

    def _check_invariants(self, real: EdgePosition, real_move: Move, imagined_move: Move) -> None:
        imag = self.imagined
        for i, c in enumerate(real.edge_colours):
            if bool(c) != bool(imag.edge_colours[i]):
                raise InvariantViolation(
                    f"coloured-edge sets diverged at edge {self.g.edges[i]}"
                )
        ok = self._containment_holds(real)
        if self.trace is not None:
            mover = Player.MAKER if real.count % 2 == 1 else Player.BREAKER
            self.trace.append(
                TraceEntry(real.count, mover, real_move, imagined_move, ok)
            )
        if not ok:
            raise InvariantViolation(
                "containment failed: an imagined c-component is split across "
                "real c-components"
            )

    def _containment_holds(self, real: EdgePosition) -> bool:
        """Same c-component imagined => same c-component real, for all c <= k."""
        real_reps = real.components.reps
        imag_reps = self.imagined.components.reps
        for c in range(self.k):
            ri = imag_reps[c]
            rr = real_reps[c]
            seen: dict[int, int] = {}
            for v in range(self.g.n):
                prev = seen.get(ri[v])
                if prev is None:
                    seen[ri[v]] = rr[v]
                elif prev != rr[v]:
                    return False
        return True

    def copy(self) -> "TransformedBreakerAgent":
        dup = copy.copy(self)
        dup.inner = self.inner.copy()
        dup.trace = list(self.trace) if self.trace is not None else None
        return dup


def transform_breaker(
    agent_kplus1: StrategyAgent, g: Graph, k: int, *, trace: list[TraceEntry] | None = None
) -> TransformedBreakerAgent:
    """Convert a Breaker agent for arboricity with k+1 colours into one for k
    colours. The transformed agent starts at the empty colouring, so the
    wrapped agent must not have observed any move yet."""
    return TransformedBreakerAgent(agent_kplus1, g, k, trace=trace)


@dataclass
class VerificationResult:
    """``leaves`` and ``nodes`` count the Maker lines of the game tree: the
    lines ending in a Breaker win, and every move on every line. ``expanded``
    counts the Maker-to-move positions whose moves the walk enumerated."""

    ok: bool
    maker_line: tuple[Move, ...] | None
    leaves: int
    nodes: int
    expanded: int

    def __bool__(self) -> bool:
        return self.ok


def verify_agent_wins(spec: GameSpec, g: Graph, breaker_agent: StrategyAgent) -> VerificationResult:
    """Exhaustive adversary: walk every legal Maker line against the agent's
    deterministic replies; true iff every leaf is a Breaker win.

    A positional agent (see ``StrategyAgent``) is walked over the position
    graph: a Maker-to-move position reached again adds the leaves and nodes
    its verified subtree added the first time, under the engine's
    ``exact_key``. A subtree with a failure is never stored, because the walk
    returns at the first one, so only ``expanded`` differs from a walk of
    every line."""
    eng = engine(spec, g)
    exact_key = eng.exact_key
    # (leaves, nodes) under each fully verified position; None for an agent
    # that keeps state, whose replies below a position depend on the line
    verified: dict | None = {} if breaker_agent.copy() is breaker_agent else None
    leaves = 0
    nodes = 0
    expanded = 0

    def walk(pos: Position, agent: StrategyAgent, line: tuple[Move, ...]):
        nonlocal leaves, nodes, expanded
        assert pos.count % 2 == 0, "walk must start on Maker's turn"
        if verified is not None:
            key = exact_key(pos)
            counts = verified.get(key)
            if counts is not None:
                leaves += counts[0]
                nodes += counts[1]
                return None
        leaves_before = leaves
        nodes_before = nodes
        expanded += 1
        for move, child in eng.children(pos):
            nodes += 1
            branch_agent = agent.copy()
            branch_agent.observe(move, child)
            branch_line = line + (move,)
            st = eng.status(child)
            if st is Status.BREAKER_WIN:
                leaves += 1
                continue
            if st is Status.MAKER_WIN:
                return branch_line
            try:
                reply = branch_agent.propose(child)
                after = eng.apply(child, reply)
            except IllegalMoveError as exc:
                raise AgentError(
                    f"agent failed after Maker line "
                    f"{' '.join(map(str, branch_line))}: {exc}"
                ) from None
            nodes += 1
            branch_line = branch_line + (reply,)
            st = eng.status(after)
            if st is Status.BREAKER_WIN:
                leaves += 1
                continue
            if st is Status.MAKER_WIN:
                return branch_line
            failure = walk(after, branch_agent, branch_line)
            if failure is not None:
                return failure
        if verified is not None:
            verified[key] = (leaves - leaves_before, nodes - nodes_before)
        return None

    start = eng.initial()
    st = eng.status(start)
    if st is Status.MAKER_WIN:
        return VerificationResult(False, (), 0, 0, 0)
    if st is Status.BREAKER_WIN:
        return VerificationResult(True, None, 1, 0, 0)
    failure = walk(start, breaker_agent, ())
    return VerificationResult(failure is None, failure, leaves, nodes, expanded)
