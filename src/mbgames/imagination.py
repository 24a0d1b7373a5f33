"""Playable strategy agents and the arboricity imagination-strategy transform.

The transformer wraps a Breaker agent for palette k+1 and plays the palette-k
game by mirroring every real move into an imagined k+1-colour game, translating
the inner agent's imagined replies back to legal real colours. Two invariants
are asserted after every observe/propose: the imagined and real games colour
the same edge set, and any two vertices sharing a c-component (c <= k) in the
imagined game share one in the real game. A violation is a bug, never a loss.
"""

from __future__ import annotations

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
    """Behavioural interface: ``observe`` opponent moves, ``propose`` own moves.

    ``propose`` applies the returned move to the agent's internal state, so the
    caller only reports the opponent's side. Agents are deterministic given
    their history and support ``copy`` for branch-and-replay verification.
    """

    def reset(self) -> None:
        raise NotImplementedError

    def observe(self, move: Move) -> None:
        raise NotImplementedError

    def propose(self) -> Move:
        raise NotImplementedError

    def copy(self) -> "StrategyAgent":
        raise NotImplementedError


class SolverAgent(StrategyAgent):
    """Plays ``best_move`` for one side, tracking the game internally."""

    def __init__(self, spec: GameSpec, g: Graph, side: Player, solver: Solver | None = None):
        self.spec = spec
        self.g = g
        self.side = side
        self.solver = solver if solver is not None else Solver(spec, g)
        self.eng = engine(spec, g)
        self.pos: Position = self.eng.initial()

    def reset(self) -> None:
        self.pos = self.eng.initial()

    def observe(self, move: Move) -> None:
        if to_move(self.pos) is self.side:
            raise AgentError("observe() called on the agent's own turn")
        self.pos = self.eng.apply(self.pos, move)

    def propose(self) -> Move:
        if to_move(self.pos) is not self.side:
            raise AgentError("propose() called out of turn")
        move, self.pos = self.solver.best_step(self.pos)
        return move

    def copy(self) -> "SolverAgent":
        dup = SolverAgent.__new__(SolverAgent)
        dup.spec = self.spec
        dup.g = self.g
        dup.side = self.side
        # the memo tables are append-only and positions immutable: sharing is safe
        dup.solver = self.solver
        dup.eng = self.eng
        dup.pos = self.pos
        return dup


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


@dataclass
class ImaginationState:
    """Real palette-k game and imagined palette-(k+1) game, kept in lockstep."""

    real: EdgePosition
    imagined: EdgePosition


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
    wrapped Breaker agent for k+1 colours on the same graph."""

    def __init__(self, inner: StrategyAgent, g: Graph, k: int, trace: list[TraceEntry] | None = None):
        if k < 1:
            raise ValueError(f"transform needs k >= 1, got {k}")
        self.inner = inner
        self.g = g
        self.k = k
        self.eng_real = engine(GameSpec(Variant.ARBORICITY, k), g)
        self.eng_imag = engine(GameSpec(Variant.ARBORICITY, k + 1), g)
        self.state = ImaginationState(self.eng_real.initial(), self.eng_imag.initial())
        self.trace = trace

    def reset(self) -> None:
        self.inner.reset()
        self.state = ImaginationState(self.eng_real.initial(), self.eng_imag.initial())
        if self.trace is not None:
            self.trace.clear()

    def observe(self, move: Move) -> None:
        if self.state.real.count % 2 != 0:
            raise AgentError("observe() called on Breaker's turn")
        real = self.eng_real.apply(self.state.real, move)
        try:
            imagined = self.eng_imag.apply(self.state.imagined, move)
        except IllegalMoveError as exc:
            raise ConcedeError(
                f"Maker's move {move} cannot be copied into the imagined game: {exc}"
            ) from None
        self.inner.observe(move)
        self.state = ImaginationState(real, imagined)
        self._check_invariants(move, move)

    def propose(self) -> Move:
        if self.state.real.count % 2 != 1:
            raise AgentError("propose() called on Maker's turn")
        imagined_move = self.inner.propose()
        if imagined_move.edge is None or imagined_move.colour is None:
            raise AgentError(f"inner agent proposed a non-edge move {imagined_move}")
        try:
            imagined = self.eng_imag.apply(self.state.imagined, imagined_move)
        except IllegalMoveError as exc:
            raise AgentError(
                f"inner agent proposed an illegal imagined move {imagined_move}: {exc}"
            ) from None

        e = imagined_move.edge
        c = imagined_move.colour
        free = self.eng_real.free_colours(self.state.real, e)
        if not free:
            # an edge with no real colour means the rules layer already
            # declared a Breaker win, so propose() could not have been called
            raise AgentError(
                f"edge {e} is unplayable in the real game, which should already "
                f"be over"
            )
        real_colour = c if (c <= self.k and c in free) else free[0]
        real_move = Move(edge=e, colour=real_colour)
        real = self.eng_real.apply(self.state.real, real_move)
        self.state = ImaginationState(real, imagined)
        self._check_invariants(real_move, imagined_move)
        return real_move

    def _check_invariants(self, real_move: Move, imagined_move: Move) -> None:
        real, imag = self.state.real, self.state.imagined
        for i, c in enumerate(real.edge_colours):
            if bool(c) != bool(imag.edge_colours[i]):
                raise InvariantViolation(
                    f"coloured-edge sets diverged at edge {self.g.edges[i]}"
                )
        ok = self._containment_holds()
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

    def _containment_holds(self) -> bool:
        """Same c-component imagined => same c-component real, for all c <= k."""
        real_reps = self.state.real.components.reps
        imag_reps = self.state.imagined.components.reps
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
        dup = TransformedBreakerAgent.__new__(TransformedBreakerAgent)
        dup.inner = self.inner.copy()
        dup.g = self.g
        dup.k = self.k
        dup.eng_real = self.eng_real
        dup.eng_imag = self.eng_imag
        dup.state = ImaginationState(self.state.real, self.state.imagined)
        dup.trace = list(self.trace) if self.trace is not None else None
        return dup


def transform_breaker(
    agent_kplus1: StrategyAgent, g: Graph, k: int, *, trace: list[TraceEntry] | None = None
) -> TransformedBreakerAgent:
    """Convert a Breaker agent for arboricity with k+1 colours into one for k
    colours. The wrapped agent must already be positioned at the start of its
    own game."""
    return TransformedBreakerAgent(agent_kplus1, g, k, trace=trace)


@dataclass
class VerificationResult:
    ok: bool
    maker_line: tuple[Move, ...] | None
    leaves: int
    nodes: int

    def __bool__(self) -> bool:
        return self.ok


def verify_agent_wins(spec: GameSpec, g: Graph, breaker_agent: StrategyAgent) -> VerificationResult:
    """Exhaustive adversary: walk every legal Maker line against the agent's
    deterministic replies; true iff every leaf is a Breaker win."""
    eng = engine(spec, g)
    leaves = 0
    nodes = 0

    def walk(pos: Position, agent: StrategyAgent, line: tuple[Move, ...]):
        nonlocal leaves, nodes
        assert pos.count % 2 == 0, "walk must start on Maker's turn"
        for move, child in eng.children(pos):
            nodes += 1
            branch_agent = agent.copy()
            branch_agent.observe(move)
            branch_line = line + (move,)
            st = eng.status(child)
            if st is Status.BREAKER_WIN:
                leaves += 1
                continue
            if st is Status.MAKER_WIN:
                return branch_line
            try:
                reply = branch_agent.propose()
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
        return None

    start = eng.initial()
    st = eng.status(start)
    if st is Status.MAKER_WIN:
        return VerificationResult(False, (), 0, 0)
    if st is Status.BREAKER_WIN:
        return VerificationResult(True, None, 1, 0)
    failure = walk(start, breaker_agent, ())
    return VerificationResult(failure is None, failure, leaves, nodes)
