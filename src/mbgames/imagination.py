"""Playable strategy agents and the arboricity imagination-strategy transform.

Agents are immutable values that answer with moves only: the caller applies,
validates and records every move and hands each agent the position it built,
so an agent holds only the state the caller cannot know, and each call returns
the agent after the move. ``TransformedBreakerAgent`` wraps a Breaker agent
for palette k+1 and plays the palette-k game by mirroring every real move into
an imagined k+1-colour game it holds (``imagined``), translating the inner
agent's imagined replies back to legal real colours. Two invariants are
asserted after every observe/propose: the imagined and real games colour the
same edge set, and any two vertices sharing a c-component (c <= k) in the
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
    """Behavioural interface for a strategy played on the caller's game.

    The caller owns the game: it applies every move, the agent's included.
    Agents are immutable values. ``observe(move, pos)`` reports the opponent's
    ``move`` together with the position ``pos`` it led to and returns the
    agent after it; ``propose(pos)`` returns the agent's move at ``pos``,
    which it does not apply, and the agent after that move. Equal agents give
    equal replies from equal positions, and equal agents hash alike, so
    ``verify_agent_wins`` checks the Maker lines below a (position, agent)
    pair once, however many lines reach it. An agent that keeps no history
    returns itself.
    """

    def observe(self, move: Move, pos: Position) -> "StrategyAgent":
        raise NotImplementedError

    def propose(self, pos: Position) -> tuple[Move, "StrategyAgent"]:
        raise NotImplementedError


class SolverAgent(StrategyAgent):
    """Plays ``best_move`` for one side; keeps no history, so both calls
    return the agent itself."""

    def __init__(self, spec: GameSpec, g: Graph, side: Player, solver: Solver | None = None):
        self.side = side
        self.solver = solver if solver is not None else Solver(spec, g)

    def observe(self, move: Move, pos: Position) -> "SolverAgent":
        if to_move(pos) is not self.side:
            raise AgentError("observe() called on the agent's own turn")
        return self

    def propose(self, pos: Position) -> tuple[Move, "SolverAgent"]:
        if to_move(pos) is not self.side:
            raise AgentError("propose() called out of turn")
        return self.solver.best_move(pos), self


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


class TransformedBreakerAgent(StrategyAgent):
    """Breaker agent for the arboricity game with k colours, driven by a
    wrapped Breaker agent for k+1 colours on the same graph. The real game is
    the caller's; the agent holds the imagined one, which starts at the empty
    colouring, so the wrapped agent must not have observed any move yet.

    Two agents are equal when their wrapped agents, graphs and k are equal and
    their imagined games have the same exact position."""

    def __init__(self, inner: StrategyAgent, g: Graph, k: int):
        if k < 1:
            raise ValueError(f"transform needs k >= 1, got {k}")
        self.inner = inner
        self.g = g
        self.k = k
        self.eng_real = engine(GameSpec(Variant.ARBORICITY, k), g)
        self.eng_imag = engine(GameSpec(Variant.ARBORICITY, k + 1), g)
        self.imagined: EdgePosition = self.eng_imag.initial()

    def _after(self, inner, imagined, real) -> "TransformedBreakerAgent":
        """The agent a move later, sharing this one's engines, with both
        invariants checked against the caller's position ``real``."""
        agent = object.__new__(TransformedBreakerAgent)
        agent.__dict__.update(self.__dict__, inner=inner, imagined=imagined)
        agent._check_invariants(real)
        return agent

    def _value(self) -> tuple:
        return self.eng_imag.exact_key(self.imagined), self.k, self.g, self.inner

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TransformedBreakerAgent) and self._value() == other._value()

    def __hash__(self) -> int:
        return hash(self._value())

    def observe(self, move: Move, pos: EdgePosition) -> "TransformedBreakerAgent":
        if pos.count % 2 != 1:
            raise AgentError("observe() called on Breaker's turn")
        try:
            imagined = self.eng_imag.apply(self.imagined, move)
        except IllegalMoveError as exc:
            raise ConcedeError(
                f"Maker's move {move} cannot be copied into the imagined game: {exc}"
            ) from None
        return self._after(self.inner.observe(move, imagined), imagined, pos)

    def propose(self, pos: EdgePosition) -> tuple[Move, "TransformedBreakerAgent"]:
        if pos.count % 2 != 1:
            raise AgentError("propose() called on Maker's turn")
        imagined_move, inner = self.inner.propose(self.imagined)
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
        return real_move, self._after(inner, imagined, self.eng_real.apply(pos, real_move))

    def _check_invariants(self, real: EdgePosition) -> None:
        imag = self.imagined
        for i, c in enumerate(real.edge_colours):
            if bool(c) != bool(imag.edge_colours[i]):
                raise InvariantViolation(
                    f"coloured-edge sets diverged at edge {self.g.edges[i]}"
                )
        if not self._containment_holds(real):
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


def verify_agent_wins(spec: GameSpec, g: Graph, breaker_agent: StrategyAgent) -> VerificationResult:
    """Exhaustive adversary: walk every legal Maker line against the agent's
    deterministic replies; true iff every leaf is a Breaker win.

    The walk runs over pairs of a Maker-to-move position and the agent there
    (see ``StrategyAgent``): a pair reached again, under the engine's
    ``exact_key`` and agent equality, adds the leaves and nodes its verified
    subtree added the first time. A subtree with a failure is never stored,
    because the walk returns at the first one, so only ``expanded`` differs
    from a walk of every line."""
    eng = engine(spec, g)
    exact_key = eng.exact_key
    # (leaves, nodes) under each fully verified (position, agent) pair
    verified: dict = {}
    leaves = 0
    nodes = 0
    expanded = 0

    def walk(pos: Position, agent: StrategyAgent, line: tuple[Move, ...]):
        nonlocal leaves, nodes, expanded
        assert pos.count % 2 == 0, "walk must start on Maker's turn"
        key = (exact_key(pos), agent)
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
            branch_agent = agent.observe(move, child)
            branch_line = line + (move,)
            st = eng.status(child)
            if st is Status.BREAKER_WIN:
                leaves += 1
                continue
            if st is Status.MAKER_WIN:
                return branch_line
            try:
                reply, branch_agent = branch_agent.propose(child)
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
        verified[key] = (leaves - leaves_before, nodes - nodes_before)
        return None

    start = eng.initial()
    st = eng.status(start)
    if st is Status.MAKER_WIN:
        return VerificationResult(False, (), 0, 0, 0)
    if st is Status.BREAKER_WIN:
        return VerificationResult(True, None, 1, 0, 0)
    try:
        failure = walk(start, breaker_agent, ())
    finally:
        # walk refers to itself: free the agents without the cycle collector
        verified.clear()
    return VerificationResult(failure is None, failure, leaves, nodes, expanded)
