import pytest

from mbgames.families import complete, fig3_graph, path
from mbgames.graphs import parse_graph6
from mbgames.imagination import (
    AgentError,
    ConcedeError,
    InvariantViolation,
    SolverAgent,
    StrategyAgent,
    TransformedBreakerAgent,
    solver_strategy,
    verify_agent_wins,
)
from mbgames.rules import GameSpec, Move, Player, Status, Variant, engine
from mbgames.search import enumerate_graphs
from mbgames.solver import Solver, solve


def arb(k):
    return GameSpec(Variant.ARBORICITY, k)


def played(spec, g, *moves, start=None):
    """The position ``moves`` lead to from ``start`` (by default the initial
    position), each move applied with validation."""
    eng = engine(spec, g)
    pos = eng.initial() if start is None else start
    for move in moves:
        pos = eng.apply(pos, move)
    return pos


class TestSolverAgent:
    def test_winning_breaker_agent_exists_for_k3_one_colour(self):
        agent = solver_strategy(arb(1), complete(3), Player.BREAKER)
        assert isinstance(agent, SolverAgent)

    def test_losing_side_rejected(self):
        # forests are Maker wins even with one colour
        with pytest.raises(ValueError, match="maker win"):
            solver_strategy(arb(1), path(3), Player.BREAKER)

    def test_breaker_agent_for_k5_two_colours(self):
        # completion is impossible: 10 edges cannot fit in two forests
        agent = solver_strategy(arb(2), complete(5), Player.BREAKER)
        assert agent.side is Player.BREAKER

    def test_agent_plays_a_full_game(self):
        g = complete(3)
        spec = arb(1)
        eng = engine(spec, g)
        breaker = solver_strategy(spec, g, Player.BREAKER)
        pos = eng.initial()
        while eng.status(pos) is Status.ONGOING:
            if pos.count % 2 == 0:
                move = eng.legal_moves(pos)[0]
                pos = eng.apply(pos, move)
                breaker = breaker.observe(move, pos)
            else:
                move, breaker = breaker.propose(pos)
                pos = eng.apply(pos, move)
        assert eng.status(pos) is Status.BREAKER_WIN

    def test_out_of_turn_protocol_errors(self):
        breaker = solver_strategy(arb(1), complete(3), Player.BREAKER)
        with pytest.raises(AgentError, match="out of turn"):
            breaker.propose(engine(arb(1), complete(3)).initial())


class TestVerifyAgentWins:
    def test_solver_breaker_agent_on_k3(self):
        g = complete(3)
        agent = solver_strategy(arb(1), g, Player.BREAKER)
        result = verify_agent_wins(arb(1), g, agent)
        assert result.ok
        assert result.leaves > 0

    def test_no_agent_can_defend_a_forest(self):
        g = path(3)
        agent = SolverAgent(arb(1), g, Player.BREAKER)
        result = verify_agent_wins(arb(1), g, agent)
        assert not result.ok
        assert result.maker_line is not None
        assert len(result.maker_line) == 2  # both edges get coloured

    def test_counterexample_line_replays_to_maker_win(self):
        g = path(3)
        agent = SolverAgent(arb(1), g, Player.BREAKER)
        result = verify_agent_wins(arb(1), g, agent)
        eng = engine(arb(1), g)
        pos = eng.initial()
        for move in result.maker_line:
            pos = eng.apply(pos, move)
        assert eng.status(pos) is Status.MAKER_WIN


class FixedReply(StrategyAgent):
    """Answers every Maker move by colouring edge 1-2 with colour 1."""

    def observe(self, move, pos):
        return self

    def propose(self, pos):
        return Move(edge=(1, 2), colour=1), self


class TestVerifierChecksReplies:
    def test_illegal_reply_raises(self):
        # Maker's first line colours 1-2, so the reply is illegal there
        with pytest.raises(AgentError, match="agent failed after Maker line e1-2=1"):
            verify_agent_wins(arb(1), complete(3), FixedReply())


class TestTransform:
    def test_k_zero_rejected(self):
        inner = solver_strategy(arb(1), complete(3), Player.BREAKER)
        with pytest.raises(ValueError, match="k >= 1"):
            TransformedBreakerAgent(inner, complete(3), 0)

    def test_transformed_agent_defeats_every_maker_line_k4(self):
        # Breaker wins K4 with 2 colours; the transform wins with 1
        g = complete(4)
        assert solve(arb(2), g).winner is Status.BREAKER_WIN
        inner = solver_strategy(arb(2), g, Player.BREAKER)
        agent = TransformedBreakerAgent(inner, g, 1)
        result = verify_agent_wins(arb(1), g, agent)
        assert result.ok

    def test_transformed_agent_defeats_every_maker_line_k5(self):
        g = complete(5)
        inner = solver_strategy(arb(2), g, Player.BREAKER)
        agent = TransformedBreakerAgent(inner, g, 1)
        result = verify_agent_wins(arb(1), g, agent)
        assert result.ok

    def test_trace_preserves_move_locations(self):
        # every real move colours the same edge in the imagined game
        g = complete(4)
        inner = solver_strategy(arb(2), g, Player.BREAKER)
        agent = TransformedBreakerAgent(inner, g, 1)
        eng = engine(arb(1), g)
        maker = Solver(arb(1), g)
        pos = eng.initial()
        while eng.status(pos) is Status.ONGOING:
            if pos.count % 2 == 0:
                move = maker.best_move(pos)
                pos = eng.apply(pos, move)
                agent = agent.observe(move, pos)
            else:
                move, agent = agent.propose(pos)
                pos = eng.apply(pos, move)
            assert agent.imagined.edge_colours[g.edge_index[move.edge]]
        assert eng.status(pos) is Status.BREAKER_WIN
        coloured_real = len([e for e in pos.edge_colours if e])
        coloured_imag = len([e for e in agent.imagined.edge_colours if e])
        assert coloured_real == coloured_imag

    def test_observe_rejects_breaker_turn(self):
        g = complete(4)
        inner = solver_strategy(arb(2), g, Player.BREAKER)
        agent = TransformedBreakerAgent(inner, g, 1)
        pos = played(arb(1), g, Move(edge=(1, 2), colour=1))
        agent = agent.observe(Move(edge=(1, 2), colour=1), pos)
        pos = played(arb(1), g, Move(edge=(1, 3), colour=1), start=pos)
        with pytest.raises(AgentError, match="Breaker's turn"):
            agent.observe(Move(edge=(1, 3), colour=1), pos)

    def test_invariant_violation_when_positions_diverge(self):
        # the caller's position colours 1-3 where the imagined game copied
        # Maker's reported move 1-2
        g = complete(4)
        inner = solver_strategy(arb(2), g, Player.BREAKER)
        agent = TransformedBreakerAgent(inner, g, 1)
        pos = played(arb(1), g, Move(edge=(1, 3), colour=1))
        with pytest.raises(InvariantViolation, match="coloured-edge sets diverged"):
            agent.observe(Move(edge=(1, 2), colour=1), pos)

    def test_concede_error_on_desynced_imagined_state(self):
        # the concede branch is unreachable through the public protocol, so
        # desync the imagination state by hand and watch it raise loudly
        g = complete(4)
        inner = solver_strategy(arb(2), g, Player.BREAKER)
        agent = TransformedBreakerAgent(inner, g, 1)
        real = played(arb(1), g, Move(edge=(1, 2), colour=1), Move(edge=(3, 4), colour=1))
        agent.imagined = played(
            arb(2), g, Move(edge=(1, 2), colour=1), Move(edge=(2, 3), colour=1)
        )
        # (1,3) with colour 1 is legal in the real game but closes a
        # monochromatic path 1-2-3 in the imagined game
        real = played(arb(1), g, Move(edge=(1, 3), colour=1), start=real)
        with pytest.raises(ConcedeError, match="cannot be copied"):
            agent.observe(Move(edge=(1, 3), colour=1), real)


class TestAgentValues:
    """Agents are immutable values: each call returns the agent after the
    move, and equal agents stand for equal strategies from here on."""

    def start(self):
        g = complete(4)
        inner = solver_strategy(arb(2), g, Player.BREAKER)
        return g, TransformedBreakerAgent(inner, g, 1)

    def test_calls_leave_the_receiver_unchanged(self):
        g, agent = self.start()
        pos = played(arb(1), g, Move(edge=(1, 2), colour=1))
        after = agent.observe(Move(edge=(1, 2), colour=1), pos)
        reply, later = after.propose(pos)
        assert reply.edge is not None
        assert (agent.imagined.count, after.imagined.count, later.imagined.count) == (0, 1, 2)
        assert len({agent, after, later}) == 3

    def test_equal_histories_give_equal_agents(self):
        g, agent = self.start()
        twin = TransformedBreakerAgent(agent.inner, g, 1)
        assert twin == agent and hash(twin) == hash(agent)
        move = Move(edge=(1, 2), colour=1)
        pos = played(arb(1), g, move)
        after, twin_after = agent.observe(move, pos), twin.observe(move, pos)
        assert after == twin_after and hash(after) == hash(twin_after)
        assert after.propose(pos) == twin_after.propose(pos)
        other = Move(edge=(3, 4), colour=1)
        assert agent.observe(other, played(arb(1), g, other)) != after
        assert TransformedBreakerAgent(agent.inner, g, 2) != agent

    def test_solver_agent_returns_itself(self):
        agent = solver_strategy(arb(2), complete(4), Player.BREAKER)
        move = Move(edge=(1, 2), colour=1)
        pos = played(arb(2), complete(4), move)
        assert agent.observe(move, pos) is agent
        reply, after = agent.propose(pos)
        assert after is agent
        assert reply == agent.solver.best_move(pos)

    def test_successors_share_one_solver_memo(self):
        g, agent = self.start()
        solver = agent.inner.solver
        replies = set()
        for move in (Move(edge=(1, 2), colour=1), Move(edge=(3, 4), colour=1)):
            pos = played(arb(1), g, move)
            reply, later = agent.observe(move, pos).propose(pos)
            assert later.inner.solver is solver
            replies.add(reply)
        assert len(replies) == 2
        assert solver.decided_positions == 2


def recorded_positions(solver):
    """Make ``solver.best_move`` record every position it is asked about;
    returns the list and a function that stops the recording."""
    seen = []
    best_move = solver.best_move

    def recording(pos):
        seen.append(pos)
        return best_move(pos)

    solver.best_move = recording
    return seen, lambda: delattr(solver, "best_move")


class TestBestMoveMemo:
    """Verification asks the agent's solver about the same positions over and
    over; the memoized answers must be the ones a fresh solver gives."""

    def check_against_fresh_solvers(self, spec, g, solver, seen):
        exact = {}
        for pos in seen:
            exact.setdefault(solver.eng.exact_key(pos), pos)
        assert len(exact) == solver.decided_positions
        for pos in exact.values():
            assert solver.best_move(pos) == Solver(spec, g).best_move(pos)
        return len(exact)

    def test_vertex_game_k3(self):
        spec = GameSpec(Variant.VERTEX, 3)
        g = fig3_graph()
        solver = Solver(spec, g)
        assert solver.winner() is Status.BREAKER_WIN
        seen, stop = recorded_positions(solver)
        result = verify_agent_wins(spec, g, SolverAgent(spec, g, Player.BREAKER, solver))
        stop()
        assert result.ok
        assert (result.leaves, result.nodes) == (227, 386)
        assert all(pos.count % 2 == 1 for pos in seen)
        assert self.check_against_fresh_solvers(spec, g, solver, seen) < len(seen)

    @pytest.mark.parametrize(
        "g, leaves, nodes, revisited",
        [(complete(5), 31, 44, False), (parse_graph6("EB^w"), 90, 146, True)],
        ids=["K5", "EB^w"],
    )
    def test_arboricity_transform_two_to_one(self, g, leaves, nodes, revisited):
        solver = Solver(arb(2), g)
        assert solver.winner() is Status.BREAKER_WIN
        seen, stop = recorded_positions(solver)
        inner = SolverAgent(arb(2), g, Player.BREAKER, solver)
        result = verify_agent_wins(arb(1), g, TransformedBreakerAgent(inner, g, 1))
        stop()
        assert result.ok
        assert (result.leaves, result.nodes) == (leaves, nodes)
        decided = self.check_against_fresh_solvers(arb(2), g, solver, seen)
        assert (decided < len(seen)) is revisited

    def test_first_legal_move_is_caught(self, monkeypatch):
        # Breaker wins the vertex game with 3 colours on this graph, but not
        # by always taking the first legal move
        g = parse_graph6("E`]o")
        spec = GameSpec(Variant.VERTEX, 3)
        agent = solver_strategy(spec, g, Player.BREAKER)
        assert verify_agent_wins(spec, g, agent).ok
        monkeypatch.setattr(
            Solver, "best_move", lambda self, pos: next(self.eng.children(pos))[0]
        )
        result = verify_agent_wins(spec, g, agent)
        assert not result.ok
        assert result.maker_line


def walk_every_line(spec, g, agent, on_expand=None):
    """Oracle for ``verify_agent_wins`` that shares no memo with it: a plain
    recursive walk of every Maker line against ``agent``, validating every
    move. Returns ``(ok, maker_line, leaves, nodes)``, and calls
    ``on_expand(line, pos)`` at each Maker-to-move position it expands."""
    eng = engine(spec, g)
    leaves = nodes = 0

    def walk(pos, agent, line):
        nonlocal leaves, nodes
        if on_expand is not None:
            on_expand(line, pos)
        for move in eng.legal_moves(pos):
            after = eng.apply(pos, move)
            branch = agent.observe(move, after)
            branch_line = line + (move,)
            nodes += 1
            if eng.status(after) is Status.ONGOING:
                reply, branch = branch.propose(after)
                after = eng.apply(after, reply)
                branch_line += (reply,)
                nodes += 1
            st = eng.status(after)
            if st is Status.MAKER_WIN:
                return branch_line
            if st is Status.BREAKER_WIN:
                leaves += 1
                continue
            failure = walk(after, branch, branch_line)
            if failure is not None:
                return failure
        return None

    start = eng.initial()
    st = eng.status(start)
    if st is Status.MAKER_WIN:
        return False, (), 0, 0
    if st is Status.BREAKER_WIN:
        return True, None, 1, 0
    failure = walk(start, agent, ())
    return failure is None, failure, leaves, nodes


class Blunderer(StrategyAgent):
    """Plays the replies of ``inner``, an agent that keeps no history, except
    ``blunder`` at the exact position ``at``. With no ``route`` it keeps no
    history either and returns itself. With a ``route`` it returns a new agent
    holding the Maker moves it observed, equal to another only when those
    histories are equal, and blunders only on lines whose Maker moves begin
    with ``route``."""

    def __init__(self, inner, eng, at, blunder, route=None, observed=()):
        self.inner = inner
        self.eng = eng
        self.at = at
        self.blunder = blunder
        self.route = route
        self.observed = observed

    def _state(self):
        return self.inner, self.at, self.blunder, self.route, self.observed

    def __eq__(self, other):
        return isinstance(other, Blunderer) and self._state() == other._state()

    def __hash__(self):
        return hash(self._state())

    def observe(self, move, pos):
        assert self.inner.observe(move, pos) is self.inner
        if self.route is None:
            return self
        return Blunderer(
            self.inner, self.eng, self.at, self.blunder, self.route,
            self.observed + (move,),
        )

    def propose(self, pos):
        reply, inner = self.inner.propose(pos)
        assert inner is self.inner
        if self.eng.exact_key(pos) == self.at and (
            self.route is None or self.observed[: len(self.route)] == self.route
        ):
            reply = self.blunder
        return reply, self


def blunder_agents(spec, g, solver, agent):
    """A ``Blunderer`` without and one with a history, or None when the walk
    with ``agent`` reaches no Maker-to-move position twice.

    Both blunder at P, the first ongoing child of the first such position Q
    where Breaker has a move other than the agent's, so two Maker lines reach
    P; the one with a history only on the line that reaches Q second, whose
    subtree a memo keyed by position alone would not walk again. The blunder
    is a move at P that loses when there is one, else any move other than the
    agent's."""
    eng = engine(spec, g)
    expanded = set()
    repeats = []

    def on_expand(line, pos):
        key = eng.exact_key(pos)
        if key in expanded:
            repeats.append((pos, line))
        expanded.add(key)

    walk_every_line(spec, g, agent, on_expand)
    if not repeats:
        return None
    q, second_line = repeats[0]
    for _, p in eng.children(q):
        if eng.status(p) is not Status.ONGOING:
            continue
        best = solver.best_move(p)
        others = [(m, c) for m, c in eng.children(p) if m != best]
        if not others:
            continue
        losing = [m for m, c in others if solver.winner(c) is Status.MAKER_WIN]
        blunder = losing[0] if losing else others[-1][0]
        at = eng.exact_key(p)
        return (
            Blunderer(agent, eng, at, blunder),
            Blunderer(agent, eng, at, blunder, route=second_line[0::2]),
        )
    return None


def verified(spec, g, agent):
    result = verify_agent_wins(spec, g, agent)
    return result.ok, result.maker_line, result.leaves, result.nodes


class TestVerifierAgainstLineOracle:
    """On every graph with n <= 5, the verifier's answer, counterexample line
    and counts equal those of a walk of every Maker line, for the solver's
    Breaker agent (won or lost) and for agents that blunder at a position two
    Maker lines reach: one without a history, which the verifier walks once
    per position, and one with a history, which differs between the two lines
    and so must be walked on each. The same holds for transformed agents,
    whose histories differ from line to line but often end alike."""

    @pytest.mark.parametrize(
        "variant, ks, cases, blunders",
        [
            (Variant.VERTEX, (1, 2, 3), 156, 19),
            (Variant.ARBORICITY, (1, 2), 104, 13),
            (Variant.MARKING, (1, 2), 104, 22),
        ],
        ids=["vertex", "arboricity", "marking"],
    )
    def test_matches_every_line_walk(self, variant, ks, cases, blunders):
        checked = blundered = 0
        outcomes = set()
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                for k in ks:
                    spec = GameSpec(variant, k)
                    solver = Solver(spec, g)
                    agent = SolverAgent(spec, g, Player.BREAKER, solver)
                    expected = walk_every_line(spec, g, agent)
                    assert verified(spec, g, agent) == expected, (g.edges, k)
                    outcomes.add(expected[0])
                    checked += 1
                    pair = blunder_agents(spec, g, solver, agent)
                    if pair is None:
                        continue
                    for blunderer in pair:
                        expected = walk_every_line(spec, g, blunderer)
                        assert verified(spec, g, blunderer) == expected, (
                            g.edges, k, blunderer.route
                        )
                    blundered += 1
        assert outcomes == {True, False}
        assert (checked, blundered) == (cases, blunders)

    def test_transformed_agents(self):
        # T7's instances (every arboricity Breaker win at k+1 with n <= 5)
        # and one n = 6 graph where many lines reach one (position, agent)
        instances = []
        for g in [g for n in range(1, 6) for g in enumerate_graphs(n)] + [
            parse_graph6("E@Nw")
        ]:
            for k in range(1, g.m):
                solver = Solver(arb(k + 1), g)
                if solver.winner() is Status.BREAKER_WIN:
                    inner = SolverAgent(arb(k + 1), g, Player.BREAKER, solver)
                    instances.append((g, k, TransformedBreakerAgent(inner, g, k)))
        assert len(instances) == 7
        for g, k, agent in instances:
            lines = []
            expected = walk_every_line(arb(k), g, agent, lambda line, pos: lines.append(line))
            result = verify_agent_wins(arb(k), g, agent)
            assert expected[0]
            assert (result.ok, result.maker_line, result.leaves, result.nodes) == expected
            assert result.expanded <= len(lines)
        # E@Nw: the verifier expands 14 (position, agent) pairs, the line walk 33
        assert (result.expanded, len(lines)) == (14, 33)
