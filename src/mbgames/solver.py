"""Exact win-loss search over a game's position graph.

``solve`` runs depth-first AND/OR search with results memoized under
colour-canonical position keys, and in the arboricity game also under keys
canonical under graph automorphisms; ``naive_solve`` is the independent oracle
(plain recursion, no memo table, no canonicalization, no counting shortcuts).
Both return the exact winner under optimal play; there are no draws.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

from .graphs import Graph
from .rules import GameSpec, Move, Position, Status, engine, to_move


class ResourceLimitError(RuntimeError):
    """The memo table outgrew its configured entry cap."""


class BudgetExceededError(RuntimeError):
    """The solve ran past its wall-clock deadline."""


_DEADLINE_STRIDE = 4096


class Solver:
    """Reusable exact solver for one (spec, graph) pair.

    The memo table persists across queries, so a strategy oracle can keep
    asking about positions discovered during play without re-searching.
    ``best_move`` also remembers its answer per exact position, so a strategy
    replayed over many lines decides each position it reaches once.
    """

    def __init__(
        self,
        spec: GameSpec,
        g: Graph,
        *,
        max_table_entries: int | None = None,
        deadline: float | None = None,
    ):
        self.spec = spec
        self.g = g
        self.eng = engine(spec, g)
        self.nodes_searched = 0
        self.orbit_hits = 0
        self.max_table_entries = max_table_entries
        self.deadline = deadline
        self._table: dict = {}
        # best_move's answers, keyed by the engine's exact_key
        self._moves: dict = {}

    @property
    def table_entries(self) -> int:
        return len(self._table)

    @property
    def decided_positions(self) -> int:
        """Distinct positions ``best_move`` has picked a move for."""
        return len(self._moves)

    def winner(self, pos: Position | None = None) -> Status:
        """Exact winner from ``pos`` (the initial position by default)."""
        if pos is None:
            pos = self.eng.initial()
        return self._with_room(self._winner, pos)

    def _with_room(self, search, pos: Position):
        """Run ``search(pos)``, raising the recursion limit for the call when
        the game is deeper than it allows and restoring it afterwards."""
        limit = sys.getrecursionlimit()
        depth = self.g.n + self.g.m + 16
        if depth <= limit - 100:
            return search(pos)
        sys.setrecursionlimit(3 * depth + 200)
        try:
            return search(pos)
        finally:
            sys.setrecursionlimit(limit)

    def _winner(self, pos: Position, key=None) -> Status:
        """Exact winner from ``pos``; ``key``, when given, is its canonical
        key, already computed by the engine."""
        eng = self.eng
        verdict = eng.assess(pos)
        if verdict is not None:
            return verdict
        if key is None:
            key = eng.canonical_key(pos)
        table = self._table
        cached = table.get(key)
        if cached is not None:
            return cached
        # a miss on the colour-canonical key: probe the key canonical under
        # graph automorphisms as well (None when there are none to fold)
        orbit = eng.orbit_key(pos)
        if orbit is not None:
            cached = table.get(orbit)
            if cached is not None:
                self.orbit_hits += 1
                table[key] = cached
                return cached
        self.nodes_searched += 1
        if self.deadline is not None and self.nodes_searched % _DEADLINE_STRIDE == 0:
            if time.perf_counter() > self.deadline:
                raise BudgetExceededError("solve exceeded its time budget")
        if self.max_table_entries is not None and len(table) >= self.max_table_entries:
            raise ResourceLimitError(
                f"memo table reached the {self.max_table_entries}-entry cap"
            )
        mover_win = (
            Status.MAKER_WIN if pos.count % 2 == 0 else Status.BREAKER_WIN
        )
        result = (
            Status.BREAKER_WIN if mover_win is Status.MAKER_WIN else Status.MAKER_WIN
        )
        winner = self._winner
        for cached_child, child, child_key in eng.search_steps(pos, table):
            w = cached_child if cached_child is not None else winner(child, child_key)
            if w is mover_win:
                result = mover_win
                break
        table[key] = result
        if orbit is not None:
            table[orbit] = result
        return result

    def solve(self) -> "SolveResult":
        start = time.perf_counter()
        winner = self.winner()
        elapsed = time.perf_counter() - start
        return SolveResult(
            winner=winner,
            nodes_searched=self.nodes_searched,
            table_entries=self.table_entries,
            elapsed=elapsed,
            orbit_hits=self.orbit_hits,
            # the first expanded position builds the engine's group
            automorphisms=self.eng.group_order() if self.nodes_searched else 1,
            oracle=self,
        )

    def best_move(self, pos: Position) -> Move:
        """First winning move in (element, colour) order for the side to move;
        the first legal move when the side to move is lost. Answers are kept
        per exact position (only ongoing ones), so asking again costs one
        lookup; the move stays in the position's own colour labels."""
        key = self.eng.exact_key(pos)
        move = self._moves.get(key)
        if move is None:
            if self.eng.status(pos) is not Status.ONGOING:
                raise ValueError("no move to pick: the game is over")
            move = self._moves[key] = self._with_room(self._best_move, pos)
        return move

    def _best_move(self, pos: Position) -> Move:
        mover_win = to_move(pos).win
        first = None
        for move, child in self.eng.children(pos):
            if first is None:
                first = move
            if self._winner(child) is mover_win:
                return move
        assert first is not None
        return first

    def principal_variation(self) -> list[Move]:
        """Moves produced when both sides play ``best_move`` from the start."""
        eng = self.eng
        pos = eng.initial()
        moves: list[Move] = []
        while eng.status(pos) is Status.ONGOING:
            move = self.best_move(pos)
            pos = eng.apply(pos, move)
            moves.append(move)
        return moves


@dataclass
class SolveResult:
    """A solve's winner and counts. ``table_entries`` counts memo keys of
    both kinds; ``orbit_hits`` counts positions answered through a key
    canonical under graph automorphisms, and ``automorphisms`` is the number
    of group elements those keys folded (1: the identity alone)."""

    winner: Status
    nodes_searched: int
    table_entries: int
    elapsed: float
    orbit_hits: int = 0
    automorphisms: int = 1
    oracle: Solver | None = field(default=None, repr=False)


def solve(
    spec: GameSpec,
    g: Graph,
    *,
    max_table_entries: int | None = None,
    deadline: float | None = None,
) -> SolveResult:
    return Solver(
        spec, g, max_table_entries=max_table_entries, deadline=deadline
    ).solve()


def naive_solve(spec: GameSpec, g: Graph) -> SolveResult:
    """Independent oracle: plain recursive search over the same rules layer,
    with no memoization, no canonical keys and no counting shortcuts.
    Intended for tiny inputs only."""
    eng = engine(spec, g)
    nodes = 0
    start = time.perf_counter()

    def search(pos: Position) -> Status:
        nonlocal nodes
        st = eng.status(pos)
        if st is not Status.ONGOING:
            return st
        nodes += 1
        mover = to_move(pos)
        for move in eng.legal_moves(pos):
            if search(eng.apply(pos, move)) is mover.win:
                return mover.win
        return mover.opponent.win

    winner = search(eng.initial())
    return SolveResult(
        winner=winner,
        nodes_searched=nodes,
        table_entries=0,
        elapsed=time.perf_counter() - start,
        oracle=None,
    )
