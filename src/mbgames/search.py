"""Small-graph enumeration and predicate scans.

Enumeration grows graphs one vertex at a time, adding only vertices of least
degree in the extended graph, and deduplicates with a brute-force canonical
form: the lexicographically minimal upper-triangle adjacency encoding over all
vertex orders (restricted to degree-sorted orders, which is
isomorphism-invariant). Scans evaluate a predicate on each streamed graph,
optionally on a worker pool, with order-normalized output.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .graphs import Graph, parse_graph6, to_graph6
from .parameters import (
    PARAMETER_VARIANTS,
    default_k_range,
    named_parameter,
    win_profile,
)
from .rules import Variant

ENUM_MAX_N = 8


def canonical_form(g: Graph) -> tuple[int, ...]:
    """Minimal upper-triangle encoding over all degree-sorted vertex orders.

    Column j's int packs the bits x(p(0),p(j)) .. x(p(j-1),p(j)), most
    significant first, so tuple comparison equals bitstring comparison.
    """
    n = g.n
    adj = g.adj
    degs = [a.bit_count() for a in adj]
    target = sorted(degs)
    by_degree: dict[int, list[int]] = {}
    for v, d in enumerate(degs):
        by_degree.setdefault(d, []).append(v)

    best: list[int] | None = None
    cols: list[int] = []
    perm: list[int] = []

    def rec(j: int, used: int):
        nonlocal best
        if best is not None and cols > best[:j]:
            return
        if j == n:
            if best is None or cols < best:
                best = cols.copy()
            return
        for v in by_degree.get(target[j], ()):
            if used >> v & 1:
                continue
            col = 0
            av = adj[v]
            for i in range(j):
                col = col << 1 | (av >> perm[i] & 1)
            cols.append(col)
            perm.append(v)
            rec(j + 1, used | 1 << v)
            cols.pop()
            perm.pop()

    rec(0, 0)
    assert best is not None
    return tuple(best[1:])  # the first column is empty and carries no bits


def graph_from_canonical(n: int, cols: tuple[int, ...]) -> Graph:
    edges = []
    for j in range(1, n):
        col = cols[j - 1]
        for i in range(j):
            if col >> (j - 1 - i) & 1:
                edges.append((i + 1, j + 1))
    return Graph(n, edges)


def enumerate_graphs(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """All non-isomorphic graphs on n vertices, canonically labelled, in
    ascending canonical order."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > ENUM_MAX_N:
        raise ValueError(
            f"built-in enumeration stops at n={ENUM_MAX_N}; feed a graph6 "
            f"stream for larger sizes"
        )
    keys: list[tuple[int, ...]] = [()]
    for size in range(2, n + 1):
        seen: set[tuple[int, ...]] = set()
        for key in keys:
            base = graph_from_canonical(size - 1, key)
            base_edges = base.edges
            degs = [a.bit_count() for a in base.adj]
            for mask in range(1 << (size - 1)):
                # every graph arises by adding back one of its least-degree
                # vertices, so extensions where the new vertex is not of least
                # degree are skipped
                d = mask.bit_count()
                if any(degs[i] + (mask >> i & 1) < d for i in range(size - 1)):
                    continue
                edges = list(base_edges)
                for i in range(size - 1):
                    if mask >> i & 1:
                        edges.append((i + 1, size))
                seen.add(canonical_form(Graph(size, edges)))
        keys = sorted(seen)
    for key in keys:
        g = graph_from_canonical(n, key)
        if connected_only and not g.is_connected():
            continue
        yield g


# ---------------------------------------------------------------------------
# Predicates. Each evaluates exactly (delegating to the parameters module)
# and returns a Hit carrying enough witness data to be re-checked.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hit:
    graph6: str
    predicate: str
    witness: dict
    profiles: dict

    def as_dict(self) -> dict:
        return {
            "graph6": self.graph6,
            "predicate": self.predicate,
            "witness": self.witness,
            "profiles": self.profiles,
        }

    def line(self) -> str:
        fields = " ".join(f"{k}={v}" for k, v in sorted(self.witness.items()))
        return f"{self.graph6}\t{self.predicate}\t{fields}"


@dataclass(frozen=True)
class ChiGLessThanChiCg:
    """chi_g(G) < chi_cg(G) over palettes 1..k_max (default Delta+1)."""

    k_max: int | None = None
    name = "chi_g_lt_chi_cg"

    def __post_init__(self):
        if self.k_max is not None and self.k_max < 1:
            raise ValueError(f"chi_g_lt_chi_cg needs k_max >= 1, got {self.k_max}")

    def evaluate(self, g: Graph, deadline: float | None = None) -> Hit | None:
        if g.n == 0 or not g.is_connected():
            return None
        plain = named_parameter(g, "chi_g", self.k_max, deadline=deadline)
        conn = named_parameter(g, "chi_cg", self.k_max, deadline=deadline)
        chi_g, chi_cg = plain.value, conn.value
        if chi_g is None or chi_cg is None or not chi_g < chi_cg:
            return None
        return Hit(
            to_graph6(g),
            self.name,
            {"chi_g": chi_g, "chi_cg": chi_cg},
            {"vertex": plain.profile.as_dict(), "cvertex": conn.profile.as_dict()},
        )


@dataclass(frozen=True)
class ColCgEdgeNonMonotone:
    """Some edge e keeps G-e connected yet col_cg(G-e) > col_cg(G)."""

    name = "col_cg_edge_nonmonotone"

    def evaluate(self, g: Graph, deadline: float | None = None) -> Hit | None:
        if g.n == 0 or not g.is_connected():
            return None
        pv = named_parameter(g, "col_cg", deadline=deadline)
        base = pv.value
        if base is None:
            return None
        witnesses = []
        profiles = {"col_cg": pv.profile.as_dict()}
        for e in g.edges:
            # a disconnected G-e has no col_cg: its value is None
            reduced = named_parameter(g.delete_edge(e), "col_cg", deadline=deadline)
            if reduced.value is not None and reduced.value > base:
                witnesses.append({"edge": list(e), "col_cg_minus_e": reduced.value})
                profiles[f"col_cg_minus_{e[0]}_{e[1]}"] = reduced.profile.as_dict()
        if not witnesses:
            return None
        return Hit(
            to_graph6(g),
            self.name,
            {"col_cg": base, "edges": witnesses},
            profiles,
        )


@dataclass(frozen=True)
class NonMonotoneProfile:
    """The variant's win profile has a Maker win followed by a Breaker win."""

    variant: Variant
    k_lo: int | None = None
    k_hi: int | None = None

    def __post_init__(self):
        bounds = (self.k_lo, self.k_hi)
        if bounds != (None, None) and (None in bounds or not 0 <= self.k_lo <= self.k_hi):
            raise ValueError(
                f"nonmonotone_profile needs both k bounds or neither, with 0 <= k_lo "
                f"<= k_hi; got k_lo={self.k_lo}, k_hi={self.k_hi}"
            )

    @property
    def name(self) -> str:
        return f"nonmonotone_profile:{self.variant.value}"

    def _range(self, g: Graph) -> tuple[int, int]:
        if self.k_lo is not None:
            return self.k_lo, self.k_hi
        return default_k_range(g, self.variant)

    def evaluate(self, g: Graph, deadline: float | None = None) -> Hit | None:
        if self.variant.connectivity_restricted and not g.is_connected():
            return None
        profile = win_profile(g, self.variant, self._range(g), deadline=deadline)
        violations = profile.monotonicity_violations()
        if not violations:
            return None
        return Hit(
            to_graph6(g),
            self.name,
            {"violations": violations},
            {self.variant.value: profile.as_dict()},
        )


@dataclass(frozen=True)
class ParameterEquals:
    """A named parameter equals the given value."""

    parameter: str
    value: int

    @property
    def name(self) -> str:
        return f"param:{self.parameter}={self.value}"

    def __post_init__(self):
        if self.parameter not in PARAMETER_VARIANTS:
            raise ValueError(
                f"unknown parameter {self.parameter!r}; choose from "
                f"{sorted(PARAMETER_VARIANTS)}"
            )

    def evaluate(self, g: Graph, deadline: float | None = None) -> Hit | None:
        pv = named_parameter(g, self.parameter, deadline=deadline)
        if not pv.applicable or pv.value != self.value:
            return None
        return Hit(
            to_graph6(g),
            self.name,
            {self.parameter: pv.value},
            {self.parameter: pv.profile.as_dict() if pv.profile else None},
        )


Predicate = ChiGLessThanChiCg | ColCgEdgeNonMonotone | NonMonotoneProfile | ParameterEquals


def parse_predicate(text: str) -> Predicate:
    """CLI predicate syntax; see each predicate's class for semantics.

    chi_g_lt_chi_cg[:KMAX] | col_cg_edge_nonmonotone |
    nonmonotone_profile:VARIANT[:KLO-KHI] | param:NAME=VALUE
    """
    head, _, rest = text.partition(":")
    head = head.strip().lower()

    def number(s: str, form: str) -> int:
        try:
            return int(s)
        except ValueError:
            raise ValueError(f"malformed predicate {text!r}; expected {form}") from None

    if head == "chi_g_lt_chi_cg":
        k_max = number(rest, "chi_g_lt_chi_cg[:KMAX]") if rest else None
        return ChiGLessThanChiCg(k_max)
    if head == "col_cg_edge_nonmonotone":
        return ColCgEdgeNonMonotone()
    if head == "nonmonotone_profile":
        variant_name, _, krange = rest.partition(":")
        try:
            variant = Variant(variant_name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown variant {variant_name!r}") from None
        if not krange:
            return NonMonotoneProfile(variant)
        # KLO may start with a sign, so split at the first '-' after it
        lo, _, hi = krange[1:].partition("-")
        form = "nonmonotone_profile:VARIANT[:KLO-KHI]"
        return NonMonotoneProfile(
            variant, number(krange[0] + lo, form), number(hi, form)
        )
    if head == "param":
        name, _, value = rest.partition("=")
        return ParameterEquals(name.strip(), number(value, "param:NAME=VALUE"))
    raise ValueError(f"unknown predicate {text!r}")


# ---------------------------------------------------------------------------
# Scan driver.
# ---------------------------------------------------------------------------

@dataclass
class Skip:
    index: int
    graph6: str
    reason: str


@dataclass
class ScanReport:
    predicate: str
    scanned: int = 0
    hits: list[Hit] = field(default_factory=list)
    skipped: list[Skip] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "predicate": self.predicate,
            "scanned": self.scanned,
            "hits": [h.as_dict() for h in self.hits],
            "skipped": [
                {"index": s.index, "graph6": s.graph6, "reason": s.reason}
                for s in self.skipped
            ],
        }


def _evaluate_one(item: tuple[str, Predicate, int | None]):
    """(hit, skip reason) for one (graph6, predicate, budget_ms) item. Any
    exception, a blown budget included, becomes a skip reason that starts with
    the exception's type, so one bad graph never loses the rest of the scan."""
    g6, predicate, budget_ms = item
    deadline = None
    if budget_ms is not None:
        deadline = time.perf_counter() + budget_ms / 1000.0
    try:
        return predicate.evaluate(parse_graph6(g6), deadline=deadline), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


def scan(
    graphs: Iterable[Graph],
    predicate: Predicate,
    *,
    jobs: int = 1,
    budget_ms: int | None = None,
) -> ScanReport:
    """Evaluate the predicate on every streamed graph.

    Results are collected in stream order regardless of worker count; a graph
    whose evaluation raises, say by blowing its per-graph budget, is recorded
    as skipped with the exception's type, never fatal. At most one worker
    process is started per graph, and none for a single graph.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    report = ScanReport(predicate=predicate.name)
    items = [(to_graph6(g), predicate, budget_ms) for g in graphs]
    report.scanned = len(items)
    # the pool forks all its workers at the first submit
    workers = min(jobs, len(items))
    if workers <= 1:
        results = map(_evaluate_one, items)
    else:
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            results = list(pool.map(_evaluate_one, items, chunksize=4))
        finally:
            pool.shutdown()
    # both maps yield results in input order
    for index, (hit, error) in enumerate(results):
        if error is not None:
            report.skipped.append(Skip(index, items[index][0], error))
        elif hit is not None:
            report.hits.append(hit)
    return report
