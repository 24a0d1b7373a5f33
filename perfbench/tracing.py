"""In-memory spans around calls into the public functions of mbgames.

A traced pass wraps a fixed list of public entry points, one list per layer
(module), for the duration of the pass and restores them afterwards. Every
module-level binding of a wrapped function is replaced, so calls made inside
the library (``scan`` -> ``win_profile`` -> ``solve``) are timed as well as the
benchmark's own calls. Per-node internals (engine methods, ``_winner``) are
never wrapped, so the overhead stays proportional to the number of public
calls. Untraced passes use ``NullTracer`` and run the unmodified library.

A span is (name, start, end, parent). A layer's self time is the total
duration of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
from array import array
from time import perf_counter

LAYERS = ("search", "graphs", "rules", "solver", "parameters", "imagination", "acceptance")

# Public entry points wrapped in a traced pass, by the module defining them:
# those the workloads call, directly or through the library.
TARGETS = {
    "graphs": ("parse_graph6", "to_graph6"),
    "rules": ("engine",),
    "solver": (
        "solve",
        "naive_solve",
        "principal_variation",
        "Solver.solve",
        "Solver.winner",
        "Solver.best_move",
    ),
    "parameters": ("win_profile",),
    "search": ("canonical_form", "enumerate_graphs", "scan", "ChiGLessThanChiCg.evaluate"),
    "imagination": ("solver_strategy", "transform_breaker", "verify_agent_wins"),
    "acceptance": ("run_checks",),
}

# Solver methods whose calls search: their node and table growth is counted.
COUNTED = ("Solver.winner", "Solver.best_move")
# A solve is one of these spans with no solver-layer parent.
SOLVE_SPANS = ("solver.solve", "solver.Solver.solve", "solver.Solver.winner")


class NullTracer:
    """Tracer for untraced passes: the library runs unwrapped."""

    def installed(self):
        return contextlib.nullcontext()

    def span(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.missing: list[str] = []  # targets the library no longer has
        self.reset()

    def reset(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.solver_nodes = 0
        self.solver_peak_entries = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        if self.stack and self.stack[-1] == idx:
            self.stack.pop()
        else:  # a generator span finalised out of order
            self.stack.remove(idx)

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, name: str, counted: bool):
        nid = self.name_id(name)
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                idx = tracer.open(nid)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
            return traced_gen
        if counted:
            @functools.wraps(fn)
            def traced_counted(solver, *args, **kwargs):
                before = solver.nodes_searched
                idx = tracer.open(nid)
                try:
                    return fn(solver, *args, **kwargs)
                finally:
                    tracer.close(idx)
                    tracer.solver_nodes += solver.nodes_searched - before
                    entries = solver.table_entries
                    if entries > tracer.solver_peak_entries:
                        tracer.solver_peak_entries = entries
            return traced_counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "mbgames" or key.startswith("mbgames."))
        ]
        undo: list[tuple[object, str, object]] = []
        self.missing = []
        try:
            for layer, targets in TARGETS.items():
                mod = sys.modules.get(f"mbgames.{layer}")
                for target in targets:
                    name = f"{layer}.{target}"
                    owner_name, _, attr = target.rpartition(".")
                    owner = getattr(mod, owner_name, None) if owner_name else mod
                    fn = owner.__dict__.get(attr) if owner is not None else None
                    if fn is None:
                        self.missing.append(name)
                        continue
                    wrapped = self._wrap(fn, name, target in COUNTED)
                    if owner_name:
                        undo.append((owner, attr, fn))
                        setattr(owner, attr, wrapped)
                        continue
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is fn:
                                undo.append((m, key, fn))
                                setattr(m, key, wrapped)
            yield
        finally:
            for owner, attr, fn in reversed(undo):
                setattr(owner, attr, fn)

    # -- aggregation ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        n = len(self.name)
        names = self.names
        layer_of = [name.partition(".")[0] for name in names]
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_s = dict.fromkeys(LAYERS, 0.0)
        total: dict[str, float] = {}
        count: dict[str, int] = {}
        solves: list[float] = []
        solve_ids = {self._ids[s] for s in SOLVE_SPANS if s in self._ids}
        for i in range(n):
            nid = self.name[i]
            name = names[nid]
            layer = layer_of[nid]
            if layer in self_s:
                self_s[layer] += dur[i] - child[i]
            total[name] = total.get(name, 0.0) + dur[i]
            count[name] = count.get(name, 0) + 1
            if nid in solve_ids:
                p = parent[i]
                if p < 0 or layer_of[self.name[p]] != "solver":
                    solves.append(dur[i])
        solve_s = sum(solves)
        canon_s = total.get("search.canonical_form", 0.0)
        out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        out.update({
            "solver.solves": len(solves),
            "solver.solve_s": solve_s,
            "solver.solve_ms_p50": statistics.median(solves) * 1e3 if solves else 0.0,
            "solver.nodes": self.solver_nodes,
            "solver.table_entries": self.solver_peak_entries,
            "solver.nodes_per_s": self.solver_nodes / solve_s if solve_s else 0.0,
            "search.enumerate_s": total.get("search.enumerate_graphs", 0.0),
            "search.canonical_form_per_s": (
                count.get("search.canonical_form", 0) / canon_s if canon_s else 0.0
            ),
            "search.scan_s": total.get("search.scan", 0.0),
            "parameters.win_profile_s": total.get("parameters.win_profile", 0.0),
            "parameters.profiles": count.get("parameters.win_profile", 0),
            "imagination.solver_strategy_s": total.get("imagination.solver_strategy", 0.0),
            "imagination.verify_s": total.get("imagination.verify_agent_wins", 0.0),
            "trace.spans": n,
        })
        for i in range(1, 10):
            out[f"acceptance.T{i}_s"] = total.get(f"acceptance.T{i}", 0.0)
        return out
