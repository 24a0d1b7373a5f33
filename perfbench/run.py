"""Benchmark of mbgames: three workloads, timed end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload arb-dense --seed 1 --seconds 30 --trace 0

A run imports ``mbgames`` from ``src/`` beside this directory (several times,
for ``setup_s``), builds the workload's inputs from the seed, then runs
identical passes while another pass is expected to end within ``--seconds``
(at least one; a traced run needs one untraced and one traced pass). With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics. The
last line of standard output is the JSON result; the lines before it are for
people. ``--tiny`` shrinks every workload for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from microbench import VARIANTS, rates
from tracing import LAYERS, NullTracer, Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "data" / "reference.json"
SETUP_REPEATS = 11

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "correct_fraction": "fraction",
    "graph_ms_p50": "ms",
    "graph_ms_p98": "ms",
}


PER_LAYER_UNITS = {
    "solver.nodes": "count",
    "solver.table_entries": "count",
    "solver.nodes_per_s": "1/s",
    "solver.solve_s": "s",
    "solver.solves": "count",
    "solver.solve_ms_p50": "ms",
    "solver.replay_new_entries": "count",
    "solver.replay_reuse": "nodes/entry",
    **{
        f"rules.{variant}.{op}_per_s": "1/s"
        for variant in VARIANTS
        for op in ("assess", "search_children", "canonical_key", "apply")
    },
    "graphs.merged_per_s": "1/s",
    "search.enumerate_s": "s",
    "search.canonical_form_per_s": "1/s",
    "search.scan_s": "s",
    "search.hits": "count",
    "search.skipped": "count",
    "parameters.win_profile_s": "s",
    "parameters.profiles": "count",
    "imagination.solver_strategy_s": "s",
    "imagination.verify_s": "s",
    "imagination.verify_nodes": "count",
    "imagination.verify_leaves": "count",
    **{f"acceptance.T{i}_s": "s" for i in range(1, 10)},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": os.getloadavg(),
    }


def setup(workload: str, seed: int, tiny: bool):
    """Import the package afresh and build the workload's inputs."""
    for key in [k for k in sys.modules if k == "mbgames" or k.startswith("mbgames.")]:
        del sys.modules[key]
    start = perf_counter()
    mb = importlib.import_module("mbgames")
    importlib.import_module("mbgames.acceptance")
    ref = json.loads(REFERENCE.read_text())
    wl = WORKLOADS[workload](mb, ref, seed, tiny)
    return perf_counter() - start, mb, wl


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile by nearest rank: a value that was measured."""
    if not values:  # a pass whose calls raised before any answer
        return 0.0
    return sorted(values)[math.ceil(q / 100 * len(values)) - 1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for tests")
    args = parser.parse_args(argv)

    if not (SRC / "mbgames" / "__init__.py").is_file():
        print(f"error: no mbgames package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print("machine " + json.dumps(machine()))

    setups = []
    for _ in range(SETUP_REPEATS):
        elapsed, mb, wl = setup(args.workload, args.seed, args.tiny)
        setups.append(elapsed)
    if Path(mb.__file__).resolve().parent != SRC / "mbgames":
        print(f"error: imported mbgames from {mb.__file__}, not {SRC}", file=sys.stderr)
        return 2

    null, tracer = NullTracer(), Tracer()
    plain, traced, layer_runs = [], [], []
    start = perf_counter()
    while True:
        if args.trace and len(traced) < len(plain):
            tracer.reset()
            result = wl.run_pass(tracer)
            traced.append(result)
            layer_runs.append({**tracer.metrics(), **result.counts})
            kind = "traced"
        else:
            result = wl.run_pass(null)
            plain.append(result)
            kind = "plain"
        print(
            f"pass {len(plain) + len(traced)} {kind}: {result.wall_s:.3f} s, "
            f"{result.attempted} answers, {result.failed} wrong"
        )
        for line in result.errors[:20]:
            print(f"  WRONG {line}")
        elapsed = perf_counter() - start
        mean_pass = elapsed / (len(plain) + len(traced))
        if (traced or not args.trace) and elapsed + mean_pass > args.seconds:
            break

    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    drift = sorted({d for p in passes for d in p.drift})
    print(f"exact counts differing from the reference (not gated): {len(drift)}")
    for line in drift[:20]:
        print(f"  {line}")
    if tracer.missing:
        print("untraced (no longer in the library): " + ", ".join(tracer.missing))

    if args.trace:
        units = PER_LAYER_UNITS
        values = {
            name: statistics.median(run.get(name, 0) for run in layer_runs)
            for name in units
        }
        values.update(rates(mb, wl.playout_specs(), args.seed))
        values["trace.overhead_s"] = (
            statistics.median(p.wall_s for p in traced)
            - statistics.median(p.wall_s for p in plain)
        )
    else:
        units = END_TO_END_UNITS
        values = {
            "wall_s": statistics.median(p.wall_s for p in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "correct_fraction": (attempted - failed) / attempted if attempted else 0.0,
            "graph_ms_p50": statistics.median(quantile(p.graph_ms, 50) for p in plain),
            "graph_ms_p98": statistics.median(quantile(p.graph_ms, 98) for p in plain),
        }
    print(f"failed_fraction {failed / attempted if attempted else 1.0:.6g} fraction")
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
