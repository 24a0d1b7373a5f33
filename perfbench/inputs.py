"""Input pools shipped beside the benchmark, and the generators that made them.

The pools are graph6 files so that a run's set-up reads graphs instead of
enumerating or drawing them:

- ``data/n7_m12.g6``: the 126 connected graphs with 7 vertices and 12 edges,
  in ``enumerate_graphs(7)`` order (``arb-dense``).
- ``data/gnp11.g6``: the first ``GNP_DRAWS`` draws of G(11, 0.4) from
  ``random.Random(GNP_SEED)`` (``strategy-replay``).

``python3 perfbench/inputs.py --check`` regenerates both pools and exits 1 if
either file differs; ``--write`` rewrites them.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DATA_DIR = BENCH_DIR / "data"
M12_FILE = DATA_DIR / "n7_m12.g6"
GNP_FILE = DATA_DIR / "gnp11.g6"

GNP_SEED = 2308
GNP_DRAWS = 64
GNP_N = 11
GNP_P = 0.4


def read_pool(path: Path) -> list[str]:
    return [line.strip() for line in path.read_text().splitlines() if line.strip()]


def m12_pool(mb) -> list[str]:
    return [
        mb.to_graph6(g)
        for g in mb.enumerate_graphs(7, connected_only=True)
        if g.m == 12
    ]


def gnp_pool(mb) -> list[str]:
    rng = random.Random(GNP_SEED)
    pairs = [(u, v) for u in range(1, GNP_N + 1) for v in range(u + 1, GNP_N + 1)]
    draws = []
    for _ in range(GNP_DRAWS):
        edges = [e for e in pairs if rng.random() < GNP_P]
        draws.append(mb.to_graph6(mb.Graph(GNP_N, edges)))
    return draws


def _pools(mb) -> dict[Path, list[str]]:
    return {M12_FILE: m12_pool(mb), GNP_FILE: gnp_pool(mb)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="regenerate and compare")
    mode.add_argument("--write", action="store_true", help="regenerate and write")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    import mbgames

    bad = 0
    for path, lines in _pools(mbgames).items():
        if args.write:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("".join(line + "\n" for line in lines))
            print(f"wrote {path.name}: {len(lines)} graphs")
        elif read_pool(path) != lines:
            print(f"MISMATCH {path.name}: file differs from its generator")
            bad += 1
        else:
            print(f"ok {path.name}: {len(lines)} graphs")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
