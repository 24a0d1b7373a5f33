"""Tests of the benchmark itself: run each workload in its tiny mode and check
the result line against BENCHMARK.json.

    python -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH_DIR))


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run(
        "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", str(trace), "--tiny",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert "failed_fraction 0 fraction" in lines
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if not trace:
            assert m["value"] > 0, name


def test_without_the_package_the_run_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_input_pools_match_their_generators():
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "inputs.py"), "--check"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout


def test_benchmark_json_follows_its_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(ROOT / "src"))
    import mbgames
    import workloads

    ref = json.loads((BENCH_DIR / "data" / "reference.json").read_text())
    return lambda name, seed: workloads.WORKLOADS[name](mbgames, ref, seed, False)


def test_replay_is_sized_by_verification_leaves(workloads):
    import workloads as wl

    picks = set()
    for seed in range(1, 21):
        replay = workloads("strategy-replay", seed)
        low = wl.REPLAY_LEAVES * (1 - wl.REPLAY_SLACK)
        high = wl.REPLAY_LEAVES * (1 + wl.REPLAY_SLACK)
        assert low <= replay.leaves <= high
        assert len(replay.draws) == wl.REPLAY_DRAWS
        picks.add(tuple(d["graph6"] for d, _ in replay.draws))
    assert len(picks) > 1


def test_inputs_depend_only_on_the_seed(workloads):
    a = [c["graph6"] for c, _ in workloads("arb-dense", 5).cases]
    b = [c["graph6"] for c, _ in workloads("arb-dense", 5).cases]
    c = [c["graph6"] for c, _ in workloads("arb-dense", 6).cases]
    assert a == b != c
    assert a.count("E^~w") == 1 and len(a) == 22
