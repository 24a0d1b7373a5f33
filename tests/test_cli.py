import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mbgames
from mbgames.cli import run
from mbgames.families import fig3_graph
from mbgames.graphs import to_edge_list


def invoke(*argv, stdin=None):
    out = io.StringIO()
    code = run(list(argv), out=out, in_stream=stdin)
    return code, out.getvalue()


class TestSolveCommand:
    def test_fig3_vertex_four_colours(self):
        code, out = invoke(
            "solve", "--family", "fig3", "--variant", "vertex", "--colours", "4"
        )
        assert code == 0
        assert "Maker wins" in out

    def test_fig3_vertex_three_colours(self):
        code, out = invoke(
            "solve", "--family", "fig3", "--variant", "vertex", "--colours", "3"
        )
        assert code == 0
        assert "Breaker wins" in out

    def test_json_mode(self):
        code, out = invoke(
            "solve", "--family", "complete:3", "--variant", "vertex",
            "--colours", "3", "--json", "--pv",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["winner"] == "maker"
        assert payload["pv"] == ["v1=1", "v2=2", "v3=3"]
        assert payload["orbit_hits"] == 0
        assert payload["automorphisms"] == 1

    def test_json_reports_orbit_keys(self):
        code, out = invoke(
            "solve", "--family", "complete:4", "--variant", "arboricity",
            "--colours", "3", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["automorphisms"] == 24
        assert payload["orbit_hits"] > 0

    def test_marking_needs_bound(self):
        code, _ = invoke(
            "solve", "--family", "complete:3", "--variant", "marking",
            "--colours", "2",
        )
        assert code == 2

    def test_graph_file_input(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(to_edge_list(fig3_graph()))
        code, out = invoke(
            "solve", "--graph", str(path), "--variant", "vertex", "--colours", "4"
        )
        assert code == 0
        assert "Maker wins" in out

    def test_graph6_file_input(self, tmp_path):
        path = tmp_path / "g.g6"
        path.write_text("Bw\n")
        code, out = invoke(
            "solve", "--graph6", str(path), "--variant", "vertex", "--colours", "3"
        )
        assert code == 0
        assert "Maker wins" in out

    def test_bad_edge_list_is_usage_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n1 1\n")
        code, _ = invoke(
            "solve", "--graph", str(path), "--variant", "vertex", "--colours", "2"
        )
        assert code == 2

    def test_ordered_variant_with_order_flag(self):
        code, out = invoke(
            "solve", "--family", "h_r:1", "--variant", "overtex",
            "--colours", "3", "--json",
        )
        assert code == 0
        assert json.loads(out)["winner"] == "maker"

    # `solve --pv --json` payloads of ordered games on H_1, less elapsed_s;
    # the forced vertex of each move comes from the ordering
    PINNED_PV = [
        (
            ("overtex", None),
            {"winner": "maker", "nodes_searched": 16, "table_entries": 16,
             "pv": ["v1=1", "v2=2", "v3=3", "v4=1", "v5=2", "v6=3", "v7=1",
                    "v8=2", "v9=3"]},
        ),
        (
            ("ogreedy", None),
            {"winner": "breaker", "nodes_searched": 7, "table_entries": 7,
             "pv": [f"v{v} (forced colour)" for v in range(1, 9)]},
        ),
        (
            ("overtex", "3,1,4,9,5,2,6,8,7"),
            {"winner": "maker", "nodes_searched": 12, "table_entries": 12,
             "pv": ["v3=1", "v1=2", "v4=2", "v9=1", "v5=2", "v2=3", "v6=1",
                    "v8=3", "v7=1"]},
        ),
    ]

    @pytest.mark.parametrize("game, expected", PINNED_PV)
    def test_pv_of_ordered_games_is_pinned(self, game, expected):
        variant, order = game
        argv = [
            "solve", "--family", "h_r:1", "--variant", variant,
            "--colours", "3", "--pv", "--json",
        ]
        if order is not None:
            argv += ["--order", order]
        code, out = invoke(*argv)
        assert code == 0
        payload = json.loads(out)
        del payload["elapsed_s"]
        assert payload == {
            "command": "solve", "variant": variant, "k": 3,
            "graph": {"n": 9, "m": 12}, "orbit_hits": 0, "automorphisms": 1,
            **expected,
        }

    @pytest.mark.parametrize("error", [MemoryError, RecursionError])
    def test_exhausted_interpreter_is_a_resource_error(self, monkeypatch, capsys, error):
        def exhausted(*args, **kwargs):
            raise error()

        monkeypatch.setattr("mbgames.cli.solve", exhausted)
        code, out = invoke(
            "solve", "--family", "complete:4", "--variant", "arboricity", "--colours", "2"
        )
        assert code == 3
        assert out == ""
        assert f"resource error: {error.__name__}" in capsys.readouterr().err

    def test_emit_edges(self):
        code, out = invoke(
            "solve", "--family", "complete:3", "--variant", "vertex",
            "--colours", "3", "--emit-edges",
        )
        assert code == 0
        assert "3 3" in out
        assert "# graph6: Bw" in out


class TestProfileCommand:
    def test_h1_ordered_profile(self):
        code, out = invoke(
            "profile", "--family", "h_r:1", "--variant", "overtex",
            "--k-min", "3", "--k-max", "4", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["outcomes"] == {"3": "maker", "4": "breaker"}
        assert payload["monotonicity_violations"] == [3]

    def test_default_marking_range_stops_at_n_minus_one(self):
        code, out = invoke(
            "profile", "--family", "complete:4", "--variant", "marking", "--json",
        )
        assert code == 0
        assert list(json.loads(out)["outcomes"]) == ["0", "1", "2", "3"]

    def test_human_output_mentions_violations(self):
        code, out = invoke(
            "profile", "--family", "h_r:1", "--variant", "overtex",
            "--k-min", "3", "--k-max", "4",
        )
        assert code == 0
        assert "violations" in out


class TestReportCommand:
    def test_fig3_report(self):
        code, out = invoke("report", "--family", "fig3", "--k-max", "6", "--json")
        assert code == 0
        params = json.loads(out)["parameters"]
        assert params["chi_g"]["value"] == 4
        assert params["chi_cg"]["value"] == 5

    def test_disconnected_not_applicable(self):
        code, out = invoke("report", "--family", "edgeless:3")
        assert code == 0
        assert "not applicable" in out


class TestSearchCommand:
    def test_small_enumeration_scan(self):
        code, out = invoke(
            "search", "--n", "4", "--connected",
            "--predicate", "param:chi_g=3",
        )
        assert code == 0
        assert "# scanned 6 graphs" in out

    def test_chi_g_three_on_six_vertices(self):
        code, out = invoke("search", "--n", "6", "--predicate", "param:chi_g=3")
        assert code == 0
        assert out.rstrip("\n").endswith("# scanned 156 graphs, 77 hits, 0 skipped")

    def test_json_report_written(self, tmp_path):
        path = tmp_path / "report.json"
        code, _ = invoke(
            "search", "--n", "3", "--predicate", "param:chi_g=2",
            "--json-report", str(path),
        )
        assert code == 0
        assert json.loads(path.read_text())["scanned"] == 4

    def test_needs_source(self):
        code, _ = invoke("search", "--predicate", "param:chi_g=2")
        assert code == 2

    def test_one_source_only(self, tmp_path):
        path = tmp_path / "g.g6"
        path.write_text("Bw\n")
        code, out = invoke(
            "search", "--n", "3", "--graph6", str(path), "--predicate", "param:chi_g=2"
        )
        assert code == 2
        assert out == ""

    def test_unknown_parameter_is_a_usage_error(self):
        # rejected when the predicate is built, not skipped graph by graph
        code, _ = invoke("search", "--n", "3", "--predicate", "param:BAD=1")
        assert code == 2


class TestTransformCommand:
    def test_complete4_with_trace(self):
        code, out = invoke(
            "transform", "--family", "complete:4", "--colours", "1", "--trace"
        )
        assert code == 0
        assert "wins every Maker line" in out
        assert "containment ok" in out

    def test_complete4_trace_rows(self):
        code, out = invoke(
            "transform", "--family", "complete:4", "--colours", "1", "--trace", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["leaves"], payload["nodes"]) == (24, 36)
        assert payload["trace"] == [
            "ply  1 maker   real e1-2=1     imagined e1-2=1     containment ok",
            "ply  2 breaker real e3-4=1     imagined e3-4=2     containment ok",
            "ply  3 maker   real e1-3=1     imagined e1-3=1     containment ok",
        ]

    def test_complete5_trace_rows(self):
        code, out = invoke(
            "transform", "--family", "complete:5", "--colours", "1", "--trace", "--json"
        )
        assert code == 0
        assert json.loads(out)["trace"] == [
            "ply  1 maker   real e1-2=1     imagined e1-2=1     containment ok",
            "ply  2 breaker real e1-3=1     imagined e1-3=1     containment ok",
        ]

    def test_complete5_json(self):
        code, out = invoke(
            "transform", "--family", "complete:5", "--colours", "1", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verified"] is True
        # the transformed agent keeps state, so every Maker line is walked
        assert (payload["leaves"], payload["nodes"], payload["expanded"]) == (31, 44, 4)

    def test_json_reports_agent_positions(self, tmp_path):
        # the inner agent decides each of its positions once, however many
        # Maker lines reach it
        path = tmp_path / "g.g6"
        path.write_text("EB^w\n")
        code, out = invoke(
            "transform", "--graph6", str(path), "--colours", "1", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["leaves"], payload["nodes"]) == (90, 146)
        assert payload["agent_positions"] == 25

    def test_forest_has_nothing_to_transform(self):
        code, out = invoke("transform", "--family", "path:4", "--colours", "1")
        assert code == 1
        assert "does not win" in out

    def test_forest_json_is_one_object(self):
        code, out = invoke(
            "transform", "--family", "path:3", "--colours", "1", "--json"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["command"] == "transform"
        assert payload["verified"] is False
        assert payload["winner_k_plus_1"] == "maker"


class TestVerifyPaperCommand:
    def test_list(self):
        code, out = invoke("verify-paper", "--list")
        assert code == 0
        assert out.count(":") >= 10
        assert "T1" in out and "T10" in out

    def test_subset_runs_and_passes(self):
        code, out = invoke("verify-paper", "--only", "T1,T5", "--json")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("PASS")]
        assert len(lines) == 2
        payload = json.loads(out.splitlines()[-1])
        assert payload["all_ok"] is True

    def test_unknown_id_is_usage_error(self):
        code, _ = invoke("verify-paper", "--only", "T99")
        assert code == 2
        # the usage error comes before any output, the JSON report included
        assert invoke("verify-paper", "--only", "T99", "--json") == (2, "")

    @pytest.mark.parametrize("module", ["mbgames", "mbgames.cli"])
    def test_runs_as_a_module(self, module):
        # both ``python -m`` forms reach main: output and exit code included
        src = str(Path(mbgames.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-m", module, "verify-paper", "--only", "T1,T5", "--json"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1])["all_ok"] is True
        done = subprocess.run(
            [sys.executable, "-m", module, "verify-paper", "--only", "T99"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 2


class TestPlayCommand:
    def test_human_maker_wins_k3_three_colours(self):
        stdin = io.StringIO("1 1\n2 2\n3 3\n")
        code, out = invoke(
            "play", "--family", "complete:3", "--variant", "vertex",
            "--colours", "3", "--side", "maker", stdin=stdin,
        )
        assert code == 0
        assert "Maker wins" in out

    def test_solver_breaker_always_wins_k3_two_colours(self):
        stdin = io.StringIO("1 1\n2 2\n3 2\n")
        code, out = invoke(
            "play", "--family", "complete:3", "--variant", "vertex",
            "--colours", "2", "--side", "maker", stdin=stdin,
        )
        assert code == 0
        assert "Breaker wins" in out

    def test_illegal_entries_reprompted(self):
        stdin = io.StringIO("9 9\nbogus\n1 1\n2 2\n3 3\n")
        code, out = invoke(
            "play", "--family", "complete:3", "--variant", "vertex",
            "--colours", "3", "--side", "maker", stdin=stdin,
        )
        assert code == 0
        assert "illegal move" in out
        assert "Maker wins" in out

    def test_eof_aborts_cleanly(self):
        stdin = io.StringIO("")
        code, out = invoke(
            "play", "--family", "complete:3", "--variant", "vertex",
            "--colours", "3", "--side", "maker", stdin=stdin,
        )
        assert code == 0
        assert "aborted" in out

    def test_human_breaker_on_h1_ordered_loses(self):
        # solver Maker wins ordered H_1 with 3 colours whatever Breaker does;
        # offering colours 1,2,3 at every prompt survives the re-prompt loop
        stdin = io.StringIO("1\n2\n3\n" * 8)
        code, out = invoke(
            "play", "--family", "h_r:1", "--variant", "overtex",
            "--colours", "3", "--side", "breaker", stdin=stdin,
        )
        assert code == 0
        assert "Maker wins" in out