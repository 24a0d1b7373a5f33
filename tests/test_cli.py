import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mbgames
from mbgames import rules
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
        assert payload["table_hits"] == 0
        assert payload["automorphisms"] == 1

    def test_text_mode_prints_the_principal_variation(self):
        code, out = invoke(
            "solve", "--family", "complete:3", "--variant", "vertex",
            "--colours", "3", "--pv",
        )
        assert code == 0
        assert out.splitlines()[-1] == "principal variation: v1=1 v2=2 v3=3"

    def test_json_reports_orbit_keys(self, monkeypatch):
        # K5's 120 automorphisms fold positions: the same winner from fewer
        # expanded positions than with the identity group alone
        argv = (
            "solve", "--family", "complete:5", "--variant", "arboricity",
            "--colours", "4", "--json",
        )
        payloads = []
        try:
            for group in (rules.edge_automorphisms, lambda g: (tuple(range(g.m)),)):
                monkeypatch.setattr(rules, "edge_automorphisms", group)
                rules.engine.cache_clear()
                rules._folding.cache_clear()
                code, out = invoke(*argv)
                assert code == 0
                payloads.append(json.loads(out))
        finally:
            rules.engine.cache_clear()
            rules._folding.cache_clear()
        folded, plain = payloads
        assert (folded["automorphisms"], plain["automorphisms"]) == (120, 1)
        assert folded["table_hits"] > 0
        assert folded["winner"] == plain["winner"]
        assert folded["nodes_searched"] < plain["nodes_searched"]

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

    def test_graph6_reads_only_the_first_graph(self, tmp_path):
        # a malformed later line is never parsed
        path = tmp_path / "g.g6"
        path.write_text("Bw\n!!!\n")
        code, out = invoke(
            "solve", "--graph6", str(path), "--variant", "vertex", "--colours", "3"
        )
        assert code == 0
        assert "on n=3, m=3" in out

    def test_empty_graph6_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "g.g6"
        path.write_text("\n")
        code, _ = invoke(
            "solve", "--graph6", str(path), "--variant", "vertex", "--colours", "3"
        )
        assert code == 2
        assert "no graphs in" in capsys.readouterr().err

    def test_bad_edge_list_is_usage_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n1 1\n")
        code, _ = invoke(
            "solve", "--graph", str(path), "--variant", "vertex", "--colours", "2"
        )
        assert code == 2

    def test_ordered_variant_plays_label_order_without_order_flag(self):
        code, out = invoke(
            "solve", "--family", "h_r:1", "--variant", "overtex",
            "--colours", "3", "--json",
        )
        assert code == 0
        assert json.loads(out)["winner"] == "maker"

    def test_ordered_variant_with_order_flag(self, tmp_path):
        path = tmp_path / "order.txt"
        path.write_text("3 1 4 9 5 2 6 8 7\n")
        code, out = invoke(
            "solve", "--family", "h_r:1", "--variant", "overtex",
            "--colours", "3", "--order", str(path), "--pv", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["winner"], payload["pv"][0]) == ("maker", "v3=1")

    def test_space_separated_order_is_not_a_file_name(self):
        code, out = invoke(
            "solve", "--family", "h_r:1", "--variant", "overtex",
            "--colours", "3", "--order", "3 1 4 9 5 2 6 8 7", "--pv", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["winner"], payload["pv"][0]) == ("maker", "v3=1")

    @pytest.mark.parametrize(
        "option", ["--order", "--graph", "--graph6"]
    )
    def test_unreadable_file_is_usage_error(self, tmp_path, capsys, option):
        path = tmp_path / "missing.txt"
        source = ["--family", "h_r:1"] if option == "--order" else []
        code, out = invoke(
            "solve", *source, "--variant", "overtex", "--colours", "3",
            option, str(path),
        )
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert f"error: cannot read {path}: No such file or directory" in err

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
            "graph": {"n": 9, "m": 12}, "table_hits": 0, "automorphisms": 1,
            **expected,
        }

    @pytest.mark.parametrize("as_json", [False, True])
    def test_emit_edges_with_order_shows_the_graph_as_read(self, as_json):
        # --order relabels the graph that is played, not the one printed
        argv = [
            "solve", "--family", "h_r:1", "--variant", "overtex", "--colours", "3",
            "--emit-edges",
        ]
        plain = invoke(*argv, *(["--json"] if as_json else []))[1]
        code, out = invoke(
            *argv, "--order", "3,1,4,9,5,2,6,8,7", *(["--json"] if as_json else [])
        )
        assert code == 0
        if as_json:
            payload, before = json.loads(out), json.loads(plain)
            assert payload["graph6"] == before["graph6"] == "HpAICJP"
            assert payload["edges"] == before["edges"]
        else:
            assert out.splitlines()[:14] == plain.splitlines()[:14]
            assert out.splitlines()[1] == "9 12"

    @pytest.mark.parametrize("error", [MemoryError, RecursionError])
    def test_exhausted_interpreter_is_a_resource_error(self, monkeypatch, capsys, error):
        def exhausted(*args, **kwargs):
            raise error()

        monkeypatch.setattr("mbgames.cli.Solver.solve", exhausted)
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


K3_FIELDS = {"graph6": "Bw", "edges": [[1, 2], [1, 3], [2, 3]]}


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--variant", "vertex", "--colours", "3", "--pv"],
        ["profile", "--variant", "arboricity"],
        ["report", "--k-max", "3"],
    ],
)
def test_emit_edges_with_json_is_one_object(argv):
    code, out = invoke(*argv, "--family", "complete:3", "--emit-edges", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == argv[0]
    assert {key: payload[key] for key in K3_FIELDS} == K3_FIELDS


@pytest.mark.parametrize(
    "command, option",
    [
        (["report", "--k-max", "3"], ["--order", "1,2,3,4"]),
        (["transform", "--colours", "1"], ["--order", "1,2,3,4"]),
        (["transform", "--colours", "1"], ["--emit-edges"]),
        (["play", "--variant", "vertex", "--colours", "3"], ["--emit-edges"]),
        (["solve", "--variant", "vertex", "--colours", "3"], ["--order", "4,3,2,1"]),
        (["profile", "--variant", "arboricity"], ["--order", "4,3,2,1"]),
        (["play", "--variant", "cvertex", "--colours", "3"], ["--order", "4,3,2,1"]),
    ],
)
def test_options_a_command_would_ignore_are_usage_errors(command, option, capsys):
    argv = [*command, "--family", "complete:4"]
    assert invoke(*argv, stdin=io.StringIO("q\n"))[0] == 0
    code, out = invoke(*argv, *option, stdin=io.StringIO("q\n"))
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    if option[0] == "--order" and command[0] in ("solve", "profile", "play"):
        # these commands take --order, but an unordered game plays no vertex
        # order, so it would only rename the vertices
        variant = command[command.index("--variant") + 1]
        assert f"--order applies only to the ordered variants, not {variant}" in err
    else:
        assert f"unrecognized arguments: {option[0]}" in err


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

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_usage_error(self, capsys, jobs):
        code, out = invoke(
            "search", "--n", "3", "--predicate", "param:chi_g=2", "--jobs", jobs
        )
        assert code == 2
        assert out == ""
        assert f"jobs must be >= 1, got {jobs}" in capsys.readouterr().err

    def test_json_report_written(self, tmp_path):
        path = tmp_path / "report.json"
        code, _ = invoke(
            "search", "--n", "3", "--predicate", "param:chi_g=2",
            "--json-report", str(path),
        )
        assert code == 0
        assert json.loads(path.read_text())["scanned"] == 4

    def test_unwritable_json_report_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "report.json"
        code, out = invoke(
            "search", "--n", "3", "--predicate", "chi_g_lt_chi_cg",
            "--json-report", str(path),
        )
        assert (code, out) == (2, "")
        assert f"cannot write {path}" in capsys.readouterr().err
        assert not path.parent.exists()

    def test_connected_filters_graph6_input(self, tmp_path):
        # BO is one edge plus an isolated vertex; Bw is K3
        path = tmp_path / "g.g6"
        path.write_text("BO\nBw\n")
        argv = ["search", "--graph6", str(path), "--predicate", "param:chi_g=2"]
        code, out = invoke(*argv)
        assert code == 0
        assert out.startswith("BO\t")
        assert out.endswith("# scanned 2 graphs, 1 hits, 0 skipped\n")
        assert invoke(*argv, "--connected") == (
            0, "# scanned 1 graphs, 0 hits, 0 skipped\n"
        )

    def test_budget_overrun_is_reported_as_a_skip(self, tmp_path):
        # K6-e's arboricity profile needs far more than 1 ms: the graph is
        # skipped with its reason, and the scan still reports its totals
        path = tmp_path / "g.g6"
        path.write_text("E^~w\n")
        code, out = invoke(
            "search", "--graph6", str(path),
            "--predicate", "nonmonotone_profile:arboricity", "--budget-ms", "1",
        )
        assert code == 0
        assert out == (
            "# skipped E^~w: BudgetExceededError: solve exceeded its time budget\n"
            "# scanned 1 graphs, 0 hits, 1 skipped\n"
        )

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

    @pytest.mark.parametrize(
        "predicate", ["nonmonotone_profile:vertex:5-2", "chi_g_lt_chi_cg:0"]
    )
    def test_bad_predicate_bounds_are_usage_errors(self, predicate):
        code, out = invoke("search", "--n", "3", "--predicate", predicate)
        assert (code, out) == (2, "")

    @pytest.mark.parametrize(
        "predicate, form",
        [
            ("nonmonotone_profile:vertex:5", "nonmonotone_profile:VARIANT[:KLO-KHI]"),
            ("chi_g_lt_chi_cg:x", "chi_g_lt_chi_cg[:KMAX]"),
            ("param:chi_g=x", "param:NAME=VALUE"),
        ],
    )
    def test_malformed_predicate_numbers_are_usage_errors(self, capsys, predicate, form):
        code, out = invoke("search", "--n", "3", "--predicate", predicate)
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert repr(predicate) in err and form in err


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
        # no two Maker lines reach one real and imagined colouring, so the
        # walk expands each of its four Maker-to-move positions once
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
        code, out = invoke("verify-paper", "--only", "T1,T5")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("PASS")]
        assert len(lines) == 2

    def test_verbose_text_prints_each_detail(self):
        code, out = invoke("verify-paper", "--only", "T5", "--verbose")
        assert code == 0
        first, *details = out.splitlines()
        assert first.startswith("PASS T5: ")
        assert details and all(line.startswith("    T5 ok: ") for line in details)

    @pytest.mark.parametrize("verbose", [[], ["--verbose"]], ids=["plain", "verbose"])
    def test_json_output_is_one_object(self, verbose):
        code, out = invoke("verify-paper", "--only", "T1,T5", "--json", *verbose)
        assert code == 0
        payload = json.loads(out)
        assert payload["all_ok"] is True
        assert [c["id"] for c in payload["checks"]] == ["T1", "T5"]
        assert all(c["ok"] and c["details"] for c in payload["checks"])

    def test_unknown_id_is_usage_error(self):
        code, _ = invoke("verify-paper", "--only", "T99")
        assert code == 2
        # the usage error comes before any output, the JSON report included
        assert invoke("verify-paper", "--only", "T99", "--json") == (2, "")

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_unknown_id_in_a_list_is_usage_error(self, capsys, json_flag):
        # T1 is known, but nothing runs: a mistyped id must not read as a pass
        assert invoke("verify-paper", "--only", "T1,T99,t98", *json_flag) == (2, "")
        assert "unknown check ids: T99, t98" in capsys.readouterr().err

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
        assert json.loads(done.stdout)["all_ok"] is True
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

    def test_arboricity_entries(self):
        # an edge may be typed either way round; two numbers are reprompted
        stdin = io.StringIO("1 2\n2 1 1\n")
        code, out = invoke(
            "play", "--family", "complete:3", "--variant", "arboricity",
            "--colours", "1", "--side", "maker", stdin=stdin,
        )
        assert code == 0
        assert out.splitlines()[2:5] == [
            "edge colours: none",
            "move> illegal move: enter: u v colour",
            "move> edge colours: 1-2:1",
        ]

    def test_marking_entries(self):
        stdin = io.StringIO("1 2\n2\n3\n")
        code, out = invoke(
            "play", "--family", "path:3", "--variant", "marking",
            "--bound", "1", "--side", "maker", stdin=stdin,
        )
        assert code == 0
        assert out.splitlines()[2:5] == [
            "marked: none",
            "move> illegal move: enter exactly one vertex",
            "move> marked: [2]",
        ]

    def test_eof_aborts_cleanly(self):
        stdin = io.StringIO("")
        code, out = invoke(
            "play", "--family", "complete:3", "--variant", "vertex",
            "--colours", "3", "--side", "maker", stdin=stdin,
        )
        assert code == 0
        assert "aborted" in out

    def test_order_keeps_the_source_vertex_names(self):
        # H_1 relabelled so that its vertex 3 is played first: positions,
        # the solver's moves and the illegal-move message all name the
        # source's vertices
        stdin = io.StringIO("1\n2\n3\n" * 8)
        code, out = invoke(
            "play", "--family", "h_r:1", "--variant", "overtex", "--colours", "3",
            "--order", "3,1,4,9,5,2,6,8,7", "--side", "breaker", stdin=stdin,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[3:7] == [
            "solver (maker) plays v3=1",
            "vertex colours: 3:1",
            "move> illegal move: c1 is not legal; the legal moves at vertex 1: c2, c3",
            "move> vertex colours: 1:2 3:1",
        ]
        assert lines[-2] == "vertex colours: 1:2 2:1 3:1 4:2 5:1 6:3 7:2 8:1 9:3"
        assert lines[-1] == "game over: Maker wins"

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