import itertools

import pytest

from mbgames.families import complete, edgeless, fig4_graph, h_r, path, star
from mbgames.graphs import relabel, to_graph6
from mbgames.parameters import (
    PARAMETER_VARIANTS,
    default_k_range,
    named_parameter,
    parameter_report,
    win_profile,
)
from mbgames.rules import Status, Variant
from mbgames.search import NonMonotoneProfile, enumerate_graphs


class TestWinProfile:
    def test_h1_ordered_profile_is_non_monotone(self):
        profile = win_profile(h_r(1), Variant.ORDERED_VERTEX, (3, 4))
        assert profile.outcome(3) is Status.MAKER_WIN
        assert profile.outcome(4) is Status.BREAKER_WIN
        assert profile.monotonicity_violations() == [3]

    def test_fig4_connected_marking_profile(self):
        g, _ = fig4_graph()
        profile = win_profile(g, Variant.CONNECTED_MARKING, (1, 3))
        assert profile.outcome(1) is Status.BREAKER_WIN
        assert profile.outcome(2) is Status.MAKER_WIN
        assert profile.outcome(3) is Status.MAKER_WIN

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            win_profile(path(3), Variant.VERTEX, (3, 2))

    def test_outcome_out_of_range_rejected(self):
        profile = win_profile(path(3), Variant.VERTEX, (1, 2))
        with pytest.raises(ValueError, match="outside"):
            profile.outcome(5)

    def test_as_dict(self):
        profile = win_profile(complete(3), Variant.VERTEX, (2, 3))
        assert profile.as_dict() == {2: "breaker", 3: "maker"}


class TestMonotonicityViolations:
    def test_h1_ordered(self):
        profile = win_profile(h_r(1), Variant.ORDERED_VERTEX, (3, 4))
        assert profile.monotonicity_violations() == [3]

    def test_ordered_vertex_clean_in_every_order_below_six_vertices(self):
        # every play order of every connected graph with n <= 5, over the
        # default k range: the smallest ordered non-monotone instance (H_1
        # has 9 vertices) has at least 6
        variant = Variant.ORDERED_VERTEX
        profiles = 0
        for n in range(1, 6):
            for g in enumerate_graphs(n, connected_only=True):
                for order in itertools.permutations(range(1, n + 1)):
                    h = relabel(g, order)
                    profile = win_profile(h, variant, default_k_range(h, variant))
                    assert profile.monotonicity_violations() == [], to_graph6(h)
                    profiles += 1
        assert profiles == 2679

    def test_arboricity_small_graphs_clean(self):
        for g in (complete(4), path(5), star(4)):
            profile = win_profile(g, Variant.ARBORICITY, (1, g.m))
            assert profile.monotonicity_violations() == []

    def test_marking_clean(self):
        g = complete(4)
        assert win_profile(g, Variant.MARKING, (0, 4)).monotonicity_violations() == []


class TestParameterReport:
    def test_edgeless_parameters_all_one(self):
        report = parameter_report(edgeless(3))
        assert report["chi_g"].value == 1
        assert report["gamma_g"].value == 1
        assert report["col_g"].value == 1
        assert report["arboricity_game_number"].value == 1
        assert not report["chi_cg"].applicable  # disconnected guard
        assert not report["col_cg"].applicable

    def test_triangle(self):
        report = parameter_report(complete(3))
        assert report["chi_g"].value == 3
        assert report["chi_cg"].value == 3
        assert report["gamma_g"].value == 3
        assert report["arboricity_game_number"].value == 2
        assert report["col_g"].value == 3
        assert report["col_cg"].value == 3

    def test_star_chi_g_two(self):
        report = parameter_report(star(4))
        assert report["chi_g"].value == 2

    def test_profiles_attached_and_consistent(self):
        report = parameter_report(complete(3))
        pv = report["chi_g"]
        assert pv.profile is not None
        assert pv.profile.outcome(pv.value) is Status.MAKER_WIN
        for k in range(pv.profile.k_lo, pv.value):
            assert pv.profile.outcome(k) is Status.BREAKER_WIN

    def test_explicit_k_max_fig4(self):
        g, e = fig4_graph()
        report = parameter_report(g, k_max=5)
        assert report["col_cg"].value == 3
        reduced = parameter_report(g.delete_edge(e), k_max=5)
        assert reduced["col_cg"].value == 4

    def test_as_dict_roundtrips_to_json(self):
        import json

        report = parameter_report(path(3))
        blob = json.dumps(report.as_dict())
        assert json.loads(blob)["parameters"]["chi_g"]["value"] == report["chi_g"].value

    def test_k_max_below_one_rejected(self):
        with pytest.raises(ValueError):
            parameter_report(path(3), k_max=0)


class TestNamedParameter:
    @pytest.mark.parametrize("name", list(PARAMETER_VARIANTS))
    def test_matches_the_default_profile(self, name):
        variant = PARAMETER_VARIANTS[name]
        for n in range(1, 5):
            for g in enumerate_graphs(n):
                pv = named_parameter(g, name)
                if variant.connectivity_restricted and not g.is_connected():
                    assert not pv.applicable
                    assert pv.value is None
                    continue
                profile = win_profile(g, variant, default_k_range(g, variant))
                assert pv.applicable
                assert pv.value == profile.parameter_value()
                assert pv.profile == profile

    def test_report_is_every_named_parameter(self):
        g = star(4)
        report = parameter_report(g, k_max=3)
        assert list(report.values) == list(PARAMETER_VARIANTS)
        for name in PARAMETER_VARIANTS:
            assert report[name] == named_parameter(g, name, 3)


class TestDefaultKRange:
    def test_ranges_end_at_the_trivial_win(self):
        g = complete(4)
        assert default_k_range(g, Variant.VERTEX) == (1, 4)
        assert default_k_range(g, Variant.ARBORICITY) == (1, 6)
        assert default_k_range(g, Variant.MARKING) == (0, 3)
        assert default_k_range(edgeless(1), Variant.CONNECTED_MARKING) == (0, 0)
        assert default_k_range(edgeless(1), Variant.ARBORICITY) == (1, 1)

    def test_report_and_search_use_it(self):
        g = complete(4)
        report = parameter_report(g)
        for name in ("chi_g", "arboricity_game_number", "col_g"):
            variant = report[name].profile.variant
            profile = report[name].profile
            assert (profile.k_lo, profile.k_hi) == default_k_range(g, variant)
            assert NonMonotoneProfile(variant)._range(g) == default_k_range(g, variant)
