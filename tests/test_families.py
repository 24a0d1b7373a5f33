import pytest

from mbgames import families
from mbgames.families import (
    build,
    complete,
    cycle,
    edgeless,
    fig3_graph,
    fig4_graph,
    h_r,
    path,
    star,
    theorem14_graph,
)


def has_edge(g, u, v):
    return (min(u, v), max(u, v)) in g.edge_index


class TestHr:
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_size_and_edge_count(self, r):
        g = h_r(r)
        assert g.n == 2 * r + 7
        assert g.m == 3 * r + 9

    def test_h1_explicit_edges(self):
        g = h_r(1)
        assert g.edges == (
            (1, 2), (1, 3), (1, 6), (1, 8), (1, 9),
            (2, 7), (2, 9), (3, 4), (4, 9), (5, 6), (6, 8), (8, 9),
        )

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_back_neighbour_structure(self, r):
        # every vertex except the last has at most two earlier neighbours;
        # the last has exactly r+3, all earlier
        g = h_r(r)
        top = 2 * r + 7
        for v in range(1, top):
            earlier = [u for u in g.neighbours(v) if u < v]
            assert len(earlier) <= 2, f"vertex {v} has {earlier}"
        last = sorted(g.neighbours(top))
        assert len(last) == r + 3
        assert all(u < top for u in last)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_pendant_vertex_next_to_two(self, r):
        g = h_r(r)
        assert g.neighbours(2 * r + 5) == {2}

    def test_r_zero_rejected(self):
        with pytest.raises(ValueError):
            h_r(0)


class TestFig3:
    def test_shape(self):
        g = fig3_graph()
        assert (g.n, g.m) == (7, 13)
        assert sum(g.degree(v) for v in range(1, 8)) == 26

    def test_vertex_three_guard(self):
        # the transcription guard: vertex 3 has degree 2 and touches neither
        # vertex 1 nor vertex 2
        g = fig3_graph()
        assert g.degree(3) == 2
        assert not has_edge(g, 1, 3)
        assert not has_edge(g, 2, 3)

    def test_connected(self):
        assert fig3_graph().is_connected()


class TestFig4:
    def test_shape(self):
        g, e = fig4_graph()
        assert (g.n, g.m) == (8, 12)
        assert e == (1, 3)
        assert has_edge(g, *e)

    def test_remains_connected_without_e(self):
        g, e = fig4_graph()
        assert g.delete_edge(e).is_connected()
        assert g.delete_edge(e).m == 11


class TestTheorem14:
    def test_k3_is_h_r(self):
        assert theorem14_graph(3, 5) == h_r(2)

    def test_k4_l5_sizes(self):
        assert theorem14_graph(4, 5).n == 11  # 2 u's + 9 H_1 vertices

    def test_u_structure(self):
        g = theorem14_graph(5, 7)
        # u vertices 1..4; evens {2, 4} form a clique joined to all 11 v's
        assert has_edge(g, 2, 4)
        assert g.degree(1) == 0 and g.degree(3) == 0
        n_v = h_r(2).n
        assert n_v == 11
        for u in (2, 4):
            for h in range(1, n_v + 1):
                assert has_edge(g, u, 4 + h)

    def test_v_part_is_h_r_copy(self):
        og = theorem14_graph(4, 6)
        shift = 2
        base = h_r(2)
        sub = [
            (u - shift, v - shift)
            for u, v in og.edges
            if u > shift and v > shift
        ]
        assert tuple(sorted(sub)) == base.edges

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            theorem14_graph(2, 5)
        with pytest.raises(ValueError):
            theorem14_graph(4, 4)


class TestStandard:
    def test_complete(self):
        assert build("complete:3").edges == ((1, 2), (1, 3), (2, 3))

    def test_path_cycle_star_edgeless(self):
        assert path(4).m == 3
        assert cycle(5).m == 5
        assert star(4).degree(1) == 3
        assert edgeless(5).m == 0

    def test_cycle_needs_three(self):
        with pytest.raises(ValueError):
            cycle(2)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown family"):
            build("hypercube:3")


class TestBuild:
    def test_fig_instances(self):
        assert build("fig3") == fig3_graph()
        assert build("fig4") == fig4_graph()[0]
        assert build("fig4_minus_e").m == 11

    def test_parameterized(self):
        assert build("h_r:2") == h_r(2)
        assert build("thm14:4,5").n == 11
        assert build("complete:5").m == 10

    def test_bad_params(self):
        with pytest.raises(ValueError):
            build("h_r")
        with pytest.raises(ValueError):
            build("complete:x")
        with pytest.raises(ValueError, match="unknown family"):
            build("petersen:10")
