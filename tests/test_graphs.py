import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from isinglearn.graphs import (
    Graph,
    GraphFamilySpec,
    GenerationFailure,
    build_graph,
    dilute,
    make_grid,
    make_random_regular,
    make_regular_plus_edge,
    make_star,
    make_toy_gp,
    make_toy_gp_prime,
    make_tree,
    read_graph,
    write_graph,
)


def assert_simple(g):
    for i, j in g.edges:
        assert 1 <= i < j <= g.p
    assert len(g.edges) == len(set(g.edges))


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 2), (2, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, {(1, 4)})

    def test_max_degree(self):
        g = Graph.from_edges(4, [(1, 2), (1, 3), (1, 4)])
        assert g.max_degree == 3
        assert Graph(3, set()).max_degree == 0

    def test_neighbors(self):
        g = make_tree(5, "path")
        assert g.neighbors(1) == (2,)
        assert g.neighbors(3) == (2, 4)


class TestTree:
    def test_smallest(self):
        assert make_tree(2).edges == {(1, 2)}

    def test_path_edges(self):
        assert make_tree(5, "path").edges == {(1, 2), (2, 3), (3, 4), (4, 5)}

    def test_balanced_seven(self):
        g = make_tree(7, "balanced", branching=2)
        assert g.num_edges == 6
        assert g.neighbors(1) == (2, 3)
        assert g.neighbors(2) == (1, 4, 5)
        assert g.neighbors(3) == (1, 6, 7)

    def test_too_small(self):
        with pytest.raises(ValueError):
            make_tree(1)

    @given(st.integers(2, 40), st.integers(2, 4))
    def test_balanced_is_tree(self, p, b):
        g = make_tree(p, "balanced", branching=b)
        assert g.num_edges == p - 1
        assert_simple(g)


class TestStar:
    def test_partial_star(self):
        g = make_star(5, 1)
        assert g.edges == {(1, 2)}
        assert sum(1 for v in range(1, 6) if g.degree(v) == 0) == 3

    def test_full_star(self):
        assert make_star(4, 3).edges == {(1, 2), (1, 3), (1, 4)}

    def test_centered_path(self):
        assert make_star(3, 2).edges == {(1, 2), (1, 3)}

    def test_degree_too_large(self):
        with pytest.raises(ValueError):
            make_star(4, 4)


class TestGrid:
    def test_open_grid(self):
        g = make_grid(3, periodic=False)
        assert g.p == 9
        assert g.num_edges == 12

    def test_periodic_grid(self):
        g = make_grid(3, periodic=True)
        assert g.p == 9
        assert g.num_edges == 18
        assert all(g.degree(v) == 4 for v in range(1, 10))

    def test_seven(self):
        assert make_grid(7).p == 49

    def test_periodic_needs_side_three(self):
        with pytest.raises(ValueError):
            make_grid(2, periodic=True)


class TestDilute:
    def test_rho_zero_identity(self):
        g = make_grid(4)
        assert dilute(g, 0.0, seed=5).edges == g.edges

    def test_rho_one_empty(self):
        assert dilute(make_grid(4), 1.0, seed=5).num_edges == 0

    def test_binomial_mean(self):
        # 7x7 grid has 84 edges; per-graph sd is sqrt(84*.3*.7) = 4.2, so
        # the mean over 1000 seeds has a 3-sigma band of about +/-0.4
        g = make_grid(7)
        assert g.num_edges == 84
        counts = [dilute(g, 0.3, seed=s).num_edges for s in range(1000)]
        assert abs(np.mean(counts) - 58.8) < 0.4

    def test_deterministic(self):
        g = make_grid(5)
        assert dilute(g, 0.4, seed=9).edges == dilute(g, 0.4, seed=9).edges


class TestRandomRegular:
    def test_k4_unique(self):
        g = make_random_regular(4, 3, seed=0)
        assert g.edges == {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}

    def test_degrees(self):
        g = make_random_regular(50, 4, seed=2)
        assert all(g.degree(v) == 4 for v in range(1, 51))

    def test_odd_product_rejected(self):
        with pytest.raises(ValueError):
            make_random_regular(5, 3, seed=0)

    def test_simple_over_many_seeds(self):
        for s in range(200):
            assert_simple(make_random_regular(10, 3, seed=s))

    def test_deterministic(self):
        a = make_random_regular(20, 3, seed=77)
        b = make_random_regular(20, 3, seed=77)
        assert a.edges == b.edges


class TestRegularPlusEdge:
    def test_small(self):
        g = make_regular_plus_edge(6, 3, seed=0)
        assert (5, 6) in g.edges
        assert {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)} <= g.edges

    def test_two_components(self):
        g = make_regular_plus_edge(30, 4, seed=1)
        assert g.neighbors(30) == (29,)
        assert g.neighbors(29) == (30,)

    def test_degree_too_large(self):
        with pytest.raises(ValueError):
            make_regular_plus_edge(4, 3, seed=0)


class TestToyFamilies:
    def test_gp5(self):
        g = make_toy_gp(5)
        assert g.edges == {(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)}
        assert g.num_edges == 2 * (5 - 2)

    def test_gp3_is_path(self):
        assert make_toy_gp(3).edges == {(1, 3), (2, 3)}

    def test_gp_prime(self):
        g = make_toy_gp_prime(10)
        assert g.edges == {(1, 2)}

    def test_gp_degrees(self):
        g = make_toy_gp(9)
        assert g.degree(1) == 7 and g.degree(2) == 7
        assert all(g.degree(v) == 2 for v in range(3, 10))

    def test_too_small(self):
        with pytest.raises(ValueError):
            make_toy_gp(2)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["tree", "star", "grid", "random-regular", "toy-gp"]),
    st.integers(0, 2**32 - 1),
)
def test_families_build_simple_deterministic(family, seed):
    spec = {
        "tree": GraphFamilySpec(family="tree", p=9, shape="balanced"),
        "star": GraphFamilySpec(family="star", p=8, deg=5),
        "grid": GraphFamilySpec(family="grid", side=4),
        "random-regular": GraphFamilySpec(family="random-regular", p=12, delta=3),
        "toy-gp": GraphFamilySpec(family="toy-gp", p=7),
    }[family]
    a = build_graph(spec, seed=seed)
    b = build_graph(spec, seed=seed)
    assert a.edges == b.edges
    assert_simple(a)


class TestGraphFile:
    def test_roundtrip(self, tmp_path):
        g = make_random_regular(12, 3, seed=4)
        path = tmp_path / "g.txt"
        write_graph(g, path)
        assert read_graph(path).edges == g.edges

    def test_format_zero_based_sorted(self, tmp_path):
        path = tmp_path / "g.txt"
        write_graph(make_tree(3, "path"), path)
        assert path.read_text() == "p 3\ne 0 1\ne 1 2\n"

    def test_rejects_self_loop(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("p 3\ne 1 1\n")
        with pytest.raises(ValueError):
            read_graph(path)

    def test_rejects_duplicate(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("p 3\ne 0 1\ne 1 0\n")
        with pytest.raises(ValueError):
            read_graph(path)

    def test_rejects_out_of_range(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("p 3\ne 0 3\n")
        with pytest.raises(ValueError):
            read_graph(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# comment\np\ne 0 1\n", "line 2: p line without a vertex count"),
            ("p 3\ne 0 1\ne 2\n", "line 3: edge needs two vertex indices"),
            ("p x\n", "line 1: invalid literal for int() with base 10: 'x'"),
            ("p 3\ne 0 x\n", "line 2: invalid literal for int() with base 10: 'x'"),
            ("p 3 4\ne 0 1\n", "line 1: extra tokens"),
            ("p 3\ne 0 1 2\n", "line 2: extra tokens"),
            ("# comment\np 0\n", "line 2: vertex count must be >= 1, got 0"),
            ("p -3\ne 0 1\n", "line 1: vertex count must be >= 1, got -3"),
            # int() read these as 10 and 3
            ("p 12\ne 0 1_0\n", "line 2: '1_0' is not an integer of ASCII digits"),
            ("p \u0663\n", "line 1: '\u0663' is not an integer of ASCII digits"),
        ],
        ids=["p-count", "e-index", "p-not-int", "e-not-int", "p-extra", "e-extra",
             "p-zero", "p-negative", "e-underscore", "p-other-digits"],
    )
    def test_rejects_short_record(self, tmp_path, text, message):
        path = tmp_path / "short.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            read_graph(path)
        assert str(exc.value) == message
