import functools
import itertools
import math
import operator
import pickle
import re
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from isinglearn import ising
from isinglearn.graphs import (
    Graph,
    make_grid,
    make_random_regular,
    make_star,
    make_toy_gp,
    make_tree,
)
from isinglearn.ising import (
    ENUMERATION_MAX_P,
    CouplingField,
    EnumerationTooLarge,
    MixingEstimate,
    SampleSet,
    empirical_correlations,
    estimate_mixing,
    exact_moments,
    gibbs_sample,
    read_samples,
    saw_correlation_bound,
    write_samples,
)
from isinglearn.analysis import tree_boundary_field
from _reference import (
    fixed_point_by_scan,
    naive_expectation,
    naive_marginal,
    naive_moments,
    reference_field_run,
    reference_glauber_run,
    reference_read_samples,
)
from _strategies import SPLIT_LAYOUTS, ising_instances, split_layout


class TestCouplingField:
    def test_homogeneous(self):
        g = make_tree(4, "path")
        f = CouplingField.homogeneous(g, 0.3)
        assert f.couplings == ((1, 2, 0.3), (2, 3, 0.3), (3, 4, 0.3))
        assert f.theta_row(2).tolist() == [0.3, 0.0, 0.3, 0.0]
        assert f.theta_row(1).tolist() == [0.0, 0.3, 0.0, 0.0]

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            CouplingField(3, ((1, 2, 0.1), (1, 2, 0.2)))

    def test_rejects_diagonal(self):
        with pytest.raises(ValueError):
            CouplingField(3, ((2, 2, 0.1),))


class TestExactMoments:
    def test_single_edge(self):
        d = exact_moments(Graph(2, {(1, 2)}), 0.7)
        assert d.corr[0, 1] == pytest.approx(math.tanh(0.7), abs=1e-14)

    def test_off_edge_pair_vanishes(self):
        d = exact_moments(Graph(4, {(1, 2)}), 0.9)
        assert abs(d.corr[0, 2]) < 1e-14
        assert abs(d.corr[2, 3]) < 1e-14

    def test_two_step_path(self):
        d = exact_moments(make_toy_gp(3), 0.5)
        assert d.corr[0, 1] == pytest.approx(math.tanh(0.5) ** 2, abs=1e-14)

    def test_zero_coupling_identity(self):
        d = exact_moments(make_grid(3), 0.0)
        assert np.abs(d.corr - np.eye(9)).max() < 1e-14

    def test_against_naive_enumeration(self):
        g = make_grid(3)
        couplings = {e: 0.2 + 0.05 * k for k, e in enumerate(g.sorted_edges())}
        fld = CouplingField.from_dict(g.p, couplings)
        log_z, corr = naive_moments(g, couplings)
        d = exact_moments(g, fld)
        assert d.log_z == pytest.approx(log_z, rel=1e-12)
        for (i, j), v in corr.items():
            assert d.corr[i - 1, j - 1] == pytest.approx(v, abs=1e-12)

    def test_tree_distance_powers(self):
        g = make_tree(11, "balanced", branching=2)
        theta = 0.6
        d = exact_moments(g, theta)
        dist = _bfs_distances(g)
        for i in range(1, 12):
            for j in range(i + 1, 12):
                want = math.tanh(theta) ** dist[(i, j)]
                assert abs(d.corr[i - 1, j - 1] - want) < 1e-12

    def test_griffiths_monotone_in_theta(self):
        g = make_grid(3)
        prev = None
        for theta in (0.1, 0.25, 0.4, 0.6, 0.9):
            c = exact_moments(g, theta).corr
            assert c.min() >= -1e-14
            if prev is not None:
                assert (c - prev).min() > -1e-12
            prev = c

    def test_odd_moments_vanish(self):
        d = exact_moments(make_tree(7, "balanced"), 0.8)
        means = d.expectation_vector(lambda X: np.ones(len(X)))
        assert np.abs(means).max() < 1e-12
        with pytest.raises(ValueError):  # the spin block is read-only
            d.expectation_vector(lambda X: X.__imul__(-1)[:, 0])

    def test_marginal_table(self):
        g = make_toy_gp(5)
        couplings = {e: 0.4 for e in g.sorted_edges()}
        d = exact_moments(g, 0.4)
        ref = naive_marginal(g, couplings, (1, 3))
        tbl = d.marginal((1, 3))
        # axis index 0 <-> spin +1
        assert tbl[0, 0] == pytest.approx(ref[(1, 1)], abs=1e-12)
        assert tbl[0, 1] == pytest.approx(ref[(1, -1)], abs=1e-12)
        assert tbl[1, 0] == pytest.approx(ref[(-1, 1)], abs=1e-12)
        for bad in ((0,), (1, 6)):
            with pytest.raises(ValueError):
                d.marginal(bad)

    def test_large_coupling_is_stable(self):
        d = exact_moments(make_grid(3), 6.0)
        assert np.isfinite(d.log_z)
        assert d.corr[0, 1] == pytest.approx(1.0, abs=1e-6)

    def test_enumeration_budget(self):
        with pytest.raises(EnumerationTooLarge):
            exact_moments(Graph(27, set()), 0.1)

    @pytest.mark.parametrize("layout", SPLIT_LAYOUTS)
    def test_frustrated_triangle_strong_coupling(self, layout):
        # no state reaches sum |theta| = 1200; the six frustrated states
        # have energy 400 and the two aligned ones -1200, and state 0 is
        # aligned, so a shift fixed by the first slab would overflow
        with split_layout(layout):
            d = exact_moments(Graph(3, {(1, 2), (1, 3), (2, 3)}), -400.0)
        assert d.log_z == pytest.approx(400.0 + math.log(6.0), abs=1e-12)
        off = d.corr[~np.eye(3, dtype=bool)]
        assert np.abs(off + 1.0 / 3.0).max() < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(inst=ising_instances(), data=st.data())
    def test_split_enumeration_matches_brute_force(self, inst, data):
        g, couplings, layout = inst
        vertices = data.draw(
            st.lists(st.integers(1, g.p), min_size=1, max_size=min(g.p, 4), unique=True)
        )
        with split_layout(layout):
            d = exact_moments(g, CouplingField.from_dict(g.p, couplings))
            tbl = d.marginal(vertices)
            first = d.expectation_vector(lambda X: X[:, 0])
        log_z, corr = naive_moments(g, couplings)
        assert d.log_z == pytest.approx(log_z, abs=1e-12)
        for (i, j), v in corr.items():
            assert abs(d.corr[i - 1, j - 1] - v) < 1e-12
            assert abs(d.corr[j - 1, i - 1] - v) < 1e-12
        assert np.abs(first - d.corr[:, 0]).max() < 1e-12
        ref = naive_marginal(g, couplings, vertices)
        for key in itertools.product((1, -1), repeat=len(vertices)):
            idx = tuple(0 if x > 0 else 1 for x in key)
            assert abs(tbl[idx] - ref.get(key, 0.0)) < 1e-12

    def test_memory_at_enumeration_limit(self):
        g = make_random_regular(ENUMERATION_MAX_P, 4, seed=5)
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            d = exact_moments(g, 0.3)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert elapsed < 10.0
        lo = g.p * math.log(2.0)
        assert lo < d.log_z < lo + 0.3 * g.num_edges
        assert np.abs(d.corr - d.corr.T).max() < 1e-12


def _half_space_cases():
    """(layout, p) for every split layout at p = 1, 2, 3, and at one and
    two vertices past its lo bits, where the hi half is vertex p alone and
    then two vertices."""
    for layout in SPLIT_LAYOUTS:
        for p in sorted({1, 2, 3, layout[0] + 1, layout[0] + 2}):
            yield pytest.param(layout, p, id=f"lo{layout[0]}-slab{layout[1]}-p{p}")


@functools.lru_cache(maxsize=None)
def _half_space_instance(p):
    """A graph on p vertices with couplings of both signs, and its
    brute-force log Z and correlations."""
    rng = np.random.default_rng(p)
    pairs = [(i, j) for i in range(1, p + 1) for j in range(i + 1, p + 1)]
    picked = rng.permutation(len(pairs))[: 2 * p]
    couplings = {pairs[k]: float(rng.uniform(-1.5, 1.5)) for k in sorted(picked)}
    g = Graph(p, set(couplings))
    return g, couplings, naive_moments(g, couplings)


class TestHalfSpace:
    """Only the x_p = +1 half of the states is enumerated; every public
    method must still be exact over all 2^p states."""

    @pytest.mark.parametrize("layout, p", _half_space_cases())
    def test_matches_brute_force(self, layout, p):
        g, couplings, (log_z, corr) = _half_space_instance(p)
        with split_layout(layout):
            d = exact_moments(g, CouplingField.from_dict(p, couplings))
            # [X_1 = +1] is neither even nor odd: E{X_v [X_1 = +1]} is
            # (E{X_v} + E{X_v X_1}) / 2 = corr[v, 1] / 2
            step = d.expectation_vector(lambda X: X[:, 0] > 0)
            a = np.linspace(0.3, 1.1, p)
            mixed = d.expectation_vector(lambda X: np.exp(X @ a) + X[:, -1])
            with_p = (p, 1) if p > 1 else (p,)
            without_p = tuple(range(1, min(p - 1, 3) + 1))
            tables = {vs: d.marginal(vs) for vs in (with_p, without_p) if vs}
        assert abs(d.log_z - log_z) < 1e-12
        for (i, j), v in corr.items():
            assert abs(d.corr[i - 1, j - 1] - v) < 1e-12
        want = np.array([1.0] + [corr[(1, v)] for v in range(2, p + 1)]) / 2
        assert np.abs(step - want).max() < 1e-12
        ref = naive_expectation(
            g, couplings, lambda x: np.array(x) * (math.exp(np.dot(a, x)) + x[-1])
        )
        assert np.abs(mixed - ref).max() < 1e-12
        for vs, tbl in tables.items():
            ref = naive_marginal(g, couplings, vs)
            for key in itertools.product((1, -1), repeat=len(vs)):
                idx = tuple(0 if x > 0 else 1 for x in key)
                assert abs(tbl[idx] - ref.get(key, 0.0)) < 1e-12

    @pytest.mark.parametrize("layout", SPLIT_LAYOUTS)
    def test_down_count_pmf_with_shared_values(self, layout):
        # coefficients that give many states each value of T, with a zero
        # coefficient at vertex p
        p = 7
        g, couplings, _ = _half_space_instance(p)
        coef = [1, 2, 0, 3, 1, 2, 0]
        with split_layout(layout):
            pmf = exact_moments(g, CouplingField.from_dict(p, couplings)).down_count_pmf(coef)

        def one_hot(x):
            out = np.zeros(sum(coef) + 1)
            out[sum(c for c, v in zip(coef, x) if v < 0)] = 1.0
            return out

        assert pmf.shape == (sum(coef) + 1,)
        assert np.abs(pmf - naive_expectation(g, couplings, one_hot)).max() < 1e-12


def _bfs_distances(g):
    import collections

    out = {}
    for s in range(1, g.p + 1):
        seen = {s: 0}
        dq = collections.deque([s])
        while dq:
            v = dq.popleft()
            for w in g.neighbors(v):
                if w not in seen:
                    seen[w] = seen[v] + 1
                    dq.append(w)
        for v, d in seen.items():
            if s < v:
                out[(s, v)] = d
    return out


class TestGibbs:
    def test_independent_spins(self):
        g = Graph(6, set())
        s = gibbs_sample(g, 0.0, n=10_000, burn_in=10, thin=1, seed=0)
        c = empirical_correlations(s)
        off = c[~np.eye(6, dtype=bool)]
        assert np.abs(off).max() < 4 / math.sqrt(10_000)

    def test_single_edge_matches_exact(self):
        s = gibbs_sample(Graph(2, {(1, 2)}), 0.5, n=10_000, burn_in=1000, thin=5, seed=1)
        c = empirical_correlations(s)
        assert abs(c[0, 1] - math.tanh(0.5)) < 4 / math.sqrt(10_000)

    def test_path_matches_enumeration(self):
        g = make_tree(12, "path")
        s = gibbs_sample(g, 0.8, n=20_000, burn_in=2000, thin=5, seed=2)
        c = empirical_correlations(s)
        d = exact_moments(g, 0.8)
        assert np.abs(c - d.corr).max() < 0.05

    def test_deterministic_under_seed(self):
        g = make_grid(3)
        a = gibbs_sample(g, 0.4, n=50, burn_in=20, thin=2, seed=9)
        b = gibbs_sample(g, 0.4, n=50, burn_in=20, thin=2, seed=9)
        assert np.array_equal(a.spins, b.spins)
        assert (a.burn_in, a.thin) == (20, 2)

    def test_derived_settings_recorded(self):
        g = make_tree(6, "path")
        s = gibbs_sample(g, 0.3, n=20, seed=4, mixing_cap=200)
        assert s.burn_in >= 1 and s.thin >= 1

    def test_settings_fill_only_unset_values(self):
        settings = ising.default_sampler_settings
        path = make_tree(6, "path")
        with mock.patch.object(ising, "estimate_mixing") as est:
            assert settings(path, 0.3, 7, 2, 3, 700) == (7, 2, None)
            est.assert_not_called()
        est = estimate_mixing(path, 0.3, 3, max_sweeps=700)
        assert (est.sweeps, est.saturated) == (11, False)
        assert settings(path, 0.3, None, 4, 3, 700) == (110, 4, est)
        assert settings(path, 0.3, 9, None, 3, 700) == (9, 1, est)
        # a saturated estimate of 700 sweeps: thin 70 is capped at 50
        est = estimate_mixing(make_grid(4), 1.5, 3, max_sweeps=700)
        assert settings(make_grid(4), 1.5, None, None, 3, 700) == (7000, 50, est)
        assert est.saturated

    def test_heterogeneous_couplings(self):
        g = make_tree(3, "path")
        fld = CouplingField.from_dict(3, {(1, 2): 0.9, (2, 3): 0.1})
        s = gibbs_sample(g, fld, n=20_000, burn_in=500, thin=3, seed=7)
        c = empirical_correlations(s)
        assert abs(c[0, 1] - math.tanh(0.9)) < 0.03
        assert abs(c[1, 2] - math.tanh(0.1)) < 0.03

    def test_validates_entries(self):
        with pytest.raises(ValueError):
            SampleSet(np.zeros((3, 2), dtype=np.int8), seed=0, burn_in=1, thin=1)


@st.composite
def glauber_cases(draw):
    """(p, edges, theta, nsweeps, stop, start, seed) for the table kernel;
    nsweeps straddles the 128-sweep chunk of randomness."""
    p = draw(st.integers(1, 10))
    pairs = [(i, j) for i in range(1, p + 1) for j in range(i + 1, p + 1)]
    edges = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    theta = draw(
        st.sampled_from([-0.65, 0.0, 0.15, 0.65])
        | st.floats(-3.0, 3.0, allow_nan=False)
    )
    nsweeps = draw(st.sampled_from([1, 127, 128, 129, 300]))
    stop = draw(st.booleans())
    start = draw(st.sampled_from(["random", "plus", "minus"]))
    seed = draw(st.integers(0, 2**32 - 1))
    return p, edges, theta, nsweeps, stop, start, seed


def _sparse_edges(p, m, seed):
    """m distinct 1-based pairs of p vertices, drawn without a hypothesis
    strategy so that an @example can hold them."""
    pairs = [(i, j) for i in range(1, p + 1) for j in range(i + 1, p + 1)]
    pick = np.random.default_rng(seed).choice(len(pairs), size=m, replace=False)
    return sorted(pairs[k] for k in pick)


def _star(deg):
    """The edges of a star with hub 1 and leaves 2..deg+1."""
    return [(1, v) for v in range(2, deg + 2)]


def _field(p, edges, scale, seed):
    """Per-edge couplings scale * N(0, 1) on `edges`, drawn without a
    hypothesis strategy so that an @example can hold them."""
    ths = np.random.default_rng(seed).normal(size=len(edges)) * scale
    return dict(zip(edges, ths.tolist()))


@st.composite
def field_cases(draw):
    """(p, couplings, nsweeps, stop, start, seed, row_entries) for the kernel
    on per-edge fields; row_entries None keeps the kernel's own bound on a
    row's entries, a number replaces it."""
    p = draw(st.integers(3, 13))
    pairs = [(i, j) for i in range(1, p + 1) for j in range(i + 1, p + 1)]
    edges = sorted(draw(st.sets(st.sampled_from(pairs), min_size=2)))
    scale = draw(st.sampled_from([0.1, 0.15, 0.65, 3.0]))
    # distinct integers keep the couplings distinct, so no field is homogeneous
    ks = draw(st.lists(st.integers(-64, 64), min_size=len(edges), max_size=len(edges),
                       unique=True))
    jitter = draw(st.floats(0.0, 0.5))
    nsweeps = draw(st.sampled_from([1, 127, 128, 129, 300]))
    stop = draw(st.booleans())
    start = draw(st.sampled_from(["random", "plus", "minus"]))
    seed = draw(st.integers(0, 2**32 - 1))
    entries = draw(st.sampled_from([None, None, 1, 4]))
    couplings = {e: scale * (k + jitter) / 64 for e, k in zip(edges, ks)}
    return p, couplings, nsweeps, stop, start, seed, entries


class _FixedDraws:
    """Stands in for the kernel's rng over one sweep: every one of the p
    updates goes to `site` with uniform `u`."""

    def __init__(self, p, site, u):
        self.p, self.site, self.u = p, site, u

    def integers(self, low, high, size):
        assert (low, high, size) == (0, self.p, self.p)
        return np.full(size, self.site)

    def random(self, size):
        assert size == self.p
        return np.full(size, self.u)


# (p, edges) for the exact single-update test: a wheel (hub 6 of degree 5,
# rim degree 3) and a path with an isolated vertex (degrees 0, 1 and 2)
_UPDATE_GRAPHS = (
    (6, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)] + [(v, 6) for v in range(1, 6)]),
    (5, [(1, 2), (2, 3), (3, 4)]),
)
_WHEEL_FIELD = CouplingField.from_dict(
    6, {e: 0.2 * k - 0.9 for k, e in enumerate(_UPDATE_GRAPHS[0][1])}
)


class TestHeatBathKernel:
    @pytest.mark.parametrize(
        "p, edges, theta",
        [(p, edges, th) for p, edges in _UPDATE_GRAPHS for th in (-0.65, 0.15, 0.65)]
        + [(6, _UPDATE_GRAPHS[0][1], _WHEEL_FIELD)],
    )
    def test_single_update_is_exact(self, p, edges, theta):
        # A sweep whose p updates all go to site i with the same u leaves the
        # neighbors alone, so it sets x[i] = +1 exactly when u < P(+1 | nbrs).
        g = Graph(p, set(edges))
        fld = ising._as_field(g, theta)
        kern = ising._Glauber(fld)
        dist = exact_moments(g, fld)
        rest = [1, -1] * p  # the spins of non-neighbors, fixed
        for v in range(1, p + 1):
            nb = sorted(g.neighbors(v))
            joint = dist.marginal([v] + nb)
            for idx in itertools.product((0, 1), repeat=len(nb)):
                up, down = joint[(0,) + idx], joint[(1,) + idx]
                prob = up / (up + down)
                for u, want in ((prob - 1e-9, 1), (prob + 1e-9, -1)):
                    for start in (1, -1):
                        x = rest[:p]
                        x[v - 1] = start
                        for w, k in zip(nb, idx):
                            x[w - 1] = 1 - 2 * k
                        before = list(x)
                        out = kern.run(x, 1, _FixedDraws(p, v - 1, u))
                        assert out == (1, False)
                        before[v - 1] = want
                        assert x == before, (v, idx, u, start)

    def test_fields_past_exp_range_saturate(self):
        # per-edge rows raised OverflowError from math.exp where one coupling
        # on every edge gave P(+1) = 0 with a numpy overflow warning
        g = Graph(3, {(1, 2), (2, 3)})
        couplings = {(1, 2): 400.0, (2, 3): 399.0}
        fld = CouplingField.from_dict(3, couplings)
        for field in (fld, 400.0):
            s = gibbs_sample(g, field, n=20, burn_in=5, thin=1, seed=3)
            assert s.n == 20 and abs(s.spins.sum(axis=1)).min() == 3
        kern = ising._Glauber(fld)
        for v in (1, 2, 3):
            nb = sorted(g.neighbors(v))
            for up in itertools.product((0, 1), repeat=len(nb)):
                mask = sum(1 << (w - 1) for w, u in zip(nb, up) if u)
                h = sum(couplings[min(v, w), max(v, w)] * (2 * u - 1) for w, u in zip(nb, up))
                prob = kern.rows[v - 1][mask]
                if abs(h) > 100.0:
                    assert prob == (1.0 if h > 0 else 0.0), (v, up)
                else:
                    assert 0.0 < prob < 1.0
        homogeneous = ising._Glauber(CouplingField.homogeneous(g, 400.0))
        assert homogeneous.rows[1] == (0.0, 0.5, 1.0)
        assert homogeneous.rows[0] == (0.0, 1.0)

    @pytest.mark.parametrize(
        "p, edges, theta",
        [(p, edges, th) for p, edges in _UPDATE_GRAPHS for th in (-0.65, 0.65)]
        + [(6, _UPDATE_GRAPHS[0][1], _WHEEL_FIELD)],
    )
    @pytest.mark.parametrize("stop", [False, True])
    def test_skip_boundary_is_exact(self, p, edges, theta, stop):
        # From all +1 a draw moves the state exactly when u >= top[i], P(+1)
        # with every neighbor +1, and from all -1 exactly when u < bottom[i]:
        # a sweep of p draws at site i with u on either side of that value
        # flips x[i] or keeps it. Vertex 5 of the path graph is isolated:
        # both values are 1/2.
        kern = ising._Glauber(ising._as_field(Graph(p, set(edges)), theta))
        for v in range(p):
            for start, bound in ((1, kern.top[v]), (-1, kern.bottom[v])):
                below = float(np.nextafter(bound, 0.0))
                # u = bound moves all +1 and keeps all -1; u just below it the reverse
                for u, moved in ((bound, start > 0), (below, start < 0)):
                    x = [start] * p
                    want = list(x)
                    if moved:
                        want[v] = -start
                    out = kern.run(x, 1, _FixedDraws(p, v, u), stop_on_negative_mag=stop)
                    assert x == want, (v, start, u)
                    assert out == (1, stop and sum(want) < 0), (v, start, u)

    @settings(max_examples=80, deadline=None)
    @given(case=glauber_cases())
    @example(case=(5, [], 0.65, 129, True, "random", 3))
    @example(case=(6, [(1, 2), (2, 3)], -0.65, 300, False, "plus", 4))
    @example(case=(4, [(1, 2), (2, 3), (3, 4), (1, 4)], -2.0, 300, True, "plus", 5))
    # masks of more than one machine word: p = 31 is past a 30-bit digit,
    # 64 fills a 64-bit word and 70 passes it
    @example(case=(31, _sparse_edges(31, 60, 1), 0.15, 300, True, "random", 6))
    @example(case=(31, _sparse_edges(31, 60, 1), 0.15, 300, False, "random", 6))
    @example(case=(49, _sparse_edges(49, 100, 2), 0.65, 129, True, "plus", 7))
    @example(case=(49, _sparse_edges(49, 100, 2), -0.65, 129, False, "plus", 7))
    @example(case=(64, _sparse_edges(64, 128, 3), -0.65, 300, True, "random", 8))
    @example(case=(64, _sparse_edges(64, 128, 3), 0.65, 300, False, "random", 8))
    @example(case=(70, _sparse_edges(70, 140, 4), 0.0, 129, True, "random", 9))
    @example(case=(70, _sparse_edges(70, 140, 4), 0.15, 300, False, "plus", 9))
    # chains that spend most draws with every spin aligned, where the kernel
    # jumps over the draws that cannot move the state
    @example(case=(1, [], 0.0, 300, True, "plus", 10))
    @example(case=(2, [(1, 2)], 1.5, 300, True, "plus", 11))
    @example(case=(2, [(1, 2)], 3.0, 300, False, "plus", 12))
    @example(case=(2, [(1, 2)], -3.0, 129, True, "plus", 13))
    @example(case=(2, [(1, 2)], 3.0, 300, True, "minus", 14))
    @example(case=(5, _sparse_edges(5, 7, 5), 1.5, 300, False, "plus", 15))
    @example(case=(5, _sparse_edges(5, 7, 5), 1.5, 300, True, "plus", 16))
    @example(case=(5, _sparse_edges(5, 10, 6), 3.0, 300, True, "plus", 17))
    @example(case=(5, _sparse_edges(5, 10, 6), 3.0, 129, False, "minus", 18))
    @example(case=(5, _sparse_edges(5, 4, 7), -3.0, 300, False, "plus", 19))
    @example(case=(5, _sparse_edges(5, 4, 7), -3.0, 300, True, "plus", 20))
    def test_matches_reference_loop(self, case):
        p, edges, theta, nsweeps, stop, start, seed = case
        kern = ising._Glauber(CouplingField.homogeneous(Graph(p, set(edges)), theta))
        assert kern.key is int.bit_count
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        if start == "random":
            x, x_ref = kern.initial_state(rng), kern.initial_state(ref_rng)
        else:
            s0 = 1 if start == "plus" else -1
            x, x_ref = [s0] * p, [s0] * p
        out = kern.run(x, nsweeps, rng, stop_on_negative_mag=stop)
        ref = reference_glauber_run(p, edges, theta, x_ref, nsweeps, ref_rng, stop)
        assert out == ref
        assert x == x_ref
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("thin", [1, 128, 129, 300])
    @pytest.mark.parametrize("theta", [0.15, 0.65, 1.5])
    def test_gibbs_sample_matches_reference_runs(self, thin, theta):
        # gibbs_sample keeps one chain through the burn-in and its thin blocks;
        # the same recipe as separate reference runs gives the same samples
        g = make_random_regular(8, 3, seed=4)
        edges = g.sorted_edges()
        n, burn_in, seed = 12, 130, 21
        s = gibbs_sample(g, theta, n=n, burn_in=burn_in, thin=thin, seed=seed)
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])
        x = (rng.integers(0, 2, g.p) * 2 - 1).tolist()
        reference_glauber_run(g.p, edges, theta, x, burn_in, rng)
        want = []
        for _ in range(n):
            reference_glauber_run(g.p, edges, theta, x, thin, rng)
            want.append(list(x))
        assert s.spins.tolist() == want

    @settings(max_examples=80, deadline=None)
    @given(case=field_cases())
    @example(case=(3, _field(3, [(1, 2), (2, 3)], 1.0, 1), 300, True, "random", 1, None))
    # a hub of degree 13 meets more neighbor masks than its row keeps, and
    # rows of one and four entries are full almost at once
    @example(case=(14, _field(14, _star(13), 0.1, 2), 3000, False, "random", 2, None))
    @example(case=(14, _field(14, _star(13), 0.1, 3), 3000, True, "plus", 3, None))
    @example(case=(12, _field(12, _sparse_edges(12, 40, 4), 0.15, 4), 1500, True, "random",
                   4, None))
    @example(case=(12, _field(12, _sparse_edges(12, 40, 5), 0.65, 5), 300, False, "minus",
                   5, 1))
    @example(case=(9, _field(9, _sparse_edges(9, 20, 6), 0.15, 6), 300, True, "random", 6, 4))
    # aligned starts at large |theta|, where the kernel jumps over the draws
    # that cannot move the state
    @example(case=(5, _field(5, _sparse_edges(5, 7, 7), 3.0, 7), 300, True, "plus", 7, None))
    @example(case=(5, _field(5, _sparse_edges(5, 7, 8), 3.0, 8), 300, False, "minus", 8, None))
    @example(case=(5, _field(5, _sparse_edges(5, 7, 9), 3.0, 9), 129, True, "minus", 9, None))
    @example(case=(6, {(1, 2): 2.5, (2, 3): 2.9, (3, 4): 2.7, (5, 6): -2.8}, 300, True, "plus",
                   10, None))
    @example(case=(4, {(1, 2): -2.0, (2, 3): -2.5, (3, 4): -3.0}, 300, True, "plus", 11, None))
    def test_field_matches_reference_loop(self, case):
        p, couplings, nsweeps, stop, start, seed, entries = case
        fld = CouplingField.from_dict(p, couplings)
        kern = ising._Glauber(fld)
        assert kern.key is operator.index
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        if start == "random":
            x, x_ref = kern.initial_state(rng), kern.initial_state(ref_rng)
        else:
            s0 = 1 if start == "plus" else -1
            x, x_ref = [s0] * p, [s0] * p
        with mock.patch.object(ising, "_ROW_ENTRIES", entries or ising._ROW_ENTRIES):
            out = kern.run(x, nsweeps, rng, stop_on_negative_mag=stop)
        ref = reference_field_run(fld, x_ref, nsweeps, ref_rng, stop)
        assert out == ref
        assert x == x_ref
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_rows_keep_at_most_the_bound(self):
        # the hub of a p=30 star meets about one new neighbor mask per update
        g = make_star(30, 29)
        fld = CouplingField.from_dict(30, {e: 0.05 + 0.01 * k for k, e in enumerate(g.sorted_edges())})
        kern = ising._Glauber(fld)
        rng = np.random.default_rng(0)
        kern.run(kern.initial_state(rng), 3000, rng)
        assert max(len(row) for row in kern.rows) == len(kern.rows[0]) == ising._ROW_ENTRIES


class TestSampleSetRows:
    @staticmethod
    def _spins(p, kind, rng):
        if kind == "one row":
            return rng.choice([-1, 1], size=(1, p))
        if kind == "identical":
            return np.tile(rng.choice([-1, 1], size=p), (40, 1))
        patterns = rng.choice([-1, 1], size=(12, p))
        if p <= 9:
            # every row of p spins, so the order crosses the byte boundary
            patterns = 1 - 2 * ((np.arange(1 << p)[:, None] >> np.arange(p)) & 1)
        return patterns[rng.integers(0, len(patterns), 3 * len(patterns))]

    @pytest.mark.parametrize("p", [1, 7, 8, 9, 30, 70])
    @pytest.mark.parametrize("kind", ["one row", "identical", "repeated"])
    def test_distinct_rows_match_float_unique(self, p, kind):
        spins = self._spins(p, kind, np.random.default_rng(p))
        s = SampleSet(spins, seed=0, burn_in=1, thin=1)
        rows, wgt = s.distinct_rows
        ref, counts = np.unique(spins.astype(np.float64), axis=0, return_counts=True)
        assert rows.dtype == np.float64 and np.array_equal(rows, ref)
        assert wgt.shape == (len(ref), 1)
        assert np.array_equal(wgt[:, 0], counts / s.n)
        assert s.distinct_rows is s.distinct_rows

    def test_spins_are_a_frozen_copy(self):
        src = np.ones((3, 4), dtype=np.int8)
        s = SampleSet(src, seed=0, burn_in=1, thin=1)
        with pytest.raises(ValueError, match="read-only"):
            s.spins[0, 0] = -1
        src[0, 0] = -1
        assert s.spins[0, 0] == 1 and src.flags.writeable
        rows, wgt = s.distinct_rows
        assert not rows.flags.writeable and not wgt.flags.writeable
        g = gibbs_sample(make_tree(4, "path"), 0.5, n=5, burn_in=2, thin=1, seed=0)
        assert not g.spins.flags.writeable and g.spins.flags.c_contiguous

    def test_pickle_round_trip_stays_read_only(self):
        s = gibbs_sample(make_tree(4, "path"), 0.5, n=5, burn_in=2, thin=1, seed=3)
        s.distinct_rows  # a cached value is not sent along
        t = pickle.loads(pickle.dumps(s))
        assert t == s and t is not s
        assert not t.spins.flags.writeable
        assert "distinct_rows" not in vars(t)


class TestSampleSetEquality:
    def test_equal_by_value(self):
        a = SampleSet(np.ones((3, 2)), seed=0, burn_in=1, thin=1)
        b = SampleSet(np.ones((3, 2), dtype=np.int8), seed=0, burn_in=1, thin=1)
        assert a == b and not a != b

    @pytest.mark.parametrize(
        "spins, seed, burn_in, thin",
        [
            ([[1, 1], [1, -1], [1, 1]], 0, 1, 1),
            (np.ones((2, 3)), 0, 1, 1),
            (np.ones((6, 1)), 0, 1, 1),
            (np.ones((3, 2)), 7, 1, 1),
            (np.ones((3, 2)), 0, 2, 1),
            (np.ones((3, 2)), 0, 1, 3),
        ],
    )
    def test_unequal_when_anything_differs(self, spins, seed, burn_in, thin):
        a = SampleSet(np.ones((3, 2)), seed=0, burn_in=1, thin=1)
        b = SampleSet(np.array(spins), seed=seed, burn_in=burn_in, thin=thin)
        assert a != b and not a == b

    def test_unhashable(self):
        s = SampleSet(np.ones((3, 2)), seed=0, burn_in=1, thin=1)
        assert s != "samples"
        with pytest.raises(TypeError, match="unhashable"):
            hash(s)


class TestEmpiricalCorrelations:
    def test_all_plus(self):
        s = SampleSet(np.ones((5, 3), dtype=np.int8), seed=0, burn_in=1, thin=1)
        assert np.all(empirical_correlations(s) == 1.0)

    def test_global_flip_invariant(self):
        spins = np.array([[1, 1, 1], [-1, -1, -1]], dtype=np.int8)
        s = SampleSet(spins, seed=0, burn_in=1, thin=1)
        assert np.all(empirical_correlations(s) == 1.0)

    def test_uncorrelated_pair(self):
        spins = np.array([[1, -1], [1, 1]], dtype=np.int8)
        s = SampleSet(spins, seed=0, burn_in=1, thin=1)
        assert empirical_correlations(s)[0, 1] == 0.0


class TestMixing:
    def test_theta_zero_fast(self):
        g = make_tree(10, "path")
        vals = [estimate_mixing(g, 0.0, seed=s).sweeps for s in range(20)]
        assert np.median(vals) <= 5
        assert max(vals) < 100

    def test_single_spin_geometric(self):
        vals = [estimate_mixing(Graph(1, set()), 0.0, seed=s).sweeps for s in range(400)]
        assert abs(np.mean(vals) - 2.0) < 0.3

    def test_low_temperature_saturates(self):
        est = estimate_mixing(make_grid(7, periodic=True), 1.0, seed=0, max_sweeps=5000)
        assert est == MixingEstimate(5000, True)

    def test_cap_validated(self):
        with pytest.raises(ValueError):
            estimate_mixing(Graph(2, {(1, 2)}), 0.1, seed=0, max_sweeps=0)


class TestBoundaryField:
    def test_high_temperature_zero(self):
        assert tree_boundary_field(4, 0.1) == 0.0

    def test_residual_below_tol(self):
        h = tree_boundary_field(4, 0.6, tol=1e-10)
        resid = abs(3 * math.atanh(math.tanh(0.6) * math.tanh(h)) - h)
        assert 0 < resid < 1e-10

    def test_matches_scan_oracle(self):
        for delta, theta in ((4, 0.5), (4, 0.6), (5, 0.45), (6, 1.2)):
            want = fixed_point_by_scan(delta, theta)
            assert tree_boundary_field(delta, theta) == pytest.approx(want, abs=1e-8)

    def test_strong_coupling_slope(self):
        # the field grows like (degree-1) * coupling
        assert tree_boundary_field(4, 6.0) / 6.0 == pytest.approx(3.0, abs=0.01)

    def test_increasing_in_theta(self):
        vals = [tree_boundary_field(4, th) for th in (0.4, 0.5, 0.7, 1.0, 1.5)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            tree_boundary_field(4, 0.5, tol=0.0)


class TestSawBound:
    def test_arithmetic(self):
        theta = math.atanh(1 / 8)
        assert saw_correlation_bound(4, theta, 2) == pytest.approx(0.125, abs=1e-12)

    def test_zero_coupling(self):
        assert saw_correlation_bound(4, 0.0, 3) == 0.0

    def test_inapplicable(self):
        with pytest.raises(ValueError):
            saw_correlation_bound(4, 0.3, 2)

    def test_dominates_enumeration(self):
        theta = math.atanh(1 / 8)
        d = exact_moments(make_tree(3, "path"), theta)
        assert d.corr[0, 2] <= saw_correlation_bound(4, theta, 2)
        assert d.corr[0, 2] == pytest.approx(math.tanh(theta) ** 2, abs=1e-14)


class TestSampleFiles:
    def test_roundtrip(self, tmp_path):
        g = make_star(6, 3)
        s = gibbs_sample(g, 0.4, n=40, burn_in=50, thin=2, seed=3)
        path = tmp_path / "samples.txt"
        write_samples(s, path)
        back = read_samples(path)
        assert np.array_equal(back.spins, s.spins)
        assert (back.seed, back.burn_in, back.thin) == (3, 50, 2)

    def test_header_format(self, tmp_path):
        s = SampleSet(np.ones((2, 3), dtype=np.int8), seed=5, burn_in=7, thin=2)
        path = tmp_path / "samples.txt"
        write_samples(s, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "2 3 5 7 2"
        assert lines[1] == "+1 +1 +1"

    @staticmethod
    def _read(tmp_path, text):
        path = tmp_path / "samples.txt"
        path.write_bytes(text.encode())
        return read_samples(path)

    def test_no_rows(self, tmp_path):
        for text in ("0 3 1 2 3\n", "0 3 1 2 3", "0 3 1 2 3\nnot a row\n"):
            s = self._read(tmp_path, text)
            assert s.spins.shape == (0, 3)
            assert (s.seed, s.burn_in, s.thin) == (1, 2, 3)

    def test_crlf_tabs_and_no_final_newline(self, tmp_path):
        want = np.array([[1, -1, 1], [-1, -1, 1]], dtype=np.int8)
        for text in ("2 3 4 5 6\r\n+1\t-1  1\r\n\t-1 -1\t\t+1 \r\n",
                     "2 3 4 5 6\n 1 \t -1\t1\n-1   -1 +1",
                     "2 3 4 5 6\n+1 -1 +1\r\n-1 -1 +1\ntrailing garbage"):
            s = self._read(tmp_path, text)
            assert np.array_equal(s.spins, want)
            assert (s.seed, s.burn_in, s.thin) == (4, 5, 6)

    def test_blank_line_fails_at_its_row(self, tmp_path):
        with pytest.raises(ValueError, match="^sample row 1 has 0 tokens, wanted 2$"):
            self._read(tmp_path, "3 2 0 0 0\n+1 -1\n\n-1 1\n")

    def test_truncated_file(self, tmp_path):
        with pytest.raises(ValueError, match="^sample file has 2 rows, wanted 3$"):
            self._read(tmp_path, "3 2 0 0 0\n+1 -1\n-1 -1\n")
        with pytest.raises(ValueError, match="^sample row 2 has 1 tokens, wanted 2$"):
            self._read(tmp_path, "3 2 0 0 0\n+1 -1\n-1 -1\n+1")
        with pytest.raises(ValueError, match="^sample file has 1 rows, wanted 1000$"):
            self._read(tmp_path, "1000 2 0 0 0\n+1 -1")

    @pytest.mark.parametrize("token", ["300", "2", "0", "11", "+", "x", "01", "-01", "1_1",
                                       "+-1", "1+", "+1\r-1"])
    def test_bad_token_names_its_row(self, tmp_path, token):
        text = f"3 2 0 0 0\n+1 -1\n-1 {token}\n+1 +1\n"
        with pytest.raises(ValueError, match=f"^sample row 1 has token {re.escape(repr(token))}, wanted"):
            self._read(tmp_path, text)

    def test_other_spellings_of_one_are_rejected(self, tmp_path):
        # a deliberate difference from the earlier reader, which accepted
        # anything int() reads as +-1; the format allows +1/-1 (and 1), as
        # write_samples writes
        path = tmp_path / "samples.txt"
        path.write_text("2 2 0 0 0\n+1 01\n-001 1\n")
        assert reference_read_samples(path).spins.tolist() == [[1, 1], [-1, 1]]
        with pytest.raises(ValueError, match="^sample row 0 has token '01'"):
            read_samples(path)

    @pytest.mark.parametrize("head", ["-1 3 0 0 0", "2 -3 0 0 0"])
    def test_negative_header_dimension(self, tmp_path, head):
        with pytest.raises(ValueError, match="^sample file header has n = "):
            self._read(tmp_path, head + "\n+1 -1 1\n")

    @pytest.mark.parametrize("head", ["2 3 0 0", "2 3 0 0 0 0", "2 x 0 0 0", ""])
    def test_bad_header(self, tmp_path, head):
        with pytest.raises(ValueError, match="header must be `n p seed burn_in thin`"):
            self._read(tmp_path, head + "\n+1 -1 1\n")

    def test_large_file_memory_is_bounded(self, tmp_path):
        rng = np.random.default_rng(11)
        s = SampleSet(rng.choice(np.array([-1, 1], np.int8), size=(10_000, 30)), 1, 2, 3)
        path = tmp_path / "samples.txt"
        write_samples(s, path)
        tracemalloc.start()
        try:
            back = read_samples(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back == s
        # the file is 900 kB and its spins 300 kB; parsing it whole, with
        # an int64 index per token, would need several MB more
        assert peak < 4e6


_FILE_TOKENS = ("+1", "-1", "1", "0", "2", "11", "+", "x")
_ROW_EDITS = ("drop", "duplicate", "blank", "short", "long", "token")


@st.composite
def sample_file_texts(draw):
    """A sample file as text: a header, then rows of mostly valid tokens
    with up to three edits (a row dropped, duplicated, blank, short or
    long, or one bad token), some lines after row n, any separators and
    line ends, with or without a final newline."""
    p = draw(st.integers(1, 4))
    n = draw(st.integers(0, 5))
    valid = st.sampled_from(_FILE_TOKENS[:3])
    rows = draw(st.lists(st.lists(valid, min_size=p, max_size=p), min_size=n, max_size=n))
    for edit in draw(st.lists(st.sampled_from(_ROW_EDITS), max_size=3)):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        if edit == "drop":
            del rows[i]
        elif edit == "duplicate":
            rows.insert(i, list(rows[i]))
        elif edit == "blank":
            rows.insert(i, [])
        elif edit == "short":
            rows[i] = rows[i][:-1]
        elif edit == "long":
            rows[i] = rows[i] + [draw(valid)]
        elif rows[i]:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(st.sampled_from(_FILE_TOKENS))
    rows += draw(st.lists(st.lists(st.sampled_from(_FILE_TOKENS), max_size=p + 1), max_size=2))
    head_n = draw(st.sampled_from((n, n, n, n - 1, n + 1, -1)))
    head_p = draw(st.sampled_from((p, p, p, p + 1, -1) + ((p - 1,) if p > 1 else ())))
    sep = st.text(" \t", min_size=1, max_size=3)
    edge = st.text(" \t", max_size=2)
    line_end = st.sampled_from(("\n", "\r\n"))
    lines = [f"{head_n} {head_p} {draw(st.integers(0, 9))} 0 1"]
    for row in rows:
        line = draw(edge)
        for j, tok in enumerate(row):
            line += (draw(sep) if j else "") + tok
        lines.append(line + draw(edge))
    text = "".join(line + draw(line_end) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@settings(max_examples=300, deadline=None)
@given(text=sample_file_texts(), block=st.sampled_from((1, 7, 1 << 16)))
def test_read_samples_matches_reference_reader(tmp_path_factory, text, block):
    """Wherever the earlier reader accepts a file the block parser returns
    an equal SampleSet, and wherever it raises anything the parser raises a
    ValueError. The deliberate differences lie outside what is drawn here:
    other spellings of +-1, such as `01` (see
    TestSampleFiles.test_other_spellings_of_one_are_rejected), separators
    other than spaces and tabs and lone `\\r` line ends are now rejected,
    and a p = 0 file must hold its n empty lines."""
    path = tmp_path_factory.getbasetemp() / "differential.samples"
    path.write_bytes(text.encode())
    with mock.patch.object(ising, "_READ_BLOCK_BYTES", block):
        try:
            want = reference_read_samples(path)
        except Exception:
            with pytest.raises(ValueError):
                read_samples(path)
        else:
            assert read_samples(path) == want


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_pair_correlations_symmetric_unit_diagonal(seed):
    g = make_star(5, 3)
    s = gibbs_sample(g, 0.5, n=64, burn_in=20, thin=1, seed=seed)
    c = empirical_correlations(s)
    assert np.array_equal(c, c.T)
    assert np.all(np.diag(c) == 1.0)
    assert np.abs(c).max() <= 1.0 + 1e-12
