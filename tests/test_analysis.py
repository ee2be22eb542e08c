import contextlib
import itertools
import math
import signal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from isinglearn.graphs import (
    Graph,
    make_grid,
    make_random_regular,
    make_star,
    make_toy_gp,
    make_tree,
)
from isinglearn import analysis
from isinglearn.ising import CouplingField, exact_moments
from isinglearn.analysis import (
    RootNotFound,
    SingularHessian,
    _bisect,
    _incoherence_limit_sign,
    _scan,
    bridge_corr,
    gp_neighbor_corr,
    graph_incoherence,
    h_infinity,
    incoherence,
    parallel_corr,
    population_hessian,
    series_corr,
    theta_T,
    theta_thr,
    thresholding_failure_certificate,
    toy_covariances,
    toy_gp5_incoherence,
    tree_boundary_field,
    tree_limit_report,
)
from _reference import naive_hessian
from _strategies import ising_instances, split_layout


class TestPopulationHessian:
    def test_identity_at_zero_coupling(self):
        d = exact_moments(make_tree(5, "path"), 0.0)
        h = population_hessian(d, 3)
        assert np.abs(h.q - np.eye(4)).max() < 1e-12

    def test_two_vertex_value(self):
        d = exact_moments(Graph(2, {(1, 2)}), 0.8)
        h = population_hessian(d, 1)
        assert h.q[0, 0] == pytest.approx(1 / math.cosh(0.8) ** 2, abs=1e-12)

    def test_star_eigenstructure(self):
        g = make_star(5, 4)
        d = exact_moments(g, 0.5)
        h = population_hessian(d, 1)
        idx = [h.vertices.index(v) for v in (2, 3, 4, 5)]
        q_ss = h.q[np.ix_(idx, idx)]
        a = q_ss[0, 0]
        b = q_ss[0, 1]
        # (a-b) I + b J structure: eigenvalues a-b (multiplicity 3), a+3b
        assert np.abs(q_ss - ((a - b) * np.eye(4) + b)).max() < 1e-12
        eig = np.sort(np.linalg.eigvalsh(q_ss))
        want = np.sort([a - b, a - b, a - b, a + 3 * b])
        assert np.abs(eig - want).max() < 1e-10

    def test_gradient_vanishes_at_truth(self):
        d = exact_moments(make_toy_gp(6), 0.7)
        h = population_hessian(d, 2)
        assert h.grad_inf_norm < 1e-10

    def test_single_vertex_rejected(self):
        d = exact_moments(Graph(1, set()), 0.0)
        with pytest.raises(ValueError, match="p >= 2"):
            population_hessian(d, 1)

    @settings(max_examples=40, deadline=None)
    @given(inst=ising_instances(p_min=2), data=st.data())
    def test_split_hessian_matches_brute_force(self, inst, data):
        g, couplings, layout = inst
        r = data.draw(st.integers(1, g.p))
        with split_layout(layout):
            d = exact_moments(g, CouplingField.from_dict(g.p, couplings))
            h = population_hessian(d, r)
        ref = naive_hessian(g, couplings, r)
        assert h.vertices == tuple(v for v in range(1, g.p + 1) if v != r)
        for a, i in enumerate(h.vertices):
            for b, j in enumerate(h.vertices):
                assert abs(h.q[a, b] - ref[(i, j)]) < 1e-12


class TestIncoherence:
    def test_tree_equals_tanh(self):
        g = make_tree(9, "balanced", branching=2)
        for theta in (0.3, 1.1, 2.5):
            rep = graph_incoherence(g, theta, r=1)
            assert rep.norm == pytest.approx(math.tanh(theta), abs=1e-10)

    def test_tree_sigma_min_lower_bound(self):
        g = make_tree(9, "balanced", branching=2)
        for theta in (0.3, 0.8):
            rep = graph_incoherence(g, theta, r=1)
            delta = 2
            bound = (1 - math.tanh(theta) ** 2) / math.cosh(theta * delta) ** 2
            assert rep.sigma_min >= bound - 1e-12

    def test_root_without_neighbors(self):
        g = Graph(3, frozenset({(1, 2)}))
        with pytest.raises(ValueError, match="^root 3 has no neighbors$"):
            graph_incoherence(g, 0.3, r=3)

    def test_gp5_closed_form_across_grid(self):
        g = make_toy_gp(5)
        for theta in np.linspace(0.1, 1.0, 10):
            rep = graph_incoherence(g, float(theta), r=1)
            assert abs(rep.norm - toy_gp5_incoherence(float(theta))) < 1e-10

    def test_gp5_crossing_location(self):
        g = make_toy_gp(5)
        lo, hi = 0.3, 0.7
        while hi - lo > 1e-6:
            mid = 0.5 * (lo + hi)
            if graph_incoherence(g, mid, r=1).norm > 1.0:
                hi = mid
            else:
                lo = mid
        assert 0.5 * (lo + hi) == pytest.approx(0.475327, abs=1e-3)

    def test_periodic_grid_violation(self):
        g = make_grid(4, periodic=True)
        rep = graph_incoherence(g, 1.5, r=1)
        assert rep.norm > 1.0
        # the low-temperature behavior 1 + e^{-4 theta} is the right scale
        assert rep.norm == pytest.approx(1 + math.exp(-6.0), abs=5e-3)

    def test_singular_hessian_raises(self):
        g = make_star(5, 4)
        d = exact_moments(g, 6.0)
        h = population_hessian(d, 1)
        with pytest.raises(SingularHessian):
            incoherence(h, g.neighbors(1))

    def test_report_contents(self):
        g = make_tree(6, "path")
        rep = graph_incoherence(g, 0.5, r=3)
        assert rep.neighbors == (2, 4)
        assert rep.sc_vertices == (1, 5, 6)
        assert rep.q_ss.shape == (2, 2)
        assert rep.q_scs.shape == (3, 2)
        assert len(rep.row_l1) == 3
        assert rep.norm <= rep.row_l1.max() + 1e-12


def _depth_one_tree_moments(delta, theta):
    """Independent enumeration of the depth-1 tree with leaf fields."""
    h = tree_boundary_field(delta, theta)
    z = a = b = c1 = c2 = 0.0
    for leaves in itertools.product((1, -1), repeat=delta):
        m = sum(leaves)
        w = math.exp(h * m) * 2 * math.cosh(theta * m)
        z += w
        q = w / math.cosh(theta * m) ** 2
        a += q
        b += leaves[0] * leaves[1] * q
        c1 += (leaves[0] == 1) * m * q
        c2 += (leaves[0] == -1) * m * q
    return a / z, b / z, c1 / z, c2 / z


def _depth_two_distance_two_row(delta, theta):
    """Independent enumeration of the depth-2 tree behind the transition
    step: the root; delta leaves with boundary field h*, except leaf 1,
    whose field h* - atanh(tanh(theta) tanh(h*)) leaves room for one
    explicit child j with field h*. Returns the j entry of
    Q_ScS Q_SS^{-1} 1 at the root.

    The other delta-1 leaves are exchangeable, so they enter through the
    count k of + spins; weights are kept as logs (float64) and the root is
    summed out exactly, leaving 2 cosh(theta M) with M the leaf sum."""
    h = tree_boundary_field(delta, theta)
    h1 = h - math.atanh(math.tanh(theta) * math.tanh(h))
    n = delta - 1
    logw = []
    moments = []
    for x1, xj in itertools.product((1, -1), repeat=2):
        for k in range(n + 1):
            s = 2 * k - n
            m = x1 + s
            log_cosh = abs(theta * m) + math.log1p(math.exp(-2 * abs(theta * m)))
            logw.append(
                math.log(math.comb(n, k))
                + h1 * x1 + theta * x1 * xj + h * xj + h * s
                + log_cosh
            )
            q = math.exp(2 * (math.log(2) - log_cosh))  # sech^2(theta m)
            e2 = s / n  # E[X_2 | k] over the exchangeable leaves
            e23 = (s * s - n) / (n * (n - 1))  # E[X_2 X_3 | k]
            moments.append((q, q * x1 * e2, q * e23, q * xj * x1, q * xj * e2))
    logw = np.array(logw)
    w = np.exp(logw - logw.max())
    q11, q12, q23, qj1, qj2 = (w / w.sum()) @ np.array(moments)
    q_ss = np.full((delta, delta), q23)
    q_ss[0, 1:] = q_ss[1:, 0] = q12
    np.fill_diagonal(q_ss, q11)
    q_js = np.full(delta, qj2)
    q_js[0] = qj1
    return float(q_js @ np.linalg.solve(q_ss, np.ones(delta)))


def _two_h_squared(tol=1e-14):
    """Large-degree limit of theta_thr(delta)*delta: with h the root of
    2h tanh(h) = 1, the limit h/tanh(h) equals 2h^2."""
    lo, hi = 0.0, 5.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if 2.0 * mid * math.tanh(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    h = 0.5 * (lo + hi)
    return h, 2.0 * h * h


class TestTreeLimit:
    def test_matches_depth_one_enumeration(self):
        for delta, theta in ((4, 0.5), (4, 1.0), (5, 0.4), (6, 0.35)):
            rep = tree_limit_report(delta, theta)
            a, b, c1, c2 = _depth_one_tree_moments(delta, theta)
            assert rep.a == pytest.approx(a, rel=1e-10)
            assert rep.b == pytest.approx(b, rel=1e-10)
            assert rep.c1 == pytest.approx(c1, rel=1e-10)
            assert rep.c2 == pytest.approx(c2, rel=1e-10)

    def test_eigenvalue_consistency(self):
        for delta, theta in ((4, 0.45), (4, 0.8), (5, 0.5), (6, 0.3)):
            rep = tree_limit_report(delta, theta)
            assert rep.a + (delta - 1) * rep.b == pytest.approx(
                rep.c1 - rep.c2, abs=1e-8
            )

    def test_distance_two_row_matches_depth_two_enumeration(self):
        # the sign proxy is (c1 - c2)/2 times (distance-2 row - 1), so the
        # alpha, beta transition step must reproduce the enumerated row
        for delta in (4, 10, 20, 80):
            thr = theta_thr(delta, tol=1e-12)
            assert abs(_depth_two_distance_two_row(delta, thr) - 1.0) < 1e-9
            for theta in (0.98 * thr, 1.02 * thr):
                row = _depth_two_distance_two_row(delta, theta)
                proxy = _incoherence_limit_sign(delta, theta)
                assert (row - 1.0) * proxy > 0, (delta, theta)
                rep = tree_limit_report(delta, theta)
                assert (row - 1.0) * (rep.c1 - rep.c2) / 2 == pytest.approx(
                    proxy, rel=1e-9
                )

    def test_transition_probabilities_in_range(self):
        rep = tree_limit_report(4, 0.6)
        assert 0 < rep.alpha < 1 and 0 < rep.beta < 1
        assert 0 < rep.alpha + rep.beta - 1 < 1

    def test_c_min_positive(self):
        for delta, theta in ((4, 0.45), (4, 1.5), (5, 0.35), (8, 0.25)):
            rep = tree_limit_report(delta, theta)
            assert rep.c_min > 0
            assert rep.a - rep.b > 0 and rep.c1 - rep.c2 > 0

    def test_limit_above_one_past_crossing(self):
        assert tree_limit_report(4, 0.5).incoherence_limit > 1.0

    def test_large_theta_decays_to_one_from_above(self):
        r3 = tree_limit_report(4, 3.0)
        r35 = tree_limit_report(4, 3.5)
        assert r3.incoherence_limit > 1.0
        assert r35.incoherence_limit > 1.0
        assert r35.incoherence_limit < r3.incoherence_limit
        # leading behavior: the dominant excess comes from a single flipped
        # leaf, giving 1 + e^{2(theta - h*)} at this degree (verified against
        # direct depth-1 enumeration and finite-graph checks)
        for rep in (r3, r35):
            lead = math.exp(2.0 * (rep.theta - rep.h_star))
            assert 0.5 < (rep.incoherence_limit - 1) / lead < 2.0

    def test_out_of_regime(self):
        with pytest.raises(ValueError):
            tree_limit_report(4, 0.1)

    @pytest.mark.parametrize(
        "delta, theta",
        [(1000, 0.4), (80, 4.55), (40, 9.35), (10, 37.35),
         (40, 10.0), (80, 10.0), (1000, 3.0), (80, 50.0),
         (40, 9.0), (80, 4.5), (1000, 0.34), (20, 10.0), (10, 30.0)],
    )
    def test_outside_float_range(self, delta, theta):
        # exp(2(h* - theta)) overflows, or c1 and c2 both underflow to 0;
        # or a - b or c1 - c2 is lost to rounding or underflow, where c_min
        # would read 0.0 and the incoherence limit exactly 1.0
        with pytest.raises(ValueError, match=f"float range at delta={delta}, theta={theta}"):
            tree_limit_report(delta, theta)

    def test_finite_graph_cross_check(self):
        # root 13 of this graph has a cycle-free radius-2 ball, so its
        # incoherence is close to the infinite-tree limit (0.05 tolerance;
        # random 4-regular graphs this small always contain short cycles
        # somewhere, so global girth filtering is not available)
        g = make_random_regular(24, 4, seed=0)
        rep = graph_incoherence(g, 0.6, r=13)
        lim = tree_limit_report(4, 0.6).incoherence_limit
        assert abs(rep.norm - lim) < 0.05


class TestThresholdSolvers:
    def test_theta_thr_delta4(self):
        assert theta_thr(4, tol=1e-8) == pytest.approx(0.4203, abs=1e-3)

    def test_crossing_straddles_one(self):
        thr = theta_thr(4, tol=1e-8)
        below = tree_limit_report(4, thr - 0.05).incoherence_limit
        above = tree_limit_report(4, thr + 0.05).incoherence_limit
        assert below < 1.0 < above

    def test_scaled_crossings_settle(self):
        # the scaled crossing theta_thr(D)*D decreases toward its large-D
        # limit near 1.19; at moderate degrees it passes through the
        # vicinity of h_inf^2 without converging to it
        h_inf, theta_tilde = h_infinity()
        v10 = theta_thr(10, tol=1e-8) * 10
        v40 = theta_thr(40, tol=1e-8) * 40
        v80 = theta_thr(80, tol=1e-8) * 80
        assert v10 > v40 > v80 > 1.18
        assert abs(v10 - theta_tilde) < 0.15 * theta_tilde

    def test_large_degree_limit_is_two_h_squared(self):
        # theta_thr(D)*D -> 2h^2 with 2h tanh(h) = 1, approached as 1/D;
        # the paper's h_inf^2 (from h tanh(h) = 1) is not the limit
        h, limit = _two_h_squared()
        assert abs(2.0 * h * math.tanh(h) - 1.0) < 1e-10
        _, theta_tilde = h_infinity()
        v1000 = theta_thr(1000, tol=1e-11) * 1000
        v2000 = theta_thr(2000, tol=1e-11) * 2000
        assert abs(v2000 - limit) < 1e-3
        assert abs(v2000 - theta_tilde) > 0.2
        assert abs((v1000 - limit) * 1000 - (v2000 - limit) * 2000) < 5e-3

    def test_h_infinity(self):
        h, tt = h_infinity()
        assert abs(h * math.tanh(h) - 1.0) < 1e-10
        assert tt == pytest.approx(h * h, rel=1e-12)
        assert 1.0 * math.tanh(1.0) < 1.0 < 2.0 * math.tanh(2.0)
        assert 1.0 < h < 2.0

    def test_gp5_crossing_closed_form(self):
        # 3x(1+x^2)/(1+3x^2) = 1 is 2x^3 = (1-x)^3
        x = 1.0 / (1.0 + 2.0 ** (1.0 / 3.0))
        assert 2.0 * x**3 == pytest.approx((1.0 - x) ** 3, rel=1e-15)
        assert toy_gp5_incoherence(math.atanh(x)) == pytest.approx(1.0, abs=1e-15)


@contextlib.contextmanager
def _deadline(seconds):
    """Fail instead of hanging when the body runs longer than `seconds`."""

    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


class TestRootFinding:
    def test_bisect_converges_to_tol(self):
        root = _bisect(lambda x: x * x >= 2.0, 1.0, 2.0, 1e-12)
        assert abs(root - math.sqrt(2.0)) <= 1e-12

    def test_bisect_stops_at_float_spacing(self):
        # a tol of zero, or one below the spacing near the root, ends when
        # the midpoint no longer splits the interval
        calls = 0

        def above(x):
            nonlocal calls
            calls += 1
            assert calls <= 60, "bisection did not stop at the float spacing"
            return x * x >= 2.0

        root = _bisect(above, 1.0, 2.0, 0.0)
        assert abs(root - math.sqrt(2.0)) <= 2.3e-16
        with _deadline(10):
            big = _bisect(lambda x: x >= 40_000.123, 0.0, 1e5, 5e-13)
        assert abs(big - 40_000.123) <= 1e-11

    def test_tiny_tol_returns(self):
        # both used to loop forever once tol was below the float spacing
        with _deadline(10):
            h, _ = h_infinity(tol=1e-17)
            thr = theta_thr(4, tol=1e-18)
        assert abs(h - h_infinity(tol=1e-15)[0]) <= 1e-15
        assert abs(h - h_infinity()[0]) <= 1e-12
        assert abs(thr - theta_thr(4, tol=1e-15)) <= 1e-15
        assert abs(thr - theta_thr(4)) <= 1e-6

    def test_scan_brackets_first_crossing(self):
        assert _scan(lambda t: t - 1.0, 0.1, 0.2, 2.0) == (0.8, 1.6)

    def test_scan_needs_negative_start(self):
        with pytest.raises(RootNotFound, match="start"):
            _scan(lambda t: 1.0, 0.1, 0.2, 1.5)

    def test_scan_gives_up_past_theta_max(self):
        with pytest.raises(RootNotFound, match="no crossing"):
            _scan(lambda t: -1.0, 0.1, 0.2, 1.5)

    def test_threshold_solvers_raise_without_crossing(self):
        for value, match in ((1.0, "start"), (-1.0, "no crossing")):
            with mock.patch.object(
                analysis, "_incoherence_limit_sign", return_value=value
            ):
                with pytest.raises(RootNotFound, match=match):
                    theta_thr(4)
        for corr, match in ((2.0, "start"), (-1.0, "no crossing")):
            with mock.patch.object(analysis, "gp_neighbor_corr", return_value=corr):
                with pytest.raises(RootNotFound, match=match):
                    theta_T(3)


class TestCorrelationCalculus:
    def test_series_matches_two_step_path(self):
        theta = 0.45
        d = exact_moments(make_tree(3, "path"), theta)
        t = math.tanh(theta)
        assert series_corr(t, t) == pytest.approx(d.corr[0, 2], abs=1e-12)

    @given(st.floats(0.0, 0.99))
    def test_parallel_identity(self, a):
        assert parallel_corr(a, 0.0) == pytest.approx(a, abs=1e-15)

    @given(st.floats(0.0, 0.95), st.floats(0.0, 0.95))
    def test_parallel_stays_in_range(self, a, b):
        v = parallel_corr(a, b)
        assert max(a, b) - 1e-12 <= v < 1.0

    def test_bridge_matches_four_cycle(self):
        theta = 0.6
        square = Graph.from_edges(4, [(1, 3), (1, 4), (2, 3), (2, 4)])
        d = exact_moments(square, theta)
        assert bridge_corr(0.0, theta) == pytest.approx(d.corr[2, 3], abs=1e-12)


class TestToyCovariances:
    def test_base_case(self):
        assert toy_covariances(3, 0.7).e12 == pytest.approx(
            math.tanh(0.7) ** 2, abs=1e-14
        )

    def test_matches_enumeration(self):
        for p in (5, 7, 10, 13):
            for theta in (0.1, 0.3, 0.6):
                tc = toy_covariances(p, theta)
                d = exact_moments(make_toy_gp(p), theta)
                assert abs(tc.e12 - d.corr[0, 1]) < 1e-10
                assert abs(tc.e13 - d.corr[0, 2]) < 1e-10
                assert abs(tc.e34 - d.corr[2, 3]) < 1e-10

    def test_small_p_has_no_spoke_entries(self):
        tc = toy_covariances(4, 0.5)
        assert tc.e13 is None and tc.e34 is None

    def test_scaling_match_improves_with_p(self):
        theta_prime = 0.5
        errs = [
            abs(toy_covariances(p, math.sqrt(theta_prime / p)).e12 - math.tanh(theta_prime))
            for p in (10, 40, 160)
        ]
        assert errs[0] > errs[1] > errs[2]


class TestGpCrossings:
    def test_neighbor_corr_matches_enumeration(self):
        for delta in (3, 6, 10):
            for theta in (0.3, 0.8):
                d = exact_moments(make_toy_gp(delta + 2), theta)
                assert gp_neighbor_corr(delta, theta) == pytest.approx(
                    d.corr[0, 1], abs=1e-10
                )

    def test_theta_t_small_graph(self):
        assert theta_T(3) == pytest.approx(0.61, abs=0.01)

    def test_theta_t_scaling(self):
        v20 = theta_T(20) * 20
        v80 = theta_T(80) * 80
        assert abs(v20 - v80) <= 0.15 * max(v20, v80)


class TestFailureCertificate:
    def test_strong_coupling_positive(self):
        cert = thresholding_failure_certificate(3, 1.2, 12, seed=3)
        assert cert.exact
        assert cert.certificate > 0
        assert cert.edge_corr == pytest.approx(math.tanh(1.2), abs=1e-10)

    def test_weak_coupling_negative(self):
        cert = thresholding_failure_certificate(3, 0.05, 12, seed=3)
        assert cert.certificate < 0
        assert cert.m_squared == 0.0

    @pytest.mark.parametrize("theta", [1.2, 0.05])
    def test_sampled_branch_agrees_in_sign(self, theta):
        # above the enumeration budget the certificate reads Gibbs samples
        exact = thresholding_failure_certificate(3, theta, 12, seed=3)
        with mock.patch.object(analysis, "ENUMERATION_MAX_P", 10):
            sampled = thresholding_failure_certificate(3, theta, 12, seed=3)
        assert exact.exact and not sampled.exact
        assert (sampled.certificate > 0) == (exact.certificate > 0)

    def test_limit_magnetization_dominates(self):
        h = tree_boundary_field(4, 1.2)
        m_sq = math.tanh(4 * h / 3) ** 2
        assert m_sq > math.tanh(1.2)
        cert = thresholding_failure_certificate(4, 1.2, 14, seed=1)
        assert cert.m_squared == pytest.approx(m_sq, abs=1e-12)
