"""Acceptance suite: one test per top-level criterion, each printing a
pass/fail line with its runtime. Criteria and tolerances are fixed here,
not tuned at runtime."""
import math
import time

import numpy as np
import pytest

from isinglearn import _compiled
from isinglearn.graphs import (
    Graph,
    make_grid,
    make_random_regular,
    make_regular_plus_edge,
    make_star,
    make_toy_gp,
    make_tree,
)
from isinglearn.ising import (
    CouplingField,
    SampleSet,
    empirical_correlations,
    exact_moments,
    gibbs_sample,
)
from isinglearn.learners import (
    population_rlr_gp,
    pseudo_likelihood_objective,
    sample_bound,
    tau_tree,
    thresholding,
)
from isinglearn.analysis import (
    graph_incoherence,
    h_infinity,
    theta_T,
    theta_thr,
    thresholding_failure_certificate,
    toy_covariances,
    toy_gp5_incoherence,
)
from isinglearn.experiments import recipe_regular_sweep, run_sweep
from _reference import integrated_autocorr_time, whole_state_chi2


class _Criterion:
    def __init__(self, number, name, budget_s):
        self.number = number
        self.name = name
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        print(
            f"\n[criterion {self.number:02d}] {self.name}: {verdict} "
            f"({elapsed:.1f}s, budget {self.budget_s}s)"
        )
        assert elapsed < self.budget_s, (
            f"criterion {self.number} exceeded its runtime budget: "
            f"{elapsed:.1f}s >= {self.budget_s}s"
        )
        return False


def test_criterion_01_tree_incoherence():
    with _Criterion(1, "tree incoherence equals tanh(theta)", 10):
        roots = {"path": 5, "balanced": 1}
        for shape, root in roots.items():
            g = make_tree(10, shape, branching=2)
            for theta in (0.2, 0.5, 1.0, 2.0):
                rep = graph_incoherence(g, theta, r=root)
                assert abs(rep.norm - math.tanh(theta)) < 1e-10, (shape, theta)


def test_criterion_02_gp5_incoherence_crossing():
    with _Criterion(2, "5-vertex double-hub incoherence formula", 5):
        g = make_toy_gp(5)
        for theta in np.linspace(0.1, 1.0, 10):
            rep = graph_incoherence(g, float(theta), r=1)
            assert abs(rep.norm - toy_gp5_incoherence(float(theta))) < 1e-10
        lo, hi = 0.1, 1.0
        while hi - lo > 1e-7:
            mid = 0.5 * (lo + hi)
            if graph_incoherence(g, mid, r=1).norm > 1.0:
                hi = mid
            else:
                lo = mid
        crossing = 0.5 * (lo + hi)
        assert abs(crossing - 0.4753) < 1e-3


def test_criterion_03_theta_thr_delta4():
    with _Criterion(3, "incoherence crossing on random 4-regular graphs", 5):
        assert abs(theta_thr(4, tol=1e-8) - 0.4203) < 1e-3


def test_criterion_04_h_infinity_scaling():
    with _Criterion(4, "large-degree scaling constant", 30):
        h_inf, theta_tilde = h_infinity(tol=1e-13)
        assert abs(h_inf * math.tanh(h_inf) - 1.0) < 1e-10
        assert theta_tilde == h_inf * h_inf
        # The crossing equations put theta = theta~/D with the boundary
        # field tending to h = theta~ tanh(h); expanding the sign proxy to
        # relative order 1/D gives 2h tanh(h) = 1, so theta~ = h/tanh(h)
        # = 2h^2 ~ 1.1910. The paper's h_inf^2 ~ 1.439 solves h tanh(h) = 1
        # instead, a factor 2 off in the defining equation. The reference
        # is bisected here, not taken from the code under test.
        lo, hi = 0.0, 5.0
        while hi - lo > 1e-14:
            mid = 0.5 * (lo + hi)
            if 2.0 * mid * math.tanh(mid) < 1.0:
                lo = mid
            else:
                hi = mid
        h = 0.5 * (lo + hi)
        assert abs(2.0 * h * math.tanh(h) - 1.0) < 1e-10
        limit = h / math.tanh(h)
        assert abs(limit - 2.0 * h * h) < 1e-10
        scaled_80 = theta_thr(80, tol=1e-8) * 80
        assert abs(scaled_80 - limit) < 0.15 * limit, (
            f"theta_thr(80)*80 = {scaled_80:.5f} is not within 15% of "
            f"2h^2 = {limit:.5f} (2h tanh h = 1)"
        )


def test_criterion_05_toy_closed_forms():
    with _Criterion(5, "double-hub closed forms vs enumeration", 60):
        for p in range(5, 15):
            for theta in (0.1, 0.3, 0.6):
                tc = toy_covariances(p, theta)
                d = exact_moments(make_toy_gp(p), theta)
                assert abs(tc.e12 - d.corr[0, 1]) < 1e-10, (p, theta)
                assert abs(tc.e13 - d.corr[0, 2]) < 1e-10, (p, theta)
                assert abs(tc.e34 - d.corr[2, 3]) < 1e-10, (p, theta)
        for p in (3, 4):
            for theta in (0.1, 0.3, 0.6):
                tc = toy_covariances(p, theta)
                d = exact_moments(make_toy_gp(p), theta)
                assert abs(tc.e12 - d.corr[0, 1]) < 1e-10


def test_criterion_06_gp_regression_threshold():
    with _Criterion(6, "double-hub regression threshold and failure", 60):
        assert abs(theta_T(3) - 0.61) < 0.01
        for lam in np.linspace(0.01, 0.75, 30):
            t13, t12 = population_rlr_gp(0.65, 5, float(lam))
            assert t12 > 1e-8, f"unexpected recovery at lam={lam}"


def test_criterion_07_gradient_check():
    with _Criterion(7, "conditional log-likelihood gradient", 10):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(20):
            spins = (rng.integers(0, 2, size=(200, 8)) * 2 - 1).astype(np.int8)
            s = SampleSet(spins, seed=0, burn_in=1, thin=1)
            theta = rng.normal(0.0, 0.6, size=7)
            root = int(rng.integers(1, 9))
            _, grad = pseudo_likelihood_objective(theta, s, root)
            h = 1e-5
            for k in range(7):
                e = np.zeros(7)
                e[k] = h
                vp, _ = pseudo_likelihood_objective(theta + e, s, root)
                vm, _ = pseudo_likelihood_objective(theta - e, s, root)
                fd = (vp - vm) / (2 * h)
                rel = abs(grad[k] - fd) / max(1.0, abs(fd))
                worst = max(worst, rel)
        assert worst < 1e-5, f"worst relative error {worst:.2e}"


SAMPLER_FIDELITY_CASES = (
    ("edge", Graph(2, {(1, 2)}), 0.8),
    ("path12", make_tree(12, "path"), 0.8),
    ("path5", make_tree(5, "path"), 0.3),
    ("balanced13", make_tree(13, "balanced", branching=2), 0.6),
    ("star10", make_star(10, 6), 0.2),
    ("grid3", make_grid(3), 0.3),
    ("pgrid3", make_grid(3, periodic=True), 0.25),
    ("gp6", make_toy_gp(6), 0.4),
    ("rr12", make_random_regular(12, 3, seed=5), 0.25),
    ("rpe12", make_regular_plus_edge(12, 3, seed=2), 0.3),
)


def test_criterion_08_sampler_fidelity():
    with _Criterion(8, "Gibbs moments vs enumeration within 5 SE", 600):
        n = 20_000
        for k, (name, g, theta) in enumerate(SAMPLER_FIDELITY_CASES):
            d = exact_moments(g, theta)
            s = gibbs_sample(g, theta, n=n, burn_in=2000, thin=10, seed=100 + k)
            c = empirical_correlations(s)
            se = np.sqrt((1.0 - d.corr**2) / n)
            np.fill_diagonal(se, 1.0)
            z = np.abs(c - d.corr) / se
            assert z.max() <= 5.0, f"{name}: worst z-score {z.max():.2f}"


def _per_edge(g, lo, hi, seed):
    """Couplings drawn uniformly from [lo, hi) on the edges of g."""
    ths = np.random.default_rng(seed).uniform(lo, hi, g.num_edges)
    return CouplingField.from_dict(g.p, dict(zip(g.sorted_edges(), ths.tolist())))


_CYCLE8 = Graph(8, {(i, i + 1) for i in range(1, 8)} | {(1, 8)})
_PENTAGON_TAIL = Graph(8, {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 6), (6, 7)})
# (name, graph, coupling, samples) of the whole-state check. The couplings
# sit on both sides of ordering (the 3-regular and the binary tree order
# at theta = atanh(1/2) = 0.549). On a strongly coupled cycle a spin whose
# neighbors are both +1 is seldom -1, so an error in that acceptance moves
# the law far. The per-edge fields are mixed in size, then in sign, and
# vertex 8 of the pentagon is isolated.
WHOLE_STATE_CASES = (
    ("rr10-weak", make_random_regular(10, 3, seed=3), 0.4, 5_000),
    ("tree10-strong", make_tree(10, "balanced", branching=2), 1.0, 3_000),
    ("cycle8-strong", _CYCLE8, 1.0, 2_000),
    ("cycle8-per-edge", _CYCLE8, _per_edge(_CYCLE8, 0.6, 1.2, 1), 3_000),
    ("pentagon-isolated", _PENTAGON_TAIL, _per_edge(_PENTAGON_TAIL, -1.0, 1.0, 2), 5_000),
)
# Samples are kept every this many integrated autocorrelation times, the
# largest over the spins, the magnetization and the energy of a pilot run.
THIN_PER_TAU = 3
WHOLE_STATE_ALPHA = 1e-6


def whole_state_p_values(seed):
    """(name, p-value, tau, thin) of each whole-state case at `seed`."""
    out = []
    for k, (name, g, theta, n) in enumerate(WHOLE_STATE_CASES):
        fld = theta if isinstance(theta, CouplingField) else CouplingField.homogeneous(g, theta)
        pilot = gibbs_sample(g, fld, n=20_000, burn_in=1000, thin=1, seed=seed + 2 * k)
        X = pilot.spins.astype(np.float64)
        energy = sum(th * X[:, i - 1] * X[:, j - 1] for i, j, th in fld.couplings)
        tau = max(integrated_autocorr_time(s) for s in [*X.T, X.sum(axis=1), energy])
        thin = math.ceil(THIN_PER_TAU * tau)
        s = gibbs_sample(g, fld, n=n, burn_in=1000, thin=thin, seed=seed + 2 * k + 1)
        pmf = exact_moments(g, fld).marginal(range(1, g.p + 1))
        out.append((name, whole_state_chi2(s.spins, pmf)[2], tau, thin))
    return out


def test_sampler_whole_state_distribution():
    # Criterion 8 compares pair moments, and a kernel whose acceptance is
    # off by 0.01 at one neighbor count passes it; this compares the
    # sampled states with the exact law over all 2^p states
    for name, p_value, tau, thin in whole_state_p_values(seed=200):
        print(f"  {name}: chi-square p = {p_value:.3g} (tau {tau:.1f}, thin {thin})")
        assert p_value >= WHOLE_STATE_ALPHA, name


# Criterion 8 and the whole-state check again on the Python heat-bath loop,
# which runs where no C compiler is usable, and on the compiled loop fed
# numpy's draws, which runs where heatbath.c's copy of them does not match
# numpy; the two tests above run the chain in C wherever it can.
def test_criterion_08_on_the_python_loop(monkeypatch):
    monkeypatch.setattr(_compiled, "loop", lambda: None)
    test_criterion_08_sampler_fidelity()


def test_whole_state_distribution_on_the_python_loop(monkeypatch):
    monkeypatch.setattr(_compiled, "loop", lambda: None)
    test_sampler_whole_state_distribution()


def test_criterion_08_on_numpy_draws(monkeypatch):
    monkeypatch.setattr(_compiled, "draws_match", lambda: False)
    test_criterion_08_sampler_fidelity()


def test_whole_state_distribution_on_numpy_draws(monkeypatch):
    monkeypatch.setattr(_compiled, "draws_match", lambda: False)
    test_sampler_whole_state_distribution()


def test_criterion_09_tree_thresholding_end_to_end():
    with _Criterion(9, "tree recovery at the sufficient sample size", 600):
        theta = 0.5
        n = sample_bound("thr-tree", theta, p=15, dlt=0.05)
        assert n == 3314
        g = make_tree(15, "balanced", branching=2)
        tau = tau_tree(theta)
        wins = 0
        for t in range(100):
            s = gibbs_sample(g, theta, n=n, burn_in=500, thin=5, seed=9000 + t)
            wins += thresholding(empirical_correlations(s), tau).edges == g.edges
        print(f"  exact recoveries: {wins}/100")
        assert wins >= 95


def test_criterion_10_rlr_dichotomy():
    with _Criterion(10, "regression dichotomy on random 4-regular graphs", 1800):
        lo_cfg, hi_cfg = recipe_regular_sweep(seed=0)
        res_lo = run_sweep(lo_cfg)
        best = res_lo.best_over_lambda0(0.15, 2000)
        print(f"  weak coupling: best lambda0={best.lambda0} p_succ={best.p_succ:.2f}")
        assert best.p_succ >= 0.8
        res_hi = run_sweep(hi_cfg)
        worst = max(c.p_succ for c in res_hi.cells)
        print(f"  strong coupling: max p_succ over lambda0 = {worst:.2f}")
        assert worst <= 0.1


def test_criterion_11_thresholding_failure_certificate():
    with _Criterion(11, "thresholding failure certificate", 120):
        hot = thresholding_failure_certificate(4, 1.2, 18, seed=7)
        cold = thresholding_failure_certificate(4, 0.05, 18, seed=7)
        print(f"  certificate(1.2)={hot.certificate:+.4f} "
              f"certificate(0.05)={cold.certificate:+.4f}")
        assert hot.exact and cold.exact
        assert hot.certificate > 0
        assert cold.certificate < 0


def test_criterion_12_grid_incoherence_violation():
    with _Criterion(12, "periodic grid incoherence violation", 120):
        g = make_grid(4, periodic=True)
        for theta in (1.0, 1.2, 1.5):
            rep = graph_incoherence(g, theta, r=1)
            print(f"  theta={theta}: incoherence={rep.norm:.6f} "
                  f"(series scale {1 + math.exp(-4 * theta):.6f})")
            assert rep.norm > 1.0
