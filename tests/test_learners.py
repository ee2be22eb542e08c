import inspect
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from isinglearn import experiments, learners
from isinglearn.graphs import (
    Graph,
    make_random_regular,
    make_regular_plus_edge,
    make_star,
    make_toy_gp,
    make_toy_gp_prime,
    make_tree,
)
from isinglearn.analysis import incoherence, population_hessian, tree_boundary_field
from isinglearn.experiments import run_learner
from isinglearn.ising import (
    ExactDistribution,
    SampleSet,
    empirical_correlations,
    exact_moments,
    gibbs_sample,
)
from isinglearn.learners import (
    LearnerConfig,
    _rlr_all_roots,
    default_ind_params,
    local_independence_test,
    local_independence_test_pruned,
    population_independence_test,
    population_rlr_gp,
    population_score,
    pseudo_likelihood_objective,
    rlr_graph,
    rlr_neighborhood,
    sample_bound,
    score,
    tau_degree,
    tau_tree,
    thresholding,
)
from _reference import (
    naive_gp_tables,
    naive_pseudo_likelihood,
    reference_independence_test,
    reference_joint,
    reference_newton_directions,
    reference_per_root_neighborhoods,
    reference_per_root_score,
    reference_population_rlr_gp,
    reference_rlr_all_roots,
    reference_rlr_neighborhood,
    reference_score,
)


class TestThresholding:
    def test_identity_matrix_empty(self):
        assert thresholding(np.eye(4), 0.5).num_edges == 0

    def test_two_vertices(self):
        c = np.array([[1.0, 0.9], [0.9, 1.0]])
        assert thresholding(c, 0.5).edges == {(1, 2)}

    def test_exact_tree_correlations_select_tree(self):
        g = make_tree(10, "balanced", branching=2)
        d = exact_moments(g, 0.5)
        learned = thresholding(d.corr, tau_tree(0.5))
        assert learned.edges == g.edges

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(0)
        a = rng.random((6, 6))
        c = (a + a.T) / 2
        np.fill_diagonal(c, 1.0)
        lo = thresholding(c, 0.3).edges
        hi = thresholding(c, 0.6).edges
        assert hi <= lo

    def test_tau_bounds(self):
        with pytest.raises(ValueError):
            thresholding(np.eye(3), 1.5)


class TestTauFormulas:
    def test_tau_tree_value(self):
        assert tau_tree(0.5) == pytest.approx(0.3378347, abs=1e-6)

    def test_tau_degree_value(self):
        assert tau_degree(0.05, 4) == pytest.approx(0.0874792, abs=1e-6)

    def test_tau_degree_out_of_regime(self):
        # atanh(1/8) ~ 0.12566 < 0.2
        with pytest.raises(ValueError):
            tau_degree(0.2, 4)


class TestSampleBound:
    def test_tree_bound_frozen(self):
        assert sample_bound("thr-tree", 0.5, p=100, dlt=0.05) == 4296

    def test_tree_bound_smaller_p(self):
        assert sample_bound("thr-tree", 0.5, p=15, dlt=0.05) == 3314

    def test_degree_bound_grows_near_regime_edge(self):
        a = sample_bound("thr-degree", 0.05, delta=4, p=100, dlt=0.05)
        b = sample_bound("thr-degree", 0.11, delta=4, p=100, dlt=0.05)
        assert 0 < a < b

    def test_ind_uses_defaults(self):
        eps, gamma, _ = default_ind_params(0.3, 3)
        want = math.ceil(100 * 3 / (eps**2 * gamma**4) * math.log(2 * 50 / 0.05))
        assert sample_bound("ind", 0.3, delta=3, p=50, dlt=0.05) == want

    def test_indd_formula(self):
        kappa = math.tanh(0.3)
        want = math.ceil(8 * (kappa**2 + 8**3) * math.log(4 * 50 / 0.05))
        assert sample_bound("indd", 0.3, delta=3, p=50, dlt=0.05) == want

    def test_rlr_scales_with_k2(self):
        a = sample_bound("rlr", 0.2, delta=4, p=50, dlt=0.05, k2=1.0)
        b = sample_bound("rlr", 0.2, delta=4, p=50, dlt=0.05, k2=2.0)
        assert b == math.ceil(2 * 0.2**-2 * 4 * math.log(8 * 2500 / 0.05))
        assert a < b

    def test_unknown_alg(self):
        with pytest.raises(ValueError):
            sample_bound("nope", 0.2, delta=2, p=10)


class TestIndDefaults:
    def test_point_five(self):
        eps, gamma, kappa = default_ind_params(0.5, 4)
        assert eps == pytest.approx(0.2938003, abs=1e-6)
        assert gamma == pytest.approx(1.31040e-6, rel=1e-4)
        assert kappa == pytest.approx(0.4621172, abs=1e-6)

    def test_small_theta(self):
        eps, gamma, kappa = default_ind_params(0.1, 2)
        assert eps == pytest.approx(0.0503340, abs=1e-6)
        assert gamma == pytest.approx(0.0280831, abs=1e-6)
        assert kappa == pytest.approx(0.0996680, abs=1e-6)

    def test_vanish_with_theta(self):
        eps, gamma, kappa = default_ind_params(1e-4, 3)
        assert max(eps, kappa) < 1e-3 and gamma < 2**-6


class TestScore:
    def test_population_star_subneighborhood(self):
        d = exact_moments(make_star(4, 3), 0.8)
        val = population_score(d, 1, [2], delta=3, gamma=1e-6)
        assert val > math.sinh(1.6) / 8

    def test_empirical_star_over_seeds(self):
        g = make_star(4, 3)
        hits = 0
        for sd in range(5):
            s = gibbs_sample(g, 0.8, n=10_000, burn_in=500, thin=3, seed=sd)
            hits += score(s, 1, [2], delta=3, gamma=1e-6) > math.sinh(1.6) / 8
        assert hits == 5

    def test_independent_root_scores_zero(self):
        g = Graph(4, {(2, 3)})
        s = gibbs_sample(g, 0.5, n=10_000, burn_in=100, thin=2, seed=0)
        assert score(s, 1, [2], delta=2, gamma=0.01) < 0.05

    def test_population_non_neighborhood_zero(self):
        d = exact_moments(make_tree(6, "path"), 0.7)
        assert population_score(d, 2, [4], delta=2, gamma=1e-9) < 1e-12
        assert population_score(d, 2, [1, 4], delta=2, gamma=1e-9) < 1e-12

    def test_empty_candidate_rejected(self):
        d = exact_moments(make_tree(3, "path"), 0.3)
        with pytest.raises(ValueError):
            population_score(d, 1, [], delta=2, gamma=0.1)

    def test_global_flip_invariance(self):
        g = make_tree(5, "path")
        s = gibbs_sample(g, 0.6, n=2000, burn_in=200, thin=2, seed=3)
        flipped = SampleSet(-s.spins, seed=0, burn_in=1, thin=1)
        a = score(s, 2, [1, 3], delta=2, gamma=0.01)
        b = score(flipped, 2, [1, 3], delta=2, gamma=0.01)
        assert a == pytest.approx(b, abs=1e-12)


class TestScoreVertices:
    @pytest.mark.parametrize(
        "r, U, match",
        [
            (1, [0], "outside 1..5"),
            (1, [6], "outside 1..5"),
            (0, [2], "outside 1..5"),
            (6, [2], "outside 1..5"),
            (1, [1], "contain the root"),
            (1, [2, 2], "repeat"),
            (3, [2, 3], "contain the root"),
        ],
    )
    def test_bad_vertices_rejected(self, r, U, match):
        g = make_tree(5, "path")
        s = gibbs_sample(g, 0.6, n=2000, burn_in=200, thin=2, seed=3)
        d = exact_moments(g, 0.6)
        with pytest.raises(ValueError, match=match):
            score(s, r, U, 2, 0.01)
        with pytest.raises(ValueError, match=match):
            population_score(d, r, U, 2, 0.01)


# Codes per table batch: the default, one row per batch, and a few rows
# per batch, so that batches split unevenly (800 codes hold 4 rows of 200
# samples: the 35 candidate sets of size 3 among 7 vertices become 8
# batches of 4 and one of 3).
CHUNK_CODES = (learners._CHUNK_CODES, 1, 800)


def test_chunks_split_rows_unevenly():
    rows = np.ones((35, 4), dtype=np.intp)
    with mock.patch.object(learners, "_CHUNK_CODES", 800):
        sizes = [len(b) for b in learners._row_blocks(rows, 200)]
    assert sizes == [4] * 8 + [3]
    with mock.patch.object(learners, "_CHUNK_CODES", 1):
        assert [len(b) for b in learners._row_blocks(rows, 200)] == [1] * 35
    assert [len(b) for b in learners._row_blocks(rows, 200)] == [35]
    # with few samples the 2^7 table cells per row bound the batch instead
    with mock.patch.object(learners, "_CHUNK_CODES", 800):
        sizes = [len(b) for b in learners._row_blocks(np.ones((20, 7), dtype=np.intp), 5)]
    assert sizes == [6, 6, 6, 2]
    s = gibbs_sample(make_tree(8, "path"), 0.8, n=200, burn_in=50, thin=1, seed=4)
    outputs = []
    for chunk in CHUNK_CODES:
        with mock.patch.object(learners, "_CHUNK_CODES", chunk):
            outputs.append(
                (
                    local_independence_test(s, 3, 0.2, 0.01).edges,
                    local_independence_test_pruned(s, 3, 0.2, 0.01, 0.3).edges,
                    score(s, 4, [3, 5, 8], 3, 0.01),
                )
            )
    assert outputs[0][0] and outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_wht_matches_hadamard_matrix():
    rng = np.random.default_rng(0)
    for k in range(7):
        cells = np.arange(1 << k)
        parity = np.array([[bin(c & S).count("1") & 1 for S in cells] for c in cells])
        x = rng.integers(-1000, 1000, size=(3, 1 << k))
        expected = x @ (1 - 2 * parity)
        assert np.array_equal(learners._wht(x), expected)


def _table_sources(s, rows):
    """Every table of `rows` from the dense transform and from bincount."""
    dense = np.concatenate(list(learners._dense_tables(s)(rows)))
    counted = np.concatenate(list(learners._bincount_tables(s)(rows)))
    return dense, counted


@pytest.mark.parametrize("chunk", CHUNK_CODES)
@pytest.mark.parametrize(
    "p, n, spins",
    [
        (1, 1, "random"),
        (1, 13, "random"),
        (6, 1, "random"),
        (6, 203, "random"),
        (6, 203, "up"),
        (7, 64, "down"),
        (learners._DENSE_MAX_P, 203, "random"),
    ],
)
def test_dense_tables_match_bincount(chunk, p, n, spins):
    rng = np.random.default_rng(1000 * p + n)
    X = {
        "random": rng.choice([-1, 1], size=(n, p)),
        "up": np.ones((n, p)),
        "down": -np.ones((n, p)),
    }[spins]
    s = SampleSet(X, seed=0, burn_in=1, thin=1)
    for m in range(1, 8):
        # rows of distinct vertices, as the learners ask for, and rows
        # drawn with repeats, which both sources count the same way
        distinct = np.argsort(rng.random((20, p)), axis=1)[:, :m] + 1
        repeats = rng.integers(1, p + 1, size=(20, m))
        rows = np.concatenate([distinct, repeats]) if m <= p else repeats
        with mock.patch.object(learners, "_CHUNK_CODES", chunk):
            dense, counted = _table_sources(s, rows)
        assert dense.shape == (len(rows), 1 << m)
        assert np.array_equal(dense, counted)
        assert (np.rint(dense * n).sum(axis=1) == n).all()


def test_shift_of_exactly_half_eps_does_not_clear():
    # root 1 given vertex 2: P(x1 = +1) is 1 at x2 = +1 and 1/2 at x2 = -1,
    # a shift of exactly 1/2; root 2 given vertex 1 shifts by 2/3
    s = SampleSet(np.array([[1, 1], [1, 1], [1, -1], [-1, -1]]), seed=0, burn_in=1, thin=1)
    assert score(s, 1, [2], 1, 0.01) == 0.5
    assert local_independence_test(s, 1, 1.0, 0.01, rule="and").num_edges == 0
    assert local_independence_test(s, 1, 0.999, 0.01, rule="and").num_edges == 1


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(3, 8),
    n=st.integers(5, 400),
    kind=st.sampled_from(["path", "star", "empty"]),
    theta=st.floats(0.05, 1.5),
    delta=st.integers(1, 4),
    eps=st.floats(1e-9, 1.9),
    gamma=st.floats(1e-9, 0.99),
    kappa=st.floats(0.0, 1.2),
    rule=st.sampled_from(["or", "and"]),
    chunk=st.sampled_from(CHUNK_CODES),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_batched_independence_matches_reference(
    p, n, kind, theta, delta, eps, gamma, kappa, rule, chunk, seed, data
):
    g = {
        "path": lambda: make_tree(p, "path"),
        "star": lambda: make_star(p, p - 1),
        "empty": lambda: Graph(p, set()),
    }[kind]()
    s = gibbs_sample(g, theta, n=n, burn_in=20, thin=1, seed=seed)
    joint = reference_joint(s.spins)
    corr = empirical_correlations(s)
    everyone = range(1, p + 1)

    def ball(r):
        return [v for v in everyone if corr[r - 1, v - 1] > kappa / 2.0]

    r = data.draw(st.integers(1, p))
    others = [v for v in everyone if v != r]
    U = data.draw(st.lists(st.sampled_from(others), min_size=1, max_size=delta, unique=True))
    with mock.patch.object(learners, "_CHUNK_CODES", chunk):
        ind = local_independence_test(s, delta, eps, gamma, rule=rule)
        indd = local_independence_test_pruned(s, delta, eps, gamma, kappa, rule=rule)
        sc = score(s, r, U, delta, gamma)
        assert ind.edges == reference_independence_test(
            joint, p, delta, eps, gamma, rule, lambda r: everyone
        )
        assert indd.edges == reference_independence_test(
            joint, p, delta, eps, gamma, rule, ball
        )
        assert sc == reference_score(joint, p, r, U, delta, gamma)
        d = exact_moments(g, theta)
        assert population_score(d, r, U, delta, gamma) == reference_score(
            d.marginal, p, r, U, delta, gamma
        )
        pop = population_independence_test(d, delta, eps, gamma, rule=rule)
        assert pop.edges == reference_independence_test(
            d.marginal, p, delta, eps, gamma, rule, lambda r: everyone
        )


def test_batched_independence_by_bincount_matches_reference():
    # the same cases with every sample table counted by bincount
    with mock.patch.object(learners, "_DENSE_MAX_P", 0):
        test_batched_independence_matches_reference()


def _pools(p, pool_of):
    return {
        r: np.array(sorted(v for v in pool_of(r) if v != r), dtype=np.intp)
        for r in range(1, p + 1)
    }


@pytest.mark.parametrize(
    "p, delta, n, burn_in, thin, seed",
    [
        # the benchmark's learn-cli input: a balanced binary tree at
        # theta = 0.5, delta = 3, n from the tree thresholding bound (3,314)
        (15, 3, None, 1000, 10, 11),
        # above _DENSE_MAX_P, where every table is counted by bincount;
        # few samples leave many candidates alive past the screen
        (21, 3, 1500, 200, 5, 3),
    ],
    ids=["learn-cli", "p21-bincount"],
)
def test_driver_matches_per_root_reference(p, delta, n, burn_in, thin, seed):
    # inputs too large for the brute-force reference: the batched driver
    # against the per-root search it replaced, on the same tables
    theta = 0.5
    n = n or sample_bound("thr-tree", theta, p=p)
    s = gibbs_sample(make_tree(p, "balanced", 2), theta, n=n, burn_in=burn_in, thin=thin,
                     seed=seed)
    eps, gamma, kappa = default_ind_params(theta, delta)
    corr = empirical_correlations(s)
    tables = learners._sample_tables(s)
    assert (p > learners._DENSE_MAX_P) == (tables.__qualname__.startswith("_bincount"))
    pools = {
        "ind": lambda r: range(1, p + 1),
        "indd": lambda r: [v for v in range(1, p + 1) if corr[r - 1, v - 1] > kappa / 2.0],
    }
    learn = {
        "ind": lambda rule: local_independence_test(s, delta, eps, gamma, rule=rule),
        "indd": lambda rule: local_independence_test_pruned(s, delta, eps, gamma, kappa, rule=rule),
    }
    for alg, pool_of in pools.items():
        want = reference_per_root_neighborhoods(tables, p, delta, eps / 2.0, gamma, pool_of)
        got = learners._neighborhoods(tables, _pools(p, pool_of), delta, eps / 2.0, gamma)
        assert got == want
        assert any(len(nb) == delta for nb in want.values())
        for rule in ("or", "and"):
            assert learn[alg](rule) == learners._edges_from_neighborhoods(p, want, rule)
    counted = learners._bincount_tables(s)
    for r in (1, 2, p):
        for U in (want[r], [v for v in range(1, delta + 2) if v != r][:delta]):
            assert score(s, r, U, delta, gamma) == reference_per_root_score(
                counted, p, r, U, delta, gamma
            )


def test_root_batches_hold_little_more_memory_than_single_roots():
    # every undecided root's candidates share a batch; the peak stays
    # within 1.5x of the same call made one root at a time (the sample-code
    # blocks, bounded by _CHUNK_CODES either way, hold most of it)
    g = make_tree(24, "balanced", 2)
    s = gibbs_sample(g, 0.5, n=2000, burn_in=200, thin=5, seed=3)
    eps, gamma, _ = default_ind_params(0.5, 2)
    driver = learners._neighborhoods

    def one_root_per_call(tables, pools, *args):
        return {r: driver(tables, {r: pool}, *args)[r] for r, pool in pools.items()}

    def peak():
        local_independence_test(s, 2, eps, gamma)  # nothing left to allocate lazily
        tracemalloc.start()
        try:
            learned = local_independence_test(s, 2, eps, gamma)
            return learned, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    batched, batched_peak = peak()
    with mock.patch.object(learners, "_neighborhoods", one_root_per_call):
        single, single_peak = peak()
    assert batched == single and batched.num_edges > 0
    assert batched_peak <= 1.5 * single_peak


class TestLocalIndependence:
    def test_path_recovery(self):
        g = make_tree(7, "path")
        eps, gamma, _ = default_ind_params(0.9, 2)
        wins = 0
        for sd in range(20):
            s = gibbs_sample(g, 0.9, n=20_000, burn_in=1000, thin=5, seed=sd)
            wins += local_independence_test(s, 2, eps, gamma).edges == g.edges
        assert wins >= 18

    def test_no_structure_gives_empty(self):
        wins = 0
        for sd in range(10):
            s = gibbs_sample(Graph(6, set()), 0.0, n=10_000, burn_in=10, thin=1, seed=sd)
            wins += local_independence_test(s, 2, 0.2, 0.01).num_edges == 0
        assert wins >= 9

    def test_population_limit_star(self):
        g = make_star(5, 4)
        d = exact_moments(g, 0.6)
        eps, gamma, _ = default_ind_params(0.6, 4)
        assert population_independence_test(d, 4, eps, gamma).edges == g.edges


@pytest.mark.parametrize("learner", ["ind", "indd", "population"])
@pytest.mark.parametrize(
    "eps, gamma",
    [(0.0, 0.1), (-0.1, 0.1), (0.1, 0.0), (0.1, -0.5), (0.1, 1.0), (0.1, 5.0)],
)
def test_independence_thresholds_must_be_positive(learner, eps, gamma):
    g = make_tree(4, "path")
    s = gibbs_sample(g, 0.5, n=200, burn_in=50, thin=1, seed=0)
    run = {
        "ind": lambda: local_independence_test(s, 2, eps, gamma),
        "indd": lambda: local_independence_test_pruned(s, 2, eps, gamma, 0.4),
        "population": lambda: population_independence_test(
            exact_moments(g, 0.5), 2, eps, gamma
        ),
    }[learner]
    with pytest.raises(ValueError, match="thresholds must be positive"):
        run()


def test_gamma_of_one_or_more_rejected():
    # no conditioning event has probability above gamma/2 >= 1/2 on a
    # 4-vertex path, so every score would be 0 and the graph empty
    d = exact_moments(make_tree(4, "path"), 0.8)
    eps, gamma, _ = default_ind_params(0.8, 2)
    assert population_independence_test(d, 2, eps, gamma).edges == d.graph.edges
    with pytest.raises(ValueError, match="gamma below 1"):
        population_independence_test(d, 2, eps, 5.0)
    samples = SampleSet(np.ones((4, 4)), seed=0, burn_in=1, thin=1)
    for score_fn, src in ((population_score, d), (score, samples)):
        with pytest.raises(ValueError, match=r"gamma must lie in \(0, 1\)"):
            score_fn(src, 1, [2], 2, 1.0)


def test_unknown_edge_rule_rejected_without_edges():
    s = gibbs_sample(Graph(4, set()), 0.0, n=200, burn_in=10, thin=1, seed=0)
    with pytest.raises(ValueError, match="unknown edge rule"):
        rlr_graph(s, lam=5.0, rule="xor")
    with pytest.raises(ValueError, match="unknown edge rule"):
        local_independence_test(s, 2, 5.0, 0.01, rule="xor")


def test_unknown_edge_rule_rejected_before_solving():
    # the rule is checked before the solve or the search, not after it
    s = gibbs_sample(make_tree(4, "path"), 0.5, n=200, burn_in=10, thin=1, seed=0)
    never = AssertionError("ran before the rule was checked")
    with mock.patch.object(learners, "_rlr_all_roots", side_effect=never):
        with pytest.raises(ValueError, match="unknown edge rule 'xor'"):
            rlr_graph(s, lam=0.1, rule="xor")
    with mock.patch.object(learners, "_neighborhoods", side_effect=never):
        with pytest.raises(ValueError, match="unknown edge rule 'xor'"):
            local_independence_test(s, 2, 0.2, 0.01, rule="xor")


def test_degree_bound_below_one_rejected():
    # every candidate set would be empty, so the graph would come back
    # empty where delta = 2 finds edges
    g = make_tree(5, "path")
    s = gibbs_sample(g, 0.8, n=2000, burn_in=200, thin=2, seed=3)
    d = exact_moments(g, 0.8)
    runs = (
        lambda delta: local_independence_test(s, delta, 0.2, 0.01),
        lambda delta: local_independence_test_pruned(s, delta, 0.2, 0.01, 0.4),
        lambda delta: population_independence_test(d, delta, 0.2, 0.01),
    )
    for run in runs:
        assert run(2).num_edges > 0
        for delta in (0, -1):
            with pytest.raises(ValueError, match="delta must be >= 1"):
                run(delta)


def test_negative_lambda_rejected():
    # a negative soft threshold grows every coefficient: 9 of the 10
    # vertex pairs came back as edges, with every root converged
    s = gibbs_sample(make_tree(5, "path"), 0.5, n=500, burn_in=100, thin=2, seed=0)
    with pytest.raises(ValueError, match="lam must be >= 0"):
        rlr_graph(s, -0.1)
    with pytest.raises(ValueError, match="lam must be >= 0"):
        rlr_neighborhood(s, 2, -0.1)
    with pytest.raises(ValueError, match="lam must be >= 0"):
        population_rlr_gp(0.5, 5, -0.1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_rejected(value):
    # each of the first ran to an empty graph before it was refused; the
    # theta checks let nan and inf through to tau, eps, a nan threshold, a
    # float conversion or a float-range message
    g = make_tree(4, "path")
    s = gibbs_sample(g, 0.5, n=200, burn_in=50, thin=1, seed=0)
    d = exact_moments(g, 0.5)
    runs = {
        "eps must be finite": (
            lambda: local_independence_test(s, 2, value, 0.01),
            lambda: local_independence_test_pruned(s, 2, value, 0.01, 0.4),
            lambda: population_independence_test(d, 2, value, 0.01),
        ),
        "kappa must be finite": (
            lambda: local_independence_test_pruned(s, 2, 0.2, 0.01, value),
        ),
        "lam must be finite": (
            lambda: rlr_graph(s, value),
            lambda: rlr_neighborhood(s, 2, value),
            lambda: population_rlr_gp(0.5, 5, value),
        ),
        "theta must be > 0 and finite": (
            lambda: tau_tree(value),
            lambda: tau_degree(value, 3),
            lambda: default_ind_params(value, 3),
            lambda: sample_bound("thr-tree", value, p=10),
            lambda: population_rlr_gp(value, 5, 0.1),
            lambda: tree_boundary_field(4, value),
        ),
    }
    for what, calls in runs.items():
        for run in calls:
            with pytest.raises(ValueError, match=f"^{what}, got {value}$"):
                run()


def test_empty_sample_set_rejected():
    # the learners learned an empty graph, or a nan score, from no samples,
    # and then each refused them itself; SampleSet now refuses a set of no
    # rows or no spins, so no learner is handed one, and every learner
    # runs on the smallest set it can be handed
    for shape, what in (((0, 5), "rows"), ((5, 0), "spins")):
        with pytest.raises(ValueError, match=f"^sample set has no {what}$"):
            SampleSet(np.empty(shape, dtype=np.int8), seed=0, burn_in=1, thin=1)
    s = SampleSet(np.ones((1, 1)), seed=0, burn_in=1, thin=1)
    for cfg, lam in ((LearnerConfig("thr", tau=0.2), None), (LearnerConfig("ind"), None),
                     (LearnerConfig("indd"), None), (LearnerConfig("rlr"), 0.1)):
        assert run_learner(cfg, s, 0.5, 1, lam=lam)[0] == Graph(1, set())
    with mock.patch.object(learners, "_DENSE_MAX_P", 0):
        assert local_independence_test(s, 1, 0.2, 0.01) == Graph(1, set())
    value, grad = pseudo_likelihood_objective(np.zeros(0), s, 1)
    assert value == pytest.approx(math.log(2.0)) and grad.shape == (0,)


def test_run_learner_rlr_needs_lambda():
    # with no lambda it solved without a penalty: 17 edges on a 7-edge path
    s = gibbs_sample(make_tree(8, "path"), 0.5, n=300, burn_in=50, thin=2, seed=1)
    for run in (lambda: run_learner(LearnerConfig("rlr"), s, 0.5, 2),
                lambda: rlr_graph(s, None)):
        with pytest.raises(ValueError, match="^learner 'rlr' needs lambda$"):
            run()


def test_rlr_solver_defaults_come_from_learner_config():
    # rlr_graph and rlr_neighborhood defaulted to 1e-6 and 5000, where
    # LearnerConfig, run_learner, sweep files and `learn` use 1e-5 and 3000
    for fn in (rlr_graph, rlr_neighborhood):
        params = inspect.signature(fn).parameters
        assert params["tol"].default == LearnerConfig.tol == 1e-5
        assert params["max_iter"].default == LearnerConfig.max_iter == 3000


def test_score_counts_by_bincount():
    # one candidate reads a few rows, too few to pay for the histogram the
    # learners transform: score builds none, and scores as the dense tables do
    s = gibbs_sample(make_star(8, 4), 0.6, n=300, burn_in=50, thin=2, seed=3)
    cases = ((1, [2]), (1, [2, 3]), (6, [7, 8]))
    tables = learners._sample_tables(s)  # the dense source at p = 8
    want = [learners._score(tables, s.p, r, U, 2, 0.01) for r, U in cases]
    with mock.patch.object(learners, "_dense_tables", side_effect=AssertionError("dense")):
        assert [score(s, r, U, 2, 0.01) for r, U in cases] == want


class TestPrunedIndependence:
    def test_kappa_two_empties_candidates(self):
        g = make_tree(5, "path")
        s = gibbs_sample(g, 0.8, n=2000, burn_in=200, thin=2, seed=1)
        learned = local_independence_test_pruned(s, 2, 0.3, 0.01, kappa=2.0)
        assert learned.num_edges == 0

    def test_tree_recovery(self):
        g = make_tree(9, "path")
        eps, gamma, kappa = default_ind_params(0.4, 2)
        wins = 0
        for sd in range(10):
            s = gibbs_sample(g, 0.4, n=20_000, burn_in=500, thin=3, seed=sd)
            wins += (
                local_independence_test_pruned(s, 2, eps, gamma, kappa).edges == g.edges
            )
        assert wins >= 9

    def test_agrees_with_unpruned_at_weak_coupling(self):
        g = make_tree(7, "path")
        eps, gamma, kappa = default_ind_params(0.4, 2)
        for sd in range(3):
            s = gibbs_sample(g, 0.4, n=20_000, burn_in=500, thin=3, seed=sd)
            a = local_independence_test(s, 2, eps, gamma)
            b = local_independence_test_pruned(s, 2, eps, gamma, kappa)
            assert a.edges == b.edges


class TestPseudoLikelihood:
    def test_zero_coefficients(self):
        g = make_tree(5, "path")
        s = gibbs_sample(g, 0.5, n=500, burn_in=100, thin=2, seed=0)
        val, grad = pseudo_likelihood_objective(np.zeros(4), s, 2)
        assert val == pytest.approx(math.log(2), abs=1e-12)
        c = empirical_correlations(s)
        want = -np.array([c[1, 0], c[1, 2], c[1, 3], c[1, 4]])
        assert np.abs(grad - want).max() < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            spins = (rng.integers(0, 2, size=(200, 8)) * 2 - 1).astype(np.int8)
            s = SampleSet(spins, seed=0, burn_in=1, thin=1)
            theta = rng.normal(0, 0.5, size=7)
            _, grad = pseudo_likelihood_objective(theta, s, 3)
            eps = 1e-5
            for k in range(7):
                e = np.zeros(7)
                e[k] = eps
                vp, _ = pseudo_likelihood_objective(theta + e, s, 3)
                vm, _ = pseudo_likelihood_objective(theta - e, s, 3)
                fd = (vp - vm) / (2 * eps)
                assert abs(grad[k] - fd) <= 1e-5 * max(1.0, abs(fd))

    def test_large_fields_stable(self):
        spins = np.ones((50, 4), dtype=np.int8)
        s = SampleSet(spins, seed=0, burn_in=1, thin=1)
        val, grad = pseudo_likelihood_objective(np.array([50.0, -50.0, 30.0]), s, 1)
        assert np.isfinite(val) and np.all(np.isfinite(grad))

    def test_gradient_small_at_truth_for_large_n(self):
        g = make_toy_gp_prime(4)
        s = gibbs_sample(g, 0.6, n=40_000, burn_in=500, thin=2, seed=8)
        truth = np.array([0.6, 0.0, 0.0])
        _, grad = pseudo_likelihood_objective(truth, s, 1)
        assert np.abs(grad).max() < 0.02

    def test_root_out_of_range(self):
        s = SampleSet(np.ones((5, 3)), seed=0, burn_in=1, thin=1)
        for r in (0, 4):
            with pytest.raises(ValueError, match="outside 1..3"):
                pseudo_likelihood_objective(np.zeros(2), s, r)
            with pytest.raises(ValueError, match="outside 1..3"):
                rlr_neighborhood(s, r, lam=0.1)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_naive_loop(self, data):
        p = data.draw(st.integers(2, 8))
        r = data.draw(st.integers(1, p))
        spin_row = st.lists(st.sampled_from((1, -1)), min_size=p, max_size=p)
        rows = data.draw(st.lists(spin_row, min_size=1, max_size=40))
        theta = data.draw(
            st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=p - 1, max_size=p - 1)
        )
        s = SampleSet(np.array(rows), seed=0, burn_in=1, thin=1)
        val, grad = pseudo_likelihood_objective(np.array(theta), s, r)
        ref_val, ref_grad = naive_pseudo_likelihood(rows, r, theta)
        assert abs(val - ref_val) <= 1e-12 * max(1.0, abs(ref_val))
        assert np.abs(grad - np.array(ref_grad)).max() <= 1e-12

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_kernel_matches_naive_loop_per_root(self, data):
        # weighted distinct rows, any roots in any order, and fields large
        # enough that exp(-2|h|) falls far below machine epsilon
        p = data.draw(st.integers(2, 8))
        spin_row = st.lists(st.sampled_from((1, -1)), min_size=p, max_size=p)
        rows = data.draw(st.lists(spin_row, min_size=1, max_size=40))
        cols = np.array(
            data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=p, unique=True))
        )
        k = len(cols)
        coef = st.floats(-30.0, 30.0, allow_nan=False)
        th = np.array(data.draw(st.lists(coef, min_size=p * k, max_size=p * k)))
        th = th.reshape(p, k)
        th[cols, np.arange(k)] = 0.0
        Xu, wgt = SampleSet(np.array(rows), seed=0, burn_in=1, thin=1).distinct_rows
        # a workspace larger than needed, as after the active set shrinks
        work = np.full((2, Xu.size), np.nan)
        vals, G = learners._pl_kernel(Xu, Xu[:, cols].copy(), wgt, th, cols, work)
        for j, c in enumerate(cols):
            ref_val, ref_grad = naive_pseudo_likelihood(rows, c + 1, np.delete(th[:, j], c))
            assert abs(vals[j] - ref_val) <= 1e-12 * ref_val
            assert np.abs(np.delete(G[:, j], c) - ref_grad).max() <= 1e-12
            assert G[c, j] == 0.0


class TestRlrNeighborhood:
    def test_null_solution_above_lambda_max(self):
        g = make_tree(5, "path")
        s = gibbs_sample(g, 0.5, n=2000, burn_in=200, thin=2, seed=1)
        _, grad0 = pseudo_likelihood_objective(np.zeros(4), s, 2)
        lam_max = np.abs(grad0).max()
        est = rlr_neighborhood(s, 2, lam=lam_max * 1.01, tol=1e-8)
        assert est.converged and not est.neighbors
        assert np.all(est.theta == 0.0)
        est2 = rlr_neighborhood(s, 2, lam=lam_max * 0.99, tol=1e-8)
        assert np.any(est2.theta != 0.0)

    def test_single_edge_selection(self):
        g = make_toy_gp_prime(6)
        wins = 0
        for sd in range(10):
            s = gibbs_sample(g, 0.6, n=10_000, burn_in=200, thin=2, seed=sd)
            est = rlr_neighborhood(s, 1, lam=0.06, tol=1e-6)
            wins += est.neighbors == frozenset({2})
        assert wins >= 9

    def test_objective_not_worse_than_truth(self):
        g = make_tree(6, "path")
        s = gibbs_sample(g, 0.5, n=5000, burn_in=300, thin=2, seed=4)
        lam = 0.02
        est = rlr_neighborhood(s, 3, lam=lam, tol=1e-8)
        truth = np.array([0.0, 0.5, 0.5, 0.0, 0.0])
        val_t, _ = pseudo_likelihood_objective(truth, s, 3)
        f_truth = val_t + lam * np.abs(truth).sum()
        assert est.objective <= f_truth + 1e-8

    def test_monotone_objective_history(self):
        g = make_tree(6, "path")
        s = gibbs_sample(g, 0.8, n=5000, burn_in=300, thin=2, seed=5)
        # the objective after k steps is that of a solve capped at k steps
        hist = []
        for k in range(1, 100):
            _, f, res, _ = _rlr_all_roots(*s.distinct_rows, 0.01, 1e-10, k, None, [1])
            hist.append(f[1])
            if res[1] < 1e-10:
                break
        hist = np.array(hist)
        assert len(hist) >= 2
        assert np.all(np.diff(hist) <= 1e-12)

    def test_converged_residual_certificate(self):
        g = make_tree(5, "path")
        s = gibbs_sample(g, 0.5, n=2000, burn_in=200, thin=2, seed=6)
        est = rlr_neighborhood(s, 2, lam=0.05, tol=1e-7)
        assert est.converged
        assert est.residual < 1e-7

    def test_nonconvergence_flagged(self):
        g = make_tree(5, "path")
        s = gibbs_sample(g, 0.5, n=2000, burn_in=200, thin=2, seed=6)
        est = rlr_neighborhood(s, 2, lam=0.05, tol=1e-12, max_iter=2)
        assert not est.converged

    def test_matches_reference_solver(self):
        g = make_tree(6, "path")
        s = gibbs_sample(g, 0.6, n=2000, burn_in=200, thin=2, seed=7)
        for lam in (0.01, 0.05, 0.2):
            batched = rlr_graph(s, lam, tol=1e-10)
            for r in range(1, g.p + 1):
                _, ref_obj, ref_converged, _ = reference_rlr_neighborhood(
                    s.spins, r, lam, tol=1e-10
                )
                est = rlr_neighborhood(s, r, lam, tol=1e-10)
                assert ref_converged and est.converged and batched.estimates[r].converged
                assert abs(est.objective - ref_obj) < 1e-9
                assert abs(batched.estimates[r].objective - ref_obj) < 1e-9
                # a start at the solution is already optimal: theta0 lands
                # in root r's coefficients, not in another slot
                warm = rlr_neighborhood(s, r, lam, tol=1e-10, theta0=est.theta)
                assert warm.iterations == 1 and warm.converged


class TestRlrGraph:
    def test_theta_holds_every_estimate(self):
        # the sweep resumes the next regularization level from the result
        g = make_tree(6, "path")
        s = gibbs_sample(g, 0.6, n=2000, burn_in=200, thin=2, seed=2)
        res = rlr_graph(s, lam=0.03, tol=1e-8)
        assert res.theta.shape == (6, 6)
        assert not np.diag(res.theta).any()
        for r, est in res.estimates.items():
            others = [v - 1 for v in est.labels]
            assert np.array_equal(res.theta[others, r - 1], est.theta)
        again = rlr_graph(s, lam=0.03, tol=1e-8, warm=res)
        assert all(e.iterations == 1 for e in again.estimates.values())

    def test_matches_single_vertex_solver(self):
        g = make_tree(6, "path")
        s = gibbs_sample(g, 0.6, n=3000, burn_in=300, thin=2, seed=2)
        res = rlr_graph(s, lam=0.03, tol=1e-8)
        for r in (1, 3, 6):
            est = rlr_neighborhood(s, r, lam=0.03, tol=1e-8)
            assert np.abs(est.theta - res.estimates[r].theta).max() < 1e-5
            assert est.neighbors == res.estimates[r].neighbors

    def test_no_structure_empty(self):
        wins = 0
        for sd in range(10):
            s = gibbs_sample(Graph(8, set()), 0.0, n=2000, burn_in=10, thin=1, seed=sd)
            res = rlr_graph(s, lam=0.2, tol=1e-6)
            wins += res.graph.num_edges == 0
        assert wins >= 9

    def test_and_subset_of_or(self):
        g = make_tree(8, "balanced", branching=2)
        s = gibbs_sample(g, 0.7, n=3000, burn_in=300, thin=2, seed=3)
        for lam in (0.01, 0.05, 0.15):
            a = rlr_graph(s, lam, rule="and", tol=1e-6).graph.edges
            o = rlr_graph(s, lam, rule="or", tol=1e-6).graph.edges
            assert a <= o

    def test_iterations_are_per_root(self):
        g = make_star(7, 6)
        s = gibbs_sample(g, 0.5, n=3000, burn_in=300, thin=2, seed=4)
        res = rlr_graph(s, lam=0.03, tol=1e-8)
        iters = [e.iterations for e in res.estimates.values()]
        assert res.all_converged
        assert len(set(iters)) > 1
        # a root reporting k left the active set at the top of iteration k,
        # after k-1 updates: k-1 iterations converge it and k-2 do not
        for r in (1, 2):
            k = res.estimates[r].iterations
            for cap, converged in ((k - 1, True), (k - 2, False)):
                capped = rlr_graph(s, lam=0.03, tol=1e-8, max_iter=cap)
                assert capped.estimates[r].converged == converged

    def test_iteration_cap_is_reported(self):
        g = make_star(7, 6)
        s = gibbs_sample(g, 0.5, n=3000, burn_in=300, thin=2, seed=4)
        res = rlr_graph(s, lam=0.03, tol=1e-12, max_iter=2)
        assert not res.all_converged
        for e in res.estimates.values():
            assert e.iterations == 2
            assert not e.converged

    def test_distinct_rows_solve_like_float_unique(self):
        # the ordered phase: most sample rows coincide
        g = make_random_regular(12, 4, seed=2)
        s = gibbs_sample(g, 0.65, n=3000, burn_in=300, thin=5, seed=6)
        Xu, counts = np.unique(s.spins.astype(np.float64), axis=0, return_counts=True)
        assert len(Xu) < s.n / 3
        res = rlr_graph(s, lam=0.05, tol=1e-8)
        theta, obj, resid, iters = _rlr_all_roots(
            Xu, (counts / s.n)[:, None], 0.05, 1e-8, 5000, None
        )
        for r, e in res.estimates.items():
            assert e.theta.tobytes() == np.delete(theta[:, r - 1], r - 1).tobytes()
            assert (e.objective, e.residual, e.iterations) == (
                obj[r - 1], resid[r - 1], iters[r - 1]
            )

    def test_shrinking_active_set_matches_single_roots(self):
        # the roots of a star converge at many different steps, so the
        # batch drops roots, and regathers their columns, many times; a
        # small penalty keeps most coefficients free, which spreads the
        # step counts
        g = make_star(10, 5)
        s = gibbs_sample(g, 0.5, n=3000, burn_in=300, thin=2, seed=4)
        lam = 0.005
        res = rlr_graph(s, lam=lam, tol=1e-8)
        assert len({e.iterations for e in res.estimates.values()}) >= 5
        # one column and many round their products differently, so the
        # iteration counts may differ by a few; the solutions agree
        for r, e in res.estimates.items():
            one = rlr_neighborhood(s, r, lam=lam, tol=1e-8)
            assert one.converged and e.converged
            assert one.neighbors == e.neighbors
            assert abs(one.objective - e.objective) <= 1e-12 * e.objective
            assert np.abs(one.theta - e.theta).max() < 1e-6

    def test_tree_recovery(self):
        g = make_tree(8, "balanced", branching=2)
        wins = 0
        for sd in range(5):
            s = gibbs_sample(g, 0.6, n=8000, burn_in=400, thin=3, seed=sd)
            res = rlr_graph(s, lam=0.08, rule="or", tol=1e-6)
            wins += res.graph.edges == g.edges
        assert wins >= 4


def _sweep_lambda(theta, lam0, n, p=30):
    """run_sweep's lambda at regularization level lam0."""
    return 2.0 * lam0 * theta * math.sqrt(math.log(p) / n)


def _seed(seed, *key):
    """The benchmark's sub-seed of `seed` at `key`."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(1)[0])


@pytest.fixture(scope="module")
def regression_inputs():
    """(samples, lambda) of the benchmark's three solver inputs at seed 0,
    and of criterion 10's strong arm at its pinned seed, trial 11, at
    lambda0 = 7.5: an orthant-wise Newton loop with neither the sign check
    nor the proximal fallback stalled there at root 15, residual 6.1e-4
    after 4,000 steps."""
    weak, strong = experiments.recipe_regular_sweep(seed=0)
    reg = make_random_regular(30, 4, _seed(0, 1))
    return {
        "sweep-weak": (experiments._sample_trial(weak, 0, 0, 0)[1],
                       _sweep_lambda(0.15, 7.0, 2000)),
        "sweep-strong": (experiments._sample_trial(strong, 0, 0, 0)[1],
                         _sweep_lambda(0.65, 7.0, 10_000)),
        "learn-cli": (gibbs_sample(reg, 0.15, n=10_000, burn_in=1000, thin=10, seed=_seed(0, 3)),
                      _sweep_lambda(0.15, 10.0, 10_000)),
        "strong-trial-11": (experiments._sample_trial(strong, 0, 0, 11)[1],
                            _sweep_lambda(0.65, 7.5, 10_000)),
    }


class TestNewtonSolver:
    def test_strong_arm_stall_input_converges(self, regression_inputs):
        s, lam = regression_inputs["strong-trial-11"]
        _, _, res, iters = _rlr_all_roots(*s.distinct_rows, lam, 1e-5, 40, None)
        assert (res < 1e-5).all()
        assert iters.max() < 40

    @pytest.mark.parametrize(
        "name", ["sweep-weak", "sweep-strong", "learn-cli", "strong-trial-11"]
    )
    def test_matches_reference_at_the_optimum(self, regression_inputs, name):
        s, lam = regression_inputs[name]
        rows = s.distinct_rows
        want, _, want_res, _ = reference_rlr_all_roots(*rows, lam, 1e-11, 100_000, None)
        assert (want_res < 1e-11).all()
        got, _, res, _ = _rlr_all_roots(*rows, lam, 1e-11, 100, None)
        assert (res < 1e-11).all()
        assert np.abs(got - want).max() < 1e-7
        chosen = want > learners._SELECTION_THRESHOLD
        assert np.array_equal(got > learners._SELECTION_THRESHOLD, chosen)
        # the recipes' tol already stops on the optimum's selection
        at_tol, _, res, _ = _rlr_all_roots(*rows, lam, 1e-5, 4000, None)
        assert (res < 1e-5).all()
        assert np.array_equal(at_tol > learners._SELECTION_THRESHOLD, chosen)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_reference_on_small_inputs(self, data):
        # every state carries a positive weight, so the design has full
        # column rank and each root's optimum is unique
        p = data.draw(st.integers(2, 5))
        X = 1.0 - 2.0 * ((np.arange(1 << p)[:, None] >> np.arange(p)) & 1)
        w = np.array(data.draw(st.lists(st.floats(0.02, 1.0), min_size=1 << p, max_size=1 << p)))
        wgt = (w / w.sum())[:, None]
        lam = data.draw(st.floats(0.02, 0.5))
        roots = data.draw(
            st.none() | st.lists(st.integers(0, p - 1), min_size=1, max_size=p, unique=True)
        )
        want = reference_rlr_all_roots(X, wgt, lam, 1e-11, 100_000, None, roots)
        got = _rlr_all_roots(X, wgt, lam, 1e-11, 100, None, roots)
        cols = list(range(p)) if roots is None else roots
        assert (want[2][cols] < 1e-11).all() and (got[2][cols] < 1e-11).all()
        assert np.abs(got[0][:, cols] - want[0][:, cols]).max() < 1e-7
        assert np.abs(got[1][cols] - want[1][cols]).max() < 1e-12
        thr = learners._SELECTION_THRESHOLD
        assert np.array_equal(got[0][:, cols] > thr, want[0][:, cols] > thr)

    def test_proximal_fallback_alone_converges(self):
        # reversed Newton directions find no decrease at any step length, so
        # every step is the backtracking proximal gradient fallback's; its
        # steps stop lowering the objective measurably near residual 2e-8
        g = make_tree(6, "path")
        s = gibbs_sample(g, 0.6, n=2000, burn_in=200, thin=2, seed=7)
        want = rlr_graph(s, 0.05, tol=1e-10)
        newton = learners._newton_directions
        with mock.patch.object(learners, "_newton_directions", lambda *a: -newton(*a)):
            got = rlr_graph(s, 0.05, tol=1e-7)
        assert want.all_converged and got.all_converged
        for r, e in got.estimates.items():
            assert e.iterations > 10 * want.estimates[r].iterations
            assert e.neighbors == want.estimates[r].neighbors
            assert np.abs(e.theta - want.estimates[r].theta).max() < 1e-6

    @pytest.mark.parametrize("lam", [0.0, 1e-3, 0.05])
    @pytest.mark.parametrize(
        "rows",
        [
            [[1, -1, 1, 1]] * 5,  # one distinct row: every column coincides
            [[1, 1, 1, -1], [-1, -1, -1, 1], [1, 1, -1, 1], [-1, -1, 1, 1], [1, 1, 1, 1]],
        ],
        ids=["one-row", "twin-columns"],
    )
    def test_singular_hessians_solve(self, rows, lam):
        # columns that coincide on every distinct row make H_AA singular,
        # which np.linalg.solve refused before the ridge
        s = SampleSet(np.array(rows), seed=0, burn_in=1, thin=1)
        res = rlr_graph(s, lam, tol=1e-6, max_iter=200)
        assert res.all_converged
        assert max(e.iterations for e in res.estimates.values()) < 50

    def test_root_that_no_step_lowers_stops_unconverged(self):
        # at tol 0 a zero residual does not count as converged; above
        # lambda_max the zero start is optimal, so neither step can lower
        # the objective, and every root stops after its first try
        s = gibbs_sample(make_tree(5, "path"), 0.5, n=500, burn_in=100, thin=2, seed=1)
        theta, _, res, iters = _rlr_all_roots(*s.distinct_rows, 5.0, 0.0, 4000, None)
        assert not theta.any()
        assert (res == 0.0).all()
        assert (iters == 2).all()


    @pytest.mark.parametrize("name", ["sweep-weak", "sweep-strong", "learn-cli"])
    def test_resumed_warm_start_matches_evaluated_start(self, regression_inputs, name):
        # down a lambda path, a solve that resumes from the last result
        # (its objectives and gradients reused) ends where a solve from
        # the same coefficients, evaluated afresh, ends
        s, lam = regression_inputs[name]
        rows, thr = s.distinct_rows, learners._SELECTION_THRESHOLD
        warm = None
        for scale in (1.6, 1.2, 1.0, 0.8):
            res = rlr_graph(s, scale * lam, rule="and", tol=1e-5, max_iter=4000, warm=warm)
            if warm is not None:
                theta, _, resid, _ = _rlr_all_roots(*rows, scale * lam, 1e-5, 4000, warm.theta)
                assert np.array_equal(theta > thr, res.theta > thr)
                assert np.array_equal(resid < 1e-5, [e.converged for e in res.estimates.values()])
                assert np.abs(theta - res.theta).max() <= 1e-12
            warm = res

    def test_resume_evaluates_nothing_at_its_start(self):
        # at the lambda it solved, a converged result is optimal already:
        # resumed, the solve runs no kernel pass; from its coefficients
        # alone, it runs one
        s = gibbs_sample(make_tree(6, "path"), 0.6, n=2000, burn_in=200, thin=2, seed=2)
        res = rlr_graph(s, 0.03, tol=1e-8)
        kernel = mock.Mock(wraps=learners._pl_kernel)
        with mock.patch.object(learners, "_pl_kernel", kernel):
            again = rlr_graph(s, 0.03, tol=1e-8, warm=res)
            assert kernel.call_count == 0
            _rlr_all_roots(*s.distinct_rows, 0.03, 1e-8, 3000, res.theta)
            assert kernel.call_count == 1
        assert again.theta.tobytes() == res.theta.tobytes()
        assert again.all_converged and again.graph == res.graph

    def test_warm_start_of_another_sample_set_refused(self):
        s = gibbs_sample(make_tree(5, "path"), 0.6, n=500, burn_in=50, thin=2, seed=1)
        res = rlr_graph(s, 0.05)
        copy = SampleSet(s.spins, s.seed, s.burn_in, s.thin)
        never = AssertionError("solved from a refused warm start")
        with mock.patch.object(learners, "_rlr_all_roots", side_effect=never):
            for warm in (res.theta, res):
                with pytest.raises(ValueError, match="same sample set"):
                    rlr_graph(copy, 0.04, warm=warm)
        assert rlr_graph(copy, 0.04).graph == rlr_graph(s, 0.04, warm=res).graph


@st.composite
def newton_cases(draw, exits):
    """Inputs of _newton_directions, and the directions of its first
    solve, where coefficients at zero leave their orthant in `exits` of
    the k columns ("none", "one", "several" or "all"): in each of those,
    one or more coefficients at zero point out of their orthant at the
    first solve and the others into it; every column holds a coefficient
    at zero."""
    p, k = draw(st.integers(3, 9)), draw(st.integers(3, 7))
    m = draw(st.integers(p, 4 * p))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    XT = rng.choice([-1.0, 1.0], size=(m, p)).T.copy()
    curv = rng.uniform(0.01, 1.0, size=(k, m)) / m
    free = rng.random((p, k)) < draw(st.sampled_from([0.3, 0.7, 1.0]))
    zero = free & (rng.random((p, k)) < 0.5)
    some = (rng.integers(0, p, size=k), np.arange(k))
    free[some] = zero[some] = True
    theta = np.where(zero, 0.0, rng.normal(size=(p, k)))
    v = rng.normal(size=(p, k))
    ridge = learners._RIDGE * curv.sum(axis=1)
    sgn = np.sign(theta)
    # no coefficient at zero: the first solve's directions, kept whole
    first = reference_newton_directions(
        XT, curv.copy(), np.where(zero, 1.0, theta), free, sgn, v, ridge
    )
    assume((first[zero] != 0.0).all())
    count = {"none": 0, "one": 1, "several": draw(st.integers(2, k - 1)), "all": k}[exits]
    leave = rng.permutation(k)[:count]
    out = np.zeros_like(zero)
    for c in leave:
        at = np.flatnonzero(zero[:, c])
        out[rng.choice(at, size=draw(st.integers(1, len(at))), replace=False), c] = True
    sgn = np.where(zero, np.where(out, -1.0, 1.0) * np.sign(first), sgn)
    return (XT, curv, theta, free, sgn, v, ridge), first, set(leave.tolist())


@pytest.mark.parametrize("exits", ["none", "one", "several", "all"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_newton_directions_match_reference(exits, data):
    # only the columns that lost a coefficient are solved again; numpy's
    # batched solve factors each matrix on its own, so the directions are
    # those of solving the whole stack again, bit for bit
    (XT, curv, *rest), first, leave = data.draw(newton_cases(exits))
    want = reference_newton_directions(XT, curv.copy(), *rest)
    got = learners._newton_directions(XT, curv.copy(), *rest)
    assert got.tobytes() == want.tobytes()
    # the drawn columns, and only they, changed after the first solve
    assert set(np.flatnonzero((want != first).any(axis=0)).tolist()) == leave


class TestLazyEstimates:
    P, TOL = 5, 1e-5

    def _solved(self, residual):
        """A hand-made solve of 5 roots: ties at the selection threshold,
        one-sided and two-sided selections and a negative coefficient."""
        thr = learners._SELECTION_THRESHOLD
        theta = np.zeros((self.P, self.P))
        theta[1, 0], theta[0, 1] = thr, np.nextafter(thr, 1.0)  # 1 in 2's only
        theta[2, 0], theta[0, 2] = 0.5, thr  # 3 in 1's only
        theta[4, 3], theta[3, 4] = 0.3, 0.2  # both ways
        theta[2, 3] = -0.4
        theta[3, 2] = thr
        objective = np.linspace(0.5, 0.7, self.P)
        iters = np.arange(2, 2 + self.P)
        return learners._Solved(theta, objective, np.array(residual), iters,
                                objective - 0.01, np.zeros((self.P, self.P)))

    @pytest.mark.parametrize("rule", ["or", "and"])
    @pytest.mark.parametrize(
        "residual",
        [[0.0, 1e-6, 9.9e-6, 2e-6, 0.0], [0.0, TOL, 1e-6, 3e-5, 0.0]],
        ids=["converged", "two-unconverged"],
    )
    def test_lazy_estimates_match_eager_ones(self, rule, residual):
        s = gibbs_sample(make_tree(self.P, "path"), 0.5, n=100, burn_in=10, thin=1, seed=0)
        solved = self._solved(residual)
        with mock.patch.object(learners, "_rlr_all_roots", return_value=solved):
            res = rlr_graph(s, 0.1, rule=rule, tol=self.TOL)
        assert "estimates" not in vars(res)  # nothing built yet
        # the eager construction the result replaces
        eager = {r: learners._estimate(r, solved, self.TOL) for r in range(1, self.P + 1)}
        hoods = {r: e.neighbors for r, e in eager.items()}
        assert res.graph == learners._edges_from_neighborhoods(self.P, hoods, rule)
        assert res.all_converged == all(e.converged for e in eager.values())
        assert res.all_converged == (residual[1] < self.TOL)
        assert res.graph.edges == ({(4, 5)} if rule == "and" else {(1, 2), (1, 3), (4, 5)})
        assert list(res.estimates) == list(eager)
        for r, e in res.estimates.items():
            want = eager[r]
            assert e.theta.tobytes() == want.theta.tobytes()
            assert (e.root, e.labels, e.neighbors, e.converged, e.iterations, e.objective,
                    e.residual) == (want.root, want.labels, want.neighbors, want.converged,
                                    want.iterations, want.objective, want.residual)
        assert res.estimates is res.estimates  # built once


class TestRunLearner:
    def test_dispatch_thr(self):
        g = make_tree(6, "path")
        s = gibbs_sample(g, 0.6, n=8000, burn_in=300, thin=3, seed=1)
        cfg = LearnerConfig(alg="thr", tau_rule="tree")
        learned, res = run_learner(cfg, s, theta=0.6, delta=2)
        assert learned.edges == g.edges and res is None

    def test_bad_alg(self):
        with pytest.raises(ValueError):
            LearnerConfig(alg="bogus")

    def test_unknown_tau_rule(self):
        with pytest.raises(ValueError, match="unknown tau_rule 'bogus'"):
            LearnerConfig(alg="thr", tau_rule="bogus")

    @pytest.mark.parametrize(
        "kw, message",
        [
            ({"tol": 0.0}, "tol must be > 0"),
            ({"tol": -1e-5}, "tol must be > 0"),
            ({"tol": math.nan}, "tol must be > 0"),
            ({"max_iter": 0}, "max_iter must be >= 1"),
            # tol = inf stopped every root at its start: no edges, all converged
            ({"tol": math.inf}, "tol must be > 0 and finite, got inf"),
            # refused only once a learner combined neighborhoods, after sampling
            ({"rule": "xor"}, "unknown edge rule 'xor'"),
        ],
    )
    def test_bad_solver_settings(self, kw, message):
        with pytest.raises(ValueError, match=message):
            LearnerConfig(alg="rlr", **kw)


class TestLearnerConfigResolved:
    def test_defaults(self):
        cfg = LearnerConfig()
        assert (cfg.alg, cfg.tol, cfg.max_iter) == ("rlr", 1e-5, 3000)
        assert cfg.resolved(None, None) is cfg

    def test_thr_tau(self):
        assert LearnerConfig(alg="thr").resolved(0.3, None).tau == tau_tree(0.3)
        cfg = LearnerConfig(alg="thr", tau_rule="degree")
        assert cfg.resolved(0.05, 4).tau == tau_degree(0.05, 4)
        given = LearnerConfig(alg="thr", tau=0.4)
        assert given.resolved(None, None) is given

    def test_ind_fills_only_when_needed(self):
        eps, gamma, kappa = default_ind_params(0.4, 3)
        given = LearnerConfig(alg="ind", eps=0.2, gamma=0.01)
        assert given.resolved(0.4, 3) is given
        got = LearnerConfig(alg="ind", eps=0.2).resolved(0.4, 3)
        assert (got.eps, got.gamma, got.kappa) == (0.2, gamma, kappa)
        got = LearnerConfig(alg="indd", eps=0.2, gamma=0.01).resolved(0.4, 3)
        assert (got.eps, got.gamma, got.kappa) == (0.2, 0.01, kappa)

    @pytest.mark.parametrize(
        "cfg, theta, delta, message",
        [
            (LearnerConfig(alg="thr"), None, 3, "learner 'thr' needs tau or theta"),
            (LearnerConfig(alg="thr", tau_rule="degree"), 0.1, None,
             "learner 'thr' with tau_rule 'degree' needs delta"),
            (LearnerConfig(alg="ind", eps=0.1, gamma=0.1), 0.4, None,
             "learner 'ind' needs delta"),
            (LearnerConfig(alg="indd", gamma=0.1), None, 3,
             "learner 'indd' needs eps/kappa or theta"),
        ],
        ids=["thr-theta", "thr-degree-delta", "ind-delta", "indd-theta"],
    )
    def test_missing_input(self, cfg, theta, delta, message):
        with pytest.raises(ValueError) as exc:
            cfg.resolved(theta, delta)
        assert str(exc.value) == message


class TestPopulationRlrGp:
    def test_strong_coupling_never_recovers(self):
        for lam in np.linspace(0.01, 0.7, 8):
            t13, t12 = population_rlr_gp(0.65, 5, float(lam))
            assert t12 > 1e-8

    def test_weak_coupling_has_recovery_window(self):
        found = False
        for lam in np.linspace(0.3, 0.65, 10):
            t13, t12 = population_rlr_gp(0.55, 5, float(lam))
            if t12 <= 1e-10 and t13 > 1e-8:
                found = True
                break
        assert found

    def test_huge_penalty_zeroes_both(self):
        t13, t12 = population_rlr_gp(0.6, 5, lam=2.0)
        assert t13 == 0.0 and t12 == 0.0

    def test_stationarity_of_solution(self):
        # KKT: each coordinate's smooth partial sits in the subdifferential
        theta, p, lam = 0.55, 5, 0.4
        t13, t12 = population_rlr_gp(theta, p, lam)
        x1, x2, m, prob = naive_gp_tables(theta, p)
        h = t12 * x2 + t13 * m
        g13 = float(np.sum(prob * m * np.tanh(h))) - float(np.sum(prob * x1 * m))
        g12 = float(np.sum(prob * x2 * np.tanh(h))) - float(np.sum(prob * x1 * x2))
        w13 = lam * (p - 2)
        if t13 > 0:
            assert abs(g13 + w13) < 1e-8
        else:
            assert abs(g13) <= w13 + 1e-8
        if t12 > 0:
            assert abs(g12 + lam) < 1e-8
        else:
            assert abs(g12) <= lam + 1e-8

    def test_matches_sampled_rlr_direction(self):
        # the population solution at weak coupling keeps the spoke
        # coefficient dominant; a finite-sample run agrees qualitatively
        t13, t12 = population_rlr_gp(0.3, 5, lam=0.05)
        assert t13 > 0 and t12 < t13

    @staticmethod
    def _solve_and_capture(theta, p, lam):
        """population_rlr_gp's output and the full coefficient column of the
        batched solve behind it."""
        solve = learners._rlr_all_roots
        columns = []

        def spy(*args, **kwargs):
            out = solve(*args, **kwargs)
            columns.append(out[0][:, 0].copy())
            return out

        with mock.patch.object(learners, "_rlr_all_roots", spy):
            got = population_rlr_gp(theta, p, lam)
        (col,) = columns
        return got, col

    @pytest.mark.parametrize("p", [5, 6, 7])
    def test_matches_reference_solver(self, p):
        worst = 0.0
        for theta in (0.05, 0.3, 0.6, 0.8, 1.0):
            for lam in (0.005, 0.02, 0.1, 0.3, 0.7, 2.0):
                (t13, t12), col = self._solve_and_capture(theta, p, lam)
                want = reference_population_rlr_gp(theta, p, lam)
                assert (t13, t12) == (col[2], col[1])
                assert col[0] == 0.0
                assert np.abs(col[2:] - t13).max() <= 1e-12, (theta, lam)
                assert (t13 == 0.0, t12 == 0.0) == (want[0] == 0.0, want[1] == 0.0)
                worst = max(worst, abs(t13 - want[0]), abs(t12 - want[1]))
        assert worst < 1e-7

    def test_matches_reference_solver_on_criterion_6_points(self):
        points = [(0.65, float(lam)) for lam in np.linspace(0.01, 0.75, 30)]
        points += [(0.65, float(lam)) for lam in np.linspace(0.01, 0.7, 8)]
        points += [(0.55, float(lam)) for lam in np.linspace(0.3, 0.65, 10)]
        points += [(0.6, 2.0), (0.55, 0.4), (0.3, 0.05)]
        for theta, lam in points:
            t13, t12 = population_rlr_gp(theta, 5, lam)
            want = reference_population_rlr_gp(theta, 5, lam)
            assert abs(t13 - want[0]) < 1e-8 and abs(t12 - want[1]) < 1e-8, (theta, lam)
            assert (t13 == 0.0, t12 == 0.0) == (want[0] == 0.0, want[1] == 0.0)

    def test_refuses_large_p_before_enumerating(self):
        with mock.patch.object(learners, "exact_moments") as enumerate_states:
            with pytest.raises(ValueError, match="p must be <= 18"):
                population_rlr_gp(0.3, 19, 0.1)
        enumerate_states.assert_not_called()

    def test_unconverged_solve_raises(self):
        with mock.patch.object(learners, "_POPULATION_MAX_ITER", 2):
            with pytest.raises(RuntimeError, match="did not converge in 2 iterations"):
                population_rlr_gp(0.65, 5, 0.1)

    def test_refuses_more_than_18_vertices(self):
        # the cap is population_rlr_gp's alone, checked before any row of
        # the half design is built
        with mock.patch.object(ExactDistribution, "half_states") as build_rows:
            with pytest.raises(ValueError, match="^p must be <= 18$"):
                population_rlr_gp(0.3, 19, 0.1)
        build_rows.assert_not_called()


class TestPrimalDualWitness:
    # (graph, theta, root, incoherence norm rounded); the norm must lie at
    # least 0.05 from 1 so that the small-penalty limit is settled
    WITNESS_CASES = [
        pytest.param(make_random_regular(10, 3, 1), 0.3, 1, 0.752, id="3reg10-0.3-r1"),
        pytest.param(make_random_regular(10, 3, 1), 0.65, 1, 1.065, id="3reg10-0.65-r1"),
        pytest.param(make_random_regular(10, 3, 1), 0.8, 1, 1.086, id="3reg10-0.8-r1"),
        pytest.param(make_regular_plus_edge(10, 3, 2), 0.45, 1, 0.867, id="3reg+e10-0.45-r1"),
        pytest.param(make_regular_plus_edge(10, 3, 2), 0.8, 1, 1.058, id="3reg+e10-0.8-r1"),
        pytest.param(make_regular_plus_edge(10, 3, 2), 0.8, 10, 0.0, id="3reg+e10-0.8-r10"),
        pytest.param(make_toy_gp(6), 0.45, 1, 1.190, id="gp6-0.45-r1"),
        pytest.param(make_toy_gp(6), 0.45, 6, 0.716, id="gp6-0.45-r6"),
        pytest.param(make_toy_gp(5), 0.65, 1, 1.149, id="gp5-0.65-r1"),
        pytest.param(make_toy_gp(5), 0.65, 5, 0.862, id="gp5-0.65-r5"),
        pytest.param(make_random_regular(12, 4, 3), 0.3, 1, 0.824, id="4reg12-0.3-r1"),
        pytest.param(make_random_regular(14, 4, 2), 0.55, 1, 1.060, id="4reg14-0.55-r1"),
        # criterion 10's family either side of theta_thr(4) = 0.4203; graph
        # seed 5 was the one seed tried
        pytest.param(make_random_regular(18, 4, 5), 0.3, 1, 0.703, id="4reg18-0.3-r1"),
        pytest.param(make_random_regular(18, 4, 5), 0.55, 1, 1.062, id="4reg18-0.55-r1"),
    ]

    @pytest.mark.parametrize("g, theta, r, norm", WITNESS_CASES)
    def test_population_support_follows_incoherence(self, g, theta, r, norm):
        # primal-dual witness: at small penalties the population solution
        # has the true support iff ||Q_ScS Q_SS^-1 1||_inf < 1
        dist = exact_moments(g, theta)
        report = incoherence(population_hessian(dist, r), g.neighbors(r))
        assert report.norm == pytest.approx(norm, abs=5e-4)
        assert abs(report.norm - 1.0) >= 0.05
        X, W = dist.half_states()
        warm = None
        for lam in (1e-2, 3e-3, 1e-3, 3e-4):
            warm, _, res, _ = _rlr_all_roots(X, W, lam, 1e-9, 20_000, warm, roots=[r - 1])
            assert res[r - 1] < 1e-9
            support = {int(v) + 1 for v in np.flatnonzero(warm[:, r - 1])}
            assert (support == set(g.neighbors(r))) == (report.norm < 1.0), lam


@settings(max_examples=30, deadline=None)
@given(st.floats(0.05, 2.0), st.integers(2, 8))
def test_tau_tree_between_edge_and_non_edge_levels(theta, depth):
    t = math.tanh(theta)
    tau = tau_tree(theta)
    assert t**2 < tau < t
