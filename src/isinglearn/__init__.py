"""Structure learning for ferromagnetic Ising models.

Graph-family generators, exact enumeration and Gibbs sampling, three
structure learners (correlation thresholding, local independence testing,
l1-regularized logistic regression), and the population-level analysis
that predicts where each learner stops working.
"""

from .graphs import (
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
from .ising import (
    CouplingField,
    EnumerationTooLarge,
    ExactDistribution,
    MixingEstimate,
    SampleSet,
    empirical_correlations,
    estimate_mixing,
    exact_moments,
    gibbs_sample,
    read_samples,
    saw_correlation_bound,
    write_correlations_csv,
    write_samples,
)
from .learners import (
    LearnerConfig,
    NeighborhoodEstimate,
    RlrGraphResult,
    default_ind_params,
    local_independence_test,
    local_independence_test_pruned,
    population_independence_test,
    population_rlr_gp,
    population_score,
    pseudo_likelihood_objective,
    rlr_graph,
    rlr_neighborhood,
    run_learner,
    sample_bound,
    score,
    tau_degree,
    tau_tree,
    thresholding,
)
from .analysis import (
    FailureCertificate,
    IncoherenceReport,
    PopulationHessian,
    RootNotFound,
    SingularHessian,
    TreeLimitReport,
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

__version__ = "0.1.0"
