"""Population-level quantities that predict when each learner breaks down.

Covers the exact Hessian of the per-vertex conditional log-likelihood,
the incoherence norm controlling l1-regularized neighborhood selection,
the infinite-tree limit of that norm on random regular graphs with its
boundary field and crossing point, closed-form correlation calculus for
glued subgraphs and the double-hub family, and a certificate showing
where plain correlation thresholding must fail. Every root found here
goes through one bisection, _bisect.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, make_regular_plus_edge
from .ising import (
    ENUMERATION_MAX_P,
    ExactDistribution,
    exact_moments,
    empirical_correlations,
    gibbs_sample,
)


class SingularHessian(ValueError):
    """The neighborhood block of the Hessian is numerically singular."""


class RootNotFound(RuntimeError):
    """A threshold solver found no sign change in its scan range."""


GRAD_CHECK_TOL = 1e-10
SIGMA_MIN_FLOOR = 1e-12


@dataclass(frozen=True)
class PopulationHessian:
    """Exact Hessian of the conditional log-likelihood at the true couplings.

    q[a, b] = E{X_i X_j / cosh^2(h_r)} for i = vertices[a], j = vertices[b],
    with h_r the field seen by the root. grad_inf_norm records the largest
    component of the stationarity check (must vanish at the truth).
    """

    root: int
    vertices: tuple
    q: np.ndarray
    grad_inf_norm: float


def population_hessian(dist: ExactDistribution, r: int) -> PopulationHessian:
    """Exact (p-1) x (p-1) Hessian block for root r, with a stationarity
    self-check of the gradient at the true couplings."""
    p = dist.graph.p
    if p < 2:
        raise ValueError(f"population Hessian needs p >= 2 vertices, got p={p}")
    if not 1 <= r <= p:
        raise ValueError(f"root {r} out of range")
    s_mat, t_vec = dist.field_moments(dist.field.theta_row(r))

    grad = t_vec - dist.corr[:, r - 1]
    keep = [v for v in range(p) if v != r - 1]
    grad_inf = float(np.max(np.abs(grad[keep])))
    if grad_inf > GRAD_CHECK_TOL:
        raise ValueError(
            f"stationarity check failed at root {r}: |grad|_inf = {grad_inf:.3e}"
        )
    q = s_mat[np.ix_(keep, keep)]
    return PopulationHessian(
        root=r, vertices=tuple(v + 1 for v in keep), q=q, grad_inf_norm=grad_inf
    )


@dataclass(frozen=True)
class IncoherenceReport:
    """Blocks and norms of the Hessian split by the true neighborhood S."""

    root: int
    neighbors: tuple
    q_ss: np.ndarray
    q_scs: np.ndarray
    norm: float  # max_i |row_i(Q_ScS Q_SS^-1) . 1|
    sigma_min: float
    row_sums: np.ndarray
    row_l1: np.ndarray
    sc_vertices: tuple


def incoherence(hess: PopulationHessian, neighbors) -> IncoherenceReport:
    """Incoherence norm ||Q_ScS Q_SS^-1 1||_inf for the given neighborhood.

    The all-ones vector is the ferromagnetic subgradient at the truth."""
    nb = tuple(sorted(neighbors))
    if not nb:
        raise ValueError(f"root {hess.root} has no neighbors")
    vmap = {v: k for k, v in enumerate(hess.vertices)}
    s_idx = [vmap[v] for v in nb]
    sc = [v for v in hess.vertices if v not in nb]
    sc_idx = [vmap[v] for v in sc]
    q_ss = hess.q[np.ix_(s_idx, s_idx)]
    q_scs = hess.q[np.ix_(sc_idx, s_idx)]
    sigma_min = float(np.linalg.eigvalsh(q_ss)[0])
    if sigma_min < SIGMA_MIN_FLOOR:
        raise SingularHessian(
            f"sigma_min(Q_SS) = {sigma_min:.3e} below {SIGMA_MIN_FLOOR}"
        )
    w = np.linalg.solve(q_ss, q_scs.T).T  # rows of Q_ScS Q_SS^-1
    row_sums = w.sum(axis=1)
    row_l1 = np.abs(w).sum(axis=1)
    norm = float(np.max(np.abs(row_sums))) if len(sc) else 0.0
    return IncoherenceReport(
        root=hess.root,
        neighbors=nb,
        q_ss=q_ss,
        q_scs=q_scs,
        norm=norm,
        sigma_min=sigma_min,
        row_sums=row_sums,
        row_l1=row_l1,
        sc_vertices=tuple(sc),
    )


def graph_incoherence(g: Graph, theta, r: int) -> IncoherenceReport:
    """Convenience: exact incoherence report of root r on graph g."""
    dist = exact_moments(g, theta)
    hess = population_hessian(dist, r)
    return incoherence(hess, g.neighbors(r))


# ---------------------------------------------------------------------------
# root finding shared by the threshold solvers

# Largest coupling the threshold scans try before reporting no crossing.
_SCAN_THETA_MAX = 5.0


def _bisect(above, lo: float, hi: float, tol: float) -> float:
    """Midpoint of [lo, hi] after halving it onto the point where the
    predicate `above` turns from false (at lo) to true (at hi).

    Stops once the interval is no wider than tol, or once its midpoint no
    longer splits it, so a tol below the float spacing still returns."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if above(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _scan(f, lo: float, t: float, factor: float) -> tuple[float, float]:
    """Bracket the first sign change of f from negative to positive.

    f must be negative at lo; t grows geometrically by `factor` until
    f(t) > 0, and the last negative point and t are returned. Raises
    RootNotFound when f(lo) >= 0 or t passes _SCAN_THETA_MAX first."""
    if f(lo) >= 0:
        raise RootNotFound(f"no negative value at the scan start {lo}")
    while t <= _SCAN_THETA_MAX:
        if f(t) > 0:
            return lo, t
        lo = t
        t *= factor
    raise RootNotFound(f"no crossing found in ({lo}, {_SCAN_THETA_MAX}]")


# ---------------------------------------------------------------------------
# infinite-tree limit on random regular graphs


def tree_boundary_field(delta: int, theta: float, tol: float = 1e-12) -> float:
    """Unique positive fixed point h* of h = (delta-1) atanh(tanh(theta) tanh(h)),
    the leaf field that makes local expectations on the rooted regular
    tree depth-independent.

    Returns 0.0 in the high-temperature regime (delta-1) tanh(theta) <= 1,
    where only the trivial fixed point exists. Bisection to width tol/2
    plus a fixed-point polish drive the residual below tol; when the polish
    stalls, the bisection midpoint is returned.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if delta < 3:
        raise ValueError("degree must be >= 3")
    if not 0 < theta < math.inf:
        raise ValueError(f"theta must be > 0 and finite, got {theta}")
    t = math.tanh(theta)
    if (delta - 1) * t <= 1.0:
        return 0.0

    def step(h):
        z = min(t * math.tanh(h), 1.0 - 1e-16)
        return (delta - 1) * math.atanh(z)

    # step(h) - h is positive on (0, h*), negative beyond
    hi = 50.0 * max(1.0, theta * delta)
    while step(hi) - hi >= 0:
        hi *= 2.0
    h_bisect = _bisect(lambda h: step(h) - h <= 0, tol, hi, 0.5 * tol)
    h = h_bisect
    for _ in range(200):
        h_next = step(h)
        if abs(h_next - h) < tol * 1e-3:
            h = h_next
            break
        h = h_next
    if abs(step(h) - h) >= tol:
        h = h_bisect
    return h


def _log_binom(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _logcosh(x: float) -> float:
    ax = abs(x)
    return ax + math.log1p(math.exp(-2.0 * ax)) - math.log(2.0)


@dataclass(frozen=True)
class TreeLimitReport:
    """Large-graph limit of the neighborhood Hessian on a regular tree with
    the depth-independent boundary field, and the resulting incoherence."""

    delta: int
    theta: float
    h_star: float
    a: float
    b: float
    c1: float
    c2: float
    alpha: float
    beta: float
    incoherence_limit: float  # limiting value of the incoherence norm
    c_min: float


_FLOAT_RANGE = "tree limit leaves float range at delta={}, theta={}"


def tree_limit_report(delta: int, theta: float) -> TreeLimitReport:
    """Evaluate the limiting Hessian entries (a, b), the conditional leaf
    moments (c1, c2), the one-step transition probabilities (alpha, beta)
    and the limiting incoherence value at the positive boundary field.

    Raises ValueError where the sums leave float range, including where
    c_min is not a positive normal float: the gap a - b or c1 - c2 is then
    lost to rounding or underflow, and the limit would read exactly 1."""
    rep = _tree_limit(delta, theta)
    if not rep.c_min >= sys.float_info.min:
        raise ValueError(_FLOAT_RANGE.format(delta, theta))
    return rep


def _tree_limit(delta: int, theta: float) -> TreeLimitReport:
    """tree_limit_report without its c_min check. The threshold scans need
    only the sign of c1(alpha-1) + c2(1-beta), which survives where c_min
    does not (past the crossing at large degree)."""
    if delta < 4:
        raise ValueError("the limit requires degree >= 4")
    h_star = tree_boundary_field(delta, theta)
    if h_star <= 0.0:
        raise ValueError(
            f"out of regime: no positive boundary field at delta={delta}, theta={theta}"
        )
    log2 = math.log(2.0)

    # Summing the root out of the depth-1 tree leaves each leaf configuration
    # with sum m the weight e^{h* m} 2 cosh(theta m); the Hessian entries
    # weight it further by sech^2(theta m), which turns the cosh into 2/cosh.
    def leaf_terms(marked):
        """(m, log C(n, k)) for each count k of + spins among the n leaves
        left free when the marked leaves hold the given spins."""
        n = delta - len(marked)
        for k in range(n + 1):
            yield 2 * k - n + sum(marked), _log_binom(n, k)

    log_terms_z = np.array(
        [lb + h_star * m + _logcosh(theta * m) + log2 for m, lb in leaf_terms(())]
    )
    shift = log_terms_z.max()
    log_z = shift + math.log(np.exp(log_terms_z - shift).sum())

    def leaf_sum(marked, f=lambda m: 1.0):
        """E{f(M) sech^2(theta M); the marked leaves hold the given spins}."""
        return sum(
            f(m) * math.exp(log2 + lb + h_star * m - _logcosh(theta * m) - log_z)
            for m, lb in leaf_terms(marked)
        )

    # a = E{sech^2(theta M)}, b = E{X_i X_j sech^2(theta M)} over two leaves;
    # c1 and c2 are E{M sech^2(theta M)} with one leaf fixed at +1 and -1
    a = leaf_sum(())
    b = sum(xi * xj * leaf_sum((xi, xj)) for xi in (1, -1) for xj in (1, -1))
    c1 = leaf_sum((1,), lambda m: m)
    c2 = leaf_sum((-1,), lambda m: m)

    alpha = 1.0 / (1.0 + math.exp(-2.0 * (h_star + theta)))
    root_mag = math.tanh(delta * h_star / (delta - 1))
    try:  # exp(2(h* - theta)) overflows, or c1 and c2 both underflow to 0
        beta = 1.0 / (1.0 + math.exp(-2.0 * (theta - h_star)))
        b_limit = root_mag * (c1 + c2) / (c1 - c2)
    except (OverflowError, ZeroDivisionError):
        raise ValueError(_FLOAT_RANGE.format(delta, theta)) from None
    return TreeLimitReport(
        delta=delta,
        theta=theta,
        h_star=h_star,
        a=a,
        b=b,
        c1=c1,
        c2=c2,
        alpha=alpha,
        beta=beta,
        incoherence_limit=b_limit,
        c_min=min(a - b, c1 - c2),
    )


def _incoherence_limit_sign(delta: int, theta: float) -> float:
    """c1(alpha-1) + c2(1-beta): same sign as (limit incoherence - 1)."""
    rep = _tree_limit(delta, theta)
    return rep.c1 * (rep.alpha - 1.0) + rep.c2 * (1.0 - rep.beta)


def theta_thr(delta: int, tol: float = 1e-6) -> float:
    """Coupling at which the limiting incoherence crosses 1 on random
    regular graphs of the given degree, by bisection on its sign proxy
    after a geometric scan up from the field onset.

    Large degree: with theta = theta~/delta the boundary field tends to h
    with h = theta~ tanh(h). Expanding the sign proxy to relative order
    1/delta gives 2h tanh(h) = 1, so theta_thr(delta)*delta -> h/tanh(h) =
    2h^2 ~ 1.1910, approached as 1/delta."""
    if delta < 4:
        raise ValueError("degree must be >= 4")

    def sign(th):
        return _incoherence_limit_sign(delta, th)

    onset = math.atanh(1.0 / (delta - 1))
    lo = onset * (1.0 + 1e-9) + 1e-12
    lo, hi = _scan(sign, lo, max(lo * 1.5, onset + 0.01), 1.5)
    return _bisect(lambda th: sign(th) > 0, lo, hi, tol)


def h_infinity(tol: float = 1e-12) -> tuple[float, float]:
    """Root of h tanh(h) = 1 and its square, the paper's stated
    large-degree constant (~1.439). The crossing does not reach it:
    theta_thr(delta)*delta tends to 2h^2 ~ 1.191 with 2h tanh(h) = 1."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    h = _bisect(lambda h: h * math.tanh(h) >= 1.0, 0.0, 10.0, tol)
    return h, h * h


# ---------------------------------------------------------------------------
# correlation calculus for glued subgraphs


def series_corr(a: float, b: float) -> float:
    """Pair correlation through two chained blocks sharing one vertex."""
    return a * b


def parallel_corr(a: float, b: float) -> float:
    """Pair correlation of two blocks glued at both endpoints."""
    return (a + b) / (1.0 + a * b)


def bridge_corr(c_inner: float, theta: float) -> float:
    """Correlation of the two free corners of a 4-cycle whose other two
    corners are bridged by a block with internal correlation c_inner."""
    t2 = math.tanh(theta) ** 2
    return (2.0 * t2 + 2.0 * c_inner * t2) / (1.0 + t2 * t2 + 2.0 * c_inner * t2)


@dataclass(frozen=True)
class ToyCovariances:
    e12: float
    e13: float | None
    e34: float | None


def _gp_e12(p: int, theta: float) -> float:
    """Hub-hub correlation on the double-hub graph: p-2 two-step channels
    in parallel."""
    z = math.tanh(theta) ** 2
    return math.tanh((p - 2) * math.atanh(z))


def toy_covariances(p: int, theta: float) -> ToyCovariances:
    """Closed-form pair correlations on the double-hub graph: hub-hub,
    hub-spoke, spoke-spoke. The latter two need p >= 5."""
    if p < 3:
        raise ValueError("p must be >= 3")
    e12 = _gp_e12(p, theta)
    if p < 5:
        return ToyCovariances(e12, None, None)
    t = math.tanh(theta)
    e13 = math.tanh(theta + math.atanh(_gp_e12(p - 1, theta) * t))
    e34 = bridge_corr(_gp_e12(p - 2, theta), theta)
    return ToyCovariances(e12, e13, e34)


def gp_neighbor_corr(delta: int, theta: float) -> float:
    """Hub-hub correlation of the double-hub graph with delta spokes."""
    if delta < 1:
        raise ValueError("delta must be >= 1")
    z = math.tanh(theta) ** 2
    up = (1.0 + z) ** delta - (1.0 - z) ** delta
    dn = (1.0 + z) ** delta + (1.0 - z) ** delta
    return up / dn


def theta_T(delta: int) -> float:
    """Coupling at which the indirect hub-hub correlation overtakes the
    direct edge correlation on the double-hub family: the root of
    gp_neighbor_corr(delta-1, theta) = tanh(theta), to within 1e-8."""
    if delta < 3:
        raise ValueError("delta must be >= 3")

    def f(th):
        return gp_neighbor_corr(delta - 1, th) - math.tanh(th)

    lo, hi = _scan(f, 1e-6, 0.01, 1.3)
    return _bisect(lambda th: f(th) > 0, lo, hi, 1e-8)


def toy_gp5_incoherence(theta: float) -> float:
    """Closed-form incoherence norm at a hub of the 5-vertex double-hub
    graph: 3x(1+x^2)/(1+3x^2) with x = tanh(theta)."""
    x = math.tanh(theta)
    return 3.0 * x * (1.0 + x * x) / (1.0 + 3.0 * x * x)


# ---------------------------------------------------------------------------
# failure certificate for thresholding


# Gibbs samples behind a certificate whose graph is too large to enumerate.
_CERTIFICATE_GIBBS_N = 20_000


@dataclass(frozen=True)
class FailureCertificate:
    delta: int
    theta: float
    p: int
    seed: int
    edge_corr: float  # correlation across the planted isolated edge
    max_nonedge_corr: float  # within the regular component
    argmax_pair: tuple
    certificate: float  # max_nonedge_corr - tanh(theta); > 0 means failure
    m_squared: float  # tree-limit magnetization squared, for comparison
    exact: bool


def thresholding_failure_certificate(
    delta: int,
    theta: float,
    p: int,
    seed: int,
) -> FailureCertificate:
    """Compare the planted isolated-edge correlation tanh(theta) against the
    largest non-edge correlation inside a random regular component.

    A positive certificate means no threshold can separate edges from
    non-edges on this graph. Exact enumeration when 2^p fits the budget,
    otherwise a Gibbs estimate from _CERTIFICATE_GIBBS_N samples.
    """
    g = make_regular_plus_edge(p, delta, seed)
    exact = p <= ENUMERATION_MAX_P
    if exact:
        corr = exact_moments(g, theta).corr
    else:
        corr = empirical_correlations(
            gibbs_sample(g, theta, n=_CERTIFICATE_GIBBS_N, seed=seed)
        )
    edge_corr = float(corr[p - 2, p - 1])
    best = -1.0
    best_pair = (0, 0)
    for i in range(1, p - 1):
        for j in range(i + 1, p - 1):
            if g.has_edge(i, j):
                continue
            v = float(corr[i - 1, j - 1])
            if v > best:
                best = v
                best_pair = (i, j)
    h_star = tree_boundary_field(delta, theta)
    m_sq = math.tanh(delta * h_star / (delta - 1)) ** 2 if h_star > 0 else 0.0
    return FailureCertificate(
        delta=delta,
        theta=theta,
        p=p,
        seed=seed,
        edge_corr=edge_corr,
        max_nonedge_corr=best,
        argmax_pair=best_pair,
        certificate=best - math.tanh(theta),
        m_squared=m_sq,
        exact=exact,
    )
