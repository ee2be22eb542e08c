"""The three structure-learning algorithms and their sample-size calculators.

All learners reconstruct the edge set of the generating graph from spin
samples: correlation thresholding, a local conditional-independence test
(with an optional correlation-pruned candidate pool), and l1-regularized
logistic regression solved per vertex.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .graphs import Graph, make_toy_gp
from .ising import ExactDistribution, SampleSet, empirical_correlations, exact_moments


def thresholding(corr: np.ndarray, tau: float) -> Graph:
    """Edge (i, j) iff corr[i-1, j-1] >= tau, for i < j."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {tau}")
    p = corr.shape[0]
    edges = [
        (i + 1, j + 1) for i in range(p) for j in range(i + 1, p) if corr[i, j] >= tau
    ]
    return Graph(p, frozenset(edges))


def tau_tree(theta: float) -> float:
    """Threshold separating tree edge correlations from non-edge ones."""
    if not 0 < theta < math.inf:
        raise ValueError(f"theta must be > 0 and finite, got {theta}")
    t = math.tanh(theta)
    return 0.5 * (t + t * t)


def tau_degree(theta: float, delta: int) -> float:
    """Threshold for degree-bounded graphs; valid for tanh(theta) < 1/(2 delta)."""
    if not 0 < theta < math.inf:
        raise ValueError(f"theta must be > 0 and finite, got {theta}")
    if delta < 2:
        raise ValueError("delta must be >= 2")
    if math.tanh(theta) >= 1.0 / (2 * delta):
        raise ValueError(
            f"out of regime: theta={theta} >= atanh(1/(2*{delta}))"
            f"={math.atanh(1.0 / (2 * delta)):.5f}"
        )
    return 0.5 * (math.tanh(theta) + 1.0 / (2 * delta))


def default_ind_params(theta: float, delta: int) -> tuple[float, float, float]:
    """(eps, gamma, kappa) defaults for the independence-test learners."""
    if not 0 < theta < math.inf:
        raise ValueError(f"theta must be > 0 and finite, got {theta}")
    eps = 0.25 * math.sinh(2.0 * theta)
    gamma = math.exp(-4.0 * delta * theta) * 2.0 ** (-2 * delta)
    kappa = math.tanh(theta)
    return eps, gamma, kappa


def sample_bound(
    alg: str,
    theta: float,
    delta: int = 0,
    p: int = 0,
    dlt: float = 0.05,
    k2: float = 1.0,
) -> int:
    """Number of samples sufficient for exact recovery with probability
    1 - dlt, per learner. `k2` scales the rlr bound, whose absolute
    constant is not pinned down; the default 1 is a placeholder.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    if not 0 < dlt < 1:
        raise ValueError("dlt must lie in (0, 1)")
    if not 0 < theta < math.inf:
        raise ValueError(f"theta must be > 0 and finite, got {theta}")
    if alg == "thr-tree":
        t = math.tanh(theta)
        return math.ceil(32.0 / (t - t * t) ** 2 * math.log(2 * p / dlt))
    if alg == "thr-degree":
        tau_degree(theta, delta)  # rejects delta < 2 and theta out of regime
        t = math.tanh(theta)
        return math.ceil(32.0 / (t - 1.0 / (2 * delta)) ** 2 * math.log(2 * p / dlt))
    if alg in ("ind", "indd", "rlr") and delta < 1:
        raise ValueError("delta must be >= 1")
    if alg == "ind":
        eps, gamma, _ = default_ind_params(theta, delta)
        return math.ceil(100.0 * delta / (eps**2 * gamma**4) * math.log(2 * p / dlt))
    if alg == "indd":
        kappa = math.tanh(theta)
        return math.ceil(8.0 * (kappa**2 + 8.0**delta) * math.log(4 * p / dlt))
    if alg == "rlr":
        return math.ceil(k2 * theta**-2 * delta * math.log(8 * p**2 / dlt))
    raise ValueError(f"unknown algorithm tag {alg!r}")


# ---------------------------------------------------------------------------
# conditional-independence score


_CHUNK_CODES = 1 << 18  # sample codes, and table cells, per table batch


def _row_blocks(rows: np.ndarray, width: int):
    """Consecutive slices of the (B, m) rows, each holding at most
    _CHUNK_CODES codes (`width` per row) and table cells, or one row."""
    per = max(1, _CHUNK_CODES // max(width, 1 << rows.shape[1]))
    return (rows[lo:lo + per] for lo in range(0, len(rows), per))


def _sample_tables(s: SampleSet):
    """tables(rows): for a (B, m) array of 1-based vertex tuples, yield the
    empirical pmfs of consecutive row slices as (b, 2^m) blocks. Cell bit
    m-1-k is the spin of rows[:, k], 1 = spin -1; cells are counts / n.
    A block is stored cell-major (its transpose is contiguous), the layout
    _row_minima reads fastest.

    Up to _DENSE_MAX_P vertices the counts come from the transformed
    histogram of _dense_tables, above it from _bincount_tables; both
    count in exact integers, so the tables are the same."""
    return _dense_tables(s) if s.p <= _DENSE_MAX_P else _bincount_tables(s)


def _bincount_tables(s: SampleSet):
    """_sample_tables by one bincount of the samples per chunk of rows,
    which costs n per row and nothing up front."""
    down = np.ascontiguousarray(s.spins.T < 0, dtype=np.uint8)  # (p, n)
    n = s.n

    def tables(rows):
        m = rows.shape[1]
        for blk in _row_blocks(rows - 1, n):
            b = len(blk)
            # code = (row in block) * 2^m + cell, in the narrowest dtype
            code = np.empty((b, n), dtype=np.min_scalar_type(b << m))
            code[:] = np.arange(b, dtype=code.dtype)[:, None]
            for k in range(m):
                code <<= 1
                code |= down[blk[:, k]]
            counts = np.bincount(code.ravel(), minlength=b << m).reshape(b, 1 << m)
            yield (np.ascontiguousarray(counts.T) / n).T

    return tables


# The dense transform holds 2^p int64 cells (twice that while it runs) and
# costs about p 2^p additions once per sample set. Measured on a 2-core
# x86-64 box at n = 3000, histogram included, against the independence
# test's screening of the C(p-1, 3) candidate sets of all p roots at
# delta = 3 by bincount: p = 15, 0.25 MB, 0.6 ms against 0.07 s; p = 20,
# 8 MB, 0.04 s against 0.20 s; p = 21, 16 MB, 0.12 s against 0.32 s;
# p = 22, 32 MB, 0.25 s against 0.28 s. Past 20 the array leaves the cache,
# the transform triples per vertex, and the gain is gone by p = 22.
_DENSE_MAX_P = 20


def _wht(x: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of an integer array over its
    last axis (length 2^k): out[S] = sum_c x[c] (-1)^|c & S|. Applied twice
    it multiplies by 2^k. x is used as scratch.

    Each of the k passes combines entries 2i and 2i+1 into entries i and
    2^(k-1) + i, which moves the lowest index bit to the top; after k
    passes every bit has been combined once and the order is restored.
    Every pass runs over whole rows, not over short pairs."""
    y = np.empty_like(x)
    half = x.shape[-1] // 2
    for _ in range(x.shape[-1].bit_length() - 1):
        even, odd = x[..., 0::2], x[..., 1::2]
        np.add(even, odd, out=y[..., :half])
        np.subtract(even, odd, out=y[..., half:])
        x, y = y, x
    return x


def _dense_tables(s: SampleSet):
    """_sample_tables from one histogram of the samples over all 2^p
    states, Walsh-Hadamard transformed once.

    Vertex v is bit v-1 of a state, 1 = spin -1. After the transform,
    f[S] = n - 2 #{samples with an odd number of -1 spins in S}, n times the
    moment of the spins in S. A row's table is the inverse transform of
    the 2^m entries f[S] for S within the row, divided by 2^m; every step
    is exact integer arithmetic."""
    n, p = s.n, s.p
    f = _wht(np.bincount((s.spins < 0) @ (1 << np.arange(p)), minlength=1 << p))
    f = f.astype(np.min_scalar_type(-1 - n))  # |f| <= n

    def tables(rows):
        m = rows.shape[1]
        for blk in _row_blocks(1 << (rows - 1), 1):
            # masks[c]: the vertex set of the cell bits of c, cell bit
            # m-1-k standing for rows[:, k]; xor, as a repeated vertex's
            # spin squares to 1
            masks = np.zeros((1 << m, len(blk)), dtype=blk.dtype)
            for j in range(m):
                np.bitwise_xor(masks[:1 << j], blk[:, m - 1 - j], out=masks[1 << j:2 << j])
            # each pass of the transform at most doubles |x|, to 2^m n
            x = _wht(f[masks].T.astype(np.min_scalar_type(-1 - (n << m))))
            yield np.right_shift(x, m, out=x) / n

    return tables


def _population_tables(dist: ExactDistribution):
    """tables(rows) as _sample_tables, with exact marginals."""

    def tables(rows):
        for blk in _row_blocks(rows, 1):
            yield np.stack([dist.marginal(row).ravel() for row in blk])

    return tables


def _combinations(n: int, k: int) -> np.ndarray:
    """The k-subsets of range(n) as a (C(n, k), k) index table, in
    itertools.combinations order."""
    count = math.comb(n, k)
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), k))
    return np.fromiter(flat, dtype=np.intp, count=count * k).reshape(count, k)


def _probe_rows(heads: np.ndarray, rest: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Rows head + rest[w] for each candidate's head row (r, U) and its
    vertices `rest` outside r and U, and each row w of the index table W
    over them: candidate-major, then W's order."""
    c, h = heads.shape
    rows = np.empty((c, len(W), h + W.shape[1]), dtype=np.intp)
    rows[:, :, :h] = heads[:, None, :]
    rows[:, :, h:] = rest[:, W]
    return rows.reshape(-1, rows.shape[2])


def _row_minima(tables, rows: np.ndarray, s: int, gamma: float):
    """For rows (r, U, W) with |U| = s, yield per table block the smallest
    over j in U of the largest admissible conditional shift of the root.

    For each j in U: condition the root on the values of U and W, flip the
    value at j, and take the largest absolute change in the conditional
    law of the root over assignment pairs whose conditioning events both
    have probability > gamma/2. A j with no admissible pair contributes 0.
    """
    for t in tables(rows):
        t = t.T  # (2^m, b): each cell's values over the block's rows
        half, b = len(t) // 2, t.shape[1]
        pa = t[:half] + t[half:]
        cond = np.divide(t[:half], pa, out=np.zeros_like(pa), where=pa > 0)
        big = pa > gamma / 2.0
        out = np.full(b, np.inf)
        for i in range(s):
            # axis 1 is the bit of U's i-th member: each cell against its
            # twin, every pair once
            c, g = cond.reshape(1 << i, 2, -1, b), big.reshape(1 << i, 2, -1, b)
            shift = np.abs(c[:, 0] - c[:, 1])
            np.minimum(out, shift.max(axis=(0, 1), initial=0.0, where=g[:, 0] & g[:, 1]), out=out)
        yield out


def _score(tables, p: int, r: int, U, delta: int, gamma: float) -> float:
    """min over (W, j) of the conditional shift, over every probe set W of
    at most delta vertices outside r and U and every j in U."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    U = sorted(U)
    if not U:
        raise ValueError("candidate set U must be non-empty")
    if len(U) > delta:
        raise ValueError("candidate set U larger than the degree bound")
    if not all(1 <= v <= p for v in (r, *U)):
        raise ValueError(f"root or candidates outside 1..{p}")
    if len({r, *U}) <= len(U):
        raise ValueError("candidates repeat or contain the root")
    heads = np.array([[r, *U]], dtype=np.intp)
    rest = np.array([[v for v in range(1, p + 1) if v != r and v not in U]], dtype=np.intp)
    return float(min(
        m.min()
        for k in range(delta + 1)
        for m in _row_minima(
            tables, _probe_rows(heads, rest, _combinations(rest.shape[1], k)), len(U), gamma
        )
    ))


def score(s: SampleSet, r: int, U, delta: int, gamma: float) -> float:
    """Empirical conditional-shift score of candidate neighborhood U at root r.

    One candidate reads a few rows, too few to pay for the dense transform,
    so its tables come from bincount at every p."""
    return _score(_bincount_tables(s), s.p, r, U, delta, gamma)


def population_score(dist: ExactDistribution, r: int, U, delta: int, gamma: float) -> float:
    """Score evaluated with exact conditionals instead of empirical ones."""
    return _score(_population_tables(dist), dist.graph.p, r, U, delta, gamma)


def _edges_from_neighborhoods(p: int, hoods: dict, rule: str) -> Graph:
    if rule not in ("or", "and"):
        raise ValueError(f"unknown edge rule {rule!r}")
    edges = {
        (min(r, j), max(r, j))
        for r, nb in hoods.items()
        for j in nb
        if rule == "or" or r in hoods.get(j, ())
    }
    return Graph(p, frozenset(edges))


def _neighborhoods(tables, pools: dict, delta: int, floor: float, gamma: float) -> dict:
    """Per root r, the first candidate set U from pools[r] (a sorted vertex
    array), largest size first and lexicographic within a size, whose
    every conditional shift over probe sets from the same pool exceeds
    `floor`; empty if there is none.

    The search runs by candidate size over every root still without a
    neighborhood, the roots whose pools are equally long together: one
    table pass screens all their candidate sets of that size at the empty
    probe set, and the survivors of all of them then go through the probe
    sets one size at a time, each dropping out at the first size where a
    shift is at or below `floor`. A root takes its first survivor left.
    Each batch holds consecutive candidates whose rows span at most
    _CHUNK_CODES table cells, or one candidate."""
    combinations = functools.cache(_combinations)
    hoods = {}
    for size in range(delta, 0, -1):
        lengths = {len(pool) for r, pool in pools.items() if r not in hoods}
        for n in sorted(n for n in lengths if n >= size):
            roots = np.array([r for r, pool in pools.items() if r not in hoods and len(pool) == n])
            P = np.stack([pools[r] for r in roots])
            U = combinations(n, size)
            # the complements of the size-subsets, in lexicographic order,
            # are the (n - size)-subsets in reverse lexicographic order
            rest = combinations(n, n - size)[::-1]
            # candidate c is U[ids[c]] from the pool of roots[owner[c]]
            owner, ids = np.divmod(np.arange(len(roots) * len(U)), len(U))
            for k in range(delta + 1):
                W = combinations(n - size, k)
                if not len(W):
                    break
                ok = np.empty(len(ids), dtype=bool)
                step = max(1, (_CHUNK_CODES >> (1 + size + k)) // len(W))
                for lo in range(0, len(ids), step):
                    o, i = owner[lo:lo + step, None], ids[lo:lo + step]
                    rows = _probe_rows(np.column_stack([roots[o], P[o, U[i]]]), P[o, rest[i]], W)
                    minima = np.concatenate(list(_row_minima(tables, rows, size, gamma)))
                    ok[lo:lo + step] = (minima > floor).reshape(len(i), len(W)).all(axis=1)
                owner, ids = owner[ok], ids[ok]
            found, first = np.unique(owner, return_index=True)
            for at, c in zip(found, first):
                hoods[int(roots[at])] = set(P[at, U[ids[c]]].tolist())
    return {r: hoods.get(r, set()) for r in pools}


def _independence_test(tables, p, delta, eps, gamma, rule, pool_of):
    """Per root r, the largest candidate set U from pool_of(r) (ties:
    lexicographically smallest) whose every conditional shift over probe
    sets from the same pool exceeds eps/2; neighborhoods are combined into
    edges by `rule`."""
    if delta < 1:
        raise ValueError("delta must be >= 1")
    if not math.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps}")
    if eps <= 0 or not 0.0 < gamma < 1.0:
        raise ValueError("thresholds must be positive, with gamma below 1")
    pools = {
        r: np.array(sorted(v for v in pool_of(r) if v != r), dtype=np.intp)
        for r in range(1, p + 1)
    }
    return _edges_from_neighborhoods(p, _neighborhoods(tables, pools, delta, eps / 2.0, gamma), rule)


def local_independence_test(
    s: SampleSet, delta: int, eps: float, gamma: float, rule: str = "or"
) -> Graph:
    """Per root, exhaustively search candidate sets of size <= delta and keep
    the largest whose score clears eps/2; combine neighborhoods into edges."""
    everyone = range(1, s.p + 1)
    return _independence_test(
        _sample_tables(s), s.p, delta, eps, gamma, rule, lambda r: everyone
    )


def local_independence_test_pruned(
    s: SampleSet, delta: int, eps: float, gamma: float, kappa: float, rule: str = "or"
) -> Graph:
    """Independence test with candidates and probe sets restricted to the
    correlation ball B(r) = {i : corr(r, i) > kappa/2}."""
    if not math.isfinite(kappa):
        raise ValueError(f"kappa must be finite, got {kappa}")
    corr = empirical_correlations(s)

    def ball(r):
        return [v for v in range(1, s.p + 1) if corr[r - 1, v - 1] > kappa / 2.0]

    return _independence_test(_sample_tables(s), s.p, delta, eps, gamma, rule, ball)


def population_independence_test(
    dist: ExactDistribution, delta: int, eps: float, gamma: float, rule: str = "or"
) -> Graph:
    """Population-limit run of the independence test on exact conditionals."""
    p = dist.graph.p
    everyone = range(1, p + 1)
    return _independence_test(
        _population_tables(dist), p, delta, eps, gamma, rule, lambda r: everyone
    )


# ---------------------------------------------------------------------------
# l1-regularized logistic regression


def _pin_self(mat: np.ndarray, cols: np.ndarray) -> None:
    mat[cols, np.arange(len(cols))] = 0.0  # self-coefficients stay 0


def _pl_kernel(X, Xc, wgt, th, cols, work):
    """Weighted pseudo-likelihood values and gradients of the roots in
    `cols` (0-based), one column per root: column k of `th` holds root
    cols[k]'s coefficients against all p vertices, and the gradient's
    self-entry is pinned to zero. `Xc` is X[:, cols] in C order (X itself
    when cols is every vertex in order), `wgt` the (m, 1) row weights, and
    `work` two rows of at least m*k floats that hold the (m, k)
    intermediates, allocated once per solve.

    With h = X th and z = -2 x_r h, each row adds its weight times
    log(1 + e^z) = max(z, 0) + log1p(exp(-2|h|)), since |z| = 2|h|.
    """
    m, k = X.shape[0], th.shape[1]
    H, B = (w[: m * k].reshape(m, k) for w in work)
    np.matmul(X, th, out=H)
    np.tanh(H, out=B)
    B -= Xc
    B *= wgt
    G = X.T @ B
    _pin_self(G, cols)
    np.multiply(Xc, H, out=B)
    np.minimum(B, 0.0, out=B)
    B *= -2.0  # max(z, 0)
    np.abs(H, out=H)
    H *= -2.0
    np.exp(H, out=H)
    np.log1p(H, out=H)
    H += B
    return (wgt.T @ H)[0], G


def pseudo_likelihood_objective(
    theta_r: np.ndarray, s: SampleSet, r: int
) -> tuple[float, np.ndarray]:
    """Negative mean conditional log-likelihood of the root and its gradient.

    value = mean log(1 + exp(-2 x_r h)) with h = sum_j theta_rj x_j,
    grad_j = mean x_j (tanh h - x_r); coefficients and gradient follow the
    other vertices in ascending order. Evaluated as max(z, 0) +
    log1p(exp(-|z|)) with z = -2 x_r h, so large fields cannot overflow.
    """
    if not 1 <= r <= s.p:
        raise ValueError(f"root {r} outside 1..{s.p}")
    theta_r = np.asarray(theta_r, dtype=np.float64)
    if not np.all(np.isfinite(theta_r)):
        raise ValueError("coefficients must be finite")
    if theta_r.shape != (s.p - 1,):
        raise ValueError(f"expected coefficient vector of length {s.p - 1}")
    th = np.insert(theta_r, r - 1, 0.0)[:, None]
    X = s.spins.astype(np.float64)
    wgt = np.full((s.n, 1), 1.0 / s.n)
    work = np.empty((2, s.n))
    vals, G = _pl_kernel(X, X[:, [r - 1]].copy(), wgt, th, [r - 1], work)
    return float(vals[0]), np.delete(G[:, 0], r - 1)


@dataclass(frozen=True)
class NeighborhoodEstimate:
    """Solution of one per-vertex l1 problem plus solver diagnostics."""

    root: int
    labels: tuple  # vertex label for each coefficient
    theta: np.ndarray
    neighbors: frozenset
    converged: bool
    iterations: int
    objective: float
    residual: float


@dataclass(frozen=True)
class RlrGraphResult:
    graph: Graph
    estimates: dict
    all_converged: bool
    theta: np.ndarray  # (p, p) coefficients, column r-1 for root r


# Armijo's sufficient-decrease fraction; the most halvings a line search or
# a proximal step tries before it gives up on a column; and the ridge, as a
# fraction of H's diagonal, that keeps H_AA invertible where columns of the
# working set coincide on every distinct row.
_ARMIJO = 1e-4
_HALVINGS = 30
_RIDGE = 1e-10


def _curvature(XT, wgt, th, out, tmp):
    """The (k, m) Hessian row weights w sech^2(h), h = X th with XT = X^T,
    of the smooth part of each column's objective, written to `out`; `tmp`
    is scratch of the same shape. sech^2 h is taken as 4e / (1 + e)^2 with
    e = exp(-2|h|), which cannot overflow."""
    np.matmul(th.T, XT, out=out)
    np.abs(out, out=out)
    out *= -2.0
    np.exp(out, out=out)
    np.add(out, 1.0, out=tmp)
    np.square(tmp, out=tmp)
    out *= 4.0
    out /= tmp
    out *= wgt.T


def _newton_directions(XT, curv, theta, free, sgn, v, ridge):
    """Orthant-wise Newton directions of the k columns: column c solves
    (H_AA + ridge[c] I) d = -v_A over its working set A = free[:, c], with
    H = X^T diag(curv[c]) X and XT = X^T, and is zero outside A. A
    coefficient at zero whose direction points out of its orthant would only
    be projected back, so it leaves A and the column is solved again. All
    columns are solved in one np.linalg.solve on a stack padded with
    identity rows to the largest working set. `curv` is overwritten."""
    p, k = free.shape
    size = free.sum(axis=0)
    a = int(size.max(initial=0))
    d = np.zeros((p + 1, k))  # row p takes the padding
    if a == 0:
        return d[:p]
    pos = np.full((k, a), p)
    hess = np.zeros((k, a, a))
    np.sqrt(curv, out=curv)
    for c in np.flatnonzero(size):
        A = np.flatnonzero(free[:, c])
        pos[c, : len(A)] = A
        Y = XT[A]
        Y *= curv[c]
        hess[c, : len(A), : len(A)] = Y @ Y.T
    pad = pos == p
    diag = np.arange(a)
    hess[:, diag, diag] += np.where(pad, 1.0, ridge[:, None])
    cell = (np.minimum(pos, p - 1), np.arange(k)[:, None])
    rhs = np.where(pad, 0.0, -v[cell])
    at_zero = ~pad & (theta[cell] == 0.0)
    orth = sgn[cell]
    while True:
        step = np.linalg.solve(hess, rhs[..., None])[..., 0]
        out = at_zero & (step * orth <= 0.0)
        if not out.any():
            break
        # drop the coefficient: its row and column become the identity's
        c, i = np.nonzero(out)
        hess[c, i, :] = 0.0
        hess[c, :, i] = 0.0
        hess[c, i, i] = 1.0
        rhs[c, i] = 0.0
        at_zero[c, i] = False
    d[pos, cell[1]] = step
    return d[:p]


def _rlr_all_roots(
    Xu: np.ndarray,
    wgt: np.ndarray,
    lam: float,
    tol: float,
    max_iter: int,
    theta0: np.ndarray | None,
    roots=None,
):
    """Solve the l1 problem of every root at once, or of the 0-based
    columns in `roots`, over distinct sample rows `Xu` weighted by their
    frequencies `wgt` (an (m, 1) column, as SampleSet.distinct_rows gives).
    Every objective is a weighted sum over rows, so this is exact.

    Column r-1 of the iterate holds root r's coefficients against all p
    vertices, self-coefficient pinned to zero. Each step is orthant-wise
    Newton on every active column (Andrew and Gao, 2007; Byrd et al., 2016):
    the working set is the nonzero coefficients plus every j with
    |g_j| > lam, each held to the orthant of its sign, or at zero of -g_j;
    the direction solves H_AA d = -(g_A + lam s_A), H the Hessian of the
    smooth part; and an Armijo backtrack projected onto the orthant picks
    the step. A column whose Newton step finds no decrease takes a
    backtracking proximal gradient step instead, so accepted iterates
    descend (a step to a residual below tol is accepted as it is). A column
    stops once its subgradient optimality residual drops below tol, or,
    unconverged, once neither step lowers its objective.

    Returns (Theta, objective, residual, iterations) per column, NaN outside
    `roots`; a column's iteration count is the pass at which it left the
    active set, after that many steps less one (max_iter steps for a
    column stopped by the cap), so the largest is the batch count. A lam
    of None is refused: the rlr learner needs one.
    """
    if lam is None:
        raise ValueError("learner 'rlr' needs lambda")
    if not math.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam}")
    if lam < 0:
        raise ValueError("lam must be >= 0")
    m, p = Xu.shape

    def f_and_g(th, cols, at):
        """Penalized objectives and gradients of the columns at positions
        `at` of the active set, whose coefficients are th."""
        xc = Xc if len(at) == Xc.shape[1] else Xc[:, at]
        vals, G = _pl_kernel(Xu, xc, wgt, th, cols[at], work)
        return vals + lam * np.abs(th).sum(axis=0), G

    def residuals(th, G, cols):
        on = th != 0.0
        r_on = np.where(on, np.abs(G + lam * np.sign(th)), 0.0)
        r_off = np.where(~on, np.maximum(np.abs(G) - lam, 0.0), 0.0)
        out = np.maximum(r_on, r_off)
        _pin_self(out, cols)
        return out.max(axis=0)

    def accept(ok, at, th, f, g):
        idx = at[ok]
        theta[:, idx], f_cur[idx], G[:, idx] = th[:, ok], f[ok], g[:, ok]
        return at[~ok]

    def newton():
        """One projected Newton step of every active column; returns the
        positions of the columns that found no decrease, and each
        column's diagonal Hessian entry."""
        k = len(cols)
        curv, tmp = (w[: m * k].reshape(k, m) for w in work)
        _curvature(XT, wgt, theta, curv, tmp)
        diag = curv.sum(axis=1)  # every diagonal entry of a column's H
        on = theta != 0.0
        # a column whose every field is past float range has no curvature
        # to take a Newton step on; it goes to the proximal step
        free = (on | (np.abs(G) > lam)) & (diag > 0.0)
        _pin_self(free, cols)
        sgn = np.where(on, np.sign(theta), -np.sign(G))
        v = np.where(free, G + lam * sgn, 0.0)  # the orthant's smooth gradient
        d = _newton_directions(XT, curv, theta, free, sgn, v, _RIDGE * diag)
        at, alpha = np.arange(k), 1.0
        for _ in range(_HALVINGS):
            th = theta[:, at] + alpha * d[:, at]
            th[th * sgn[:, at] < 0.0] = 0.0  # projection onto the orthant
            f, g = f_and_g(th, cols, at)
            slope = ((th - theta[:, at]) * v[:, at]).sum(axis=0)
            armijo = (f < f_cur[at]) & (f <= f_cur[at] + _ARMIJO * slope)
            # near the optimum the objective's rounding can hide the last
            # step's decrease; a step that reaches tol is taken regardless
            at = accept(armijo | (residuals(th, g, cols[at]) < tol), at, th, f, g)
            if at.size == 0:
                break
            alpha *= 0.5
        return at, diag

    def proximal(at, diag):
        """Backtracking proximal gradient steps of the columns at `at`,
        from step 1/trace(H); returns the positions of those that found no
        decrease. The gradient of the smooth part is Lipschitz with
        constant (p-1) sum(w), as sech^2 <= 1, so the first step is capped
        where its last halving reaches 1/((p-1) sum(w)), a step that
        always descends."""
        floor = wgt.sum() * 0.5 ** (_HALVINGS - 1)
        t = 1.0 / (max(p - 1, 1) * np.maximum(diag, floor))
        for _ in range(_HALVINGS):
            th0, g0 = theta[:, at], G[:, at]
            th = th0 - t * g0
            th = np.sign(th) * np.maximum(np.abs(th) - t * lam, 0.0)
            _pin_self(th, cols[at])
            f, g = f_and_g(th, cols, at)
            diff = th - th0
            smooth = f - lam * np.abs(th).sum(axis=0)
            bound = f_cur[at] - lam * np.abs(th0).sum(axis=0)
            bound += (g0 * diff).sum(axis=0) + (diff * diff).sum(axis=0) / (2.0 * t)
            ok = (smooth <= bound) & (f < f_cur[at])
            at, t = accept(ok, at, th, f, g), 0.5 * t[~ok]
            if at.size == 0:
                break
        return at

    theta_full = np.zeros((p, p)) if theta0 is None else theta0.copy()
    np.fill_diagonal(theta_full, 0.0)
    f_full = np.full(p, np.nan)
    res_full = np.full(p, np.nan)
    iters = np.zeros(p, dtype=np.int64)

    # roots whose residual still exceeds tol; frozen columns are final
    cols = np.arange(p) if roots is None else np.asarray(roots, dtype=np.int64)
    # the root columns, copied only for a subset of roots
    Xc = Xu if roots is None else Xu[:, cols].copy()
    XT = Xu.T.copy()  # rows of it build the Hessians
    work = np.empty((2, Xc.size))
    theta = theta_full[:, cols].copy()
    f_cur, G = f_and_g(theta, cols, np.arange(len(cols)))
    stuck = np.zeros(len(cols), dtype=bool)
    # the pass after the last step freezes the columns still active
    for it in range(1, max_iter + 2):
        res = residuals(theta, G, cols)
        done = (res < tol) | (it > max_iter) | stuck
        if done.any():
            idx = cols[done]
            theta_full[:, idx] = theta[:, done]
            f_full[idx] = f_cur[done]
            res_full[idx] = res[done]
            iters[idx] = min(it, max_iter)
            keep = ~done
            cols = cols[keep]
            if cols.size == 0:
                break
            Xc = Xu[:, cols].copy()
            theta, f_cur, G = theta[:, keep], f_cur[keep], G[:, keep]
        failed, diag = newton()
        stuck = np.zeros(len(cols), dtype=bool)
        if failed.size:
            stuck[proximal(failed, diag[failed])] = True
    return theta_full, f_full, res_full, iters


# the parameters each learner needs; LearnerConfig.resolved derives them when unset
_NEEDED = {"thr": ("tau",), "ind": ("eps", "gamma"), "indd": ("eps", "gamma", "kappa"), "rlr": ()}


@dataclass
class LearnerConfig:
    """Which learner to run and with what parameters.

    Fields left as None are derived from (theta, delta) by `resolved`:
    tau via tau_rule, and eps/gamma/kappa via default_ind_params.
    """

    alg: str = "rlr"  # thr | ind | indd | rlr
    tau: float | None = None
    tau_rule: str = "tree"  # tree | degree
    eps: float | None = None
    gamma: float | None = None
    kappa: float | None = None
    rule: str = "or"
    tol: float = 1e-5
    max_iter: int = 3000

    def __post_init__(self):
        if self.alg not in _NEEDED:
            raise ValueError(f"unknown learner {self.alg!r}")
        if self.tau_rule not in ("tree", "degree"):
            raise ValueError(f"unknown tau_rule {self.tau_rule!r}")
        _edges_from_neighborhoods(1, {}, self.rule)  # refuses an unknown edge rule
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be > 0 and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")

    def resolved(self, theta: float | None, delta: int | None) -> LearnerConfig:
        """This config with the parameters its learner needs filled in.

        Defaults come from (theta, delta) only when a needed value (tau for
        thr; eps and gamma for ind; all three for indd) is None, and then
        every None among eps/gamma/kappa is filled. A missing input raises
        ValueError naming it."""
        if self.alg in ("ind", "indd") and delta is None:
            raise ValueError(f"learner {self.alg!r} needs delta")
        missing = [k for k in _NEEDED[self.alg] if getattr(self, k) is None]
        if not missing:
            return self
        if theta is None:
            raise ValueError(f"learner {self.alg!r} needs {'/'.join(missing)} or theta")
        if self.alg == "thr":
            if self.tau_rule == "degree" and delta is None:
                raise ValueError("learner 'thr' with tau_rule 'degree' needs delta")
            tau = tau_tree(theta) if self.tau_rule == "tree" else tau_degree(theta, delta)
            return replace(self, tau=tau)
        defaults = zip(("eps", "gamma", "kappa"), default_ind_params(theta, delta))
        return replace(self, **{k: d for k, d in defaults if getattr(self, k) is None})


# A coefficient above this selects its vertex as a neighbor.
_SELECTION_THRESHOLD = 1e-6


def _estimate(r, solved, tol):
    """Root r's NeighborhoodEstimate from the outputs of _rlr_all_roots."""
    theta, f_cur, res, iters = solved
    col = theta[:, r - 1]
    labels = tuple(v for v in range(1, theta.shape[0] + 1) if v != r)
    return NeighborhoodEstimate(
        root=r,
        labels=labels,
        theta=np.array([col[v - 1] for v in labels]),
        neighbors=frozenset(v for v in labels if col[v - 1] > _SELECTION_THRESHOLD),
        converged=bool(res[r - 1] < tol),
        iterations=int(iters[r - 1]),
        objective=float(f_cur[r - 1]),
        residual=float(res[r - 1]),
    )


def rlr_neighborhood(
    s: SampleSet,
    r: int,
    lam: float,
    tol: float = LearnerConfig.tol,
    max_iter: int = LearnerConfig.max_iter,
    theta0: np.ndarray | None = None,
) -> NeighborhoodEstimate:
    """Minimize root r's penalized conditional log-likelihood with the
    batched solver restricted to that root, and select neighbors with
    coefficients above _SELECTION_THRESHOLD.

    `theta0` gives starting coefficients against the other vertices in
    ascending order. A non-converged result carries converged=False rather
    than raising.
    """
    if not 1 <= r <= s.p:
        raise ValueError(f"root {r} outside 1..{s.p}")
    warm = np.zeros((s.p, s.p))
    if theta0 is not None:
        warm[np.arange(s.p) != r - 1, r - 1] = theta0
    solved = _rlr_all_roots(*s.distinct_rows, lam, tol, max_iter, warm, [r - 1])
    return _estimate(r, solved, tol)


def rlr_graph(
    s: SampleSet,
    lam: float,
    rule: str = "or",
    tol: float = LearnerConfig.tol,
    max_iter: int = LearnerConfig.max_iter,
    warm: np.ndarray | None = None,
) -> RlrGraphResult:
    """Regularized regression at every vertex, combined by the OR or AND
    rule. `warm` is a (p, p) matrix of starting coefficients (column r-1
    for root r), e.g. the `theta` of the result at a nearby regularization
    level."""
    solved = _rlr_all_roots(*s.distinct_rows, lam, tol, max_iter, warm)
    estimates = {r: _estimate(r, solved, tol) for r in range(1, s.p + 1)}
    hoods = {r: e.neighbors for r, e in estimates.items()}
    g = _edges_from_neighborhoods(s.p, hoods, rule)
    return RlrGraphResult(
        g, estimates, all(e.converged for e in estimates.values()), solved[0]
    )


# ---------------------------------------------------------------------------
# population-limit regression


_POPULATION_MAX_P = 18  # the half design, 2^(p-1) x p floats, is 19 MB at p = 18
# a cap on Newton steps; the slowest known solve (p=14, theta=0.65, lam=1e-4) takes 13
_POPULATION_MAX_ITER = 100
_POPULATION_TOL = 1e-10  # bound on the solve's subgradient optimality residual


def population_rlr_gp(theta: float, p: int, lam: float) -> tuple[float, float]:
    """Population-limit regression at the hub (vertex 1) of the double-hub
    graph make_toy_gp(p), p <= 18.

    The batched l1 solver runs on ExactDistribution.half_states (the
    pseudo-likelihood is even in x), and a solve whose residual is still
    at or above _POPULATION_TOL after _POPULATION_MAX_ITER Newton steps
    raises RuntimeError. By symmetry every spoke coefficient is the same.
    Returns (t13_hat, t12_hat), the hub's coefficients toward spoke 3 and
    toward the opposite hub.
    """
    if p < 5:
        raise ValueError("p must be >= 5")
    if p > _POPULATION_MAX_P:
        raise ValueError(f"p must be <= {_POPULATION_MAX_P}")
    if not 0 < theta < math.inf:
        raise ValueError(f"theta must be > 0 and finite, got {theta}")
    X, W = exact_moments(make_toy_gp(p), theta).half_states()
    coef, _, res, _ = _rlr_all_roots(X, W, lam, _POPULATION_TOL, _POPULATION_MAX_ITER, None, [0])
    if not res[0] < _POPULATION_TOL:
        raise RuntimeError(
            f"population regression did not converge in {_POPULATION_MAX_ITER}"
            f" iterations: residual {res[0]:.3e} >= tol {_POPULATION_TOL:.1e}"
        )
    return float(coef[2, 0]), float(coef[1, 0])
