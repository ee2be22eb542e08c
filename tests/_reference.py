"""Brute-force reference implementations the fast code is checked against.

Everything here favors obviousness over speed: plain itertools loops over
the full state space, no vectorization, no shared code with the package.
The exceptions are `reference_rlr_neighborhood`, the package's earlier
single-root l1 solver, kept whole as the reference for the batched one;
`reference_glauber_run`, the earlier heat-bath loop that re-sums every
neighbor at each update, kept as the reference for the incremental one;
`reference_field_run`, the earlier per-edge-coupling heat-bath loop that
re-sums every local field, kept as the reference for the per-edge rows;
`reference_joint`, `reference_score` and `reference_independence_test`,
the earlier independence test that scores one candidate set and one probe
set at a time, kept as the reference for the batched one;
`reference_per_root_neighborhoods`, `reference_per_root_score` and
`reference_row_minima`, the earlier driver that searches one root at a
time on the package's tables, with its twin-gathering kernel, kept as the
reference for the driver that batches every root by candidate size;
`reference_read_samples`, the earlier sample-file reader that splits and
converts one line at a time, kept as the reference for the vectorised one;
`reference_rlr_all_roots`, the earlier batched l1 solver (accelerated
proximal gradient), kept as the reference for the orthant-wise Newton
one: its objectives and gradients at the iterates come from the package's
pseudo-likelihood kernel, its gradient at the extrapolated point from a
line of its own; and
`reference_population_rlr_gp`, the earlier population regression on
the double-hub graph by alternating one-dimensional bisections over its
two-parameter symmetric reduction, kept as the reference for the batched
l1 solver run on the exact state probabilities (its tables come from
`naive_marginal`).

It also owns the statistics of the whole-state sampler check
(`whole_state_chi2`, `chi2_sf`, `integrated_autocorr_time`), so that
every heat-bath kernel is judged by the same code.
"""
import itertools
import math
import types

import numpy as np

from isinglearn import learners


def naive_moments(g, couplings):
    """Pair moments E{x_i x_j} by direct summation. couplings is a dict
    {(i, j): theta}, 1-based, i < j. Returns (log_z, corr dict)."""
    p = g.p
    z = 0.0
    sums = {}
    for spins in itertools.product((1, -1), repeat=p):
        h = sum(th * spins[i - 1] * spins[j - 1] for (i, j), th in couplings.items())
        w = math.exp(h)
        z += w
        for i in range(1, p + 1):
            for j in range(i + 1, p + 1):
                sums[(i, j)] = sums.get((i, j), 0.0) + w * spins[i - 1] * spins[j - 1]
    corr = {k: v / z for k, v in sums.items()}
    return math.log(z), corr


def naive_marginal(g, couplings, vertices):
    """Joint pmf table over `vertices` as a dict from spin tuples, each
    entry and the partition function summed exactly (math.fsum)."""
    p = g.p
    weights = []
    table = {}
    for spins in itertools.product((1, -1), repeat=p):
        h = sum(th * spins[i - 1] * spins[j - 1] for (i, j), th in couplings.items())
        w = math.exp(h)
        weights.append(w)
        table.setdefault(tuple(spins[v - 1] for v in vertices), []).append(w)
    z = math.fsum(weights)
    return {k: math.fsum(v) / z for k, v in table.items()}


def _fsum_columns(terms):
    """math.fsum down each column of a (count, ...) array."""
    flat = np.reshape(terms, (len(terms), -1))
    return np.array([math.fsum(col) for col in flat.T.tolist()]).reshape(np.shape(terms)[1:])


def naive_expectation(g, couplings, f):
    """E{f(x)} by direct summation, for f mapping a spin tuple to a number
    or an array; every component summed exactly (math.fsum)."""
    weights, terms = [], []
    for spins in itertools.product((1, -1), repeat=g.p):
        h = sum(th * spins[i - 1] * spins[j - 1] for (i, j), th in couplings.items())
        w = math.exp(h)
        weights.append(w)
        terms.append(w * np.asarray(f(spins), dtype=np.float64))
    return _fsum_columns(terms) / math.fsum(weights)


def naive_hessian(g, couplings, r):
    """E{x_i x_j / cosh^2(h_r)} with h_r = sum_j theta_rj x_j, the local
    field at root r, by direct summation, each entry summed exactly
    (math.fsum). Returns a dict over ordered pairs (i, j) of vertices other
    than r, diagonal included."""
    p = g.p
    weights = []
    terms = {}
    others = [v for v in range(1, p + 1) if v != r]
    for spins in itertools.product((1, -1), repeat=p):
        h = sum(th * spins[i - 1] * spins[j - 1] for (i, j), th in couplings.items())
        w = math.exp(h)
        weights.append(w)
        field = 0.0
        for (i, j), th in couplings.items():
            if i == r:
                field += th * spins[j - 1]
            elif j == r:
                field += th * spins[i - 1]
        ws = w / math.cosh(field) ** 2
        for i in others:
            for j in others:
                terms.setdefault((i, j), []).append(ws * spins[i - 1] * spins[j - 1])
    z = math.fsum(weights)
    return {k: math.fsum(v) / z for k, v in terms.items()}


def naive_field_moments(p, couplings, row):
    """(E{X X^T sech^2(h)}, E{X tanh(h)}) for the field h = X . row, over
    the table of all 2^p states at once (no split and no half), every
    entry and the normalizer summed exactly (math.fsum)."""
    X = np.array(list(itertools.product((1.0, -1.0), repeat=p)))
    energy = np.zeros(len(X))
    for (i, j), th in couplings.items():
        energy += th * X[:, i - 1] * X[:, j - 1]
    w = np.exp(energy - energy.max())
    w /= math.fsum(w.tolist())
    h = X @ np.asarray(row, dtype=np.float64)
    s = X * (w / np.cosh(h) ** 2)[:, None]
    second = np.array([_fsum_columns(X[:, i, None] * s) for i in range(p)])
    return second, _fsum_columns(X * (w * np.tanh(h))[:, None])


def fixed_point_by_scan(delta, theta, h_hi=60.0, steps=200_000):
    """Positive root of (delta-1) atanh(tanh(theta) tanh(h)) = h by dense
    scan plus bisection; 0.0 when no sign change exists."""
    t = math.tanh(theta)

    def f(h):
        return (delta - 1) * math.atanh(t * math.tanh(h)) - h

    lo = None
    prev_h, prev_f = None, None
    for k in range(1, steps + 1):
        h = h_hi * k / steps
        val = f(h)
        if prev_f is not None and prev_f > 0 >= val:
            lo, hi = prev_h, h
            break
        prev_h, prev_f = h, val
    else:
        return 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def naive_pseudo_likelihood(spins, r, theta_r):
    """Negative mean conditional log-likelihood of root r (1-based) and its
    gradient, by a plain loop over sample rows. theta_r follows the other
    vertices in ascending order. Returns (value, gradient list)."""
    rows = [[int(x) for x in row] for row in spins]
    n, p = len(rows), len(rows[0])
    others = [v for v in range(p) if v != r - 1]
    value = 0.0
    grad = [0.0] * len(others)
    for row in rows:
        xr = row[r - 1]
        h = sum(t * row[v] for t, v in zip(theta_r, others))
        z = -2.0 * xr * h
        value += max(z, 0.0) + math.log1p(math.exp(-abs(z)))
        for k, v in enumerate(others):
            grad[k] += row[v] * (math.tanh(h) - xr)
    return value / n, [g / n for g in grad]


def reference_rlr_neighborhood(spins, r, lam, tol=1e-6, max_iter=5000):
    """Root r's l1-penalized conditional log-likelihood minimized by
    accelerated proximal gradient with a fixed 1/L step (L from the Gram
    matrix of the other vertices) and a monotone safeguard. Returns
    (theta against the other vertices in ascending order, penalized
    objective, converged, iterations)."""
    X = np.asarray(spins, dtype=np.float64)
    n, p = X.shape
    Xo = X[:, [v for v in range(p) if v != r - 1]]
    xr = X[:, r - 1]
    lip = float(np.linalg.eigvalsh(Xo.T @ Xo / n)[-1])
    step = 1.0 / max(lip, 1e-12)

    def value_grad(th):
        h = Xo @ th
        val = float(np.mean(np.logaddexp(0.0, -2.0 * xr * h)))
        return val + lam * float(np.abs(th).sum()), Xo.T @ (np.tanh(h) - xr) / n

    def soft(v, t):
        return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)

    def kkt(th, grad):
        on = th != 0.0
        res = np.concatenate(
            [np.abs(grad[on] + lam * np.sign(th[on])),
             np.maximum(np.abs(grad[~on]) - lam, 0.0)]
        )
        return float(res.max()) if res.size else 0.0

    theta = np.zeros(p - 1)
    f_cur, grad = value_grad(theta)
    prev, t_mom, it = theta, 1.0, 0
    for it in range(1, max_iter + 1):
        if kkt(theta, grad) < tol:
            break
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
        y = theta + ((t_mom - 1.0) / t_next) * (theta - prev)
        cand = soft(y - step * value_grad(y)[1], step * lam)
        f_cand, grad_cand = value_grad(cand)
        if f_cand > f_cur:
            cand = soft(theta - step * grad, step * lam)
            f_cand, grad_cand = value_grad(cand)
            t_next = 1.0
        prev, theta, f_cur, grad, t_mom = theta, cand, f_cand, grad_cand, t_next
    return theta, f_cur, kkt(theta, grad) < tol, it


def _pin_self_ref(mat, cols):
    mat[cols, np.arange(len(cols))] = 0.0  # self-coefficients stay 0


def _soft_ref(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def reference_rlr_all_roots(Xu, wgt, lam, tol, max_iter, theta0, roots=None, history=None):
    """The package's earlier batched l1 solver, accelerated proximal
    gradient (FISTA), kept whole. Solves the l1 problem of every root at
    once, or of the 0-based columns in `roots`, over distinct sample rows `Xu` weighted by their
    frequencies `wgt` (an (m, 1) column, as SampleSet.distinct_rows gives).
    Every objective is a weighted sum over rows, so this is exact.

    Column r-1 of the iterate holds root r's coefficients against all p
    vertices, self-coefficient pinned to zero. Each column runs accelerated
    proximal gradient with a 1/L step (L from the Gram matrix of all p
    columns); a momentum step that would raise the column's penalized
    objective is replaced by a plain proximal step from the current iterate
    (momentum reset), so accepted iterates always descend. A column stops
    once its subgradient optimality residual drops below tol.

    Returns (Theta, objective, residual, iterations) per column, NaN outside
    `roots`; a column's iteration count is the one at which it left the
    active set, so the largest is the batch count. A `history` list receives
    the active columns' penalized objectives after every update.
    """
    if not math.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam}")
    if lam < 0:
        raise ValueError("lam must be >= 0")
    p = Xu.shape[1]
    gram = Xu.T @ (wgt * Xu)
    lip = float(np.linalg.eigvalsh(gram)[-1])
    step = 1.0 / max(lip, 1e-12)

    def f_and_g(th, cols):
        vals, G = learners._pl_kernel(Xu, Xc, wgt, th, cols, work)
        return vals + lam * np.abs(th).sum(axis=0), G

    def residuals(th, G, cols):
        on = th != 0.0
        r_on = np.where(on, np.abs(G + lam * np.sign(th)), 0.0)
        r_off = np.where(~on, np.maximum(np.abs(G) - lam, 0.0), 0.0)
        out = np.maximum(r_on, r_off)
        _pin_self_ref(out, cols)
        return out.max(axis=0)

    theta_full = np.zeros((p, p)) if theta0 is None else theta0.copy()
    np.fill_diagonal(theta_full, 0.0)
    f_full = np.full(p, np.nan)
    res_full = np.full(p, np.nan)
    iters = np.zeros(p, dtype=np.int64)

    # roots whose residual still exceeds tol; frozen columns are final
    cols = np.arange(p) if roots is None else np.asarray(roots, dtype=np.int64)
    # the root columns, copied only for a subset of roots
    Xc = Xu if roots is None else Xu[:, cols].copy()
    work = np.empty((2, Xc.size))
    theta = theta_full[:, cols].copy()
    prev = theta.copy()
    t_mom = np.ones(len(cols))
    f_cur, G = f_and_g(theta, cols)
    # the pass after the last update freezes the columns still active
    for it in range(1, max_iter + 2):
        res = residuals(theta, G, cols)
        done = (res < tol) | (it > max_iter)
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
            theta = theta[:, keep]
            prev = prev[:, keep]
            t_mom = t_mom[keep]
            f_cur = f_cur[keep]
            G = G[:, keep]
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
        y = theta + ((t_mom - 1.0) / t_next) * (theta - prev)
        _pin_self_ref(y, cols)
        grad_y = Xu.T @ (wgt * (np.tanh(Xu @ y) - Xc))
        _pin_self_ref(grad_y, cols)
        cand = _soft_ref(y - step * grad_y, step * lam)
        _pin_self_ref(cand, cols)
        f_cand, g_cand = f_and_g(cand, cols)
        bad = f_cand > f_cur
        if bad.any():
            cand2 = _soft_ref(theta - step * G, step * lam)
            _pin_self_ref(cand2, cols)
            f2, g2 = f_and_g(cand2, cols)
            cand[:, bad] = cand2[:, bad]
            f_cand[bad] = f2[bad]
            g_cand[:, bad] = g2[:, bad]
            t_next = np.where(bad, 1.0, t_next)
        prev, theta, f_cur, G, t_mom = theta, cand, f_cand, g_cand, t_next
        if history is not None:
            history.append(f_cur)
    return theta_full, f_full, res_full, iters


def naive_gp_tables(theta, p):
    """Joint pmf of (X_1, X_2, M) on the double-hub graph (vertices 1 and 2
    each joined to every vertex 3..p with coupling theta), M = X_3 + ... +
    X_p, by direct summation. Returns aligned flat arrays (x1, x2, m, prob)
    over the cells of positive probability."""
    couplings = {(h, k): theta for h in (1, 2) for k in range(3, p + 1)}
    pmf = naive_marginal(types.SimpleNamespace(p=p), couplings, range(1, p + 1))
    cells = {}
    for x, pr in pmf.items():
        key = (x[0], x[1], sum(x[2:]))
        cells[key] = cells.get(key, 0.0) + pr
    keys = sorted(cells)
    x1, x2, m = (np.array([k[i] for k in keys], dtype=np.float64) for i in range(3))
    return x1, x2, m, np.array([cells[k] for k in keys])


def reference_population_rlr_gp(theta, p, lam, tol=1e-10):
    """Population-limit regression at the hub of the double-hub graph.

    By symmetry the hub's coefficients toward all spoke vertices coincide,
    so the problem reduces to two variables (t13 toward a spoke, t12 toward
    the opposite hub) with penalty lam*(p-2)*|t13| + lam*|t12|. The
    minimizer is found by alternating exact one-dimensional minimizations
    (bisection on the stationarity condition). Returns (t13_hat, t12_hat).
    """
    x1, x2, m, prob = naive_gp_tables(theta, p)
    e12 = float(np.sum(prob * x1 * x2))
    e1m = float(np.sum(prob * x1 * m))

    def partials(t13, t12):
        h = t12 * x2 + t13 * m
        tanh_h = np.tanh(h)
        g13 = float(np.sum(prob * m * tanh_h)) - e1m
        g12 = float(np.sum(prob * x2 * tanh_h)) - e12
        return g13, g12

    def solve_coord(other_fixed, which, weight):
        """Exact minimizer in one coordinate given the other."""

        def dsmooth(t):
            if which == 13:
                return partials(t, other_fixed)[0]
            return partials(other_fixed, t)[1]

        g0 = dsmooth(0.0)
        if abs(g0) <= weight:
            return 0.0
        sign = -math.copysign(1.0, g0)  # descent direction from 0
        # stationarity: dsmooth(t) + weight*sign(t) = 0 on the active side
        target = -weight * sign

        def f(t):
            return dsmooth(sign * t) - target

        hi = 1.0
        while f(hi) * sign < 0 and hi < 1e6:
            hi *= 2.0
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(mid) * sign < 0:
                lo = mid
            else:
                hi = mid
            if hi - lo < tol * 0.25:
                break
        return sign * 0.5 * (lo + hi)

    t13, t12 = 0.0, 0.0
    for _ in range(500):
        t13_new = solve_coord(t12, 13, lam * (p - 2))
        t12_new = solve_coord(t13_new, 12, lam)
        moved = max(abs(t13_new - t13), abs(t12_new - t12))
        t13, t12 = t13_new, t12_new
        if moved < tol * 0.1:
            break
    return t13, t12

def reference_glauber_run(p, edges, theta, x, nsweeps, rng, stop_on_negative_mag=False):
    """Random-scan heat-bath sweeps with one coupling `theta` on every edge
    (1-based pairs), advancing the spin list x in place. Each site's
    neighbor sum is taken afresh at every update. Randomness is drawn per
    chunk of 128 sweeps: the sites, then the uniforms. Returns
    (sweeps_run, stopped_early); with stop_on_negative_mag the run stops
    after the first sweep that leaves the magnetization negative."""
    nbrs = [[] for _ in range(p)]
    for i, j in edges:
        nbrs[i - 1].append(j - 1)
        nbrs[j - 1].append(i - 1)
    maxdeg = max((len(nb) for nb in nbrs), default=0)
    ms = np.arange(-maxdeg, maxdeg + 1)
    table = (1.0 / (1.0 + np.exp(-2.0 * theta * ms))).tolist()
    mag = sum(x)
    done = 0
    while done < nsweeps:
        k = min(128, nsweeps - done)
        sites = rng.integers(0, p, size=k * p).tolist()
        us = rng.random(k * p).tolist()
        for sweep in range(k):
            for idx in range(sweep * p, (sweep + 1) * p):
                i = sites[idx]
                m = 0
                for j in nbrs[i]:
                    m += x[j]
                s = 1 if us[idx] < table[m + maxdeg] else -1
                mag += s - x[i]
                x[i] = s
            done += 1
            if stop_on_negative_mag and mag < 0:
                return done, True
    return done, False


def reference_field_run(fld, x, nsweeps, rng, stop_on_negative_mag=False):
    """Random-scan heat-bath sweeps under a CouplingField, advancing the
    spin list x in place. Each site's local field is re-summed from 0.0 in
    neighbor_data order at every update. Randomness is drawn per chunk of
    128 sweeps: the sites, then the uniforms. Returns (sweeps_run,
    stopped_early); with stop_on_negative_mag the run stops after the first
    sweep that leaves the magnetization negative."""
    p = fld.p
    nbrs, ths = fld.neighbor_data()
    done = 0
    while done < nsweeps:
        k = min(128, nsweeps - done)
        sites = rng.integers(0, p, size=k * p).tolist()
        us = rng.random(k * p).tolist()
        mag = sum(x) if stop_on_negative_mag else 0
        idx = 0
        for sweep in range(1, k + 1):
            for _ in range(p):
                i = sites[idx]
                u = us[idx]
                idx += 1
                h = 0.0
                nb = nbrs[i]
                tt = ths[i]
                for t in range(len(nb)):
                    h += tt[t] * x[nb[t]]
                s = 1 if u < 1.0 / (1.0 + math.exp(-2.0 * h)) else -1
                if stop_on_negative_mag:
                    mag += s - x[i]
                x[i] = s
            if stop_on_negative_mag and mag < 0:
                return done + sweep, True
        done += k
    return done, False


def reference_joint(spins):
    """joint(vertices): the empirical pmf of the (n, p) +-1 `spins` over the
    1-based vertices, shape (2,)*len(vertices); axis k follows the k-th
    vertex, index 0 = spin +1."""
    bits = (1 - np.asarray(spins).astype(np.int64)) // 2
    n = bits.shape[0]

    def joint(vertices):
        m = len(vertices)
        code = np.zeros(n, dtype=np.int64)
        for k, v in enumerate(vertices):
            code |= bits[:, v - 1] << (m - 1 - k)
        t = np.bincount(code, minlength=1 << m).astype(np.float64) / n
        return t.reshape((2,) * m)

    return joint


def reference_score(joint, p, r, U, delta, gamma, w_pool=None, floor=None):
    """min over (W, j) of the max admissible conditional shift of the root.

    For each probe set W of at most delta vertices from `w_pool` (default:
    every vertex) outside r and U, and each j in U: condition the root on
    the values of W and U, flip the value at j, and record the largest
    absolute change in the conditional law of the root over assignment
    pairs whose conditioning events both have probability > gamma/2. A
    (W, j) with no admissible pair contributes 0. When `floor` is given the
    search stops once the running minimum falls to or below it.
    """
    U = sorted(U)
    if w_pool is None:
        w_pool = range(1, p + 1)
    w_pool = [v for v in w_pool if v != r and v not in U]
    best = math.inf
    for k in range(delta + 1):
        for W in itertools.combinations(w_pool, k):
            vars_ = sorted(set(U) | set(W))
            tbl = joint((r,) + tuple(vars_))
            pa = tbl.sum(axis=0)
            with np.errstate(invalid="ignore", divide="ignore"):
                cond = np.where(pa > 0, tbl[0] / np.where(pa > 0, pa, 1.0), 0.0)
            for j in U:
                ax = vars_.index(j)
                pa_flip = np.flip(pa, axis=ax)
                ok = (pa > gamma / 2.0) & (pa_flip > gamma / 2.0)
                if ok.any():
                    diff = np.abs(cond - np.flip(cond, axis=ax))
                    contrib = float(diff[ok].max())
                else:
                    contrib = 0.0
                if contrib < best:
                    best = contrib
                    if floor is not None and best <= floor:
                        return best
    return best


def reference_independence_test(joint, p, delta, eps, gamma, rule, pool_of):
    """Per root r, the first candidate set U from pool_of(r), largest size
    first and lexicographic within a size, whose reference_score over probe
    sets from the same pool exceeds eps/2. Returns the edge set as a set of
    (i, j) pairs, i < j, combining neighborhoods by `rule` ("or"/"and")."""
    hoods = {}
    for r in range(1, p + 1):
        pool = sorted(v for v in pool_of(r) if v != r)
        hoods[r] = set()
        sizes = range(min(delta, len(pool)), 0, -1)
        for U in itertools.chain.from_iterable(
            itertools.combinations(pool, k) for k in sizes
        ):
            sc = reference_score(joint, p, r, U, delta, gamma, pool, eps / 2.0)
            if sc > eps / 2.0:
                hoods[r] = set(U)
                break
    return {
        (min(r, j), max(r, j))
        for r, nb in hoods.items()
        for j in nb
        if rule == "or" or r in hoods[j]
    }


def reference_row_minima(tables, rows, s, gamma):
    """The package's earlier _row_minima: per table block, the smallest over
    j in U of the largest admissible conditional shift of the root, with
    each cell's twin (U's i-th member flipped) gathered by an index."""
    for t in tables(rows):
        b, half = len(t), t.shape[1] // 2
        pa = t[:, :half] + t[:, half:]
        with np.errstate(invalid="ignore", divide="ignore"):
            cond = np.where(pa > 0, t[:, :half] / np.where(pa > 0, pa, 1.0), 0.0)
        big = pa > gamma / 2.0
        out = np.full(b, np.inf)
        for i in range(s):
            twin = np.arange(half).reshape(1 << i, 2, -1)[:, ::-1].ravel()
            ok = big & big[:, twin]
            shift = np.where(ok, np.abs(cond - cond[:, twin]), 0.0)
            np.minimum(out, shift.max(axis=1), out=out)
        yield out


def _reference_rows(head, pool, k):
    """Rows head + W for every k-subset W of `pool`, in
    itertools.combinations order."""
    count, width = math.comb(len(pool), k), len(head) + k
    flat = itertools.chain.from_iterable(head + W for W in itertools.combinations(pool, k))
    return np.fromiter(flat, dtype=np.intp, count=count * width).reshape(count, width)


def reference_per_root_score(tables, p, r, U, delta, gamma):
    """The package's earlier _score on a table source: min over every probe
    set of at most delta vertices outside r and U, one probe size per call."""
    U = sorted(U)
    w_pool = [v for v in range(1, p + 1) if v != r and v not in U]
    return float(min(
        m.min()
        for k in range(delta + 1)
        for m in reference_row_minima(tables, _reference_rows((r, *U), w_pool, k), len(U), gamma)
    ))


def reference_per_root_neighborhoods(tables, p, delta, floor, gamma, pool_of):
    """The package's earlier independence-test driver, one root at a time:
    per root r, all candidate sets of one size from the sorted pool are
    screened in one batch at the empty probe set; the survivors, in order,
    then go through the probe sets one batched size at a time, and the
    first to clear every size wins. Returns {root: neighborhood set}."""
    hoods = {}
    for r in range(1, p + 1):
        pool = sorted(v for v in pool_of(r) if v != r)
        hoods[r] = set()
        for size in range(min(delta, len(pool)), 0, -1):
            rows = _reference_rows((r,), pool, size)
            screen = np.concatenate(list(reference_row_minima(tables, rows, size, gamma)))
            for U in rows[screen > floor, 1:].tolist():
                w_pool = [v for v in pool if v not in U]
                minima = (
                    m
                    for k in range(1, delta + 1)
                    for m in reference_row_minima(
                        tables, _reference_rows((r, *U), w_pool, k), size, gamma
                    )
                )
                if all((m > floor).all() for m in minima):
                    hoods[r] = set(U)
                    break
            if hoods[r]:
                break
    return hoods


def reference_read_samples(path):
    """The sample-file reader the block parser replaced: text mode, one
    readline().split() per row and int() per token."""
    from isinglearn.ising import SampleSet

    with open(path) as fh:
        head = fh.readline().split()
        if len(head) != 5:
            raise ValueError("sample file header must be `n p seed burn_in thin`")
        n, p, seed, burn_in, thin = (int(v) for v in head)
        spins = np.empty((n, p), dtype=np.int8)
        for ell in range(n):
            row = fh.readline().split()
            if len(row) != p:
                raise ValueError(f"sample row {ell} has {len(row)} tokens, wanted {p}")
            spins[ell] = [int(v) for v in row]
    return SampleSet(spins, seed=seed, burn_in=burn_in, thin=thin)


def chi2_sf(x, k):
    """P(chi2_k > x), the regularized upper incomplete gamma function
    Q(k/2, x/2): by its power series below k/2 + 1 and by Lentz's continued
    fraction above (Press et al., Numerical Recipes, 2007, 6.2)."""
    a, z = k / 2, x / 2
    if z <= 0:
        return 1.0
    lead = math.exp(a * math.log(z) - z - math.lgamma(a))
    if z < a + 1:
        term = total = 1 / a
        m = a
        while term > total * 1e-17:
            m += 1
            term *= z / m
            total += term
        return 1 - lead * total
    tiny = 1e-300
    b = z + 1 - a
    c, d = 1 / tiny, 1 / b
    h = d
    for i in range(1, 100_000):
        an = -i * (i - a)
        b += 2
        d = an * d + b
        d = 1 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        h *= d * c
        if abs(d * c - 1) < 1e-16:
            break
    return lead * h


def whole_state_chi2(spins, pmf, min_expected=5.0):
    """(statistic, degrees of freedom, p-value) of Pearson's chi-square
    test of the (n, p) +-1 sample rows against pmf, the probabilities of
    all 2^p states as ExactDistribution.marginal gives them over vertices
    1..p (axis k for vertex k + 1, index 1 for spin -1). The cells whose
    expected count is below min_expected are pooled into one cell; a pool
    still below it joins the smallest other cell."""
    spins = np.asarray(spins)
    n, p = spins.shape
    codes = (spins < 0) @ (1 << np.arange(p - 1, -1, -1))
    observed = np.bincount(codes, minlength=1 << p).astype(np.float64)
    expected = n * np.ravel(pmf)
    small = expected < min_expected
    obs, exp = observed[~small], expected[~small]
    if small.any():
        pool_obs, pool_exp = observed[small].sum(), expected[small].sum()
        if pool_exp < min_expected:
            k = np.argmin(exp)
            obs[k] += pool_obs
            exp[k] += pool_exp
        else:
            obs, exp = np.append(obs, pool_obs), np.append(exp, pool_exp)
    stat = float(((obs - exp) ** 2 / exp).sum())
    dof = len(exp) - 1
    return stat, dof, chi2_sf(stat, dof)


def integrated_autocorr_time(series, window=5.0):
    """tau = 1 + 2 sum_{t=1..M} rho(t) of a 1-D series, rho its sample
    autocorrelation and M the first lag with M >= window * tau (Sokal's
    automatic window; Madras and Sokal, J. Stat. Phys. 50, 1988): the
    variance of the series mean is about tau times that of as many
    independent draws. A constant series has tau = 1."""
    x = np.asarray(series, dtype=np.float64)
    x = x - x.mean()
    var = float(x @ x)
    tau = 1.0
    if var == 0.0:
        return tau
    for t in range(1, len(x)):
        tau += 2.0 * float(x[:-t] @ x[t:]) / var
        if t >= window * tau:
            break
    return tau
