"""Brute-force reference implementations the fast code is checked against.

Everything here favors obviousness over speed: plain itertools loops over
the full state space, no vectorization, no shared code with the package.
"""
import itertools
import math


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
    """Joint pmf table over `vertices` as a dict from spin tuples."""
    p = g.p
    z = 0.0
    table = {}
    for spins in itertools.product((1, -1), repeat=p):
        h = sum(th * spins[i - 1] * spins[j - 1] for (i, j), th in couplings.items())
        w = math.exp(h)
        z += w
        key = tuple(spins[v - 1] for v in vertices)
        table[key] = table.get(key, 0.0) + w
    return {k: v / z for k, v in table.items()}


def naive_hessian(g, couplings, r):
    """E{x_i x_j / cosh^2(h_r)} with h_r = sum_j theta_rj x_j, the local
    field at root r, by direct summation. Returns a dict over ordered pairs
    (i, j) of vertices other than r, diagonal included."""
    p = g.p
    z = 0.0
    sums = {}
    others = [v for v in range(1, p + 1) if v != r]
    for spins in itertools.product((1, -1), repeat=p):
        h = sum(th * spins[i - 1] * spins[j - 1] for (i, j), th in couplings.items())
        w = math.exp(h)
        z += w
        field = 0.0
        for (i, j), th in couplings.items():
            if i == r:
                field += th * spins[j - 1]
            elif j == r:
                field += th * spins[i - 1]
        ws = w / math.cosh(field) ** 2
        for i in others:
            for j in others:
                sums[(i, j)] = sums.get((i, j), 0.0) + ws * spins[i - 1] * spins[j - 1]
    return {k: v / z for k, v in sums.items()}


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
