"""Exact and Monte Carlo inference for ferromagnetic Ising models.

Spins live in {-1, +1}. A model is a graph plus a symmetric coupling
field; the probability of a configuration x is proportional to
exp(sum_{(i,j)} theta_ij x_i x_j).

Vertex labels are 1-based; numpy arrays produced here (correlation
matrices, sample matrices) use column v-1 for vertex v.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np

from .graphs import Graph

# At 2^26 states the moments take about a second on one core; memory is
# bounded by the slab size, not by p.
ENUMERATION_MAX_P = 26
# Most vertices in the lo half of the split enumeration. Vertex p is always
# a hi vertex, because only its +1 states are walked: at the largest p the
# two halves are equal, and below 15 vertices vertex p is the hi half.
_LO_BITS = ENUMERATION_MAX_P // 2
# States per slab, hi rows times every lo column: 2^18 ran as fast as 2^20
# at p = 22..26 with a quarter of the memory.
_SLAB_STATES = 1 << 18


class EnumerationTooLarge(ValueError):
    """State space exceeds the exact-enumeration budget."""


@dataclass(frozen=True)
class CouplingField:
    """Symmetric coupling map stored as upper-triangle (i, j, theta) triples.

    theta_ij = theta_ji is implied; absent pairs (and the diagonal) are 0.
    """

    p: int
    couplings: tuple

    def __post_init__(self):
        seen = set()
        for i, j, th in self.couplings:
            if not (1 <= i < j <= self.p):
                raise ValueError(f"bad coupling pair ({i},{j}) for p={self.p}")
            if (i, j) in seen:
                raise ValueError(f"duplicate coupling ({i},{j})")
            seen.add((i, j))

    @classmethod
    def homogeneous(cls, g: Graph, theta: float) -> "CouplingField":
        """theta on every edge of g, zero elsewhere."""
        return cls(g.p, tuple((i, j, float(theta)) for i, j in g.sorted_edges()))

    @classmethod
    def from_dict(cls, p: int, mapping: dict) -> "CouplingField":
        items = []
        for (a, b), th in mapping.items():
            i, j = (a, b) if a < b else (b, a)
            items.append((i, j, float(th)))
        return cls(p, tuple(sorted(items)))

    @property
    def support(self) -> frozenset:
        return frozenset((i, j) for i, j, _ in self.couplings)

    def homogeneous_value(self) -> float | None:
        """The common coupling if all entries are equal, else None."""
        vals = {th for _, _, th in self.couplings}
        if len(vals) == 1:
            return vals.pop()
        return None

    def neighbor_data(self):
        """Per-site 0-based neighbor index lists and coupling lists."""
        nbrs = [[] for _ in range(self.p)]
        ths = [[] for _ in range(self.p)]
        for i, j, th in self.couplings:
            nbrs[i - 1].append(j - 1)
            ths[i - 1].append(th)
            nbrs[j - 1].append(i - 1)
            ths[j - 1].append(th)
        return nbrs, ths

    def theta_row(self, r: int) -> np.ndarray:
        """Couplings of vertex r against all vertices (length p, 0-based)."""
        row = np.zeros(self.p)
        for i, j, th in self.couplings:
            if i == r:
                row[j - 1] = th
            elif j == r:
                row[i - 1] = th
        return row


def _as_field(g: Graph, theta) -> CouplingField:
    if isinstance(theta, CouplingField):
        if theta.p != g.p:
            raise ValueError("coupling field and graph disagree on p")
        if not theta.support <= g.edges:
            raise ValueError("coupling support is not contained in the graph")
        return theta
    return CouplingField.homogeneous(g, float(theta))


def _spin_table(n: int) -> np.ndarray:
    """(2^n, n) spins of every n-bit index: bit k of the index gives
    column k, +1 for bit 0."""
    idx = np.arange(1 << n)
    return 1.0 - 2.0 * ((idx[:, None] >> np.arange(n)) & 1)


@dataclass
class ExactDistribution:
    """Moment oracle over the full 2^p state space.

    corr[i-1, j-1] holds E{X_i X_j}. Other expectations re-stream the
    state space by split enumeration: vertices 1..b form the lo half and
    b+1..p the hi half, so a state is a (hi, lo) pair with energy
    H_hi[hi] + H_lo[lo] + x_hi J x_lo^T. Slabs of hi rows against every lo
    column are reduced by matrix products, which costs O(p 2^p) and keeps
    memory bounded by the slab size whatever p is.

    Only the 2^(p-1) states with x_p = +1 are walked. The couplings are
    pairwise and there is no external field, so x and -x have the same
    energy, and every expectation over all states is read from that half:
    each method below says how.
    """

    graph: Graph
    field: CouplingField
    log_z: float
    corr: np.ndarray
    _x_lo: np.ndarray = dc_field(init=False, repr=False)
    _x_hi: np.ndarray = dc_field(init=False, repr=False)
    _h_lo: np.ndarray = dc_field(init=False, repr=False)
    _h_hi: np.ndarray = dc_field(init=False, repr=False)
    _cross: np.ndarray = dc_field(init=False, repr=False)

    def __post_init__(self):
        p = self.graph.p
        b = min(p - 1, _LO_BITS)
        j_up = np.zeros((p, p))
        for i, j, th in self.field.couplings:
            j_up[i - 1, j - 1] = th
        self._x_lo = x_lo = _spin_table(b)
        # vertex p is the top bit of the hi index: its +1 rows come first
        self._x_hi = x_hi = _spin_table(p - b)[: 1 << (p - b - 1)]
        self._h_lo = ((x_lo @ j_up[:b, :b]) * x_lo).sum(axis=1)
        self._h_hi = ((x_hi @ j_up[b:, b:]) * x_hi).sum(axis=1)
        # every lo vertex precedes every hi vertex, so the cross couplings
        # sit in the upper-right block; row k is hi vertex k's field per lo
        self._cross = j_up[:b, b:].T @ x_lo.T

    def _slabs(self):
        """Yield (rows, E): a slice of hi indices and the energies of those
        rows against every lo index, shape (rows, 2^b). The one reduction
        that every expectation streams through; it covers the x_p = +1
        half of the states."""
        rows_per_slab = max(1, _SLAB_STATES // len(self._x_lo))
        for start in range(0, len(self._x_hi), rows_per_slab):
            rows = slice(start, start + rows_per_slab)
            e = self._x_hi[rows] @ self._cross
            e += self._h_hi[rows, None]
            e += self._h_lo
            yield rows, e

    def _weights(self):
        """Yield (rows, W) with W twice the slab's state probabilities, so
        that a sum of W f over the half is E{f(X)} for any even f."""
        for rows, e in self._slabs():
            e -= self.log_z - math.log(2.0)
            yield rows, np.exp(e, out=e)

    def _pair_sums(self, rows, w: np.ndarray) -> np.ndarray:
        """sum over the slab of w[hi, lo] x x^T, as a (p, p) array."""
        x_lo, x_hi = self._x_lo, self._x_hi[rows]
        b = x_lo.shape[1]
        p = self.graph.p
        s = np.empty((p, p))
        s[:b, :b] = x_lo.T @ (x_lo * w.sum(axis=0)[:, None])
        s[b:, b:] = x_hi.T @ (x_hi * w.sum(axis=1)[:, None])
        s[b:, :b] = x_hi.T @ (w @ x_lo)
        s[:b, b:] = s[b:, :b].T
        return s

    def _first_sums(self, rows, w: np.ndarray) -> np.ndarray:
        """sum over the slab of w[hi, lo] x, as a length-p array."""
        return np.concatenate(
            (self._x_lo.T @ w.sum(axis=0), self._x_hi[rows].T @ w.sum(axis=1))
        )

    def expectation_vector(self, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """E{X_v fn(X)} for every vertex, as a length-p array; fn maps a
        read-only (B, p) block of spins to (B,).

        fn need be neither even nor odd, so each block goes to fn twice,
        as X and as -X: x_v fn(x) + (-x_v) fn(-x) is the pair's share."""
        p = self.graph.p
        n_lo, b = self._x_lo.shape
        acc = np.zeros(p)
        # the lo columns are the same in every slab: fill them once and
        # hand fn a read-only view, so it cannot corrupt the next slab
        block = np.empty((0, n_lo, p))
        for rows, w in self._weights():
            if len(block) < len(w):
                block = np.empty((len(w), n_lo, p))
                block[:, :, :b] = self._x_lo
            block[: len(w), :, b:] = self._x_hi[rows, None, :]
            X = block[: len(w)].reshape(-1, p)
            X.flags.writeable = False
            neg = -X
            neg.flags.writeable = False
            odd = np.asarray(fn(X), dtype=np.float64) - fn(neg)
            acc += self._first_sums(rows, 0.5 * w * odd.reshape(w.shape))
        return acc

    def field_moments(self, row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """E{X X^T sech^2(h)} and E{X tanh(h)} for the local field h = X . row.

        With row the couplings of vertex r (row[r-1] = 0) these are the
        Hessian and the model term of the gradient of r's conditional
        log-likelihood at the true couplings. h is odd in X, so both
        summands are even and the half needs no correction."""
        row = np.asarray(row, dtype=np.float64)
        b = self._x_lo.shape[1]
        h_hi, h_lo = self._x_hi @ row[b:], self._x_lo @ row[:b]
        p = self.graph.p
        s = np.zeros((p, p))
        t = np.zeros(p)
        for rows, w in self._weights():
            h = np.add.outer(h_hi[rows], h_lo)
            t += self._first_sums(rows, w * np.tanh(h))
            np.cosh(h, out=h)
            w /= h
            w /= h
            s += self._pair_sums(rows, w)
        return s, t

    def down_count_pmf(self, coef) -> np.ndarray:
        """pmf of T(X) = sum_v coef[v-1] [X_v = -1] for non-negative integer
        coefficients, indexed by T = 0..sum(coef).

        T(-x) = sum(coef) - T(x), so with h the table over the half the
        pmf is (h + h reversed) / 2."""
        coef = np.asarray(coef, dtype=np.int64)
        if coef.shape != (self.graph.p,) or coef.min(initial=0) < 0:
            raise ValueError("coef must hold p non-negative integers")
        b = self._x_lo.shape[1]
        # Sum each side by its own value of T first (an indicator product
        # done as two bincounts), so no bin adds more than 2^b states in a
        # row and the index arrays stay the size of a slab.
        v_lo, i_lo = np.unique((self._x_lo < 0) @ coef[:b], return_inverse=True)
        v_hi, i_hi = np.unique((self._x_hi < 0) @ coef[b:], return_inverse=True)
        n_lo = len(v_lo)
        table = np.zeros(len(v_hi) * n_lo)
        for rows, w in self._weights():
            by_lo = (np.arange(len(w))[:, None] * n_lo + i_lo).ravel()
            g = np.bincount(by_lo, w.ravel(), minlength=len(w) * n_lo)
            by_hi = (i_hi[rows, None] * n_lo + np.arange(n_lo)).ravel()
            table += np.bincount(by_hi, g, minlength=table.size)
        h = np.bincount(
            (v_hi[:, None] + v_lo).ravel(), table, minlength=int(coef.sum()) + 1
        )
        return 0.5 * (h + h[::-1])

    def marginal(self, vertices: Sequence[int]) -> np.ndarray:
        """Joint pmf over the given vertices, shape (2,)*len(vertices).

        Axis k follows vertices[k]; index 0 means spin +1, index 1 spin -1.
        """
        m = len(vertices)
        if m > 20:
            raise ValueError("marginal table over more than 20 vertices")
        if not all(1 <= v <= self.graph.p for v in vertices):
            raise ValueError(f"marginal vertices outside 1..{self.graph.p}")
        coef = np.zeros(self.graph.p, dtype=np.int64)
        for k, v in enumerate(vertices):
            coef[v - 1] += 1 << (m - 1 - k)
        return self.down_count_pmf(coef).reshape((2,) * m)


def exact_moments(g: Graph, theta) -> ExactDistribution:
    """Exact partition function and pair correlations by full enumeration.

    Stable for arbitrary couplings: weights are taken relative to the
    running maximum energy (a streaming log-sum-exp over slabs), so none
    overflows and the largest is 1. The x_p = +1 half holds half of Z and
    the same pair moments as the whole, so log Z gains log 2 and corr is
    the half's.
    """
    if g.p > ENUMERATION_MAX_P:
        raise EnumerationTooLarge(
            f"p={g.p} exceeds the enumeration budget of {ENUMERATION_MAX_P}"
        )
    fld = _as_field(g, theta)
    dist = ExactDistribution(g, fld, log_z=math.nan, corr=np.empty(0))
    shift = -math.inf
    z = 0.0
    s = np.zeros((g.p, g.p))
    for rows, e in dist._slabs():
        top = float(e.max())
        if top > shift:
            scale = math.exp(shift - top)
            z *= scale
            s *= scale
            shift = top
        e -= shift
        w = np.exp(e, out=e)
        z += float(w.sum())
        s += dist._pair_sums(rows, w)
    dist.log_z = shift + math.log(z) + math.log(2.0)
    corr = s / z
    np.fill_diagonal(corr, 1.0)
    dist.corr = corr
    return dist


@dataclass(frozen=True, eq=False)
class SampleSet:
    """n >= 1 samples of p >= 1 spins with the sampler settings that produced them.

    Two sets are equal when their spins and sampler settings are; like a
    numpy array, a SampleSet is not hashable.
    """

    spins: np.ndarray  # (n, p) int8 in {-1, +1}
    seed: int
    burn_in: int
    thin: int

    def __post_init__(self):
        # a private read-only copy, so distinct_rows cannot go stale
        spins = np.array(self.spins, dtype=np.int8, order="C")
        spins.flags.writeable = False
        object.__setattr__(self, "spins", spins)
        if spins.ndim != 2:
            raise ValueError("spins must be an (n, p) matrix")
        if not spins.shape[0]:
            raise ValueError("sample set has no rows")
        if not spins.shape[1]:
            raise ValueError("sample set has no spins")
        if not np.all(np.abs(spins) == 1):
            raise ValueError("spins must be +1 or -1")

    def __eq__(self, other):
        if not isinstance(other, SampleSet):
            return NotImplemented
        return (
            self.spins.shape == other.spins.shape
            and np.array_equal(self.spins, other.spins)
            and (self.seed, self.burn_in, self.thin)
            == (other.seed, other.burn_in, other.thin)
        )

    __hash__ = None

    def __reduce__(self):
        # unpickle through the constructor, so the copy is read-only too
        return SampleSet, (self.spins, self.seed, self.burn_in, self.thin)

    @functools.cached_property
    def distinct_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, weights): the distinct sample rows as float64, in the
        lexicographic order of np.unique on the float rows, and their
        frequencies counts/n as an (m, 1) column. Rows are compared bit-
        packed, most significant bit first, so -1 < +1 orders them alike:
        the packed bytes, zero-padded to whole words, read as big-endian
        uint64 keys that one stable lexsort orders, first word first."""
        n = self.n
        packed = np.packbits(self.spins > 0, axis=1)
        padded = np.zeros((n, -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
        padded[:, :packed.shape[1]] = packed
        keys = padded.view(">u8")
        order = np.lexsort(keys.T[::-1])
        keys = keys[order]
        starts = np.flatnonzero(np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)])
        first = order[starts]
        counts = np.diff(np.r_[starts, n])
        rows = self.spins[first].astype(np.float64)
        wgt = (counts / n)[:, None]
        rows.flags.writeable = False
        wgt.flags.writeable = False
        return rows, wgt

    @property
    def n(self) -> int:
        return self.spins.shape[0]

    @property
    def p(self) -> int:
        return self.spins.shape[1]


# Most entries a per-edge row stores. A p=30 star's chain (hub degree 29,
# 10^4 samples at thin 20) peaked at 61 MB when rows kept every mask, and
# at 37 MB, as when rows store nothing, with 2^10. A full row computes.
_ROW_ENTRIES = 1 << 10


class _FieldRow(dict):
    """P(+1) at one site of a per-edge field, keyed by the mask of its +1
    neighbors and stored on first use while the row has room. h sums
    theta_ij x_j from 0.0 in neighbor_data order, as a fresh sum would."""

    __slots__ = ("terms",)

    def __init__(self, nbrs, ths):
        self.terms = tuple((1 << j, th) for j, th in zip(nbrs, ths))

    def __missing__(self, mask):
        h = 0.0
        for b, th in self.terms:
            h += th * (1 if mask & b else -1)
        try:
            prob = 1.0 / (1.0 + math.exp(-2.0 * h))
        except OverflowError:  # exp(-2h) past float range: P(+1) is 0, as in the tuple rows
            prob = 0.0
        if len(self) < _ROW_ENTRIES:
            self[mask] = prob
        return prob


class _Glauber:
    """Single-site heat-bath dynamics with uniformly random scan order.

    One sweep is p single-site updates. The spins are also kept as a bit
    mask X of the +1 sites, so an update reads its acceptance probability
    as rows[i][key(X & nbm[i])], and a flip costs one XOR whatever the
    degree. With one coupling on every edge (or none) rows[i] is a tuple
    indexed by the count of +1 neighbors and key is a popcount; with
    per-edge couplings rows[i] is a _FieldRow keyed by the neighbor mask
    itself. The draws and comparisons are those of re-summing the
    neighbors at every update, so the chain is the same.

    The loop also skips the draws that cannot move an aligned state.
    With every spin +1, draw (i, u) keeps the state exactly when
    u < top[i], the loop's own comparison with every neighbor +1; with
    every spin -1 it keeps it exactly when u >= bottom[i]. Once the
    state is aligned, one numpy comparison over the rest of the chunk
    finds the draws that would move it, and the loop jumps to the next of
    them. The draws are still taken from the rng in the same order, and
    the ones jumped over change nothing, so the chain is the same.
    """

    _CHUNK = 128  # sweeps of randomness drawn per batch

    def __init__(self, fld: CouplingField):
        self.p = fld.p
        nbrs, ths = fld.neighbor_data()
        theta0 = fld.homogeneous_value()
        if theta0 is not None or not fld.couplings:
            maxdeg = max((len(x) for x in nbrs), default=0)
            t0 = 0.0 if theta0 is None else theta0
            ms = np.arange(-maxdeg, maxdeg + 1)
            with np.errstate(over="ignore"):  # exp(-2h) = inf gives P(+1) = 0
                table = (1.0 / (1.0 + np.exp(-2.0 * t0 * ms))).tolist()
            # rows[i][c]: P(+1) at i when c neighbors are +1, a sum of 2c - deg(i)
            self.rows = [tuple(table[maxdeg + 2 * c - len(nb)] for c in range(len(nb) + 1))
                         for nb in nbrs]
            self.key = int.bit_count
        else:
            self.rows = [_FieldRow(nb, th) for nb, th in zip(nbrs, ths)]
            self.key = operator.index
        self.nbm = [sum(1 << j for j in nb) for nb in nbrs]
        self.bit = [1 << i for i in range(self.p)]
        # P(+1) at each site with every neighbor +1, and with every one -1
        self.top = np.array([r[self.key(m)] for r, m in zip(self.rows, self.nbm)])
        self.bottom = np.array([r[self.key(0)] for r in self.rows])
        # draws the first window of a walk converts in _table_chunk
        self.window = 2 * self.p

    def initial_state(self, rng) -> list:
        return (rng.integers(0, 2, self.p) * 2 - 1).tolist()

    def run(self, x: list, nsweeps: int, rng, stop_on_negative_mag: bool = False):
        """Advance the chain in place; returns (sweeps_run, stopped_early)."""
        return next(self.blocks(x, (nsweeps,), rng, stop_on_negative_mag))

    def blocks(self, x: list, sizes, rng, stop_on_negative_mag: bool = False):
        """Advance the chain in place through blocks of sizes[0], sizes[1], ...
        sweeps, yielding (sweeps_run, stopped_early) after each block with x
        current; x must not be changed in between. Each block draws its
        randomness in chunks of at most _CHUNK sweeps, the sites and then
        the uniforms. With stop_on_negative_mag the chain stops after the
        first sweep that leaves the magnetization negative, and that block
        is the last."""
        p = self.p
        X = sum(b for b, s in zip(self.bit, x) if s > 0)
        for nsweeps in sizes:
            done = 0
            while done < nsweeps:
                k = min(self._CHUNK, nsweeps - done)
                sites = rng.integers(0, p, size=k * p)
                us = rng.random(k * p)
                ran, stopped, X = self._table_chunk(x, X, sites, us, stop_on_negative_mag)
                done += ran
                if stopped:
                    yield done, True
                    return
            yield done, False

    def _table_chunk(self, x, X, sites, us, stop):
        """The loop over one chunk of draws (numpy arrays), x and its mask X
        advanced together; returns (sweeps_run, stopped_early, X). The
        per-draw loop stops after a flip that aligns the state, and the
        jump takes over. Draws become Python numbers only as far as the
        loop walks: a walk converts a window of self.window draws, then
        windows twice as long while it goes on, except that a walk from a
        chunk start more than two flips from alignment converts the whole
        chunk (it seldom aligns soon, and one window costs least)."""
        p = self.p
        rows, nbm, bit, key = self.rows, self.nbm, self.bit, self.key
        full = (1 << p) - 1
        n_d = len(us)
        moves = {}  # aligned mask -> (base, offsets from base of the draws that move it)
        pos = 0  # draws of the chunk taken so far
        hi = 0  # draws converted so far; those from pos on wait in `draws`
        c = X.bit_count()
        width = self.window if min(c, p - c) <= 2 else n_d  # the next window's draws
        while pos < n_d:
            if X == full or not X:
                if X not in moves:
                    # draws before pos are spent, and a later visit starts later
                    s, u = sites[pos:], us[pos:]
                    moves[X] = pos, (
                        u >= self.top[s] if X else u < self.bottom[s]).nonzero()[0].tolist()
                base, mv = moves[X]
                j = bisect.bisect_left(mv, pos - base)
                nxt = base + mv[j] if j < len(mv) else n_d
                # all -1 fails the next magnetization check, so the jump stops
                # there; all +1 passes every check it jumps over
                check = pos - pos % p + p
                if stop and not X and nxt >= check:
                    return check // p, True, X
                if nxt == n_d:
                    break
                pos = hi = nxt
                width = self.window
            if pos == hi:
                hi = min(n_d, pos + width)
                width *= 2
                its = iter(sites[pos:hi].tolist())
                draws = zip(its, us[pos:hi].tolist())
            end = pos - pos % p + p if stop else n_d
            for i, u in itertools.islice(draws, end - pos) if stop else draws:
                if u < rows[i][key(X & nbm[i])]:
                    if x[i] < 0:
                        x[i] = 1
                        X ^= bit[i]
                        if X == full:
                            break
                elif x[i] > 0:
                    x[i] = -1
                    X ^= bit[i]
                    if not X:
                        break
            pos = hi - operator.length_hint(its)
            if stop and pos == end and 2 * X.bit_count() < p:
                return pos // p, True, X
        return n_d // p, False, X


@dataclass(frozen=True)
class MixingEstimate:
    sweeps: int
    saturated: bool


def estimate_mixing(g: Graph, theta, seed: int, max_sweeps: int = 10_000) -> MixingEstimate:
    """Sweeps until the magnetization first goes negative, started all-(+1).

    A conservative relaxation-time proxy; saturates at max_sweeps.
    """
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    fld = _as_field(g, theta)
    kern = _Glauber(fld)
    rng = np.random.default_rng(seed)
    x = [1] * g.p
    done, stopped = kern.run(x, max_sweeps, rng, stop_on_negative_mag=True)
    return MixingEstimate(done, not stopped)


# How a mixing estimate of t sweeps becomes burn-in and thin.
_BURN_IN_FACTOR = 10
_THIN_DIVISOR = 10
_THIN_CAP = 50


def _settings_from_sweeps(t: int) -> tuple[int, int]:
    """(burn_in, thin) for a mixing estimate of t sweeps: burn_in is
    _BURN_IN_FACTOR * t, and thin is t // _THIN_DIVISOR capped at
    _THIN_CAP, both at least 1. Both grow with t, so t = mixing_cap bounds
    them from above."""
    return max(1, _BURN_IN_FACTOR * t), max(1, min(_THIN_CAP, t // _THIN_DIVISOR))


def default_sampler_settings(
    g: Graph, theta, burn_in: int | None, thin: int | None, seed: int, mixing_cap: int
) -> tuple[int, int, MixingEstimate | None]:
    """(burn_in, thin, estimate) with each unset (None) value filled from a
    mixing estimate capped at mixing_cap sweeps. When both are given no
    chain runs, and the estimate is None."""
    if burn_in is not None and thin is not None:
        return burn_in, thin, None
    est = estimate_mixing(g, theta, seed, max_sweeps=mixing_cap)
    b, t = _settings_from_sweeps(est.sweeps)
    return b if burn_in is None else burn_in, t if thin is None else thin, est


def gibbs_sample(
    g: Graph,
    theta,
    n: int,
    burn_in: int | None = None,
    thin: int | None = None,
    seed: int = 0,
    mixing_cap: int = 1000,
) -> SampleSet:
    """n samples by random-scan heat-bath dynamics, one sample kept every
    `thin` full sweeps after `burn_in` sweeps. Deterministic under seed.

    When burn_in or thin is omitted it comes from default_sampler_settings
    (10x the mixing estimate, and the estimate over 10 capped at 50).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ss = np.random.SeedSequence(seed)
    mix_seed, run_seed = ss.spawn(2)
    burn_in, thin, _ = default_sampler_settings(
        g, theta, burn_in, thin, mix_seed.generate_state(1)[0], mixing_cap
    )
    if burn_in < 1 or thin < 1:
        raise ValueError("burn_in and thin must be >= 1")
    fld = _as_field(g, theta)
    kern = _Glauber(fld)
    rng = np.random.default_rng(run_seed)
    x = kern.initial_state(rng)
    out = np.empty((n, g.p), dtype=np.int8)
    # one chain through the burn-in and then n blocks of thin sweeps
    blocks = kern.blocks(x, itertools.chain((burn_in,), itertools.repeat(thin, n)), rng)
    next(blocks)
    for ell, _ in zip(range(n), blocks):
        out[ell] = x
    return SampleSet(out, seed=seed, burn_in=burn_in, thin=thin)


def empirical_correlations(s: SampleSet) -> np.ndarray:
    """Symmetric p x p matrix of sample pair moments; diagonal exactly 1."""
    X = s.spins.astype(np.float64)
    c = (X.T @ X) / s.n
    np.fill_diagonal(c, 1.0)
    return c


def saw_correlation_bound(delta: int, theta: float, dist: int) -> float:
    """Path-counting upper bound on a pair correlation at graph distance
    `dist`: delta^(dist-1) tanh(theta)^dist / (1 - delta tanh(theta))."""
    if dist < 1:
        raise ValueError("dist must be >= 1")
    t = math.tanh(theta)
    if delta * t >= 1.0:
        raise ValueError(f"bound inapplicable: delta*tanh(theta) = {delta * t:.4f} >= 1")
    return delta ** (dist - 1) * t**dist / (1.0 - delta * t)


def write_samples(s: SampleSet, path) -> None:
    """Header `n p seed burn_in thin`, then one +/-1 row per sample."""
    with open(path, "w") as fh:
        fh.write(f"{s.n} {s.p} {s.seed} {s.burn_in} {s.thin}\n")
        for row in s.spins:
            fh.write(" ".join("+1" if v > 0 else "-1" for v in row) + "\n")


# Bytes read and parsed per block by read_samples; bounds its temporaries
# whatever the file size (a longer line is read whole).
_READ_BLOCK_BYTES = 1 << 16
_SPIN_TOKENS = (b"+1", b"-1", b"1")


def read_samples(path) -> SampleSet:
    """Read a file written by write_samples.

    The header is `n p seed burn_in thin`. Each of the next n lines must
    hold exactly p tokens, each `+1`, `-1` or `1`, separated by runs of
    spaces and tabs. Lines end in `\\n` or `\\r\\n`, the last may lack it,
    and lines after row n are ignored. A bad header, a header whose n x p
    array cannot be allocated, a file with fewer than n rows, a row with
    the wrong token count, any other token, and a file with n = 0 or
    p = 0 (which SampleSet refuses) raise a ValueError; the row errors
    name the 0-based row. The body is read as bytes once, a block
    at a time, and each block's whole lines are parsed with numpy.
    """
    with open(path, "rb") as fh:
        head = fh.readline()
        try:
            n, p, seed, burn_in, thin = map(int, head.split())
        except ValueError:  # a bad count or a bad integer
            raise ValueError("sample file header must be `n p seed burn_in thin`") from None
        if n < 0 or p < 0:
            raise ValueError(f"sample file header has n = {n}, p = {p}; both must be >= 0")
        try:
            spins = np.empty((n, p), dtype=np.int8)
        except MemoryError:
            raise ValueError(
                f"sample file header asks for n = {n} rows of p = {p} spins,"
                " more than fits in memory"
            ) from None
        row, rest = 0, b""
        while row < n:
            chunk = fh.read(_READ_BLOCK_BYTES)
            if not chunk and not rest:
                raise ValueError(f"sample file has {row} rows, wanted {n}")
            text = rest + (chunk or b"\n")  # the last line may lack its line end
            buf = np.frombuffer(text, dtype=np.uint8)
            ends = np.flatnonzero(buf == 10)[: n - row]
            stop = int(ends[-1]) + 1 if len(ends) else 0
            if stop:
                rows = _parse_spin_lines(buf[:stop], p, row)
                spins[row:row + len(rows)] = rows
                row += len(rows)
            rest = text[stop:]
    return SampleSet(spins, seed=seed, burn_in=burn_in, thin=thin)


def _parse_spin_lines(c: np.ndarray, p: int, row0: int) -> np.ndarray:
    """The (lines, p) spins of c, a uint8 buffer of whole lines that each
    end in `\\n`; row0 numbers the first line in error messages."""
    lf = c == 10
    blank = lf | (c == 32) | (c == 9)
    blank[:-1] |= (c[:-1] == 13) & lf[1:]
    one = c == 49
    sign = (c == 43) | (c == 45)
    # A token is `+1`, `-1` or `1` iff it has only these bytes, each `1`
    # ends it and each sign precedes a `1` (so no sign follows a `1` or a
    # sign). The last byte is a line end, so the shift needs no edge.
    bad = ~(blank | one | sign)
    bad[:-1] |= (one[:-1] & ~blank[1:]) | (sign[:-1] & ~one[1:])
    first = ~blank  # token starts; index 0 starts a line
    first[1:] &= blank[:-1]
    ends = np.flatnonzero(lf)
    starts = np.r_[0, ends[:-1] + 1]
    counts = np.add.reduceat(first, starts, dtype=np.intp)
    wrong = counts != p
    if bad.any():
        wrong |= np.logical_or.reduceat(bad, starts)
    if wrong.any():
        i = int(np.argmax(wrong))
        if counts[i] != p:
            raise ValueError(f"sample row {row0 + i} has {counts[i]} tokens, wanted {p}")
        line = c[starts[i]:ends[i]].tobytes().removesuffix(b"\r")
        tok = next(t for t in line.replace(b"\t", b" ").split(b" ")
                   if t and t not in _SPIN_TOKENS)
        raise ValueError(f"sample row {row0 + i} has token {tok.decode(errors='replace')!r}, "
                         "wanted +1, -1 or 1")
    # the byte before each `1` is its sign; at index 0 it wraps to a line end
    at = np.flatnonzero(one)
    return (1 - 2 * (c[at - 1] == 45).view(np.int8)).reshape(len(ends), p)


def write_correlations_csv(c: np.ndarray, path) -> None:
    """CSV with a 0-based vertex-index header row."""
    p = c.shape[0]
    with open(path, "w") as fh:
        fh.write(",".join(str(v) for v in range(p)) + "\n")
        for row in c:
            fh.write(",".join(f"{v:.12g}" for v in row) + "\n")
