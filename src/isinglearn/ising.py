"""Exact and Monte Carlo inference for ferromagnetic Ising models.

Spins live in {-1, +1}. A model is a graph plus a symmetric coupling
field; the probability of a configuration x is proportional to
exp(sum_{(i,j)} theta_ij x_i x_j).

Vertex labels are 1-based; numpy arrays produced here (correlation
matrices, sample matrices) use column v-1 for vertex v.
"""
from __future__ import annotations

import ctypes
import functools
import math
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
            if not math.isfinite(th):
                raise ValueError(f"coupling ({i},{j}) is {th}, not a finite number")
            seen.add((i, j))

    @classmethod
    def homogeneous(cls, g: Graph, theta: float) -> "CouplingField":
        """theta on every edge of g, zero elsewhere. A non-finite theta is
        refused here when g has no edge to carry it to __post_init__."""
        theta = float(theta)
        if not (g.edges or math.isfinite(theta)):
            raise ValueError(f"theta must be finite, got {theta}")
        return cls(g.p, tuple((i, j, theta) for i, j in g.sorted_edges()))

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
    table = np.ones((1 << n, n))
    for k in range(n):
        # bit k is set in the second half of each block of 2^(k+1) indices
        table.reshape(-1, 2 << k, n)[:, 1 << k:, k] = -1.0
    return table


@dataclass(frozen=True, eq=False)
class _Split:
    """Tables of one split enumeration. Split position k holds the 0-based
    vertex order[k]; positions 0..b-1 are the lo half, position k being
    bit k of the lo index, and the rest are the hi half. The last position
    is the top bit of the hi index, and only its +1 rows are kept. A state
    is a (hi, lo) pair with energy h_hi[hi] + h_lo[lo] + (x_hi @
    cross)[hi, lo]."""

    order: np.ndarray
    x_lo: np.ndarray  # (2^b, b)
    x_hi: np.ndarray  # (2^(p-b-1), p - b)
    h_lo: np.ndarray
    h_hi: np.ndarray
    cross: np.ndarray  # (p - b, 2^b): hi position k's field per lo index


def _split_tables(fld: CouplingField, order, x_lo: np.ndarray) -> _Split:
    """The split of fld's states over the vertex order `order`, whose
    first b vertices form the lo half of the (2^b, b) spin table x_lo."""
    p = fld.p
    b = x_lo.shape[1]
    pos = np.argsort(order).tolist()
    j_up = np.zeros((p, p))  # couplings by split position, upper triangle
    for i, j, th in fld.couplings:
        j_up[min(pos[i - 1], pos[j - 1]), max(pos[i - 1], pos[j - 1])] = th
    # the last position, the top bit of the hi index, is +1 on every row kept
    x_hi = np.ones((1 << (p - b - 1), p - b))
    x_hi[:, :-1] = _spin_table(p - b - 1)
    return _Split(
        order=np.asarray(order),
        x_lo=x_lo,
        x_hi=x_hi,
        h_lo=((x_lo @ j_up[:b, :b]) * x_lo).sum(axis=1),
        h_hi=((x_hi @ j_up[b:, b:]) * x_hi).sum(axis=1),
        # every lo position precedes every hi one, so the cross couplings
        # sit in the upper-right block
        cross=j_up[:b, b:].T @ x_lo.T,
    )


class _PairSums:
    """Running sums over one pass of slabs of u x x^T, with u the slab's
    weights times per-state factors. Each slab is reduced to one product
    of its weighted hi spins with it, the column sums of u against each
    hi spin, and to its row sums; the last hi position is +1 on every
    row, so its row of the product is the plain column sums. The hi-lo
    and lo-lo blocks are formed once, from those sums, when the pass is
    read."""

    def __init__(self, split: _Split):
        hi = split.x_hi.shape[1]
        self.split = split
        self.cols = np.zeros((hi, len(split.x_lo)))
        self.hh = np.zeros((hi, hi))

    def add(self, rows, w: np.ndarray, g: np.ndarray | None = None) -> None:
        """Add the slab of hi rows `rows` with weights w (rows, 2^b) times
        g[hi, lo % m] for g of shape (rows, m), or times 1 when g is None.
        With m > 1 this scales w in place."""
        x = x_hi = self.split.x_hi[rows]
        if g is not None and g.shape[1] > 1:  # a factor that varies along rows
            w3 = w.reshape(len(w), -1, g.shape[1])
            w3 *= g[:, None, :]
        elif g is not None:  # a row factor scales the hi spins instead
            x = x * g
        self.cols += x.T @ w
        self.hh += (x.T * w.sum(axis=1)) @ x_hi

    def scale(self, f: float) -> None:
        self.cols *= f
        self.hh *= f

    def sums(self) -> np.ndarray:
        """The (p, p) sums of u x x^T, in vertex order."""
        x_lo = self.split.x_lo
        b = x_lo.shape[1]
        p = b + len(self.hh)
        s = np.empty((p, p))
        s[:b, :b] = x_lo.T @ (x_lo * self.cols[-1][:, None])
        s[b:, :b] = self.cols @ x_lo
        s[:b, b:] = s[b:, :b].T
        s[b:, b:] = self.hh
        pos = np.argsort(self.split.order)
        return s[np.ix_(pos, pos)]


class _FirstSums:
    """Running sums over one pass of slabs of u x, with u the slab's
    weights times g[hi, lo % m], a factor that changes only with the hi
    index and the lowest log2(m) lo bits. The sums over those low bits
    need the slab summed over the other lo bits, and the sums over the
    other lo bits need it summed against g, so no state is scaled."""

    def __init__(self, split: _Split, m: int = 1):
        self.split = split
        self.low = np.zeros(m)
        self.high = np.zeros(len(split.x_lo) // m)
        self.hi = np.zeros(split.x_hi.shape[1])

    def add(self, rows, w: np.ndarray, g: np.ndarray | None = None) -> None:
        """Add the slab of hi rows `rows` with weights w (rows, 2^b) times
        g (rows, m), or times 1 when g is None."""
        w3 = w.reshape(len(w), -1, len(self.low))
        if g is None:
            g = np.ones((len(w), len(self.low)))
        self.high += np.einsum("rfj,rj->f", w3, g)
        gr = w3.sum(axis=1)
        gr *= g
        self.low += gr.sum(axis=0)
        self.hi += self.split.x_hi[rows].T @ gr.sum(axis=1)

    def sums(self) -> np.ndarray:
        """The length-p sums of u x, in vertex order."""
        x_lo = self.split.x_lo
        m = len(self.low)
        k = m.bit_length() - 1
        f = np.concatenate((x_lo[:m, :k].T @ self.low, x_lo[::m, k:].T @ self.high, self.hi))
        return f[np.argsort(self.split.order)]


@dataclass
class ExactDistribution:
    """Moment oracle over the full 2^p state space.

    corr[i-1, j-1] holds E{X_i X_j}. Other expectations re-stream the
    state space by split enumeration: vertices 1..b form the lo half and
    b+1..p the hi half, so a state is a (hi, lo) pair with energy
    H_hi[hi] + H_lo[lo] + x_hi J x_lo^T. Slabs of hi rows against every lo
    column are reduced by matrix products, which costs O(p 2^p) and keeps
    memory bounded by the slab size whatever p is. A pass of pair sums
    reduces each slab to one product of the hi spins with it and to its
    row sums, and forms the hi-lo and lo-lo blocks once, at the end of
    the pass.
    field_moments streams a split of its own, with the root's support
    first into the hi half, so its local field is constant along hi rows.

    Only the 2^(p-1) states with x_p = +1 are walked. The couplings are
    pairwise and there is no external field, so x and -x have the same
    energy, and every expectation over all states is read from that half:
    each method below says how.

    Built from a graph and its coupling field, it computes log_z and corr
    at once: weights are taken relative to the running maximum energy (a
    streaming log-sum-exp over slabs, the sums so far rescaled whenever
    the maximum rises), so none overflows and the largest is 1. The half
    holds half of Z and the same pair moments as the whole, so log Z
    gains log 2 and corr is the half's.
    """

    graph: Graph
    field: CouplingField
    log_z: float = dc_field(init=False)
    corr: np.ndarray = dc_field(init=False)
    _split: _Split = dc_field(init=False, repr=False)

    def __post_init__(self):
        p = self.graph.p
        if p > ENUMERATION_MAX_P:
            raise EnumerationTooLarge(
                f"p={p} exceeds the enumeration budget of {ENUMERATION_MAX_P}"
            )
        # vertex p is the top bit of the hi index: its +1 rows are walked
        self._split = _split_tables(self.field, np.arange(p), _spin_table(min(p - 1, _LO_BITS)))
        shift = -math.inf
        z = 0.0
        acc = _PairSums(self._split)
        for rows, e in self._slabs(self._split):
            top = float(e.max())
            if top > shift:
                scale = math.exp(shift - top)
                z *= scale
                acc.scale(scale)
                shift = top
            e -= shift
            w = np.exp(e, out=e)
            z += float(w.sum())
            acc.add(rows, w)
        self.log_z = shift + math.log(z) + math.log(2.0)
        self.corr = acc.sums() / z
        np.fill_diagonal(self.corr, 1.0)

    def _slabs(self, split: _Split):
        """Yield (rows, E): a slice of hi indices of the split and the
        energies of those rows against every lo index, shape (rows, 2^b).
        The one reduction that every expectation streams through; it
        covers the half of the states whose last split vertex is +1."""
        rows_per_slab = max(1, _SLAB_STATES // len(split.x_lo))
        for start in range(0, len(split.x_hi), rows_per_slab):
            rows = slice(start, start + rows_per_slab)
            e = split.x_hi[rows] @ split.cross
            e += split.h_hi[rows, None]
            e += split.h_lo
            yield rows, e

    def _weights(self, split: _Split):
        """Yield (rows, W) with W twice the slab's state probabilities, so
        that a sum of W f over the half is E{f(X)} for any even f."""
        for rows, e in self._slabs(split):
            e -= self.log_z - math.log(2.0)
            yield rows, np.exp(e, out=e)

    def _spin_blocks(self):
        """Yield (rows, W, X) per slab of the constructor's split: W as
        _weights gives it, and X the slab's states, hi row by hi row, as a
        read-only (W.size, p) view in vertex order of one buffer, whose lo
        columns, the same in every slab, are filled once."""
        p = self.graph.p
        split = self._split
        n_lo, b = split.x_lo.shape
        block = np.empty((0, n_lo, p))
        for rows, w in self._weights(split):
            if len(block) < len(w):
                block = np.empty((len(w), n_lo, p))
                block[:, :, :b] = split.x_lo
            block[: len(w), :, b:] = split.x_hi[rows, None, :]
            X = block[: len(w)].reshape(-1, p)
            X.flags.writeable = False
            yield rows, w, X

    def half_states(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, W): the 2^(p-1) walked states, those with x_p = +1, as a float
        design in vertex order, and twice their probabilities as a column, so
        that sum(W f(X)) = E{f(X)} for every even f."""
        blocks = [(X.copy(), w.reshape(-1, 1)) for _, w, X in self._spin_blocks()]
        return tuple(np.concatenate(part) for part in zip(*blocks))

    def expectation_vector(self, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """E{X_v fn(X)} for every vertex, as a length-p array; fn maps a
        read-only (B, p) block of spins to (B,).

        fn need be neither even nor odd, so each block goes to fn twice,
        as X and as -X: x_v fn(x) + (-x_v) fn(-x) is the pair's share."""
        acc = _FirstSums(self._split)
        for rows, w, X in self._spin_blocks():
            neg = -X
            neg.flags.writeable = False
            odd = np.asarray(fn(X), dtype=np.float64) - fn(neg)
            acc.add(rows, 0.5 * w * odd.reshape(w.shape))
        return acc.sums()

    def field_moments(self, row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """E{X X^T sech^2(h)} and E{X tanh(h)} for the local field h = X . row.

        With row the couplings of vertex r (row[r-1] = 0) these are the
        Hessian and the model term of the gradient of r's conditional
        log-likelihood at the true couplings. h is odd in X, so both
        summands are even and the half needs no correction.

        The pass runs over a split of its own, with the constructor's lo
        table, that puts the row's support in the hi half. When the support
        is larger than the hi half, the support vertices left over take the
        lowest s bits of the lo index, below the vertices off the support.
        h is then constant along each hi row, or repeats along it with
        period 2^s, so tanh and sech^2 are taken once per distinct value,
        per hi row and low lo bits, and scale the slab as row weights, or
        as weights of the 2^s low-bit patterns. (With the support in the
        top lo bits instead, a dense row's constant runs are two columns
        long, and scaling by runs made the pass slower than a tanh and a
        cosh per state.)"""
        row = np.asarray(row, dtype=np.float64)
        on = row != 0
        sup = np.flatnonzero(on)
        x_lo = self._split.x_lo
        b = x_lo.shape[1]
        s = max(0, len(sup) - (self.graph.p - b))
        split = _split_tables(self.field, np.r_[sup[:s], np.flatnonzero(~on), sup[s:]], x_lo)
        coef = row[split.order]
        h_hi = split.x_hi @ coef[b:]
        h_lo = split.x_lo[: 1 << s] @ coef[:b]
        pairs, firsts = _PairSums(split), _FirstSums(split, 1 << s)
        # h and sech^2 of each slab, in buffers that every slab reuses
        buf = np.empty((2, 0, len(h_lo)))
        for rows, w in self._weights(split):
            if buf.shape[1] < len(w):
                buf = np.empty((2, len(w), len(h_lo)))
            h, sech2 = buf[:, : len(w)]
            np.add(h_hi[rows, None], h_lo, out=h)
            with np.errstate(over="ignore"):  # cosh past float range: sech^2 is 0
                np.reciprocal(np.square(np.cosh(h, out=sech2), out=sech2), out=sech2)
            firsts.add(rows, w, np.tanh(h, out=h))
            pairs.add(rows, w, sech2)
        return pairs.sums(), firsts.sums()

    def down_count_pmf(self, coef) -> np.ndarray:
        """pmf of T(X) = sum_v coef[v-1] [X_v = -1] for non-negative integer
        coefficients, indexed by T = 0..sum(coef).

        T(-x) = sum(coef) - T(x), so with h the table over the half the
        pmf is (h + h reversed) / 2."""
        coef = np.asarray(coef, dtype=np.int64)
        if coef.shape != (self.graph.p,) or coef.min(initial=0) < 0:
            raise ValueError("coef must hold p non-negative integers")
        split = self._split
        b = split.x_lo.shape[1]
        # Sum each side by its own value of T first (an indicator product
        # done as two bincounts), so no bin adds more than 2^b states in a
        # row and the index arrays stay the size of a slab.
        v_lo, i_lo = np.unique((split.x_lo < 0) @ coef[:b], return_inverse=True)
        v_hi, i_hi = np.unique((split.x_hi < 0) @ coef[b:], return_inverse=True)
        n_lo = len(v_lo)
        table = np.zeros(len(v_hi) * n_lo)
        for rows, w in self._weights(split):
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
    """Exact partition function and pair correlations of g under theta (a
    CouplingField or one coupling on every edge) by full enumeration."""
    return ExactDistribution(g, _as_field(g, theta))


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


# the most sweeps heatbath.c's int64 arguments carry (numpy refuses more rows)
_MAX_COUNT = 2**63 - 1


class _Glauber:
    """Single-site heat-bath dynamics with uniformly random scan order.

    One sweep is p single-site updates. Draw (i, u) sets x[i] to +1 when
    u < P(+1) at i given its neighbors, and to -1 otherwise. With one
    coupling on every edge (or none) P(+1) is read from a row indexed by
    the count of +1 neighbors; with per-edge couplings it is
    1 / (1 + exp(-2h)), with h summed from 0.0 in neighbor_data order.

    sample() is the one method that advances a chain, for gibbs_sample and
    estimate_mixing alike, on the draws of chunks(). Where heatbath.c's
    copy of numpy's draws matches this numpy, the whole chain is one call
    of its chain, which draws too. Elsewhere sample() draws each chunk in
    numpy and hands it to chain, or, where no C compiler is usable, to
    _table_updates or _field_updates, the same arithmetic in Python. So
    the chain is the same on every path.

    In the ordered phase few draws flip, and the compiled table loop keeps
    each site's count of +1 neighbors, moving the counts of a flipped
    site's neighbors by +-1, so a draw that flips nothing reads no
    neighbor. Where many draws flip it counts the +1 neighbors afresh at
    each draw instead. It picks the mode for each block of 256 draws by
    the last block's share of flips (1/8 switches it), and builds the
    counts from x on the way into the kept-count mode. The mode and the
    counts last one sample() call, since counts are valid only for the
    spins they were built from. A draw reads the same table entry either
    way, so the chain is unchanged.
    """

    _CHUNK = 128  # sweeps of randomness drawn per batch

    def __init__(self, fld: CouplingField):
        self.p = fld.p
        nbrs, ths = fld.neighbor_data()
        theta0 = fld.homogeneous_value()
        table = theta0 is not None or not fld.couplings
        if table:
            maxdeg = max((len(x) for x in nbrs), default=0)
            t0 = 0.0 if theta0 is None else theta0
            ms = np.arange(-maxdeg, maxdeg + 1)
            with np.errstate(over="ignore"):  # exp(-2h) = inf gives P(+1) = 0
                probs = (1.0 / (1.0 + np.exp(-2.0 * t0 * ms))).tolist()
            # rows[i][c]: P(+1) at i when c neighbors are +1, a sum of 2c - deg(i)
            rows = [tuple(probs[maxdeg + 2 * c - len(nb)] for c in range(len(nb) + 1))
                    for nb in nbrs]
        else:
            rows = ths
        lib = _loop()
        self._table, self._chain, self._draws = table, None, False
        if lib is None:
            self._graph = nbrs, rows
            self._updates = _table_updates if table else _field_updates
            return
        # site i's neighbors are nbr[start[i]:start[i + 1]]; w holds the
        # rows one after another, or the couplings in nbr's order
        self._arrays = (np.cumsum([0] + [len(nb) for nb in nbrs], dtype=np.int64),
                        np.array([j for nb in nbrs for j in nb], dtype=np.int64),
                        np.array([v for r in rows for v in r], dtype=np.float64))
        self._graph = ctypes.create_string_buffer(lib.graph_size())
        lib.graph_init(self._graph, self.p, *self._arrays)
        self._chain, self._draws = lib.chain, _draws_in_c()

    def initial_state(self, rng) -> list:
        return (rng.integers(0, 2, self.p) * 2 - 1).tolist()

    def chunks(self, nsweeps: int, rng):
        """The draws of nsweeps sweeps, in chunks of at most _CHUNK sweeps:
        each chunk's sites, then its uniforms, drawn when it is asked for."""
        for done in range(0, nsweeps, self._CHUNK):
            k = min(self._CHUNK, nsweeps - done)
            yield rng.integers(0, self.p, size=k * self.p), rng.random(k * self.p)

    def sample(self, x: np.ndarray, burn_in: int, thin: int, out: np.ndarray, rng,
               stop: bool = False) -> int:
        """Advance the int8 spins x through burn_in sweeps and then len(out)
        blocks of thin sweeps, copying x into out[l] after block l; returns
        the burn-in sweeps run. With stop the burn-in, and the call, ends
        after the first sweep that leaves sum(x) < 0, the mixing estimate's
        rule. The draws are those of chunks(), made by heatbath.c where its
        copy matches numpy and rng is a Generator, and by rng elsewhere."""
        if len(x) != self.p or out.shape[1:] != (self.p,):
            raise ValueError(f"{len(x)} spins and rows of shape {out.shape[1:]}, "
                             f"where p = {self.p}")
        for name, v in (("max_sweeps" if stop else "burn_in", burn_in), ("thin", thin)):
            if not 0 <= v <= _MAX_COUNT:
                raise ValueError(f"{name} = {v}: the sampler counts sweeps from 0 to 2**63 - 1")
        state = np.zeros(self.p + 1, dtype=np.int32)  # the table loop's mode, then its counts
        if self._draws and isinstance(rng, np.random.Generator):
            # the chunk buffers are numpy's, so a size beyond memory raises here
            k = min(self._CHUNK, max(burn_in, thin)) * self.p
            sites, us, bitgen = np.empty(k, dtype=np.int64), np.empty(k), rng.bit_generator
            with bitgen.lock:
                ran = self._chain(self._graph, self._table, bitgen.ctypes.bit_generator,
                                  self._CHUNK, burn_in, thin, len(out), stop, x, out, sites, us,
                                  k, state)
            if ran == -1:
                raise ValueError(f"heatbath.c draws no sites for p = {self.p}")
            if ran < 0:
                raise RuntimeError(f"heatbath.c's chain would draw a chunk past its {k} "
                                   f"buffered draws")
            return ran
        ran = 0
        for sites, us in self.chunks(burn_in, rng):
            ran += self._apply(x, sites, us, stop, state)
            if stop and x.sum() < 0:
                return ran
        for row in out:
            for sites, us in self.chunks(thin, rng):
                self._apply(x, sites, us, False, state)
            row[:] = x
        return ran

    def _apply(self, x, sites, us, stop, state) -> int:
        """Apply one chunk of draws to x in order; returns the sweeps run,
        fewer than the chunk's only where stop ended it. The compiled loop
        reads through pointers, so draws of other lengths raise, and there a
        site outside 0..p-1 does too, before any draw is applied."""
        k = len(us) // self.p
        if len(sites) != len(us) or len(us) != k * self.p:
            raise ValueError(f"{len(sites)} sites and {len(us)} uniforms, where p = {self.p}")
        if self._chain is not None:  # no generator: a burn-in of this chunk, and no rows
            ran = self._chain(self._graph, self._table, None, k, k, 0, 0, stop, x, x, sites, us,
                              len(us), state)
            if ran < 0:
                raise IndexError(f"a site is outside 0..{self.p - 1}")
            return ran
        step = self.p if stop else len(us)  # the stop rule reads sum(x) after each sweep
        for j in range(0, len(us), step):
            if self._updates(self._graph, step, sites[j:j + step], us[j:j + step], x) < 0 and stop:
                return (j + step) // self.p
        return k


def _table_updates(graph, n, sites, us, x) -> int:
    """heatbath.c's table loop in Python, on graph = (neighbor lists,
    rows): P(+1) at i is rows[i][c], c the count of +1 neighbors."""
    nbrs, rows = graph
    xs = x.tolist()
    for i, u in zip(sites.tolist(), us.tolist()):
        c = 0
        for j in nbrs[i]:
            c += xs[j] > 0
        xs[i] = 1 if u < rows[i][c] else -1
    x[:] = xs
    return sum(xs)


def _field_updates(graph, n, sites, us, x) -> int:
    """heatbath.c's per-edge loop in Python, on graph = (neighbor lists,
    coupling lists): h summed from 0.0 in neighbor order, and
    P(+1) = 1 / (1 + exp(-2h)), 0.0 where exp overflows."""
    nbrs, ths = graph
    xs = x.tolist()
    for i, u in zip(sites.tolist(), us.tolist()):
        h = 0.0
        for j, th in zip(nbrs[i], ths[i]):
            h += th if xs[j] > 0 else -th
        try:
            prob = 1.0 / (1.0 + math.exp(-2.0 * h))
        except OverflowError:
            prob = 0.0
        xs[i] = 1 if u < prob else -1
    x[:] = xs
    return sum(xs)


def _loop():
    """The compiled loop, or None where no C compiler is usable. The loader
    is imported on first use of the sampler: its imports would add about
    10 ms to importing the package."""
    from . import _compiled

    return _compiled.loop()


def _draws_in_c() -> bool:
    """Whether heatbath.c's copy of numpy's draws gives this numpy's stream
    (checked once per process)."""
    from . import _compiled

    return _compiled.draws_match()


def sampler_loop() -> str:
    """Which heat-bath loop the sampler runs: "compiled", where each chain
    (gibbs_sample's and the mixing estimate's) is one call of heatbath.c's
    chain, draws too; "numpy-draws", that chain fed numpy's draws a chunk
    at a time, where heatbath.c's copy of them does not give this numpy's
    stream; or "python" where no C compiler is usable. Each gives the same
    chain, the last several times slower."""
    if _loop() is None:
        return "python"
    return "compiled" if _draws_in_c() else "numpy-draws"


@dataclass(frozen=True)
class MixingEstimate:
    sweeps: int
    saturated: bool


def estimate_mixing(g: Graph, theta, seed: int, max_sweeps: int = 10_000) -> MixingEstimate:
    """Sweeps until the magnetization M = sum(x) first goes negative,
    started all-(+1): one chain, stopped after the first sweep that leaves
    M < 0, or saturated after max_sweeps without one.

    A conservative relaxation-time proxy that measures an odd observable:
    M changes sign under x -> -x, so this is the time the chain takes to
    change phase, which in the ordered phase saturates at max_sweeps. The
    learners read only even statistics of the samples (pair moments, and
    a pseudo-likelihood even under x -> -x), which this does not measure.
    """
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    kern = _Glauber(_as_field(g, theta))
    x = np.ones(g.p, dtype=np.int8)
    sweeps = kern.sample(x, max_sweeps, 0, np.empty((0, g.p), dtype=np.int8),
                         np.random.default_rng(seed), stop=True)
    return MixingEstimate(sweeps, bool(x.sum() >= 0))


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
    if mixing_cap < 1:
        raise ValueError(f"mixing_cap must be >= 1, got {mixing_cap}")
    if burn_in is not None and thin is not None:
        return burn_in, thin, None
    est = estimate_mixing(g, theta, seed, max_sweeps=mixing_cap)
    b, t = _settings_from_sweeps(est.sweeps)
    return b if burn_in is None else burn_in, t if thin is None else thin, est


def _seeded_settings(g: Graph, theta, burn_in, thin, seed: int, mixing_cap: int):
    """(burn_in, thin, estimate, chain seed) of gibbs_sample at `seed`: the
    mixing estimate and the chain each take one child of the seed."""
    mix_seed, run_seed = np.random.SeedSequence(seed).spawn(2)
    return *default_sampler_settings(
        g, theta, burn_in, thin, mix_seed.generate_state(1)[0], mixing_cap
    ), run_seed


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
    burn_in, thin, _, run_seed = _seeded_settings(g, theta, burn_in, thin, seed, mixing_cap)
    if burn_in < 1 or thin < 1:
        raise ValueError("burn_in and thin must be >= 1")
    fld = _as_field(g, theta)
    kern = _Glauber(fld)
    rng = np.random.default_rng(run_seed)
    x = np.array(kern.initial_state(rng), dtype=np.int8)
    out = np.empty((n, g.p), dtype=np.int8)
    kern.sample(x, burn_in, thin, out, rng)
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


# Bytes read and parsed per block by read_samples, and written per block by
# write_samples; bounds their temporaries whatever the file size (a longer
# line is read or written whole).
_READ_BLOCK_BYTES = 1 << 16
_WRITE_BLOCK_BYTES = 1 << 16
_SPIN_TOKENS = (b"+1", b"-1", b"1")
# the three bytes of a -1 and of a +1 spin, each with the space after it
_SPIN_BYTES = np.frombuffer(b"-1 +1 ", dtype=np.uint8).reshape(2, 3)


def write_samples(s: SampleSet, path) -> None:
    """Header `n p seed burn_in thin`, then one +/-1 row per sample, its
    spins separated by single spaces. The rows are written a block at a
    time, each row the spins' tokens with the last space made a line
    end."""
    rows = max(1, _WRITE_BLOCK_BYTES // (3 * s.p))
    with open(path, "w") as fh:
        fh.write(f"{s.n} {s.p} {s.seed} {s.burn_in} {s.thin}\n")
        for r in range(0, s.n, rows):
            text = _SPIN_BYTES[(s.spins[r:r + rows] > 0).view(np.uint8)].reshape(-1, 3 * s.p)
            text[:, -1] = ord("\n")
            fh.write(text.tobytes().decode("ascii"))


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
