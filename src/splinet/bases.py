"""B-spline bases and their orthonormalization.

B-splines are built by an order-raising recursion directly on derivative
matrices: the order-q matrix of member l is a weighted combination of the
order-(q-1) matrices of members l and l+1, with weights given by diagonal
knot-distance matrices; each step runs over all members at once.  Three
orthonormalization schemes act on the Gram matrix H and produce a
coefficient transform P with P' H P = I:

* ``gsob``  -- one-sided Gram-Schmidt: columns one at a time, left to right
  (triangular P);
* ``twob``  -- two-sided scheme working inward from both ends in pairs;
* ``dyadic``-- the splinet: disjoint k-tuples arranged on a dyadic net,
  processed level by level; each tuple is projected orthogonal to the
  already-processed members it overlaps and then orthonormalized
  internally with a symmetric (inverse square root) step.

All three run on one orthogonalizer that reads H only through its band
(B-splines i and j overlap iff ``|i - j| <= k``) and forms no d x d array.
Every column of P keeps its own row range, that of the part of its group H
couples it with, and ``P`` is returned as a ``scipy.sparse`` CSC matrix.

For equidistant knots and a complete net every B-spline is a translate of
every other, H is Toeplitz, and one tuple per level suffices: the rest are
obtained by shifting rows and columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.linalg.blas import dsbmv as _dsbmv

from .calculus import gramian, lincomb
from .core import ONE_SIDED, KnotSet, SplineFamily, _family, _ranges

#: entries of P smaller than this (relative to max |P|) are set to zero
P_TRUNCATION = 1e-11


# ---------------------------------------------------------------------------
# B-splines


def bspline_basis(knots, k, normalize=False):
    """The n-k+1 B-splines of order k as a family of type ``bs``."""
    if not isinstance(knots, KnotSet):
        knots = KnotSet(np.asarray(knots, dtype=float))
    n = knots.n
    if n < k:
        raise ValueError("need at least k internal knots for order-k B-splines")
    xi = knots.xi

    # one step raises the order of every member at once; on equidistant
    # knots every member is a translate, so a single block, anchored at
    # l = 0, is carried through the recursion and tiled
    equid = knots.equid
    blk = np.zeros((1 if equid else n + 1, 2, 1))
    blk[:, 0] = 1.0
    for q in range(1, k + 1):
        left, right = (blk, blk) if equid else (blk[:-1], blk[1:])
        seg = np.lib.stride_tricks.sliding_window_view(xi, q + 2)[: left.shape[0]]
        blk = _raise_order(left, right, seg, q)
    rows = np.tile(blk[0], (n - k + 1, 1)) if equid else blk.reshape(-1, k + 1)

    # member l lives on knots l..l+k+1: zero boundary values and last row
    lo = np.arange(n - k + 1)
    rows[lo * (k + 2), :k] = 0.0
    rows[lo * (k + 2) + k + 1] = 0.0
    fam = _family(knots, k, rows, lo, lo + k + 1, np.arange(n - k + 2), ONE_SIDED, "bs")
    if normalize:
        norms = np.sqrt(gramian(fam, sparse=True).diagonal())
        fam = lincomb(fam, np.diag(1.0 / norms), type="bs")
    return fam


def _raise_order(blk_l, blk_r, seg, q):
    """One order-raising step for every member l at once: the blocks of
    members l and l+1 (``(L, q+1, q)`` each) combine over knots ``seg[l]``."""
    p1 = np.zeros((seg.shape[0], q + 2, q))
    p1[:, :-1] = blk_l
    p2 = np.zeros_like(p1)
    p2[:, 1:] = blk_r
    lam1 = (seg - seg[:, :1])[:, :, None]
    lam2 = (seg - seg[:, -1:])[:, :, None]
    d1 = (seg[:, -2] - seg[:, 0])[:, None, None]
    d2 = (seg[:, 1] - seg[:, -1])[:, None, None]
    out = np.zeros((seg.shape[0], q + 2, q + 1))
    j = np.arange(1, q + 1)
    out[:, :, 1:] = p1 * j / d1 + p2 * j / d2
    out[:, :, :q] += lam1 * p1 / d1 + lam2 * p2 / d2
    return out


# ---------------------------------------------------------------------------
# dyadic net


@dataclass(frozen=True)
class DyadicNet:
    """Assignment of basis indices (0-based) to k-tuples on dyadic levels.

    ``levels[i]`` is the tuple list of level i+1, each tuple an index array.
    A complete net has 2^{N-l} full tuples on level l for l = 1..N.
    """

    levels: tuple
    complete: bool
    k: int

    @property
    def n_levels(self):
        return len(self.levels)

    def all_tuples(self):
        for lv in self.levels:
            yield from lv


def net_layout(n, k):
    """Lay the d = n-k+1 basis indices out on the dyadic net.

    Tuple t (1-based) sits on level l when t = 2^{l-1} (mod 2^l); a trailing
    group shorter than k makes the net incomplete, as does a tuple count
    other than 2^N - 1.
    """
    if n < k:
        raise ValueError("need n >= k")
    d = n - k + 1
    size = max(k, 1)
    tuples = [tuple(range(t, min(t + size, d))) for t in range(0, d, size)]
    n_tuples = len(tuples)
    n_levels = n_tuples.bit_length()
    levels = [[] for _ in range(n_levels)]
    for t, tup in enumerate(tuples, start=1):
        level = (t & -t).bit_length() - 1  # trailing zeros of t
        levels[level].append(tup)
    complete = n_tuples == 2**n_levels - 1 and all(
        len(tup) == size for tup in tuples
    )
    return DyadicNet(tuple(tuple(lv) for lv in levels), complete, k)


# ---------------------------------------------------------------------------
# Gram diagonalization


@dataclass(frozen=True)
class TransformMatrix:
    """Coefficient transform P with P' H P = I and its sparsity count.

    ``P`` is a ``scipy.sparse`` CSC matrix; column j holds the coefficients
    of orthonormal member j against the B-splines.
    """

    P: scipy.sparse.csc_matrix
    nnz: int


def _truncate(p):
    mag = np.abs(p.data)
    p.data[mag < P_TRUNCATION * mag.max(initial=0.0)] = 0.0
    p.eliminate_zeros()
    return TransformMatrix(p, p.nnz)


def _lower_band(h, k):
    """LAPACK lower band storage ``ab[u, i] = H[i+u, i]``, u = 0..k."""
    d = h.shape[0]
    ab = np.zeros((min(k, d - 1) + 1, d))
    for u in range(ab.shape[0]):
        ab[u, : d - u] = h.diagonal(-u)
    return ab


def _check_spd(h):
    """Validate a symmetric positive definite Gram matrix, dense or sparse.

    Returns the (symmetrized) matrix as CSR and its band width.
    """
    if not scipy.sparse.issparse(h):
        h = np.asarray(h, dtype=float)
        if h.ndim != 2:
            raise ValueError("gram matrix must be square")
    h = scipy.sparse.csr_matrix(h, dtype=float)
    if h.shape[0] != h.shape[1]:
        raise ValueError("gram matrix must be square")
    if not np.all(np.isfinite(h.data)):
        raise ValueError("gram matrix must be finite")
    asym = h - h.T
    if asym.count_nonzero():
        scale = max(1.0, float(abs(h).max()))
        if float(abs(asym).max()) > 1e-10 * scale:
            raise ValueError("gram matrix must be symmetric")
        h = h - 0.5 * asym
    d = h.shape[0]
    coo = h.tocoo()
    nz = coo.data != 0
    band = int(np.max(coo.row[nz] - coo.col[nz])) if nz.any() else 0
    tau = 1e-12 * float(h.diagonal().sum())
    if band < d // 4:
        # banded: H - tau*I admits a Cholesky factor iff min eig > tau
        ab = _lower_band(h, band)
        ab[0] -= tau
        try:
            scipy.linalg.cholesky_banded(ab, lower=True)
        except np.linalg.LinAlgError:
            raise ValueError("gram matrix is not positive definite")
    elif np.linalg.eigvalsh(h.toarray())[0] <= tau:
        raise ValueError("gram matrix is not positive definite")
    return h, band


def _lowdin(m):
    if m.shape == (1, 1):
        if m[0, 0] <= 0:
            raise ValueError("tuple gram block is not positive definite")
        return 1.0 / np.sqrt(m)
    w, v = np.linalg.eigh(m)
    if w[0] <= 0:
        raise ValueError("tuple gram block is not positive definite")
    return (v / np.sqrt(w)) @ v.T


class _GroupOrthogonalizer:
    """Project a group of columns H-orthogonal to the finished columns it
    couples with, then orthonormalize it internally.

    H is read through its lower band of width ``k`` only.  Finished column j
    of P is nonzero on rows ``lo[j]..hi[j]`` alone and couples with unit
    vector ``e_g`` iff that range meets ``g-k..g+k``.  A group is split into
    the parts H couples: column ranges (own index plus the ranges of the
    columns it couples with) that come within ``k`` of each other share a
    part, and each part is projected and orthonormalized on its own rows.
    Far apart columns (a ``twob`` pair away from the middle) become separate
    parts; a contiguous tuple is always one part.  Each part's dense block
    is kept once, with every column holding a view of it, so translating a
    tuple (the Toeplitz path) shares the block instead of copying it.
    """

    def __init__(self, h, k):
        self.ab = np.asfortranarray(_lower_band(h, k))
        self.k = self.ab.shape[0] - 1
        d = self.ab.shape[1]
        # unfinished columns get a range no index can couple with
        self.lo = np.full(d, d + self.k)
        self.hi = np.full(d, -self.k - 1)
        self.cols = [None] * d

    def _hmul(self, r0, x):
        """``H[r0:r0+m, r0:r0+m] @ x`` from the band, m = len(x)."""
        ab = self.ab[:, r0 : r0 + x.shape[0]]
        return np.column_stack([_dsbmv(self.k, 1.0, ab, col, lower=1) for col in x.T])

    def process(self, group):
        """Finish the columns of ``group`` (ascending indices)."""
        g = np.asarray(group)
        k = self.k
        near = np.flatnonzero((self.hi >= g[0] - k) & (self.lo <= g[-1] + k))
        if np.all(np.diff(g) <= k):
            # H couples neighbouring columns directly: one part
            self._process_part(g, min(g[0], self.lo[near].min(initial=g[0])),
                               max(g[-1], self.hi[near].max(initial=g[-1])), near)
            return
        lo, hi = self.lo[near], self.hi[near]
        coupled = (hi >= g[:, None] - k) & (lo <= g[:, None] + k)
        r0 = np.minimum(g, np.where(coupled, lo, g[:, None]).min(axis=1, initial=g[-1]))
        r1 = np.maximum(g, np.where(coupled, hi, g[:, None]).max(axis=1, initial=g[0]))
        order = np.argsort(r0, kind="stable")
        reach = np.maximum.accumulate(r1[order])
        cuts = np.flatnonzero(r0[order][1:] > reach[:-1] + k) + 1
        for part in np.split(order, cuts):
            self._process_part(g[part], r0[part].min(), r1[part].max(),
                               near[coupled[part].any(axis=0)])

    def _process_part(self, cols, r0, r1, act):
        e = np.zeros((r1 - r0 + 1, cols.size))
        e[cols - r0, np.arange(cols.size)] = 1.0
        if act.size:
            q = np.zeros((e.shape[0], act.size))
            for c, j in enumerate(act):
                q[self.lo[j] - r0 : self.hi[j] - r0 + 1, c] = self.cols[j]
            # H e vanishes outside the rows within k of the part's columns
            w = slice(max(cols.min() - self.k, r0) - r0, min(cols.max() + self.k, r1) - r0 + 1)
            e = e - q @ (q[w].T @ self._hmul(r0 + w.start, e[w]))
        e = e @ _lowdin(e.T @ self._hmul(r0, e))
        blk = np.asfortranarray(e)
        self.lo[cols] = r0
        self.hi[cols] = r1
        for c, j in enumerate(cols):
            self.cols[j] = blk[:, c]

    def translate(self, src, dst, offset):
        """Finish columns ``dst`` as the columns ``src`` shifted down by ``offset`` rows."""
        src, dst = np.asarray(src), np.asarray(dst)
        self.lo[dst] = self.lo[src] + offset
        self.hi[dst] = self.hi[src] + offset
        for s, t in zip(src, dst):
            self.cols[t] = self.cols[s]

    def transform(self):
        """P as CSC, once every column is finished."""
        d = self.ab.shape[1]
        lengths = self.hi - self.lo + 1
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        return scipy.sparse.csc_matrix(
            (np.concatenate(self.cols), _ranges(self.lo, lengths), indptr), shape=(d, d))


def _gsob(h, k):
    g = _GroupOrthogonalizer(h, k)
    for j in range(h.shape[0]):
        g.process((j,))
    return g.transform()


def _twob(h, k):
    g = _GroupOrthogonalizer(h, k)
    left, right = 0, h.shape[0] - 1
    while left < right:
        g.process((left, right))
        left += 1
        right -= 1
    if left == right:
        g.process((left,))
    return g.transform()


def _dyadic(h, k, net, toeplitz=False):
    g = _GroupOrthogonalizer(h, k)
    for lv in net.levels:
        if toeplitz and lv:
            g.process(lv[0])
            step = lv[1][0] - lv[0][0] if len(lv) > 1 else 0
            for i, tup in enumerate(lv[1:], start=1):
                g.translate(lv[0], tup, i * step)
        else:
            for tup in lv:
                g.process(tup)
    return g.transform()


def diagonalize_gram(h, method="dyadic", net=None, k=None, _toeplitz=False):
    """Transform P with P' H P = I by one of the three schemes.

    ``h`` may be dense or ``scipy.sparse``.  Which columns couple is read
    off the band of ``h``; ``k`` is accepted for compatibility and unused.
    """
    h, band = _check_spd(h)
    if method == "gsob":
        p = _gsob(h, band)
    elif method == "twob":
        p = _twob(h, band)
    elif method == "dyadic":
        if net is None:
            raise ValueError("dyadic diagonalization needs a net")
        p = _dyadic(h, band, net, toeplitz=_toeplitz)
    else:
        raise ValueError("method must be one of gsob, twob, dyadic")
    return _truncate(p)


# ---------------------------------------------------------------------------
# the splinet


@dataclass(frozen=True)
class SplinetResult:
    bs: SplineFamily
    os: SplineFamily | None
    net: DyadicNet
    transform: TransformMatrix | None


def splinet(knots, k, type="spnt", normalize=False, use_toeplitz=None):
    """B-spline basis plus (unless ``type='bs'``) an orthonormalized one.

    ``type`` selects the scheme: ``spnt``/``dspnt`` for the dyadic net
    (the tag in the result reflects whether the net is complete), ``gsob``
    and ``twob`` for the one- and two-sided schemes, ``bs`` for the plain
    basis only.  The equidistant complete-net case computes one tuple per
    level and translates it; ``use_toeplitz=False`` forces the general path.
    """
    if not isinstance(knots, KnotSet):
        knots = KnotSet(np.asarray(knots, dtype=float))
    if type not in ("spnt", "dspnt", "gsob", "twob", "bs"):
        raise ValueError("unknown basis type %r" % (type,))
    bs = bspline_basis(knots, k, normalize=normalize)
    net = net_layout(knots.n, k)
    if type == "bs":
        return SplinetResult(bs, None, net, None)
    if type in ("spnt", "dspnt"):
        fast = knots.equid and net.complete if use_toeplitz is None else use_toeplitz
        tr = diagonalize_gram(gramian(bs, sparse=True), "dyadic", net=net, _toeplitz=fast)
        tag = "dspnt" if net.complete else "spnt"
    else:
        tr = diagonalize_gram(gramian(bs, sparse=True), type)
        tag = type
    # dense P' until bench/spans.count_coeff_nnz can count sparse coefficients
    os_fam = lincomb(bs, tr.P.T.toarray(), type=tag)
    return SplinetResult(bs, os_fam, net, tr)
