"""B-spline bases and their orthonormalization.

B-splines are built by an order-raising recursion directly on derivative
matrices: the order-q matrix of member l is a weighted combination of the
order-(q-1) matrices of members l and l+1, with weights given by diagonal
knot-distance matrices; each step runs over all members at once.  Three
orthonormalization schemes act on the Gram matrix H and produce a
coefficient transform P with P' H P = I:

* ``gsob``  -- one-sided Gram-Schmidt: columns one at a time, left to right
  (triangular P);
* ``twob``  -- two-sided scheme working inward from both ends in pairs, a
  pair more than k apart one column at a time (its columns do not couple);
* ``dyadic``-- the splinet: disjoint k-tuples arranged on a dyadic net,
  processed level by level; each tuple is projected orthogonal to the
  already-processed members it overlaps and then orthonormalized
  internally with a symmetric (inverse square root) step.

All three run on one orthogonalizer that reads H only through its band
(B-splines i and j overlap iff ``|i - j| <= k``) and forms no d x d array.
Every column of P keeps its own row range, trimmed to its decay length: the
entries of the inverse of a band matrix, and of its inverse Cholesky
factor, decay exponentially away from the diagonal (Demko, Moss & Smith,
1984, *Decay rates for inverses of band matrices*), so a finished column
keeps only the rows whose entries exceed ``P_WORKING_TRIM`` of its largest.
Later columns couple with those rows alone, and time and memory grow with
d times the decay length, not d^2, for every scheme.  P is returned as
compressed-sparse-column numpy arrays (:class:`TransformMatrix`); its
``scipy.sparse`` form is built on first use.
Everything here runs on numpy alone, the banded Cholesky factorization of the
positive-definiteness test included.

H is read once into its lower band, and that band decides the dyadic path:
when the net is complete, its tuples span the band and every band diagonal
is constant (H is Toeplitz, as on equidistant knots), one tuple per level is
computed and the rest are obtained by shifting rows and columns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .calculus import _Csr, _as_csr, _gram, gramian, lincomb
from .core import ONE_SIDED, KnotSet, SplineFamily, _family, _ranges

#: entries of P smaller than this (relative to max |P|) are set to zero
P_TRUNCATION = 1e-11

#: a finished column of P keeps the rows from its first to its last entry
#: above this fraction of its largest, far below ``P_TRUNCATION``
P_WORKING_TRIM = 1e-17

#: largest spread of a band diagonal of H, relative to the band's largest
#: entry, for which the dyadic scheme treats H as Toeplitz
TOEPLITZ_TOL = 1e-10

#: the ``type`` values of :func:`splinet`
BASIS_TYPES = ("spnt", "dspnt", "gsob", "twob", "bs")


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

    # one step raises the order of every member at once
    blk = np.zeros((n + 1, 2, 1))
    blk[:, 0] = 1.0
    for q in range(1, k + 1):
        seg = np.lib.stride_tricks.sliding_window_view(xi, q + 2)[: blk.shape[0] - 1]
        blk = _raise_order(blk[:-1], blk[1:], seg, q)
    rows = blk.reshape(-1, k + 1)

    # member l lives on knots l..l+k+1: zero boundary values and last row
    lo = np.arange(n - k + 1)
    rows[lo * (k + 2), :k] = 0.0
    rows[lo * (k + 2) + k + 1] = 0.0
    fam = _family(knots, k, rows, lo, lo + k + 1, np.arange(n - k + 2), ONE_SIDED, "bs")
    if normalize:
        d = len(fam)
        scale = 1.0 / np.sqrt(_gram(fam, fam, True).diagonal())
        fam = lincomb(fam, _Csr(np.arange(d + 1), np.arange(d), scale, (d, d)), type="bs")
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
    levels = [[] for _ in range(len(tuples).bit_length())]
    for t, tup in enumerate(tuples, start=1):
        level = (t & -t).bit_length() - 1  # trailing zeros of t
        levels[level].append(tup)
    levels = tuple(tuple(lv) for lv in levels)
    return DyadicNet(levels, _net_complete(levels, k), k)


def _net_complete(levels, k):
    """Whether a net of ``levels`` (N of them) holds 2^N - 1 tuples, each of
    ``max(k, 1)`` indices."""
    tuples = [tup for lv in levels for tup in lv]
    return len(tuples) == 2 ** len(levels) - 1 and all(len(tup) == max(k, 1) for tup in tuples)


# ---------------------------------------------------------------------------
# Gram diagonalization


@dataclass(frozen=True)
class TransformMatrix:
    """Coefficient transform P with P' H P = I and its sparsity count.

    ``pt`` holds P in compressed-sparse-column numpy arrays (``indptr``,
    ``indices``, ``data``), which read by rows are P' (a
    :class:`~splinet.calculus._Csr`): column j holds the coefficients of
    orthonormal member j against the B-splines.  ``P``, the ``scipy.sparse``
    CSC matrix, is built from them on first access.
    """

    pt: _Csr

    @property
    def nnz(self):
        return self.pt.nnz

    @cached_property
    def P(self):
        import scipy.sparse

        pt = self.pt
        return scipy.sparse.csc_matrix((pt.data, pt.indices, pt.indptr), shape=pt.shape[::-1])


def _truncate(tr):
    """``tr`` without the entries of P below ``P_TRUNCATION`` of its largest."""
    pt = tr.pt
    mag = np.abs(pt.data)
    keep = (mag >= P_TRUNCATION * mag.max(initial=0.0)) & (mag > 0)
    cols = pt.rows()[keep]
    out = _Csr.from_sorted(cols, pt.indices[keep], pt.data[keep], pt.shape)
    return TransformMatrix(out)


#: rows of H per dense block of the banded Cholesky factorization
_CHOLESKY_BLOCK = 64

#: a Gram matrix H counts as positive definite when H - tau*I has a Cholesky
#: factor, tau this fraction of H's trace
SPD_SHIFT = 1e-12


def _band_block(ab, s, e):
    """``H[s:e, s:e]`` as a dense array, from H's lower band ``ab``."""
    n = e - s
    out = np.zeros((n, n))
    flat = out.reshape(-1)
    for u in range(min(ab.shape[0], n)):
        flat[u * n :: n + 1] = ab[u, s : e - u]  # H[i+u, i]
        flat[u : n * (n - u) : n + 1] = ab[u, s : e - u]  # H[i, i+u]
    return out


def _cholesky_banded(ab, shift=0.0):
    """Lower Cholesky factor of H - shift*I, H given by its lower band ``ab``
    of width w.

    H is factored in dense blocks of ``_CHOLESKY_BLOCK`` rows (at least w).  A
    block's rows meet earlier rows only in the w rows just before it, and
    all that those w rows carry from the rows before them is their Schur
    complement S.  So each block is factored together with those w rows,
    S in place of their own entries, and the trailing w x w of its factor,
    T, gives the next block's S = T T'.  Returns ``(factor, lead)`` per block,
    the first ``lead`` rows and columns of the factor those of the w rows
    before the block (none for the first).  Raises ``ValueError`` when
    H - shift*I is not positive definite.
    """
    w, d = ab.shape[0] - 1, ab.shape[1]
    size = max(_CHOLESKY_BLOCK, w)
    factors, carry = [], np.zeros((0, 0))
    for s in range(0, d, size):
        e = min(s + size, d)
        lead = carry.shape[0]
        a = _band_block(ab, s - lead, e)
        n = a.shape[0]
        a.reshape(-1)[lead * (n + 1) :: n + 1] -= shift
        a[:lead, :lead] = carry
        try:
            low = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            raise ValueError("gram matrix is not positive definite") from None
        factors.append((low, lead))
        tail = low[n - w :, n - w :]
        carry = tail @ tail.T
    return factors


def _cho_solve_banded(factors, b):
    """Solve ``H x = b`` for ``b`` of d rows, given :func:`_cholesky_banded`'s
    factors of H: forward through the blocks, then back."""
    y = np.array(b, dtype=float)
    bounds, e = [], 0
    for low, lead in factors:
        s, e = e, e + low.shape[0] - lead
        y[s:e] = np.linalg.solve(low[lead:, lead:], y[s:e] - low[lead:, :lead] @ y[s - lead : s])
        bounds.append((s, e))
    for j in range(len(factors) - 1, -1, -1):
        (low, lead), (s, e) = factors[j], bounds[j]
        if j + 1 < len(factors):
            after, a_lead = factors[j + 1]
            y[e - a_lead : e] -= after[a_lead:, :a_lead].T @ y[e : bounds[j + 1][1]]
        y[s:e] = np.linalg.solve(low[lead:, lead:].T, y[s:e])
    return y


def _check_spd(h):
    """Validate a symmetric positive definite Gram matrix: a dense array, a
    ``scipy.sparse`` matrix or :func:`~splinet.calculus.gramian`'s numpy
    container.

    Returns the (symmetrized) matrix's lower band in LAPACK storage,
    ``ab[u, i] = H[i+u, i]``, as wide as its farthest nonzero from the
    diagonal.  H - tau*I, tau ``SPD_SHIFT`` times H's trace, must admit a
    Cholesky factor, which holds iff H's smallest eigenvalue exceeds tau.
    """
    if np.ndim(h) != 2:
        raise ValueError("gram matrix must be square")
    h = _as_csr(h)
    if h.shape[0] != h.shape[1]:
        raise ValueError("gram matrix must be square")
    if not np.all(np.isfinite(h.data)):
        raise ValueError("gram matrix must be finite")
    # the lower band ab[u, i] = H[i+u, i] and its mirror H[i, i+u], read in
    # one pass over the entries
    rows, cols, data = h.rows(), h.indices, h.data
    off = rows - cols
    width = int(np.abs(off[data != 0]).max(initial=0))
    ab, up = np.zeros((2, width + 1, h.shape[0]))
    at = (off >= 0) & (off <= width)
    ab[off[at], cols[at]] = data[at]
    at = (off <= 0) & (off >= -width)
    up[-off[at], rows[at]] = data[at]
    asym = ab - up
    if np.any(asym):
        scale = max(1.0, float(np.abs(h.data).max()))
        if float(np.abs(asym).max()) > 1e-10 * scale:
            raise ValueError("gram matrix must be symmetric")
        ab -= 0.5 * asym
    _cholesky_banded(ab, SPD_SHIFT * ab[0].sum())
    return ab


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

    H is read through its lower band ``ab`` of width ``k`` only.  Finished column j
    of P is nonzero on rows ``lo[j]..hi[j]`` alone and couples with unit
    vector ``e_g`` iff that range meets ``g-k..g+k``.  A group is a run of
    indices, each within ``k`` of the next (a ``gsob`` singleton, a ``twob``
    pair near the middle, a dyadic tuple), so H couples it as a whole: it is
    projected and orthonormalized on the rows that its indices and the
    columns it couples with span.  Each finished column is trimmed to the rows from its first to its last entry above
    ``P_WORKING_TRIM`` of its largest and kept as a copy of that slice, so
    the group's block is freed; translating a tuple (the Toeplitz path)
    shares the columns instead of copying them.
    """

    def __init__(self, ab):
        self.ab = np.ascontiguousarray(ab)
        self.k = self.ab.shape[0] - 1
        d = self.ab.shape[1]
        # unfinished columns get a range no index can couple with
        self.lo = np.full(d, d + self.k)
        self.hi = np.full(d, -self.k - 1)
        self.cols = [None] * d

    def _hmul(self, r0, x):
        """``H[r0:r0+m, r0:r0+m] @ x`` from the band, m = len(x): one
        product per band diagonal and side."""
        m = x.shape[0]
        ab = self.ab[:, r0 : r0 + m]
        y = ab[0, :, None] * x
        for u in range(1, min(self.k, m - 1) + 1):
            band = ab[u, : m - u, None]
            y[u:] += band * x[: m - u]  # H[i+u, i] x[i]
            y[: m - u] += band * x[u:]  # H[i, i+u] x[i+u]
        return y

    def process(self, group):
        """Finish the columns of ``group`` (ascending indices, each within
        ``k`` of the next)."""
        g = np.asarray(group)
        k = self.k
        act = np.flatnonzero((self.hi >= g[0] - k) & (self.lo <= g[-1] + k))
        r0 = min(g[0], self.lo[act].min(initial=g[0]))
        r1 = max(g[-1], self.hi[act].max(initial=g[-1]))
        e = np.zeros((r1 - r0 + 1, g.size))
        e[g - r0, np.arange(g.size)] = 1.0
        if act.size:
            q = np.zeros((e.shape[0], act.size))
            for c, j in enumerate(act):
                q[self.lo[j] - r0 : self.hi[j] - r0 + 1, c] = self.cols[j]
            # H e vanishes outside the rows within k of the group's columns
            w = slice(max(g[0] - k, r0) - r0, min(g[-1] + k, r1) - r0 + 1)
            e = e - q @ (q[w].T @ self._hmul(r0 + w.start, e[w]))
        e = e @ _lowdin(e.T @ self._hmul(r0, e))
        mag = np.abs(e)
        above = mag > P_WORKING_TRIM * mag.max(axis=0)
        first = above.argmax(axis=0)
        last = e.shape[0] - 1 - above[::-1].argmax(axis=0)
        self.lo[g] = r0 + first
        self.hi[g] = r0 + last
        for c, j in enumerate(g):
            self.cols[j] = e[first[c] : last[c] + 1, c].copy()

    def translate(self, src, dst, step):
        """Finish the columns of every row ``i`` of ``dst`` (a group each) as
        the columns ``src`` shifted down by ``(i + 1) * step`` rows."""
        src, dst = np.asarray(src), np.asarray(dst)
        shift = step * np.arange(1, dst.shape[0] + 1)[:, None]
        self.lo[dst] = self.lo[src] + shift
        self.hi[dst] = self.hi[src] + shift
        blocks = [self.cols[s] for s in src.tolist()]
        for row in dst.tolist():
            for t, col in zip(row, blocks):
                self.cols[t] = col

    def transform(self):
        """P as a :class:`TransformMatrix`, once every column is finished."""
        d = self.ab.shape[1]
        lengths = self.hi - self.lo + 1
        pt = _Csr(np.concatenate([[0], np.cumsum(lengths)]), _ranges(self.lo, lengths),
                  np.concatenate(self.cols), (d, d))
        return TransformMatrix(pt)


def _gsob(ab):
    g = _GroupOrthogonalizer(ab)
    for j in range(ab.shape[1]):
        g.process((j,))
    return g.transform()


def _twob(ab):
    """Pairs ``(i, d-1-i)`` from both ends inward.  While a pair is more than
    ``k`` apart, its columns do not couple: a finished left column ends at
    its own row and a finished right column starts at its own.  So such a
    pair is finished as its left column, then its right one."""
    g = _GroupOrthogonalizer(ab)
    left, right = 0, ab.shape[1] - 1
    while left < right:
        if right - left > g.k:
            g.process((left,))
            g.process((right,))
        else:
            g.process((left, right))
        left += 1
        right -= 1
    if left == right:
        g.process((left,))
    return g.transform()


def _dyadic(ab, net, toeplitz=False):
    """The dyadic scheme on H's lower band ``ab``; ``toeplitz`` computes one
    tuple per level and translates it to the others."""
    g = _GroupOrthogonalizer(ab)
    for lv in net.levels:
        if toeplitz and lv:
            g.process(lv[0])
            if len(lv) > 1:
                g.translate(lv[0], lv[1:], lv[1][0] - lv[0][0])
        else:
            for tup in lv:
                g.process(tup)
    return g.transform()


def diagonalize_gram(h, method="dyadic", net=None):
    """Transform P with P' H P = I by one of the three schemes.

    ``h`` may be dense, ``scipy.sparse`` or the numpy container that
    :func:`~splinet.calculus.gramian` builds.  It is read once into its lower
    band, which gives the columns that couple and picks the dyadic path: one
    tuple per level is translated to the others when the net is complete,
    its tuples span the band, and every band diagonal is constant to
    ``TOEPLITZ_TOL`` of the band's largest entry.
    """
    ab = _check_spd(h)
    if method == "gsob":
        p = _gsob(ab)
    elif method == "twob":
        p = _twob(ab)
    elif method == "dyadic":
        if net is None:
            raise ValueError("dyadic diagonalization needs a net")
        d, tol = ab.shape[1], TOEPLITZ_TOL * np.abs(ab).max()
        laid = np.fromiter(itertools.chain.from_iterable(net.all_tuples()), dtype=np.int64)
        if not np.array_equal(np.sort(laid), np.arange(d)):
            raise ValueError("the net must lay out each of the gram matrix's %d columns "
                             "exactly once" % d)
        toeplitz = net.complete and max(net.k, 1) >= ab.shape[0] - 1 and all(
            np.abs(row[: d - u] - row[0]).max() <= tol for u, row in enumerate(ab))
        p = _dyadic(ab, net, toeplitz=toeplitz)
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


def splinet(knots, k, type="spnt", normalize=False):
    """B-spline basis plus (unless ``type='bs'``) an orthonormalized one.

    ``type`` is one of ``BASIS_TYPES``: ``spnt``/``dspnt`` for the dyadic
    net (the tag in the result reflects whether the net is complete),
    ``gsob`` and ``twob`` for the one- and two-sided schemes, ``bs`` for the
    plain basis only.  Whether the dyadic scheme translates one tuple per
    level is read off the Gram matrix's band (:func:`diagonalize_gram`).
    """
    if not isinstance(knots, KnotSet):
        knots = KnotSet(np.asarray(knots, dtype=float))
    if type not in BASIS_TYPES:
        raise ValueError("unknown basis type %r" % (type,))
    bs = bspline_basis(knots, k, normalize=normalize)
    net = net_layout(knots.n, k)
    if type == "bs":
        return SplinetResult(bs, None, net, None)
    h = gramian(bs, _csr=True)
    if type in ("spnt", "dspnt"):
        tr = diagonalize_gram(h, "dyadic", net=net)
        tag = "dspnt" if net.complete else "spnt"
    else:
        tr = diagonalize_gram(h, type)
        tag = type
    os_fam = lincomb(bs, tr.pt, type=tag)
    return SplinetResult(bs, os_fam, net, tr)
