"""B-spline bases and their orthonormalization.

B-splines are built by an order-raising recursion directly on derivative
matrices: the order-q matrix of member l is a weighted combination of the
order-(q-1) matrices of members l and l+1, with weights given by diagonal
knot-distance matrices.  Three orthonormalization schemes act on the Gram
matrix H and produce a coefficient transform P with P' H P = I:

* ``gsob``  -- one-sided Gram-Schmidt (triangular P, via Cholesky);
* ``twob``  -- two-sided scheme working inward from both ends in pairs;
* ``dyadic``-- the splinet: disjoint k-tuples arranged on a dyadic net,
  processed level by level; each tuple is projected orthogonal to the
  already-processed members it overlaps and then orthonormalized
  internally with a symmetric (inverse square root) step.

For equidistant knots and a complete net every B-spline is a translate of
every other, H is Toeplitz, and one tuple per level suffices: the rest are
obtained by shifting rows and columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .calculus import gramian, lincomb
from .core import KnotSet, SplineFamily, SupportSet, make_member

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

    if knots.equid:
        # every member is a translate: carry a single block through the
        # recursion, anchored at l = 0
        blk = np.array([[1.0], [0.0]])
        for q in range(1, k + 1):
            blk = _raise_order_pair(blk, blk, xi[: q + 2], q)
        blocks = [blk.copy() for _ in range(n - k + 1)]
    else:
        blocks = [np.array([[1.0], [0.0]]) for _ in range(n + 1)]
        for q in range(1, k + 1):
            blocks = [
                _raise_order_pair(blocks[l], blocks[l + 1], xi[l : l + q + 2], q)
                for l in range(n - q + 1)
            ]

    members = []
    for l, blk in enumerate(blocks):
        b = blk.copy()
        b[0, :k] = 0.0
        b[-1, :k] = 0.0
        b[-1, k] = 0.0
        members.append(make_member(SupportSet(((l, l + k + 1),)), (b,)))
    fam = SplineFamily(knots, k, tuple(members), "bs")
    if normalize:
        norms = np.sqrt(np.diag(gramian(fam)))
        fam = lincomb(fam, np.diag(1.0 / norms), type="bs")
    return fam


def _raise_order_pair(blk_l, blk_r, seg, q):
    """One order-raising step combining members l and l+1 over knots seg."""
    rows = q + 2
    p1 = np.zeros((rows, q))
    p1[:-1] = blk_l
    p2 = np.zeros((rows, q))
    p2[1:] = blk_r
    lam1 = seg - seg[0]
    lam2 = seg - seg[-1]
    d1 = seg[-2] - seg[0]
    d2 = seg[1] - seg[-1]
    out = np.zeros((rows, q + 1))
    j = np.arange(1, q + 1)
    out[:, 1:] = p1 * j / d1 + p2 * j / d2
    out[:, :q] += lam1[:, None] * p1 / d1 + lam2[:, None] * p2 / d2
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
    """Coefficient transform P with P' H P = I and its sparsity count."""

    P: np.ndarray
    nnz: int


def _truncate(p):
    mag = np.abs(p)
    scale = mag.max()
    if scale > 0:
        p[mag < P_TRUNCATION * scale] = 0.0
    return TransformMatrix(p, int(np.count_nonzero(p)))


def _check_spd(h):
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("gram matrix must be square")
    if not np.array_equal(h, h.T):
        scale = max(1.0, float(np.max(np.abs(h))))
        asym = h - h.T
        if float(np.max(np.abs(asym))) > 1e-10 * scale:
            raise ValueError("gram matrix must be symmetric")
        h = h - 0.5 * asym
    d = h.shape[0]
    nz_i, nz_j = np.nonzero(h)
    band = int(np.max(nz_i - nz_j)) if nz_i.size else 0
    tau = 1e-12 * float(np.trace(h))
    if 0 < band < d // 4:
        # banded: H - tau*I admits a Cholesky factor iff min eig > tau
        ab = np.zeros((band + 1, d))
        for u in range(band + 1):
            ab[u, : d - u] = np.diagonal(h, -u)
        ab[0] -= tau
        try:
            scipy.linalg.cholesky_banded(ab, lower=True)
        except np.linalg.LinAlgError:
            raise ValueError("gram matrix is not positive definite")
    elif np.linalg.eigvalsh(h)[0] <= tau:
        raise ValueError("gram matrix is not positive definite")
    return h


def _gsob(h):
    low = scipy.linalg.cholesky(h, lower=True)
    return scipy.linalg.solve_triangular(low, np.eye(h.shape[0]), lower=True).T


def _lowdin(m):
    w, v = np.linalg.eigh(m)
    if w[0] <= 0:
        raise ValueError("tuple gram block is not positive definite")
    return (v / np.sqrt(w)) @ v.T


class _GroupOrthogonalizer:
    """Shared machinery: project a group of columns orthogonal to everything
    already processed that it can overlap, then orthonormalize it internally.

    Tracks the nonzero row range of every finished column so that each step
    works on a small submatrix of H.
    """

    def __init__(self, h, k):
        self.h = h
        self.k = k
        d = h.shape[0]
        self.p = np.zeros((d, d))
        self.ranges = [None] * d  # (lo, hi) of nonzero rows, inclusive
        self.done = []

    def process(self, group):
        group = list(group)
        lo, hi = min(group), max(group)
        act = [j for j in self.done
               if self.ranges[j][1] >= lo - self.k and self.ranges[j][0] <= hi + self.k]
        r0, r1 = lo, hi
        for j in act:
            r0 = min(r0, self.ranges[j][0])
            r1 = max(r1, self.ranges[j][1])
        rows = slice(r0, r1 + 1)
        hsub = self.h[rows, rows]
        e = np.zeros((r1 - r0 + 1, len(group)))
        for c, j in enumerate(group):
            e[j - r0, c] = 1.0
        if act:
            q = self.p[rows][:, act]
            e = e - q @ (q.T @ (hsub @ e))
        m = e.T @ (hsub @ e)
        e = e @ _lowdin(m)
        for c, j in enumerate(group):
            self.p[r0 : r1 + 1, j] = e[:, c]
            self.ranges[j] = (r0, r1)
        self.done.extend(group)
        return r0, r1

    def copy_translated(self, src_group, dst_group, offset, r0, r1):
        block = self.p[r0 : r1 + 1, list(src_group)]
        self.p[r0 + offset : r1 + 1 + offset, list(dst_group)] = block
        for dj in dst_group:
            self.ranges[dj] = (r0 + offset, r1 + offset)
        self.done.extend(dst_group)


def _twob(h, k):
    d = h.shape[0]
    g = _GroupOrthogonalizer(h, k)
    left, right = 0, d - 1
    while left < right:
        g.process((left, right))
        left += 1
        right -= 1
    if left == right:
        g.process((left,))
    return g.p


def _dyadic(h, k, net, toeplitz=False):
    g = _GroupOrthogonalizer(h, k)
    for lv in net.levels:
        if toeplitz and lv:
            r0, r1 = g.process(lv[0])
            step = lv[1][0] - lv[0][0] if len(lv) > 1 else 0
            for i, tup in enumerate(lv[1:], start=1):
                g.copy_translated(lv[0], tup, i * step, r0, r1)
        else:
            for tup in lv:
                g.process(tup)
    return g.p


def diagonalize_gram(h, method="dyadic", net=None, k=None, _toeplitz=False):
    """Transform P with P' H P = I by one of the three schemes."""
    h = _check_spd(h)
    if method == "gsob":
        p = _gsob(h)
    elif method == "twob":
        p = _twob(h, k if k is not None else h.shape[0])
    elif method == "dyadic":
        if net is None:
            raise ValueError("dyadic diagonalization needs a net")
        kk = k if k is not None else net.k
        p = _dyadic(h, kk, net, toeplitz=_toeplitz)
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
    h = gramian(bs)
    if type in ("spnt", "dspnt"):
        fast = knots.equid and net.complete if use_toeplitz is None else use_toeplitz
        tr = diagonalize_gram(h, "dyadic", net=net, k=k, _toeplitz=fast)
        tag = "dspnt" if net.complete else "spnt"
    else:
        tr = diagonalize_gram(h, type, k=k)
        tag = type
    os_fam = lincomb(bs, tr.P.T, type=tag)
    return SplinetResult(bs, os_fam, net, tr)
