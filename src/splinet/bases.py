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

The net is fixed by d and k alone: :func:`net_layout` returns it as the
plain tuple of its levels, each level a tuple of index tuples, and
``diagonalize_gram(h, "dyadic", k)`` lays it out itself.

All three read H only through its band (B-splines i and j overlap iff
``|i - j| <= k``), form no d x d array and take every column from the
banded Cholesky factorization that also tests H for positive definiteness:
kernel 1 builds ``gsob``'s P = L^{-T}, H = L L', whose columns are also
``twob``'s outer ones (on H and on H reversed); kernel 2 gives a group G
orthonormalized after the indices S (G among them) as Z Z_GG^{-1/2},
Z = H_S^{-1} E_G, in one banded solve for all groups that H_S does not
couple: a dyadic level's tuples, or ``twob``'s one middle pair.  The entries
of both decay exponentially away from the diagonal (Demko, Moss & Smith,
1984, *Decay rates for inverses of band matrices*), so every column keeps
the rows from its first to its last entry above ``P_WORKING_TRIM`` of its
largest.  P is held in compressed-sparse-column numpy arrays
(:class:`TransformMatrix`).

H is read once into its lower band, and that band decides the dyadic path:
when the net is complete and every band diagonal is constant (H is
Toeplitz, as on equidistant knots), one tuple per level is computed and the
rest are obtained by shifting rows and columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .calculus import _Csr, _as_csr, _gram, gramian, lincomb
from .core import SplineFamily, _family, _integer, _knots, _ranges, _reals

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
    """The n-k+1 B-splines of order k as a family of type ``bs``.  Raises
    ``ValueError`` when a derivative value overflows, as it does once the
    smallest knot spacing h is so small that 1/h**k is not a float."""
    k, knots = _integer(k, "the order k", low=0), _knots(knots)
    n = knots.n
    if n < k:
        raise ValueError("need at least k internal knots for order-k B-splines")
    xi = knots.xi

    # one step raises the order of every member at once; an overflow is
    # caught below, once, rather than warned about at each step
    blk = np.zeros((n + 1, 2, 1))
    blk[:, 0] = 1.0
    with np.errstate(all="ignore"):
        for q in range(1, k + 1):
            seg = np.lib.stride_tricks.sliding_window_view(xi, q + 2)[: blk.shape[0] - 1]
            blk = _raise_order(blk[:-1], blk[1:], seg, q)
    rows = blk.reshape(-1, k + 1)

    # member l lives on knots l..l+k+1: zero boundary values and last row
    lo = np.arange(n - k + 1)
    rows[lo * (k + 2), :k] = 0.0
    rows[lo * (k + 2) + k + 1] = 0.0
    if not np.all(np.isfinite(rows)):
        raise ValueError("order-%d B-spline derivatives overflow: the smallest knot spacing, "
                         "%r, is too small" % (k, float(np.min(np.diff(xi)))))
    fam = _family(knots, k, rows, lo, lo + k + 1, np.arange(n - k + 2), "bs")
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


def net_layout(n, k):
    """The dyadic net of the d = n-k+1 basis indices (0-based): a tuple of
    levels, level l the tuple of its tuples, each a tuple of ``max(k, 1)``
    consecutive indices (the last one possibly fewer).

    Tuple t (1-based) sits on level l when t = 2^{l-1} (mod 2^l), so two
    tuples of one level have a full tuple of a higher level between them.
    A complete net has 2^{N-l} full tuples on level l for l = 1..N; a
    trailing tuple shorter than k makes the net incomplete, as does a tuple
    count other than 2^N - 1.
    """
    k = _integer(k, "the order k", low=0)
    n = _integer(n, "n", low=k)
    d = n - k + 1
    size = max(k, 1)
    tuples = [tuple(range(t, min(t + size, d))) for t in range(0, d, size)]
    levels = [[] for _ in range(len(tuples).bit_length())]
    for t, tup in enumerate(tuples, start=1):
        level = (t & -t).bit_length() - 1  # trailing zeros of t
        levels[level].append(tup)
    return tuple(tuple(lv) for lv in levels)


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
    CSC matrix, is built from them on first access (``splinet[sparse]``).
    """

    pt: _Csr

    @property
    def nnz(self):
        return self.pt.nnz

    @cached_property
    def P(self):
        return self.pt.to_scipy(transpose=True)


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

#: a Gram matrix is symmetric when H - H' is within this fraction of its
#: largest entry
GRAM_SYMMETRY_TOL = 1e-10


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
    y, e = b.astype(float), 0
    for low, lead in factors:
        s, e = e, e + low.shape[0] - lead
        y[s:e] = np.linalg.solve(low[lead:, lead:], y[s:e] - low[lead:, :lead] @ y[s - lead : s])
    for low, lead in reversed(factors):
        s = e - low.shape[0] + lead
        y[s:e] = np.linalg.solve(low[lead:, lead:].T, y[s:e])
        y[s - lead : s] -= low[lead:, :lead].T @ y[s:e]
        e = s
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
    h = h if isinstance(h, _Csr) or hasattr(h, "tocsr") else _reals(h, "gram matrix", 2)
    if np.ndim(h) != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("gram matrix must be square")
    h = _as_csr(h, "gram matrix")
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
        if float(np.abs(asym).max()) > GRAM_SYMMETRY_TOL * float(np.abs(h.data).max()):
            raise ValueError("gram matrix must be symmetric")
        ab -= 0.5 * asym
    _cholesky_banded(ab, SPD_SHIFT * ab[0].sum())
    return ab


def _inverse_cholesky(ab):
    """Kernel 1: the :func:`_trimmed` columns of P = L^{-T}, H = L L' given
    by its lower band ``ab``, one diagonal at a time over all columns.  Row
    c of L^{-1} L = I gives ``P[c-u, c]`` from the w diagonals before it;
    stops once w diagonals in a row lie below ``P_WORKING_TRIM`` of every
    column's largest entry."""
    w, d = ab.shape[0] - 1, ab.shape[1]
    low, e = np.zeros_like(ab), 0  # low[v, i] = L[i + v, i]
    for f, lead in _cholesky_banded(ab):
        s, e = e, e + f.shape[0] - lead
        for v in range(min(w, f.shape[0] - 1) + 1):
            j = max(lead - v, 0)
            low[v, s - lead + j : e - v] = f.reshape(-1)[v * f.shape[0] :: f.shape[0] + 1][j:]
    diags = [1.0 / low[0]]
    top, small = np.abs(diags[0]), 0
    for u in range(1, d if w else 1):
        acc = sum(diags[u - v][u:] * low[v, : d - u] for v in range(1, min(u, w) + 1))
        diags.append(np.concatenate([np.zeros(u), -acc / low[0, : d - u]]))
        top = np.maximum(top, np.abs(diags[-1]))
        small = small + 1 if np.all(np.abs(diags[-1]) <= P_WORKING_TRIM * top) else 0
        if small == w:
            break
    c = np.arange(d)
    return _trimmed(np.stack(diags[::-1], axis=1)[None], c[None], c - len(diags) + 1)


def _grouped_solve(ab, seen, groups):
    """Kernel 2: the :func:`_trimmed` columns Z Z_GG^{-1/2}, Z = H_S^{-1} E_G,
    of every group G, a row of ``groups`` (padded with -1), S the ``seen``
    indices.  With the unseen ones decoupled in a copy of the band, H_S
    splits into runs of seen indices more than w apart; a group's rows are
    the runs it lies in.  No two groups may share a run, so that one banded
    solve against the summed E_G and one batched ``eigh`` serve them all.
    That holds for ``twob``, which passes one group, and for a dyadic
    level's tuples: between two of them lies an unseen full tuple of
    ``max(k, 1) >= w`` indices (:func:`diagonalize_gram` refuses a narrower
    one), so they lie more than w apart."""
    w = ab.shape[0] - 1
    at = np.flatnonzero(seen)
    cut = np.flatnonzero(np.diff(at) > w) + 1
    head, tail = at[np.concatenate([[0], cut])], at[np.concatenate([cut, [at.size]]) - 1]
    lo = head[np.searchsorted(head, groups[:, 0], "right") - 1]
    hi = tail[np.searchsorted(head, groups.max(axis=1), "right") - 1]
    r0, r1 = lo.min(), hi.max()
    band, hide = ab[:, r0 : r1 + 1].copy(), ~seen[r0 : r1 + 1]
    band[0, hide] = 1.0
    for u in range(1, w + 1):
        band[u, hide] = 0.0  # H[i+u, i]
        band[u, np.flatnonzero(hide[u:])] = 0.0  # H[i, i-u]
    valid = groups >= 0
    rhs = np.zeros((hide.size, groups.shape[1]))
    rhs[groups[valid] - r0, np.nonzero(valid)[1]] = 1.0
    x = _cho_solve_banded(_cholesky_banded(band), rhs)
    zgg = np.where(valid[:, :, None] & valid[:, None, :], x[np.maximum(groups - r0, 0)],
                   np.eye(groups.shape[1]))
    eig, vec = np.linalg.eigh(zgg)
    if eig[:, 0].min() <= 0:
        raise ValueError("tuple gram block is not positive definite")
    rows = lo[:, None] + np.arange((hi - lo).max() + 1)
    xs = x[np.minimum(rows, r1) - r0]
    xs[rows > hi[:, None]] = 0.0
    y = (vec / np.sqrt(eig)[:, None, :]) @ vec.swapaxes(1, 2) @ xs.swapaxes(1, 2)
    return _trimmed(y, groups, lo[:, None])


def _trimmed(y, cols, row0):
    """Columns ``cols`` of P (-1 skipped), column ``cols[b, c]`` holding
    ``y[b, c]`` on ascending rows from ``row0[b, c]``, each trimmed to the
    rows from its first to its last entry above ``P_WORKING_TRIM`` of its
    largest: ``(cols, data, length, first row)``, data column by column."""
    mag = np.abs(y)
    above = mag > P_WORKING_TRIM * mag.max(axis=2, keepdims=True)
    first = above.argmax(axis=2)
    length = y.shape[2] - above[..., ::-1].argmax(axis=2) - first
    start = np.arange(0, y.size, y.shape[2]).reshape(cols.shape) + first
    keep = cols >= 0
    return (cols[keep], y.reshape(-1)[_ranges(start[keep], length[keep])], length[keep],
            (row0 + first)[keep])


def _assemble(d, parts):
    """P as a :class:`TransformMatrix` from :func:`_trimmed` parts that
    together hold each of its d columns once."""
    cols, data, length, row = (np.concatenate(a) for a in zip(*parts))
    order = np.argsort(cols)
    start, length = (np.cumsum(length) - length)[order], length[order]
    pt = _Csr(np.concatenate([[0], np.cumsum(length)]), _ranges(row[order], length),
              data[_ranges(start, length)], (d, d))
    return TransformMatrix(pt)


def _gsob(ab):
    return _assemble(ab.shape[1], [_inverse_cholesky(ab)])


def _twob(ab):
    """Pairs ``(i, d-1-i)`` from both ends inward.  While a pair is more than
    w apart, the indices seen so far form two runs that H does not couple:
    its left column is column i of L^{-T}, its right one column i of the
    same factor of the reversed band, read backwards.  Each later pair (or
    the centre index) takes one grouped solve."""
    w, d = ab.shape[0] - 1, ab.shape[1]
    m = max(0, (d - w) // 2)
    parts, seen = [], np.zeros(d, dtype=bool)
    if m:
        rev = np.array([np.roll(row[::-1], -u) for u, row in enumerate(ab)])
        cols, data, length, row = _inverse_cholesky(rev[:, :m])
        parts += [_inverse_cholesky(ab[:, :m]),
                  (d - 1 - cols[::-1], data[::-1], length[::-1], (d - row - length)[::-1])]
        seen[:m] = seen[d - m :] = True
    for i in range(m, (d + 1) // 2):
        group = np.array([sorted({i, d - 1 - i})])
        seen[group] = True
        parts.append(_grouped_solve(ab, seen, group))
    return _assemble(d, parts)


def _dyadic(ab, net, toeplitz=False):
    """The dyadic scheme on H's lower band ``ab`` over the levels ``net`` of
    :func:`net_layout`, one grouped solve per level: the tuples of later
    levels, at least w wide, keep the level's tuples in runs of their own.
    ``toeplitz`` solves a level's first tuple alone and translates its
    columns to the others."""
    seen, parts = np.zeros(ab.shape[1], dtype=bool), []
    for lv in net:
        size, n = max(len(t) for t in lv), len(lv)
        tuples = np.array([list(t) + [-1] * (size - len(t)) for t in lv])
        seen[tuples[tuples >= 0]] = True
        cols, data, length, row = _grouped_solve(ab, seen, tuples[:1] if toeplitz else tuples)
        if toeplitz:
            cols, data, length, row = (tuples.reshape(-1), np.tile(data, n), np.tile(length, n),
                                       (row + tuples[:, :1] - tuples[0, 0]).reshape(-1))
        parts.append((cols, data, length, row))
    return _assemble(ab.shape[1], parts)


def diagonalize_gram(h, method="dyadic", k=None):
    """Transform P with P' H P = I by one of the three schemes.

    ``h`` may be dense, ``scipy.sparse`` or the numpy container that
    :func:`~splinet.calculus.gramian` builds.  It is read once into its lower
    band.  ``gsob`` and ``twob``'s outer pairs take the inverse Cholesky
    factor (kernel 1); ``twob``'s middle pairs and each dyadic level take one
    grouped banded solve (kernel 2).  ``dyadic`` needs the order ``k`` and
    lays out the net ``net_layout(d + k - 1, k)``; it refuses a ``k`` whose
    tuples, ``max(k, 1)`` indices, are narrower than H's band.  One tuple
    per level is solved and translated to the others when the net is
    complete and every band diagonal is constant to ``TOEPLITZ_TOL`` of the
    band's largest entry.
    """
    ab = _check_spd(h)
    if method == "gsob":
        p = _gsob(ab)
    elif method == "twob":
        p = _twob(ab)
    elif method == "dyadic":
        k = _integer(k, "the order k", low=0)
        w, d, tol = ab.shape[0] - 1, ab.shape[1], TOEPLITZ_TOL * np.abs(ab).max()
        if max(k, 1) < w:
            raise ValueError("order-%d tuples are narrower than the gram matrix's band, which "
                             "reaches %d entries off the diagonal" % (k, w))
        net = net_layout(d + k - 1, k)
        toeplitz = _net_complete(net, k) and all(
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
    net: tuple
    transform: TransformMatrix | None


def splinet(knots, k, type="spnt", normalize=False):
    """B-spline basis plus (unless ``type='bs'``) an orthonormalized one.

    ``type`` is one of ``BASIS_TYPES``: ``spnt``/``dspnt`` for the dyadic
    net (the tag in the result reflects whether the net is complete),
    ``gsob`` and ``twob`` for the one- and two-sided schemes, ``bs`` for the
    plain basis only.  P comes from :func:`diagonalize_gram`'s two kernels
    on the Gram matrix's band: the inverse Cholesky factor for ``gsob`` and
    ``twob``'s outer pairs, grouped banded solves for the rest.
    """
    if type not in BASIS_TYPES:
        raise ValueError("unknown basis type %r" % (type,))
    bs = bspline_basis(knots, k, normalize=normalize)
    net = net_layout(bs.knots.n, k)
    if type == "bs":
        return SplinetResult(bs, None, net, None)
    h = gramian(bs, _csr=True)
    if type in ("spnt", "dspnt"):
        tr = diagonalize_gram(h, "dyadic", k)
        tag = "dspnt" if _net_complete(net, k) else "spnt"
    else:
        tr = diagonalize_gram(h, type)
        tag = type
    os_fam = lincomb(bs, tr.pt, type=tag)
    return SplinetResult(bs, os_fam, net, tr)
