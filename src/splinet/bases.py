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

All three read H once into its lower band (B-splines i and j overlap iff
``|i - j| <= k``), whose banded Cholesky factorization tests it for
positive definiteness, and form no d x d array.  Kernel 1 builds
P = L^{-T}, H = L L': ``gsob``'s on H, and ``twob``'s on H in the folded
order 0, d-1, 1, d-2, ..., which makes each pair consecutive; the few pairs
that L couples, in the middle, then take a 2 x 2 symmetric step.  Kernel 2
is the dyadic levels as block cyclic reduction (Hockney 1965; Buzbee,
Golub & Nielson 1970): H is block tridiagonal over tuples, and each level
eliminates every other live tuple in one batched step.  The entries of
both decay exponentially away from the diagonal (Demko, Moss & Smith, 1984,
*Decay rates for inverses of band matrices*), so each column is cut where
its entries fall below ``P_WORKING_TRIM`` of its largest.  P is held in
compressed-sparse-column numpy arrays (:class:`TransformMatrix`).
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
    del mag
    kept = np.concatenate([[0], keep])
    np.cumsum(kept, out=kept)
    indptr = kept[pt.indptr]
    del kept
    return TransformMatrix(_Csr(indptr, pt.indices[keep], pt.data[keep], pt.shape))


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


def _cholesky_blocks(ab, shift=0.0):
    """Lower Cholesky factor of H - shift*I, H given by its lower band ``ab``
    of width w, one block at a time.

    H is factored in dense blocks of ``_CHOLESKY_BLOCK`` rows (at least w).  A
    block's rows meet earlier rows only in the w rows just before it, and
    all that those w rows carry from the rows before them is their Schur
    complement S.  So each block is factored together with those w rows,
    S in place of their own entries, and the trailing w x w of its factor,
    T, gives the next block's S = T T'.  Yields ``(factor, lead)`` per block,
    the first ``lead`` rows and columns of the factor those of the w rows
    before the block (none for the first).  Raises ``ValueError`` when
    H - shift*I is not positive definite.
    """
    w, d = ab.shape[0] - 1, ab.shape[1]
    size = max(_CHOLESKY_BLOCK, w)
    carry = np.zeros((0, 0))
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
        yield low, lead
        tail = low[n - w :, n - w :]
        carry = tail @ tail.T


def _cholesky_banded(ab, shift=0.0):
    """:func:`_cholesky_blocks`'s blocks as a list."""
    return list(_cholesky_blocks(ab, shift))


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
    for _ in _cholesky_blocks(ab, SPD_SHIFT * ab[0].sum()):
        pass  # each block is dropped once factored
    return ab


#: diagonals of P kernel 1 first makes room for, per diagonal of H's band;
#: the array doubles in place when the decay takes more (B-spline Gram
#: matrices take 15 to 20)
_DECAY_ROWS = 24


def _inverse_cholesky(ab):
    """Kernel 1: P = L^{-T}, H = L L' given by its lower band ``ab``, one
    diagonal at a time over all columns.  Row c of L^{-1} L = I gives
    ``P[c-u, c]`` from the w diagonals before it; stops once w diagonals in a
    row lie below ``P_WORKING_TRIM`` of every column's largest entry.

    Returns ``(a, far)``: ``a[u, c] = P[c-u, c]`` in one array, grown in
    place, whose last row, read as ``a[-1]``, holds the zeros ``P[c+1, c]``
    below the diagonal; ``far[p, c]`` the last u = p (mod 2) whose entry is
    above ``P_WORKING_TRIM`` of the column's largest, -2 if none.
    """
    w, d = ab.shape[0] - 1, ab.shape[1]
    low, e = np.zeros_like(ab), 0  # low[v, i] = L[i + v, i]
    for f, lead in _cholesky_blocks(ab):
        s, e = e, e + f.shape[0] - lead
        for v in range(min(w, f.shape[0] - 1) + 1):
            j = max(lead - v, 0)
            low[v, s - lead + j : e - v] = f.reshape(-1)[v * f.shape[0] :: f.shape[0] + 1][j:]
    a = np.zeros((min(d, _DECAY_ROWS * (w + 1)) + 1, d))
    a[0] = 1.0 / low[0]
    top, far = np.abs(a[0]), np.full((2, d), -2)
    far[0] = 0
    u, small = 1, 0
    while u < d and small < w:
        if u == a.shape[0] - 1:  # no view of a outlives the move
            a.resize((min(2 * u, d) + 1, d), refcheck=False)
        acc = sum(a[u - v, u:] * low[v, : d - u] for v in range(1, min(u, w) + 1))
        np.divide(-acc, low[0, : d - u], out=a[u, u:])
        mag = np.abs(a[u, u:])
        np.maximum(top[u:], mag, out=top[u:])
        above = mag > P_WORKING_TRIM * top[u:]
        far[u % 2, u:][above] = u
        small = 0 if above.any() else small + 1
        u += 1
    a.resize((u + 1, d), refcheck=False)
    return a, far


def _runs(a, start, step, row0, length):
    """P as a :class:`TransformMatrix` from runs of kernel 1's ``a``, given
    as ``(d, r)`` arrays: column j is its r runs in turn, run ``[j, i]`` the
    ``length`` entries ``a.flat[start + step * t]`` on rows ``row0 + t``.
    ``a`` is emptied in place once read, so that P's rows take its room."""
    d = length.shape[0]
    step = np.broadcast_to(step, length.shape).reshape(-1)
    start, row0, length = start.reshape(-1), row0.reshape(-1), length.reshape(-1)
    flat = _ranges(np.zeros_like(length), length)
    flat *= np.repeat(step, length)
    flat += np.repeat(start, length)
    data = a.reshape(-1)[flat]
    del flat
    a.resize(0, refcheck=False)
    indptr = np.concatenate([[0], np.cumsum(length.reshape(d, -1).sum(axis=1))])
    return TransformMatrix(_Csr(indptr, _ranges(row0, length), data, (d, d)))


def _inv_sqrt(g):
    """``g^{-1/2}`` of every symmetric block of ``g`` by ``eigh``; raises
    ``ValueError`` unless each is positive definite."""
    eig, vec = np.linalg.eigh(g)
    if eig[:, 0].min() <= 0:
        raise ValueError("tuple gram block is not positive definite")
    return (vec / np.sqrt(eig)[:, None, :]) @ vec.swapaxes(1, 2)


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
    """P as a :class:`TransformMatrix` from a list of :func:`_trimmed` parts
    that together hold each of its d columns once.  The list is emptied as
    the parts are moved in, so that P's arrays take their room."""
    length = np.zeros(d, dtype=np.int64)
    for cols, _, n, _ in parts:
        length[cols] = n
    indptr = np.concatenate([[0], np.cumsum(length)])
    indices, data = np.empty(indptr[-1], dtype=np.int64), np.empty(indptr[-1])
    while parts:
        cols, part, n, row = parts.pop()
        at = _ranges(indptr[cols], n)
        data[at], indices[at] = part, _ranges(row, n)
    return TransformMatrix(_Csr(indptr, indices, data, (d, d)))


def _gsob(ab):
    a, far = _inverse_cholesky(ab)
    d = ab.shape[1]
    c, length = np.arange(d), far.max(axis=0) + 1
    return _runs(a, (length - 1) * d + c, -d, c - length + 1, length)


def _twob(ab):
    """Pairs ``(j, d-1-j)`` from both ends inward: ``gsob`` in the folded
    order f = 0, d-1, 1, d-2, ..., each pair then orthonormalized by the
    symmetric step.  In that order H is banded within 2w, and with H = L L'
    pair G's columns are ``L^{-T}[:, G] L_GG' (L_GG L_GG')^{-1/2}``.  As
    P_GG = L_GG^{-T}, that is ``P_G P_GG' (P_GG P_GG')^{-1/2}``, and only the
    pairs that L couples, a few in the middle, change.

    Unfolded, a column's rows at even folded positions are the indices below
    the middle, ascending as u falls, and those at odd positions the ones
    above it, ascending as u rises: two runs of rows per column."""
    w, d = ab.shape[0] - 1, ab.shape[1]
    f = np.empty(d, dtype=np.int64)
    f[0::2], f[1::2] = np.arange((d + 1) // 2), np.arange(d - 1, (d - 1) // 2, -1)
    band = np.zeros((min(2 * w, d - 1) + 1, d))  # band[t, q] = H[f[q+t], f[q]]
    for t, row in enumerate(band):
        off = f[t:] - f[: d - t]
        near = np.flatnonzero(np.abs(off) <= w)
        row[near] = ab[np.abs(off[near]), np.minimum(f[t:], f[: d - t])[near]]
    a, far = _inverse_cholesky(band)

    # the coupled pairs (2j, 2j+1): P[2j, 2j+1] = -L[2j+1, 2j] / (L_aa L_bb)
    g = np.arange(0, d - 1, 2)
    g = g[a[1, g + 1] != 0]
    if g.size:
        pgg = np.zeros((g.size, 2, 2))
        pgg[:, 0, 0], pgg[:, 0, 1], pgg[:, 1, 1] = a[0, g], a[1, g + 1], a[0, g + 1]
        m = pgg.swapaxes(1, 2) @ _inv_sqrt(pgg @ pgg.swapaxes(1, 2))
        # both columns on the rows 2j+1-u, u = 0..len(a)-1: the left one's
        # row 2j+1 is its a[-1]
        pa, pb = np.roll(a[:, g], 1, axis=0), a[:, g + 1]
        a[:, g] = np.roll(pa * m[:, 0, 0] + pb * m[:, 1, 0], -1, axis=0)
        a[:-1, g + 1] = (pa * m[:, 0, 1] + pb * m[:, 1, 1])[:-1]
        # each column now reaches as far as either did, one row shifted
        fa, fb = far[:, g], far[:, g + 1]
        far[:, g] = np.maximum(fa, fb[::-1] - 1)
        far[:, g + 1] = np.maximum(fb, np.minimum(fa[::-1] + 1, len(a) - 2))

    # each index's column in row order: the rows below the middle, at u =
    # odd, odd + 2, ... read downward, then those above it, at u = 1 - odd,
    # 3 - odd, ... (from -1 for a coupled pair's left column) read upward,
    # odd the parity of the column's folded position
    c = np.empty(d, dtype=np.int64)
    c[f] = np.arange(d)
    odd = c % 2
    hi0 = 1 - odd
    hi0[f[g]] = -1
    n_lo = np.maximum((far[odd, c] - odd) // 2 + 1, 0)
    n_hi = np.maximum((far[1 - odd, c] - hi0) // 2 + 1, 0)
    start = np.stack([(odd + 2 * n_lo - 2) * d + c, hi0 * d + c], axis=1)
    row0 = np.stack([c // 2 - n_lo + 1, d - 1 - c // 2 + (hi0 + 1 - odd) // 2], axis=1)
    return _runs(a, start, [-2 * d, 2 * d], row0, np.stack([n_lo, n_hi], axis=1))


def _dyadic(ab, net):
    """The dyadic scheme on H's lower band ``ab`` over the levels ``net`` of
    :func:`net_layout`, by block cyclic reduction.  Padded to 2^N - 1 tuples
    of s indices, H is block tridiagonal over tuples, and level m's tuples
    are every other live one.  Each is eliminated with its Schur block D_e,
    which gives its columns, D_e^{-1/2} on e, and the multipliers
    M_ea = -D_e^{-1} H_ea to its live neighbours a and b, which fill the
    columns of later levels in: x_e = M_ea x_a + M_eb x_b.  A column of level
    m lives on the 2^(m+1) - 1 tuples between two of higher levels."""
    d, levels, s = ab.shape[1], len(net), len(net[0][0])
    last = 2**levels  # x[t] holds tuple t-1; x[0] and x[last] stay 0
    # dg[t] = H[tuple t, tuple t] and cp[t] = H[tuple t, tuple t-1], the
    # indices past d decoupled with a unit diagonal; cp[0] and cp[last - 1]
    # are the zero couplings to the tuples past either end
    band = np.zeros((ab.shape[0], (last - 1) * s))
    band[:, :d], band[0, d:] = ab, 1.0
    dg, cp = np.zeros((2, last, s, s))
    for u, row in enumerate(band.reshape(-1, last - 1, s)):
        for b in range(s):  # H[ts + b + u, ts + b]
            if b + u < s:
                dg[:-1, b + u, b] = dg[:-1, b, b + u] = row[:, b]
            else:
                cp[1:, b + u - s, b] = row[:, b]
    dg, below, parts = dg[:-1], [], []
    for m in range(levels):
        step, de = 2 ** (m + 1), dg[0::2]
        x = np.zeros((last + 1, s, s))
        x[step // 2 :: step] = _inv_sqrt(de)
        for sq, lq, rq in reversed(below):
            x[sq // 2 :: sq] = lq @ x[: -1 : sq] + rq @ x[sq::sq]
        a = np.linalg.inv(de)
        ml, mr = -a @ cp[0::2], -a @ cp[1::2].swapaxes(1, 2)
        below.append((step, ml, mr))
        dg = dg[1::2] + cp[1::2][:-1] @ mr[:-1] + cp[2::2].swapaxes(1, 2) @ ml[1:]
        cp = cp[1::2] @ ml

        # owner j's rows: the tuples between those at step * j and step * (j + 1)
        owners = de.shape[0]
        y = x[1:].reshape(owners, step, s, s)[:, :-1].transpose(0, 3, 1, 2)
        cols = (step * np.arange(owners) + step // 2 - 1)[:, None] * s + np.arange(s)
        parts.append(_trimmed(y.reshape(owners, s, -1), np.where(cols < d, cols, -1),
                              (step * s * np.arange(owners))[:, None]))
    return _assemble(d, parts)


def diagonalize_gram(h, method="dyadic", k=None):
    """Transform P with P' H P = I by one of the three schemes.

    ``h`` may be dense, ``scipy.sparse`` or the numpy container that
    :func:`~splinet.calculus.gramian` builds.  It is read once into its lower
    band.  ``gsob`` and ``twob`` take the inverse Cholesky factor (kernel
    1), ``twob``'s on the band folded to the order 0, d-1, 1, d-2, ...; the
    dyadic levels are one block cyclic reduction (kernel 2).  ``dyadic``
    needs the order ``k`` and lays out the net ``net_layout(d + k - 1, k)``;
    it refuses a ``k`` whose tuples, ``max(k, 1)`` indices, are narrower
    than H's band.
    """
    ab = _check_spd(h)
    if method == "gsob":
        p = _gsob(ab)
    elif method == "twob":
        p = _twob(ab)
    elif method == "dyadic":
        k = _integer(k, "the order k", low=0)
        w, d = ab.shape[0] - 1, ab.shape[1]
        if max(k, 1) < w:
            raise ValueError("order-%d tuples are narrower than the gram matrix's band, which "
                             "reaches %d entries off the diagonal" % (k, w))
        p = _dyadic(ab, net_layout(d + k - 1, k))
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
    (on the folded band) ``twob``, block cyclic reduction over the dyadic
    net's tuples.
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
