"""Calculus on derivative-matrix splines.

Every operation reads a family straight from its stacked one-sided
Taylor rows (:class:`~splinet.core.SplineFamily`), with numpy alone:

* a member's *interval rows* (:func:`_interval_rows`) are the rows of its
  support components but each component's last: the Taylor rows that start
  an interval the member lives on;
* on an interval of width ``w`` a row ``r`` is the polynomial
  ``sum_p r[p] x^p / p!``, so an inner product sums ``r_a M_t r_b'`` over
  the intervals ``t`` both members live on, with
  ``M_t[p, q] = w^(p+q+1) / ((p+q+1) p! q!)`` (:func:`_moment_blocks`), and
  a definite integral sums ``r . a_t`` with ``a_t[p] = w^(p+1) / (p+1)!``;
* a linear combination scatters the coefficient-weighted rows of the members
  it combines into its output rows, over the union of their supports.

Sparse matrices (Gram matrices, coefficients) are held in :class:`_Csr`, a
compressed-sparse-row container of numpy arrays.  scipy, an optional
dependency, is imported only to return a ``scipy.sparse`` matrix where one
is asked for; ``scipy.sparse`` input is read through its ``tocsr`` method.
"""

from __future__ import annotations

import numpy as np

from .core import _factorials, _family, _merge_runs, _ranges, _reals


class _Csr:
    """Compressed sparse rows in numpy arrays: row ``i`` stores ``data[a:b]``
    in the columns ``indices[a:b]`` (ascending, none twice), with
    ``a, b = indptr[i], indptr[i + 1]``.  Read by columns, the same arrays
    hold the transpose."""

    __slots__ = ("indptr", "indices", "data", "shape")
    ndim = 2

    def __init__(self, indptr, indices, data, shape):
        self.indptr, self.indices, self.data = indptr, indices, data
        self.shape = tuple(shape)

    @classmethod
    def from_sorted(cls, rows, cols, data, shape):
        """The container of entries already sorted by row, then by column."""
        counts = np.bincount(rows, minlength=shape[0])
        return cls(np.concatenate([[0], np.cumsum(counts)]), cols, data, shape)

    @property
    def nnz(self):
        return self.data.size

    def rows(self):
        """The row of every stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def toarray(self):
        out = np.zeros(self.shape)
        out[self.rows(), self.indices] = self.data
        return out

    def to_scipy(self, transpose=False):
        """The ``scipy.sparse`` CSR matrix, or with ``transpose`` the CSC
        matrix of the transpose; scipy comes with the ``splinet[sparse]``
        extra."""
        try:
            import scipy.sparse
        except ImportError:
            raise ImportError("scipy.sparse matrices need scipy: "
                              "pip install 'splinet[sparse]'") from None
        arrays = (self.data, self.indices, self.indptr)
        if transpose:
            return scipy.sparse.csc_matrix(arrays, shape=self.shape[::-1])
        return scipy.sparse.csr_matrix(arrays, shape=self.shape)

    def diagonal(self):
        """The entries ``[i, i]``."""
        out = np.zeros(min(self.shape))
        on = self.indices == self.rows()
        out[self.indices[on]] = self.data[on]
        return out


def _as_csr(m, name="coeffs"):
    """``m`` as a :class:`_Csr` of its nonzero entries: the container itself
    (whose producers store no zeros), a canonical copy of a ``scipy.sparse``
    matrix without its explicit zeros, or those of a dense vector (one row)
    or matrix, its entries read by :func:`~splinet.core._reals` as ``name``."""
    if isinstance(m, _Csr):
        return m
    if hasattr(m, "tocsr"):
        m = m.tocsr(copy=True)
        m.sum_duplicates()
        m.eliminate_zeros()
        return _Csr(m.indptr.astype(np.int64), m.indices.astype(np.int64),
                    _reals(m.data, name), m.shape)
    m = np.atleast_2d(_reals(m, name, 2))
    if m.ndim != 2:
        raise ValueError("coefficients must be a vector or a matrix")
    n_rows, n_cols = m.shape
    # a nonzero scan over a boolean mask is several times faster than over floats
    nz = np.flatnonzero(m != 0)
    indptr = np.searchsorted(nz, np.arange(n_rows + 1) * n_cols)
    data = m.reshape(-1)[nz]
    nz %= max(n_cols, 1)
    return _Csr(indptr, nz, data, m.shape)


def _chunks(owner, work, limit):
    """``(start, stop)`` runs over items listed by ascending ``owner``, each
    holding about ``limit`` of their ``work``; a run is cut only where the
    owner changes, so one owner's items always share a run."""
    if not owner.size:
        return []
    starts = np.flatnonzero(np.append(True, owner[1:] != owner[:-1]))
    before = np.append(0, np.cumsum(work))[starts]
    cuts = starts[np.append(True, np.diff(before // limit) > 0)]
    bounds = np.append(cuts, owner.size).tolist()
    return list(zip(bounds[:-1], bounds[1:]))


def _interval_rows(fam):
    """The interval rows of a family (module docstring), in stacked order:
    the member, interval (knot index) and Taylor row of each."""
    n_iv = fam.hi - fam.lo
    t = _ranges(fam.lo, n_iv)
    at = t + np.repeat(fam.start - fam.lo, n_iv)
    return np.repeat(fam.member, n_iv), t, fam.rows[at]


def _interval_weights(xi, k):
    """Flattened ``w^(p+1) / (p+1)!`` per knot row; 0 on the last knot."""
    w, fact = np.diff(xi), _factorials(k + 1)
    # power by power: one ``w[:, None] ** arange`` may round differently
    cols = [w ** (j + 1) / fact[j + 1] for j in range(k + 1)]
    return np.vstack([np.column_stack(cols), np.zeros((1, k + 1))]).ravel()


def _integrals(fam, absolute=False):
    """Every member's integral over the whole range; with ``absolute``, that
    of its rows' entrywise magnitudes, a bound on the member's L1 norm.  A
    member's products are summed in stacked order."""
    k1 = fam.smorder + 1
    owner, t, rows = _interval_rows(fam)
    w = _interval_weights(fam.knots.xi, fam.smorder).reshape(-1, k1)[t]
    terms = (np.abs(rows) if absolute else rows) * w
    # float even with no member's support, where bincount gives ints
    return np.bincount(np.repeat(owner, k1), terms.ravel(), len(fam)).astype(float)


def _moment_blocks(xi, k):
    """``M_t[p, q] = w^(p+q+1) / ((p+q+1) p! q!)`` for every interval ``t``;
    a ``w^(2k+1)`` below the smallest normal float (its digits, and the Gram
    matrix's, would be lost) or past the largest is refused."""
    w, top = np.diff(xi), 2 * k + 1
    with np.errstate(under="ignore", over="ignore"):
        under = w.min() ** top < np.finfo(float).tiny
        if under or not np.isfinite(w.max() ** top):
            how, which, h = ("underflow", "smallest", w.min()) if under else (
                "overflow", "largest", w.max())
            raise ValueError("order-%d Gram moments %s: the %s knot spacing, %r, to the power %d "
                             "is not a normal float" % (k, how, which, float(h), top))
    w = w[:, None, None]
    e = np.arange(k + 1)[:, None] + np.arange(k + 1) + 1
    fact = _factorials(k)
    return w ** e / (e * np.outer(fact, fact))


#: products formed per chunk of the lincomb scatter and the Gram kernel
_PRODUCT_CHUNK = 1 << 14


def lincomb(fam, coeffs, type=None):
    """Linear combinations of family members.

    ``coeffs`` is ``(p, d)`` (or ``(d,)`` for a single combination) against
    a family of ``d`` members: dense, ``scipy.sparse`` or the numpy
    container :class:`_Csr` (P' as :class:`~splinet.bases.TransformMatrix`
    holds it in ``pt``); returns a family of ``p`` members.  Member ``r``
    lives on the union of the supports of the members with a nonzero
    coefficient in row ``r`` (:func:`_as_csr` keeps no zero); components of
    that union with one dead interval between them stay one component
    (:func:`~splinet.core._merge_runs`).  Its rows are the coefficient-weighted
    rows of those members, summed member by member in ascending order, each
    component's last k-th entry 0.  All ``p`` members are built in one pass
    over one stacked array, and their blocks are views into it.
    """
    k = fam.smorder
    a = _as_csr(coeffs)
    p = a.shape[0]
    if a.shape[1] != len(fam):
        raise ValueError("coefficient matrix has %d columns, family has %d members"
                         % (a.shape[1], len(fam)))
    row, col, val = a.rows(), a.indices, a.data
    # temporaries go as soon as they are used: the peak is a small multiple
    # of the output rows
    del a
    # one piece per coefficient and support component of its member, in
    # coefficient order: the pieces of output row r, member by member
    n_comp = np.diff(fam.offsets)[col]
    comp = _ranges(fam.offsets[col], n_comp)
    row, val = np.repeat(row, n_comp), np.repeat(val, n_comp)
    del col, n_comp
    # each piece's component bounds and first row in the family's stacked rows
    lo, hi, src = fam.lo[comp], fam.hi[comp], fam.start[comp]
    del comp
    # the union of each output row's pieces, merged in (row, lo) order
    span = len(fam.knots) + 1
    order = np.argsort(row * span + lo, kind="stable")
    head, out_member, out_lo, out_hi = _merge_runs(row[order], lo[order], hi[order], span)
    piece_out = np.empty_like(order)
    piece_out[order] = np.cumsum(head) - 1
    del head, order
    out_size = out_hi - out_lo + 1
    # each piece's first output row (that of knot t in output component c is
    # shift[c] + t)
    shift = np.cumsum(out_size) - out_size - out_lo
    size = hi - lo + 1
    dst = shift[piece_out] + lo
    del piece_out, lo, hi, shift
    rows = np.zeros((int(np.sum(out_size)), k + 1))
    columns = fam.rows.T.copy()
    for s, e in _chunks(row, size, _PRODUCT_CHUNK):
        # a chunk's output rows are one contiguous run, base to end
        base, end = int(dst[s:e].min()), int((dst[s:e] + size[s:e]).max())
        at = _ranges(dst[s:e] - base, size[s:e])
        take = at + np.repeat(src[s:e] - dst[s:e] + base, size[s:e])
        weight = np.repeat(val[s:e], size[s:e])
        for q in range(k + 1):
            rows[base:end, q] = np.bincount(at, weight * columns[q].take(take), end - base)
    rows[np.cumsum(out_size) - 1, k] = 0.0
    return _family(fam.knots, k, rows, out_lo, out_hi,
                   np.searchsorted(out_member, np.arange(p + 1)),
                   type if type is not None else "sp", fam.epsilon)


def deriva(fam):
    """Termwise derivative: order drops from k to k-1."""
    k = fam.smorder
    if k < 1:
        raise ValueError("cannot differentiate an order-0 family")
    rows = fam.rows[:, 1:].copy()
    rows[fam.start + fam.hi - fam.lo, k - 1] = 0.0
    return _family(fam.knots, k - 1, rows, fam.lo, fam.hi, fam.offsets, "sp", fam.epsilon)


def integra(fam):
    """Termwise antiderivative, zero at the left end: order rises to k+1.

    When a member's total integral is nonzero the support extends to the
    last knot, since the antiderivative stays at a nonzero constant.  A
    running integral counts as zero when it is within ``epsilon`` times an
    upper bound on the member's ``L1`` norm.
    """
    k = fam.smorder
    lo, hi, member, rows = fam.lo, fam.hi, fam.member, fam.rows
    size = hi - lo + 1
    end = fam.start + size - 1
    w = _interval_weights(fam.knots.xi, k)
    tols = fam.epsilon * _integrals(fam, absolute=True)
    # each row's integral over the interval it starts, summed in column
    # order; a component's last row starts none
    wk = w.reshape(-1, k + 1)[_ranges(lo, size)]
    inc = np.zeros(rows.shape[0])
    for p in range(k + 1):
        inc += rows[:, p] * wk[:, p]
    inc[end] = 0.0
    # the running integral at every row: a sum over the member's rows before
    # it, taken in order, one row position at a time across all members
    bounds = np.append(fam.start, rows.shape[0])[fam.offsets]
    length = np.diff(bounds)
    by_len = np.argsort(-length, kind="stable")
    starts, desc = bounds[:-1][by_len], length[by_len]
    run = np.zeros(rows.shape[0])
    for j in range(1, int(desc.max(initial=0))):
        at = starts[: np.searchsorted(-desc, -j)] + j
        run[at] = run[at - 1] + inc[at - 1]
    # a component whose running integral ends nonzero reaches the next one
    # (and joins it) or, the member's last, the last knot
    last = np.diff(np.append(member, len(fam))) != 0
    ext = ~(np.abs(run[end]) <= tols[member])
    reach = np.where(ext, np.where(last, len(fam.knots) - 1, np.roll(lo, -1)), hi)
    head, new_member, new_lo, new_hi = _merge_runs(member, lo, reach, len(fam.knots) + 1)
    new_size = new_hi - new_lo + 1
    shift = np.cumsum(new_size) - new_size - new_lo  # new stacked row of knot j: shift + j
    pos = np.repeat(shift[np.cumsum(head) - 1], size) + _ranges(lo, size)
    out = np.zeros((int(np.sum(new_size)), k + 2))
    out[pos, 1:] += rows
    # a knot between joined components keeps the running integral before it
    src = np.zeros(out.shape[0], dtype=np.int64)
    src[pos] = np.arange(rows.shape[0])
    out[:, 0] = run[np.maximum.accumulate(src)]
    out[np.cumsum(new_size) - 1, k + 1] = 0.0
    return _family(fam.knots, k + 1, out, new_lo, new_hi,
                   np.searchsorted(new_member, np.arange(len(fam) + 1)), "sp", fam.epsilon)


def dintegra(fam):
    """Definite integrals over the whole range, one per member."""
    return _integrals(fam)


def _gram(a1, b1, symmetric):
    """The inner products ``<a_i, b_j>`` of two one-sided families, as a
    :class:`_Csr` of the nonzero entries: with ``symmetric`` (``b1`` is
    ``a1``) those with ``i <= j`` are computed, the rest mirrored.
    Support-disjoint pairs are never formed and zero sums are not stored, so
    the nonzero pairs computed are the result's nnz, or with ``symmetric``
    its upper triangle's.

    Every interval row of ``a1`` is multiplied by its interval's ``M_t`` once
    and paired with the interval rows of ``b1`` on the same interval; a
    pair's intervals are summed in ascending order.  Pairs are formed for
    about ``_PRODUCT_CHUNK`` at a time, a member of ``a1`` never split, and
    each chunk's pair keys are sorted and summed.
    """
    k1 = a1.smorder + 1
    n_a, n_b = len(a1), len(b1)
    ia, ta, ra = _interval_rows(a1)
    ib, tb, rb = (ia, ta, ra) if symmetric else _interval_rows(b1)
    m = _moment_blocks(a1.knots.xi, a1.smorder)[ta]
    xa = ra[:, :1] * m[:, 0]
    for p in range(1, k1):
        xa = xa + ra[:, p : p + 1] * m[:, p]
    del m
    # b's interval rows grouped by interval, members ascending within each
    order = np.argsort(tb, kind="stable")
    count = np.bincount(tb, minlength=len(a1.knots) - 1)
    start = (np.cumsum(count) - count)[ta]
    length = count[ta]
    if symmetric:  # from its own place on: members j >= i
        place = np.empty_like(order)
        place[order] = np.arange(order.size)
        length = start + length - place
        start = place
    jb = ib[order]
    xa, rb = xa.T.copy(), rb[order].T.copy()
    keys, vals = [], []
    for s, e in _chunks(ia, length, _PRODUCT_CHUNK):
        pa = np.repeat(np.arange(s, e), length[s:e])
        pb = _ranges(start[s:e], length[s:e])
        val = xa[0].take(pa) * rb[0].take(pb)
        for q in range(1, k1):
            val += xa[q].take(pa) * rb[q].take(pb)
        key = ia.take(pa) * n_b + jb.take(pb)
        del pa, pb
        by_key = np.argsort(key, kind="stable")
        key = key[by_key]
        new = key != np.append(-1, key[:-1])
        val = np.bincount(np.cumsum(new) - 1, val[by_key])
        nonzero = val != 0
        keys.append(key[new][nonzero])
        vals.append(val[nonzero])
    key = np.concatenate(keys or [np.empty(0, dtype=np.int64)])
    val = np.concatenate(vals or [np.empty(0)])
    if symmetric:
        i, j = np.divmod(key, n_b)
        low = i != j
        key = np.concatenate([key, j[low] * n_b + i[low]])
        val = np.concatenate([val, val[low]])
        by_key = np.argsort(key, kind="stable")
        key, val = key[by_key], val[by_key]
    i, j = np.divmod(key, n_b)
    return _Csr.from_sorted(i, j, val, (n_a, n_b))


def gramian(fam_a, fam_b=None, sparse=False, *, _csr=False):
    """Matrix of pairwise inner products ``<a_i, b_j>`` in L2.

    With one argument, the (symmetric) Gram matrix of the family, whose
    upper triangle is computed and mirrored, so it is exactly symmetric.
    Returns a dense array, or with ``sparse=True`` the ``scipy.sparse`` CSR
    matrix of the same entries: support-disjoint pairs are never stored.
    Both come from the one sparse accumulation of :func:`_gram`.  The nonzero
    pairs it computed are the sparse result's nnz, or for one family its
    upper triangle's (``scipy.sparse.triu(g).nnz``).
    """
    # _csr=True returns the numpy container (_Csr) and imports no scipy.
    # Only splinet() passes it: it calls this public function, not _gram, so
    # that the benchmark's span of gramian nests under splinet's.  Spans
    # recorded by the library itself (ROADMAP item 4) let this argument go.
    symmetric = fam_b is None
    if not symmetric and (fam_a.knots != fam_b.knots or fam_a.smorder != fam_b.smorder):
        raise ValueError("gramian requires identical knots and order")
    g = _gram(fam_a, fam_a if symmetric else fam_b, symmetric)
    if _csr:
        return g
    return g.to_scipy() if sparse else g.toarray()
