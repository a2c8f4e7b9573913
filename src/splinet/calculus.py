"""Calculus on derivative-matrix splines.

All operations work in the one-sided convention internally and return
results in that convention.  ``gramian``, ``lincomb``, ``dintegra`` and the
``integra`` tolerance read a family through one sparse layout
(:func:`_taylor_layout`):

* ``C`` (d x (n+2)(k+1)): row ``i`` is member ``i``'s derivative matrix
  flattened over the knots its support components cover; column
  ``t*(k+1) + p`` holds the p-th derivative at knot ``t``;
* ``C_int``: ``C`` without each component's last knot, i.e. only the Taylor
  rows that start an interval the member lives on;
* ``O`` (d x (n+1)): interval incidence, 1 where a member lives.

On an interval of width ``w`` a row ``r`` is the polynomial
``sum_p r[p] x^p / p!``, so the Gram matrix is ``C_int_a M C_int_b'`` with
``M`` block-diagonal, ``M_t[p, q] = w^(p+q+1) / ((p+q+1) p! q!)``; definite
integrals weight ``C_int`` by ``w^(p+1) / (p+1)!``; linear combinations are
``coeffs C`` with the support read off ``|coeffs| O``.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse

from .core import (
    ONE_SIDED,
    _family,
    _live_runs,
    _ranges,
    as_one_sided,
    taylor_astar,
)


def _csr(rows, cols, data, shape):
    """CSR matrix from entries already sorted by row, then by column."""
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=shape[0]))])
    return scipy.sparse.csr_matrix((data, cols, indptr), shape=shape)


def _taylor_layout(fam1):
    """Sparse layout ``(C, C_int, O)`` of a one-sided family (module docstring)."""
    k1 = fam1.smorder + 1
    n_knots = len(fam1.knots)
    d = len(fam1)
    lo, hi = fam1.lo, fam1.hi
    size = (hi - lo + 1) * k1
    rows = np.repeat(fam1.member, size)
    cols = _ranges(lo * k1, size)
    data = fam1.rows.ravel()
    c = _csr(rows, cols, data, (d, n_knots * k1))
    # a component's last knot starts no interval of the member; zeros add nothing
    keep = (cols < np.repeat(hi * k1, size)) & (data != 0.0)
    c_int = _csr(rows[keep], cols[keep], data[keep], (d, n_knots * k1))
    o = _csr(np.repeat(fam1.member, hi - lo), _ranges(lo, hi - lo),
             np.ones(int(np.sum(hi - lo))), (d, n_knots - 1))
    return c, c_int, o


def _interval_weights(xi, k):
    """Flattened ``w^(p+1) / (p+1)!`` per knot row; 0 on the last knot."""
    return np.vstack([taylor_astar(np.diff(xi), k).T, np.zeros((1, k + 1))]).ravel()


def _moment_matrix(xi, k):
    """Block-diagonal ``M``: ``M_t[p, q] = w^(p+q+1) / ((p+q+1) p! q!)``."""
    w = np.diff(xi)[:, None, None]
    e = np.arange(k + 1)[:, None] + np.arange(k + 1) + 1
    fact = np.array([math.factorial(j) for j in range(k + 1)], dtype=float)
    blocks = w ** e / (e * np.outer(fact, fact))
    n_int = blocks.shape[0]
    indptr = np.append(np.arange(n_int + 1), n_int)  # no block on the last knot
    size = (n_int + 1) * (k + 1)
    return scipy.sparse.bsr_matrix((blocks, np.arange(n_int), indptr),
                                   shape=(size, size)).tocsr()


#: entries per chunk of the nonzero scan of dense coefficients
_SCAN_CHUNK = 1 << 22


def _dense_csr(m):
    """CSR copy of a dense 2-d array, equal to ``csr_matrix(m)``.

    The nonzero scan runs over boolean masks, several times faster than over
    the floats, a few rows at a time so that no mask grows past
    ``_SCAN_CHUNK`` entries.
    """
    m = np.ascontiguousarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError("coefficients must be a vector or a matrix")
    n_rows, n_cols = m.shape
    step = max(1, _SCAN_CHUNK // max(n_cols, 1))
    nz = np.concatenate([np.flatnonzero(m[r : r + step] != 0) + r * n_cols
                         for r in range(0, n_rows, step)] or [np.empty(0, dtype=np.intp)])
    indptr = np.searchsorted(nz, np.arange(n_rows + 1) * n_cols)
    data = m.reshape(-1)[nz]
    nz %= max(n_cols, 1)
    return scipy.sparse.csr_matrix((data, nz, indptr), shape=m.shape)


def lincomb(fam, coeffs, type=None):
    """Linear combinations of family members.

    ``coeffs`` is ``(p, d)`` (or ``(d,)`` for a single combination) against
    a family of ``d`` members, dense or ``scipy.sparse``; returns a family
    of ``p`` members.  Member ``r`` lives on the intervals where some member
    with a nonzero coefficient in row ``r`` lives (``|coeffs| O``), merged
    into components by :func:`~splinet.core._live_runs`; its blocks are
    ``coeffs C`` cut over those components, each with its last k-th entry 0.
    All ``p`` members are built in one pass over one stacked array, and
    their blocks are views into it.
    """
    fam1 = as_one_sided(fam)
    k = fam1.smorder
    k1 = k + 1
    if scipy.sparse.issparse(coeffs):
        a = scipy.sparse.csr_matrix(coeffs, dtype=float)
    else:
        a = _dense_csr(np.atleast_2d(coeffs))
    p = a.shape[0]
    if a.shape[1] != len(fam1):
        raise ValueError("coefficient matrix has %d columns, family has %d members"
                         % (a.shape[1], len(fam1)))
    c, o = _taylor_layout(fam1)[::2]
    cover = abs(a) @ o
    cover.sort_indices()
    owner = np.repeat(np.arange(p), np.diff(cover.indptr))
    t = cover.indices.astype(np.int64)
    first, last = _live_runs(owner, t)
    member, lo, hi = owner[first], t[first], t[last] + 1
    size = hi - lo + 1
    # temporaries go as soon as they are used: at most one index array as
    # long as full is alive at a time
    del cover, owner, t
    # the output is allocated before the product's arrays: allocated after
    # them, it raised the process's peak RSS by about its own size (glibc)
    rows = np.zeros((int(np.sum(size)), k1))
    full = a @ c
    n_cols = c.shape[1]
    del a, c
    full.sort_indices()
    # the entries of full, ordered by row and then column, fall to the
    # components in turn; find where each component's entries begin
    key = np.repeat(np.arange(p, dtype=np.int64) * n_cols, np.diff(full.indptr))
    key += full.indices
    begin = np.searchsorted(key, member * n_cols + lo * k1)
    del key
    # flat position in the stacked rows = column + component's shift
    at = np.repeat((np.cumsum(size) - size - lo) * k1, np.diff(np.append(begin, full.nnz)))
    at += full.indices
    rows.reshape(-1)[at] = full.data
    del at, full
    rows[np.cumsum(size) - 1, k] = 0.0
    return _family(fam1.knots, k, rows, lo, hi, np.searchsorted(member, np.arange(p + 1)),
                   ONE_SIDED, type if type is not None else "sp", fam1.epsilon)


def deriva(fam):
    """Termwise derivative: order drops from k to k-1."""
    fam1 = as_one_sided(fam)
    k = fam1.smorder
    if k < 1:
        raise ValueError("cannot differentiate an order-0 family")
    rows = fam1.rows[:, 1:].copy()
    rows[np.cumsum(fam1.hi - fam1.lo + 1) - 1, k - 1] = 0.0
    return _family(fam1.knots, k - 1, rows, fam1.lo, fam1.hi, fam1.offsets, ONE_SIDED, "sp",
                   fam1.epsilon)


def integra(fam):
    """Termwise antiderivative, zero at the left end: order rises to k+1.

    When a member's total integral is nonzero the support extends to the
    last knot, since the antiderivative stays at a nonzero constant.  A
    running integral counts as zero when it is within ``epsilon`` times an
    upper bound on the member's ``L1`` norm.
    """
    fam1 = as_one_sided(fam)
    k = fam1.smorder
    lo, hi, member, rows = fam1.lo, fam1.hi, fam1.member, fam1.rows
    size = hi - lo + 1
    end = np.cumsum(size) - 1
    w = _interval_weights(fam1.knots.xi, k)
    tols = fam1.epsilon * (abs(_taylor_layout(fam1)[1]) @ w)
    # each row's integral over the interval it starts, summed in column
    # order; a component's last row starts none
    wk = w.reshape(-1, k + 1)[_ranges(lo, size)]
    inc = np.zeros(rows.shape[0])
    for p in range(k + 1):
        inc += rows[:, p] * wk[:, p]
    inc[end] = 0.0
    # the running integral at every row: a sum over the member's rows before
    # it, taken in order, one row position at a time across all members
    bounds = np.append(0, np.cumsum(size))[fam1.offsets]
    length = np.diff(bounds)
    by_len = np.argsort(-length, kind="stable")
    starts, desc = bounds[:-1][by_len], length[by_len]
    run = np.zeros(rows.shape[0])
    for j in range(1, int(desc.max(initial=0))):
        at = starts[: np.searchsorted(-desc, -j)] + j
        run[at] = run[at - 1] + inc[at - 1]
    # a component whose running integral ends nonzero reaches the next one
    # (and joins it) or, the member's last, the last knot
    last = np.diff(np.append(member, len(fam1))) != 0
    ext = ~(np.abs(run[end]) <= tols[member])
    reach = np.where(ext, np.where(last, len(fam1.knots) - 1, np.roll(lo, -1)), hi)
    head = np.append(True, ~(ext & ~last)[:-1])[: lo.size]  # starts a new component
    new_lo, new_hi = lo[head], reach[np.roll(head, -1)]
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
    return _family(fam1.knots, k + 1, out, new_lo, new_hi,
                   np.searchsorted(member[head], np.arange(len(fam1) + 1)), ONE_SIDED, "sp",
                   fam1.epsilon)


def dintegra(fam):
    """Definite integrals over the whole range, one per member."""
    fam1 = as_one_sided(fam)
    _, c_int, _ = _taylor_layout(fam1)
    return c_int @ _interval_weights(fam1.knots.xi, fam1.smorder)


#: nonzero entries of the last gramian() product (upper triangle only when
#: symmetric); support-disjoint pairs never produce an entry
LAST_PAIR_COUNT = 0


def gramian(fam_a, fam_b=None, sparse=False):
    """Matrix of pairwise inner products ``<a_i, b_j>`` in L2.

    With one argument, the (symmetric) Gram matrix of the family, whose
    upper triangle is computed and mirrored, so it is exactly symmetric.
    Returns a dense array, or with ``sparse=True`` the ``scipy.sparse`` CSR
    matrix of the same entries: support-disjoint pairs are never stored.
    """
    global LAST_PAIR_COUNT
    a1 = as_one_sided(fam_a)
    symmetric = fam_b is None
    b1 = a1 if symmetric else as_one_sided(fam_b)
    if a1.knots != b1.knots or a1.smorder != b1.smorder:
        raise ValueError("gramian requires identical knots and order")
    ca = _taylor_layout(a1)[1]
    cb = ca if symmetric else _taylor_layout(b1)[1]
    g = ca @ _moment_matrix(a1.knots.xi, a1.smorder) @ cb.T
    if symmetric:
        g = scipy.sparse.triu(g, format="csr")
        LAST_PAIR_COUNT = g.count_nonzero()
        g = g + scipy.sparse.triu(g, 1).T
    else:
        LAST_PAIR_COUNT = g.count_nonzero()
    return g.tocsr() if sparse else g.toarray()
