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
    SplineFamily,
    SupportSet,
    _merge_components,
    _ranges,
    _stack,
    as_one_sided,
    make_member,
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
    member, lo, hi, stacked = _stack(fam1)
    size = (hi - lo + 1) * k1
    rows = np.repeat(member, size)
    cols = _ranges(lo * k1, size)
    data = stacked.ravel()
    c = _csr(rows, cols, data, (d, n_knots * k1))
    # a component's last knot starts no interval of the member; zeros add nothing
    keep = (cols < np.repeat(hi * k1, size)) & (data != 0.0)
    c_int = _csr(rows[keep], cols[keep], data[keep], (d, n_knots * k1))
    o = _csr(np.repeat(member, hi - lo), _ranges(lo, hi - lo),
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


def _member_from_union(full, comps, k):
    """Cut a full matrix into blocks over the given support components."""
    blocks = [full[lo : hi + 1].copy() for lo, hi in comps]
    for blk in blocks:
        blk[-1, k] = 0.0
    return make_member(SupportSet(comps), blocks)


def lincomb(fam, coeffs, type=None):
    """Linear combinations of family members.

    ``coeffs`` is ``(p, d)`` (or ``(d,)`` for a single combination) against
    a family of ``d`` members, dense or ``scipy.sparse``; returns a family
    of ``p`` members.
    """
    fam1 = as_one_sided(fam)
    k = fam1.smorder
    if not scipy.sparse.issparse(coeffs):
        coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
    a = scipy.sparse.csr_matrix(coeffs, dtype=float)
    if a.shape[1] != len(fam1):
        raise ValueError("coefficient matrix has %d columns, family has %d members"
                         % (a.shape[1], len(fam1)))
    c, _, o = _taylor_layout(fam1)
    full = a @ c
    cover = abs(a) @ o
    cover.sort_indices()
    shape = (len(fam1.knots), k + 1)
    members = []
    for r in range(a.shape[0]):
        row = np.zeros(shape[0] * shape[1])
        at = slice(full.indptr[r], full.indptr[r + 1])
        row[full.indices[at]] = full.data[at]
        t = cover.indices[cover.indptr[r] : cover.indptr[r + 1]]
        comps = _merge_components(np.column_stack([t, t + 1]))
        members.append(_member_from_union(row.reshape(shape), comps, k))
    return SplineFamily(fam1.knots, k, tuple(members),
                        type if type is not None else "sp", fam1.epsilon)


def deriva(fam):
    """Termwise derivative: order drops from k to k-1."""
    fam1 = as_one_sided(fam)
    k = fam1.smorder
    if k < 1:
        raise ValueError("cannot differentiate an order-0 family")
    members = []
    for supp, der in fam1.members:
        blocks = []
        for blk in der.blocks:
            nb = blk[:, 1:].copy()
            nb[-1, k - 1] = 0.0
            blocks.append(nb)
        members.append(make_member(supp, blocks))
    return SplineFamily(fam1.knots, k - 1, tuple(members), "sp", fam1.epsilon)


def integra(fam):
    """Termwise antiderivative, zero at the left end: order rises to k+1.

    When a member's total integral is nonzero the support extends to the
    last knot, since the antiderivative stays at a nonzero constant.  A
    running integral counts as zero when it is within ``epsilon`` times an
    upper bound on the member's ``L1`` norm.
    """
    fam1 = as_one_sided(fam)
    k = fam1.smorder
    n_knots = len(fam1.knots)
    _, c_int, _ = _taylor_layout(fam1)
    w = _interval_weights(fam1.knots.xi, k)
    tols = fam1.epsilon * (abs(c_int) @ w)
    members = []
    for idx, (supp, _) in enumerate(fam1.members):
        at = slice(c_int.indptr[idx], c_int.indptr[idx + 1])
        cols = c_int.indices[at]
        per_knot = np.bincount(cols // (k + 1), c_int.data[at] * w[cols], n_knots)
        running = np.concatenate([[0.0], np.cumsum(per_knot[:-1])])
        full = np.column_stack([running, fam1.full_matrix(idx)])
        # a component whose running integral ends nonzero reaches the next one
        comps = list(supp)
        nxt = [lo for lo, _ in comps[1:]] + [n_knots - 1]
        ends = [hi if abs(running[hi]) <= tols[idx] else e
                for (_, hi), e in zip(comps, nxt)]
        union = _merge_components([(lo, e) for (lo, _), e in zip(comps, ends)])
        members.append(_member_from_union(full, union, k + 1))
    return SplineFamily(fam1.knots, k + 1, tuple(members), "sp", fam1.epsilon)


def dintegra(fam):
    """Definite integrals over the whole range, one per member."""
    fam1 = as_one_sided(fam)
    _, c_int, _ = _taylor_layout(fam1)
    return c_int @ _interval_weights(fam1.knots.xi, fam1.smorder)


#: nonzero entries of the last gramian() product (upper triangle only when
#: symmetric); support-disjoint pairs never produce an entry
LAST_PAIR_COUNT = 0


def gramian(fam_a, fam_b=None):
    """Matrix of pairwise inner products ``<a_i, b_j>`` in L2.

    With one argument, the (symmetric) Gram matrix of the family.
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
    return g.toarray()
