"""Completion of partially specified derivative matrices.

The solvers fill in the entries of an ``(m+2) x (k+1)`` derivative matrix
over a knot segment given different subsets of known values:

* ``solve_frlc`` -- first row and last (k-th derivative) column known;
* ``solve_frfc`` -- first row (orders 0..k-1) and first (value) column known;
* ``solve_frlr`` -- first and last rows known, ``m <= k`` internal knots.

On top of them, :func:`construct` builds a whole valid spline from seed
values by one of three strategies (``CRLC``, ``CRFC``, ``RRM``) working
outward from the central knot, and :func:`refine` embeds a family into a
finer knot set.  All matrices here use the one-sided k-th derivative
convention; mirrored (right-to-left) passes reuse the same recursions with
negative knot spacings.

Every recursion runs over a stack of ``M`` matrices at once, rows shaped
``(M, k+1)`` and matrices ``(M, rows, k+1)``.  What depends on the knots
alone -- the frlr system and its condition check -- is formed once per call;
each matrix adds only its right-hand sides, and residuals come out as
length-``M`` arrays.  The arithmetic over the stack is elementwise (Horner
steps through :func:`splinet.core._taylor_rows`, broadcast products and
substitution instead of BLAS calls), so a matrix's result does not depend on
the others or on ``M``.  The public solvers and :func:`construct` run this
core with ``M = 1``; :func:`splinet.random.rspline` runs it once over all
its draws.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .core import (
    DEFAULT_EPSILON,
    ONE_SIDED,
    KnotSet,
    _family,
    _ranges,
    _taylor_col,
    _taylor_rows,
    as_one_sided,
    taylor_step_matrix,
)

#: condition-number limit for the frlr core system
COND_LIMIT = 1e12


class SingularSystemError(ValueError):
    """The frlr core matrix C is numerically singular."""


def _check_segment(knots_segment):
    seg = np.asarray(knots_segment, dtype=float)
    if seg.ndim != 1 or seg.size < 2:
        raise ValueError("segment needs at least two knots")
    if np.any(np.diff(seg) <= 0):
        raise ValueError("segment knots must be strictly increasing")
    return seg


def _max_abs(x):
    """Largest magnitude along the last axis; 0 where that axis is empty."""
    return np.max(np.abs(x), axis=-1, initial=0.0)


def _rows_dot(rows, mat):
    """``rows @ mat`` as a sum of broadcast products, one term per row of
    ``mat``, so a row's bits do not depend on how many rows are stacked."""
    out = rows[:, :1] * mat[0]
    for p in range(1, mat.shape[0]):
        out = out + rows[:, p : p + 1] * mat[p]
    return out


def _lu_solve_rows(lu, piv, rhs):
    """Solve ``A x = b`` for every row ``b`` of ``rhs``, given
    ``scipy.linalg.lu_factor(A)``, by substitution over the stack."""
    x = rhs.T.copy()
    for i, p in enumerate(piv):
        x[[i, p]] = x[[p, i]]
    size = lu.shape[0]
    for i in range(size):
        for j in range(i):
            x[i] -= lu[i, j] * x[j]
    for i in range(size - 1, -1, -1):
        for j in range(i + 1, size):
            x[i] -= lu[i, j] * x[j]
        x[i] /= lu[i, i]
    return x.T


def _frlc(first_row, kth_col, spacings, k):
    """Propagate rows forward; ``kth_col`` (``(M, len(spacings)+1)``)
    supplies column k for every row."""
    u = np.zeros((first_row.shape[0], len(spacings) + 1, k + 1))
    u[:, 0] = first_row
    u[:, :, k] = kth_col
    for i, h in enumerate(spacings, start=1):
        u[:, i, :k] = _taylor_rows(u[:, i - 1], h)[:, :k]
    return u


def solve_frlc(first_row, last_col, knots_segment):
    """Complete a matrix from its first row and k-th derivative column."""
    seg = _check_segment(knots_segment)
    first_row = np.asarray(first_row, dtype=float)
    last_col = np.asarray(last_col, dtype=float)
    k = first_row.size - 1
    if last_col.size != seg.size:
        raise ValueError("last_col must have one entry per segment knot")
    if last_col[0] != first_row[k]:
        last_col = last_col.copy()
        last_col[0] = first_row[k]
    return _frlc(first_row[None], last_col[None], np.diff(seg), k)[0]


def _frfc(first_row_partial, first_col, spacings, k):
    """Rows 1.. from the row before; each row's k-th entry is the one that
    steps its value to the next entry of ``first_col`` (``(M, len+1)``)."""
    m1 = len(spacings)
    u = np.zeros((first_col.shape[0], m1 + 1, k + 1))
    u[:, 0, :k] = first_row_partial
    u[:, :, 0] = first_col
    for i in range(m1 + 1):
        if i > 0:
            u[:, i, 1:k] = _taylor_rows(u[:, i - 1], spacings[i - 1])[:, 1:k]
        if i < m1:
            # u[:, i, k] is still 0, so the Horner value sums orders 0..k-1
            h = spacings[i]
            u[:, i, k] = (first_col[:, i + 1] - _taylor_col(u[:, i], h, 0)) / (h**k / math.factorial(k))
    return u


def solve_frfc(first_row_partial, first_col, knots_segment):
    """Complete a matrix from its first row (orders < k) and value column."""
    seg = _check_segment(knots_segment)
    first_row_partial = np.asarray(first_row_partial, dtype=float)
    first_col = np.asarray(first_col, dtype=float)
    k = first_row_partial.size
    if k < 1:
        raise ValueError("frfc needs order k >= 1")
    if first_col.size != seg.size:
        raise ValueError("first_col must have one entry per segment knot")
    if first_col[0] != first_row_partial[0]:
        raise ValueError("first_col[0] disagrees with the first row value")
    return _frfc(first_row_partial[None], first_col[None], np.diff(seg), k)[0]


def _frlr_system(spacings, k):
    """The frlr core matrices ``(C, D)`` of a segment (``m >= 1``): the
    middle k-th entries ``x`` solve ``C' x = last[k-m:k] - first[k-m:] D``.
    Raises :class:`SingularSystemError` when ``C`` is numerically singular."""
    m = len(spacings) - 1
    a_fulls = [taylor_step_matrix(s, k) for s in spacings]
    ab = [a[k - m : k, k - m : k] for a in a_fulls]
    c = [a[k, k - m : k] for a in a_fulls]
    # suffix[r] = A^{(r)} A^{(r+1)} ... A^{(m+1)}  (steps are 1-based)
    suffix = [np.eye(m) for _ in range(m + 3)]
    for r in range(m + 1, 0, -1):
        suffix[r] = ab[r - 1] @ suffix[r + 1]
    cmat = np.vstack([c[r - 1] @ suffix[r + 1] for r in range(2, m + 2)])
    dmat = a_fulls[0][k - m : k + 1, k - m : k] @ suffix[2]
    if np.linalg.cond(cmat) > COND_LIMIT:
        raise SingularSystemError("frlr system is numerically singular")
    return cmat, dmat


def _frlr(first_row, last_row, spacings, k):
    """Core first-row/last-row solve over stacked rows ``(M, k+1)``;
    spacings may be negative (mirrored).  Returns the ``(M, m+2, k+1)``
    matrices and the per-matrix residuals."""
    m = len(spacings) - 1
    if m == 0:
        u = np.stack([first_row, last_row], axis=1)
        prop = _taylor_rows(first_row, spacings[0])[:, :k]
        u[:, 1, :k] = prop
        return u, _max_abs(prop - last_row[:, :k])
    cmat, dmat = _frlr_system(spacings, k)
    lu, piv = scipy.linalg.lu_factor(cmat.T)
    rhs = last_row[:, k - m : k] - _rows_dot(first_row[:, k - m :], dmat)
    mid_kth = _lu_solve_rows(lu, piv, rhs)
    kth_col = np.column_stack([first_row[:, k], mid_kth, last_row[:, k]])
    u = _frlc(first_row, kth_col, spacings, k)
    return u, _max_abs(u[:, m + 1, : k - m] - last_row[:, : k - m])


def solve_frlr(first_row, last_row, knots_segment, m=None):
    """Complete a matrix from its first and last rows (``m <= k`` case).

    Returns ``(matrix, residual)`` where the residual is the magnitude by
    which the unused last-row entries had to be overwritten for consistency.
    """
    seg = _check_segment(knots_segment)
    first_row = np.asarray(first_row, dtype=float)
    last_row = np.asarray(last_row, dtype=float)
    k = first_row.size - 1
    seg_m = seg.size - 2
    if m is None:
        m = seg_m
    if m != seg_m:
        raise ValueError("segment has %d internal knots, expected m=%d" % (seg_m, m))
    if m > k:
        raise ValueError("frlr requires m <= k")
    if last_row.size != k + 1:
        raise ValueError("first and last rows must both have k+1 entries")
    u, residual = _frlr(first_row[None], last_row[None], np.diff(seg), k)
    return u[0], float(residual[0])


# ---------------------------------------------------------------------------
# whole-spline construction


def _backward_row(derivs_next, kth_on_interval, spacing, k):
    """Derivatives 0..k-1 at the left knot of an interval from the right knot."""
    return _taylor_rows(np.column_stack([derivs_next, kth_on_interval]), -spacing)[:, :k]


def _seed_matrix(knots, k, seed, method):
    n = knots.n
    l = n // 2
    seed = np.asarray(seed, dtype=float)
    if seed.ndim == 2:
        if seed.shape != (n + 2, k + 1):
            raise ValueError("seed matrix must be (n+2) x (k+1)")
        return seed
    t = np.zeros((n + 2, k + 1))
    if method == "CRLC":
        want = (n - 2 * k + 1) + k
        if seed.size != want:
            raise ValueError("CRLC seed needs %d values" % want)
        t[k : n - k + 1, k] = seed[: n - 2 * k + 1]
        t[l + 1, :k] = seed[n - 2 * k + 1 :]
    elif method == "CRFC":
        want = (n - 2 * k + 2) + (k - 1)
        if seed.size != want:
            raise ValueError("CRFC seed needs %d values" % want)
        t[k : n - k + 2, 0] = seed[: n - 2 * k + 2]
        t[l + 1, 1:k] = seed[n - 2 * k + 2 :]
    else:
        raise ValueError("RRM takes a full (n+2) x (k+1) seed matrix")
    return t


def _left_terminal(s, t, xi, k, residuals):
    """Resolve knots 0..k+1 by a mirrored m=k frlr with zero boundary rows;
    a matrix whose k-th entry at knot k is still 0 takes its seed's there."""
    s[:, k, k] = np.where(s[:, k, k] == 0.0, t[:, k, k], s[:, k, k])
    first = np.column_stack([s[:, k + 1, :k], s[:, k, k]])
    spac = xi[k::-1] - xi[k + 1 : 0 : -1]  # negative steps xi[k]-xi[k+1], ...
    u, _ = _frlr(first, np.zeros_like(first), spac, k)
    for i in range(1, k + 1):
        s[:, k - i, k] = u[:, i, k]
        s[:, k + 1 - i, :k] = u[:, i, :k]
    residuals["left_boundary"] = _max_abs(u[:, k + 1, :k])
    s[:, 0, :k] = 0.0


def _right_terminal(s, t, xi, k, n, residuals):
    s[:, n - k, k] = np.where(s[:, n - k, k] == 0.0, t[:, n - k, k], s[:, n - k, k])
    u, _ = _frlr(s[:, n - k], np.zeros_like(s[:, n - k]), np.diff(xi[n - k :]), k)
    s[:, n - k + 1 : n + 1] = u[:, 1 : k + 1]
    residuals["right_boundary"] = _max_abs(u[:, k + 1, :k])
    s[:, n + 1] = 0.0


def _construct_crlc(knots, k, t):
    xi = knots.xi
    n = knots.n
    l = n // 2
    s = np.zeros_like(t)
    residuals = {}
    s[:, k : n - k + 1, k] = t[:, k : n - k + 1, k]
    s[:, l + 1, :k] = t[:, l + 1, :k]
    q_left = l + 1 if n % 2 else l
    if n % 2 == 0:
        s[:, l, :k] = _backward_row(s[:, l + 1, :k], s[:, l, k], xi[l + 1] - xi[l], k)
        residuals["center_bridge"] = _max_abs(s[:, l, :k] - t[:, l, :k])
    for i in range(q_left, k + 1, -1):
        s[:, i - 1, :k] = _backward_row(s[:, i, :k], s[:, i - 1, k], xi[i] - xi[i - 1], k)
    for i in range(l + 1, n - k):
        s[:, i + 1, :k] = _taylor_rows(s[:, i], xi[i + 1] - xi[i])[:, :k]
    _left_terminal(s, t, xi, k, residuals)
    _right_terminal(s, t, xi, k, n, residuals)
    return s, residuals


def _construct_crfc(knots, k, t):
    xi = knots.xi
    n = knots.n
    l = n // 2
    s = np.zeros_like(t)
    residuals = {}
    s[:, k : n - k + 2, 0] = t[:, k : n - k + 2, 0]
    s[:, l + 1, 1:k] = t[:, l + 1, 1:k]
    # right of center: plain frfc over xi[l+1] .. xi[n-k+1]
    u = _frfc(s[:, l + 1, :k], s[:, l + 1 : n - k + 2, 0], np.diff(xi[l + 1 : n - k + 2]), k)
    mr = n - k - l - 1
    for i in range(mr + 2):
        s[:, l + 1 + i, 1:k] = u[:, i, 1:k]
        if i <= mr:
            s[:, l + 1 + i, k] = u[:, i, k]
    # left of center: mirrored frfc over xi[l+1] .. xi[k]
    rev = xi[l + 1 :: -1][: l + 2 - k]
    vals = s[:, l + 1 :: -1, 0][:, : l + 2 - k]
    ul = _frfc(s[:, l + 1, :k], vals, np.diff(rev), k)
    ml = l - k
    for i in range(ml + 2):
        s[:, l + 1 - i, 1:k] = ul[:, i, 1:k]
        if i <= ml:
            s[:, l - i, k] = ul[:, i, k]
    _left_terminal(s, t, xi, k, residuals)
    _right_terminal(s, t, xi, k, n, residuals)
    return s, residuals


def _construct_rrm(knots, k, t):
    xi = knots.xi
    n = knots.n
    l = n // 2
    s = np.zeros_like(t)
    zero = np.zeros(t.shape[0])
    residuals = {"groups": zero}
    s[:, l + 1, :k] = t[:, l + 1, :k]
    q_left = l + 1 if n % 2 else l
    if n % 2 == 0:
        s[:, l, k] = t[:, l, k]
        s[:, l, :k] = _backward_row(s[:, l + 1, :k], t[:, l, k], xi[l + 1] - xi[l], k)
        residuals["center_bridge"] = _max_abs(s[:, l, :k] - t[:, l, :k])

    def note(r):
        # fmax keeps the running maximum where a residual is NaN
        residuals["groups"] = np.fmax(residuals["groups"], r)

    # left half: mirrored m=k groups, then a remainder group, down to xi[k+1]
    cur = q_left
    while cur - (k + 1) >= k + 1:
        nxt = cur - (k + 1)
        first = np.column_stack([s[:, cur, :k], t[:, cur - 1, k]])
        s[:, cur - 1, k] = t[:, cur - 1, k]
        last = np.column_stack([t[:, nxt, :k], zero])
        seg = xi[nxt : cur + 1][::-1]
        u, r = _frlr(first, last, np.diff(seg), k)
        note(r)
        for i in range(1, k + 1):
            s[:, cur - i - 1, k] = u[:, i, k]
            s[:, cur - i, :k] = u[:, i, :k]
        s[:, nxt, :k] = u[:, k + 1, :k]
        cur = nxt
    if cur > k + 1:
        mrem = cur - k - 2
        first = np.column_stack([s[:, cur, :k], t[:, cur - 1, k]])
        s[:, cur - 1, k] = t[:, cur - 1, k]
        last = np.column_stack([t[:, k + 1, :k], zero])
        seg = xi[k + 1 : cur + 1][::-1]
        u, r = _frlr(first, last, np.diff(seg), k)
        note(r)
        for i in range(1, mrem + 1):
            s[:, cur - i - 1, k] = u[:, i, k]
        for i in range(1, mrem + 2):
            s[:, cur - i, :k] = u[:, i, :k]

    # right half: forward m=k groups, remainder, up to xi[n-k]
    cur = l + 1
    while cur + (k + 1) <= n - k:
        nxt = cur + (k + 1)
        first = np.column_stack([s[:, cur, :k], t[:, cur, k]])
        s[:, cur, k] = t[:, cur, k]
        last = np.column_stack([t[:, nxt, :k], zero])
        u, r = _frlr(first, last, np.diff(xi[cur : nxt + 1]), k)
        note(r)
        for i in range(1, k + 1):
            s[:, cur + i, k] = u[:, i, k]
            s[:, cur + i, :k] = u[:, i, :k]
        s[:, nxt, :k] = u[:, k + 1, :k]
        cur = nxt
    if cur < n - k:
        mrem = n - k - cur - 1
        first = np.column_stack([s[:, cur, :k], t[:, cur, k]])
        s[:, cur, k] = t[:, cur, k]
        last = np.column_stack([t[:, n - k, :k], zero])
        u, r = _frlr(first, last, np.diff(xi[cur : n - k + 1]), k)
        note(r)
        for i in range(1, mrem + 1):
            s[:, cur + i, k] = u[:, i, k]
        for i in range(1, mrem + 2):
            s[:, cur + i, :k] = u[:, i, :k]

    _left_terminal(s, t, xi, k, residuals)
    _right_terminal(s, t, xi, k, n, residuals)
    return s, residuals


_DRIVERS = {"CRLC": _construct_crlc, "CRFC": _construct_crfc, "RRM": _construct_rrm}


def _check_construct(n, k, method):
    if method not in _DRIVERS:
        raise ValueError("method must be one of CRLC, CRFC, RRM")
    if n < 2 * k + 2:
        raise ValueError(
            "construct needs at least 2k+2 internal knots in the support; "
            "use project() onto a spline basis instead"
        )


def _construct_rows(knots, k, t, method):
    """The batched construction core.

    ``t`` stacks ``M`` full ``(n+2) x (k+1)`` seed matrices; returns the
    valid matrices, stacked alike, and a dict of per-matrix residual arrays
    of length ``M`` (empty for ``k = 0``).  Arguments are checked by the
    callers (:func:`_check_construct`).
    """
    if k == 0:
        s = t.copy()
        s[:, -1] = 0.0
        return s, {}
    return _DRIVERS[method](knots, k, t)


def construct(knots, k, seed, method="RRM", epsilon=DEFAULT_EPSILON, return_residuals=False):
    """Build a single valid full-support spline from seed values.

    ``seed`` is either a full ``(n+2) x (k+1)`` one-sided derivative matrix
    (any method; the method decides which entries it reads) or a flat vector
    of the method's free parameters (``CRLC``/``CRFC``; for ``k = 0`` the
    ``n+1`` interval values).  This is the batched core run on one matrix;
    with ``return_residuals`` the residuals come back as a dict of floats.
    """
    if not isinstance(knots, KnotSet):
        knots = KnotSet(np.asarray(knots, dtype=float))
    _check_construct(knots.n, k, method)
    t = _seed_matrix(knots, k, seed, "CRLC" if k == 0 else method)
    s, residuals = _construct_rows(knots, k, t[None], method)
    fam = _family(knots, k, s[0], [0], [knots.n + 1], [0, 1], ONE_SIDED, "sp", epsilon)
    if return_residuals:
        return fam, {name: float(r[0]) for name, r in residuals.items()}
    return fam


# ---------------------------------------------------------------------------
# knot refinement


def refine(fam, new_knots):
    """Re-express a family over a superset of its knots.

    Every new knot row is the old row of the interval it falls in, stepped
    forward by its distance from that interval's left knot; a row at an old
    knot is copied.  A component's last row is its old last row.
    """
    old = fam.knots.xi
    new = new_knots.xi
    scale = old[-1] - old[0]
    idx_map = np.clip(np.searchsorted(new, old), 0, new.size - 1)
    # a knot may land one slot late due to rounding; fix up and verify
    idx_map -= (idx_map > 0) & (np.abs(new[idx_map - 1] - old) < np.abs(new[idx_map] - old))
    missing = np.abs(new[idx_map] - old) > 1e-12 * scale
    if missing.any():
        raise ValueError("new knots do not contain original knot %g" % old[np.argmax(missing)])
    k = fam.smorder
    fam1 = as_one_sided(fam)
    lo, hi, rows = fam1.lo, fam1.hi, fam1.rows
    nlo, nhi = idx_map[lo], idx_map[hi]
    nsize = nhi - nlo + 1
    comp = np.repeat(np.arange(lo.size), nsize)
    j = _ranges(nlo, nsize)
    pos = np.clip(np.searchsorted(old, new[j], side="right") - 1, lo[comp], hi[comp] - 1)
    dt = new[j] - old[pos]
    end = np.cumsum(hi - lo + 1) - 1
    # the stacked row of old knot pos is end - hi + pos in its component
    out = rows[(end - hi)[comp] + pos]
    # a zero step copies the row: a product would turn inf * 0 into nan
    step = dt != 0.0
    out[step] = _taylor_rows(out[step], dt[step])
    nend = np.cumsum(nsize) - 1
    out[nend] = rows[end]
    out[nend, k] = 0.0
    return _family(new_knots, k, out, nlo, nhi, fam1.offsets, ONE_SIDED, fam.type, fam.epsilon)
