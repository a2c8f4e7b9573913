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
convention.  Each strategy is written once, as a sweep to the right: the
left half is that sweep run on :func:`_mirror` images of the stacks over the
reversed knots, whose negative spacings the recursions accept, and copied
back.

Every recursion runs over a stack of ``M`` matrices at once, rows shaped
``(M, k+1)`` and matrices ``(M, rows, k+1)``.  Every row comes from one
forward sweep, :func:`_frlc` (Horner steps through
:func:`splinet.core._taylor_rows`); the frlr system is read off that sweep,
once per call with its condition check, and each matrix adds only its
right-hand side, the sweep of its own first row.  Residuals come out as
length-``M`` arrays.  The arithmetic over the stack is elementwise and the
frlr system is one LAPACK solve per matrix, so a matrix's result does not
depend on the others or on ``M``.  Segments are checked as
:class:`~splinet.core.KnotSet` checks knots.  The public solvers and
:func:`construct` run this core with ``M = 1``; :func:`splinet.random.rspline`
runs it once over all its draws.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import (
    DEFAULT_EPSILON,
    KNOT_MATCH_TOL,
    _factorials,
    _family,
    _integer,
    _knots,
    _ranges,
    _taylor_col,
    _taylor_rows,
)

#: condition-number limit for the frlr core system
COND_LIMIT = 1e12


class SingularSystemError(ValueError):
    """The frlr core matrix C is numerically singular."""


def _max_abs(x):
    """Largest magnitude along the last axis; 0 where that axis is empty."""
    return np.max(np.abs(x), axis=-1, initial=0.0)


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
    seg = _knots(knots_segment).xi
    first_row = np.asarray(first_row, dtype=float)
    last_col = np.asarray(last_col, dtype=float)
    k = first_row.size - 1
    if last_col.size != seg.size:
        raise ValueError("last_col must have one entry per segment knot")
    # the first row's k-th entry wins over last_col[0]
    kth_col = np.concatenate([first_row[k:], last_col[1:]])
    return _frlc(first_row[None], kth_col[None], np.diff(seg), k)[0]


def _frfc(first_row_partial, first_col, spacings, k):
    """Rows 1.. from the row before; each row's k-th entry is the one that
    steps its value to the next entry of ``first_col`` (``(M, len+1)``)."""
    m1, fact_k = len(spacings), _factorials(k)[k]
    u = np.zeros((first_col.shape[0], m1 + 1, k + 1))
    u[:, 0, :k] = first_row_partial
    u[:, :, 0] = first_col
    for i in range(m1 + 1):
        if i > 0:
            u[:, i, 1:k] = _taylor_rows(u[:, i - 1], spacings[i - 1])[:, 1:k]
        if i < m1:
            # u[:, i, k] is still 0, so the Horner value sums orders 0..k-1
            h = spacings[i]
            u[:, i, k] = (first_col[:, i + 1] - _taylor_col(u[:, i], h, 0)) / (h**k / fact_k)
    return u


def solve_frfc(first_row_partial, first_col, knots_segment):
    """Complete a matrix from its first row (orders < k) and value column."""
    seg = _knots(knots_segment).xi
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


def _frlr(first_row, last_row, spacings, k):
    """Core first-row/last-row solve over stacked rows ``(M, k+1)``;
    spacings may be negative (mirrored).  Returns the ``(M, m+2, k+1)``
    matrices and the per-matrix residuals.  Entries ``k-m .. k-1`` of the
    swept last row are ``C' x`` plus their value at ``x = 0``, linear in the
    middle k-th entries ``x``; column j of ``C'`` is the sweep of unit
    ``x_j`` from a zero first row."""
    m = len(spacings) - 1
    kth_col = np.zeros((len(first_row), m + 2))
    kth_col[:, 0], kth_col[:, -1] = first_row[:, k], last_row[:, k]
    if m:
        unit = np.zeros((m, m + 2))
        unit[:, 1:-1] = np.eye(m)
        cmat = _frlc(np.zeros((m, k + 1)), unit, spacings, k)[:, m + 1, k - m : k]
        if np.linalg.cond(cmat) > COND_LIMIT:
            raise SingularSystemError("frlr system is numerically singular")
        rhs = last_row[:, k - m : k] - _frlc(first_row, kth_col, spacings, k)[:, m + 1, k - m : k]
        # one LAPACK gesv per matrix, each on its own copy of C'
        kth_col[:, 1:-1] = np.linalg.solve(cmat.T, rhs[:, :, None])[:, :, 0]
    u = _frlc(first_row, kth_col, spacings, k)
    return u, _max_abs(u[:, m + 1, : k - m] - last_row[:, : k - m])


def solve_frlr(first_row, last_row, knots_segment, m=None):
    """Complete a matrix from its first and last rows (``m <= k`` case).

    Returns ``(matrix, residual)`` where the residual is the magnitude by
    which the unused last-row entries had to be overwritten for consistency.
    """
    seg = _knots(knots_segment).xi
    first_row = np.asarray(first_row, dtype=float)
    last_row = np.asarray(last_row, dtype=float)
    k = first_row.size - 1
    seg_m = seg.size - 2
    if m is not None and _integer(m, "m", low=0) != seg_m:
        raise ValueError("segment has %d internal knots, expected m=%d" % (seg_m, m))
    if seg_m > k:
        raise ValueError("frlr requires m <= k")
    if last_row.size != k + 1:
        raise ValueError("first and last rows must both have k+1 entries")
    u, residual = _frlr(first_row[None], last_row[None], np.diff(seg), k)
    return u[0], float(residual[0])


# ---------------------------------------------------------------------------
# whole-spline construction


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


def _mirror(a):
    """The stack ``a`` (``(M, n+2, k+1)``) read from the right over the knots
    ``xi[::-1]``: row ``r`` holds knot ``n+1-r``, and the one-sided k-th entry
    of interval ``[j, j+1)`` moves with its interval to row ``n-j``; the last
    row's k-th entry is 0.  An exact copy; mirroring twice gives ``a`` back
    when its last row's k-th entry is 0."""
    out = np.empty_like(a)
    out[:, :, :-1] = a[:, ::-1, :-1]
    out[:, :-1, -1] = a[:, -2::-1, -1]
    out[:, -1, -1] = 0.0
    return out


def _crlc(s, t, xi, c, n, k):
    """CRLC from row ``c`` to knot ``n-k``: one frlc over the seed's k-th
    column."""
    s[:, c : n - k + 1] = _frlc(s[:, c], t[:, c : n - k + 1, k], np.diff(xi[c : n - k + 1]), k)
    return []


def _crfc(s, t, xi, c, n, k):
    """CRFC from row ``c`` to knot ``n-k+1``: one frfc over the seed's value
    column."""
    s[:, c : n - k + 2] = _frfc(t[:, c, :k], t[:, c : n - k + 2, 0], np.diff(xi[c : n - k + 2]), k)
    return []


def _rrm(s, t, xi, c, n, k):
    """RRM from row ``c`` to knot ``n-k``: frlr groups of at most ``k``
    internal knots, each from the row reached to the seed's full row at its
    end, whose k-th entry starts the next group; returns the groups'
    residuals."""
    groups = []
    while c < n - k:
        nxt = min(c + k + 1, n - k)
        u, r = _frlr(s[:, c], t[:, nxt], np.diff(xi[c : nxt + 1]), k)
        s[:, c + 1 : nxt + 1] = u[:, 1:]
        groups.append(r)
        c = nxt
    return groups


def _terminal(s, t, xi, n, k):
    """Resolve knots ``n-k+1 .. n+1`` by an m=k frlr from row ``n-k`` to a
    zero boundary row; a matrix whose k-th entry at knot ``n-k`` is still 0
    takes its seed's there.  Returns the boundary residuals."""
    s[:, n - k, k] = np.where(s[:, n - k, k] == 0.0, t[:, n - k, k], s[:, n - k, k])
    u, _ = _frlr(s[:, n - k], np.zeros_like(s[:, n - k]), np.diff(xi[n - k :]), k)
    s[:, n - k + 1 : n + 1] = u[:, 1:-1]
    return _max_abs(u[:, k + 1, :k])


_SWEEPS = {"CRLC": _crlc, "CRFC": _crfc, "RRM": _rrm}


def _check_construct(n, k, method):
    if method not in _SWEEPS:
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

    Each half starts from the seed's row at the central knot ``n//2 + 1``
    and runs the method's sweep outward, then the terminal; the left half is
    the same run on the mirrored stacks, from the centre row's image.
    """
    if k == 0:
        s = t.copy()
        s[:, -1] = 0.0
        return s, {}
    xi, n = knots.xi, knots.n
    sweep = _SWEEPS[method]
    c = n // 2 + 1
    s, sl = np.zeros_like(t), np.zeros_like(t)
    tl, xl, cl = _mirror(t), xi[::-1], n + 1 - c
    s[:, c] = t[:, c]
    sl[:, cl] = tl[:, cl]
    residuals = {}
    if n % 2 == 0 and method != "CRFC":
        # knots c-1 and c are both central; CRLC and RRM reach c-1 by one
        # Taylor step with the seed's k-th entry between them
        sl[:, cl + 1] = tl[:, cl + 1]
        sl[:, cl + 1, :k] = _taylor_rows(sl[:, cl], xl[cl + 1] - xl[cl])[:, :k]
        residuals["center_bridge"] = _max_abs(sl[:, cl + 1, :k] - tl[:, cl + 1, :k])
        cl += 1
    groups = sweep(sl, tl, xl, cl, n, k) + sweep(s, t, xi, c, n, k)
    residuals["left_boundary"] = _terminal(sl, tl, xl, n, k)
    residuals["right_boundary"] = _terminal(s, t, xi, n, k)
    # rows 0..c-1 of _mirror(sl), written straight into s
    s[:, :c, :-1] = sl[:, n + 2 - c : n + 2, :-1][:, ::-1]
    s[:, :c, -1] = sl[:, n + 1 - c : n + 1, -1][:, ::-1]
    if method == "RRM":
        # fmax keeps the running maximum where a residual is NaN
        residuals = {"groups": functools.reduce(np.fmax, groups, np.zeros(len(t))), **residuals}
    return s, residuals


def construct(knots, k, seed, method="RRM", epsilon=DEFAULT_EPSILON, return_residuals=False):
    """Build a single valid full-support spline from seed values.

    ``seed`` is either a full ``(n+2) x (k+1)`` one-sided derivative matrix
    (any method; the method decides which entries it reads) or a flat vector
    of the method's free parameters (``CRLC``/``CRFC``; for ``k = 0`` the
    ``n+1`` interval values).  This is the batched core run on one matrix;
    with ``return_residuals`` the residuals come back as a dict of floats.
    """
    k, knots = _integer(k, "the order k", low=0), _knots(knots)
    _check_construct(knots.n, k, method)
    t = _seed_matrix(knots, k, seed, "CRLC" if k == 0 else method)
    s, residuals = _construct_rows(knots, k, t[None], method)
    fam = _family(knots, k, s[0], [0], [knots.n + 1], [0, 1], "sp", epsilon)
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
    new_knots = _knots(new_knots)
    old = fam.knots.xi
    new = new_knots.xi
    idx_map = np.clip(np.searchsorted(new, old), 0, new.size - 1)
    # a knot may land one slot late due to rounding; fix up and verify
    idx_map -= (idx_map > 0) & (np.abs(new[idx_map - 1] - old) < np.abs(new[idx_map] - old))
    missing = np.abs(new[idx_map] - old) > KNOT_MATCH_TOL * (old[-1] - old[0])
    if missing.any():
        raise ValueError("new knots do not contain original knot %g" % old[np.argmax(missing)])
    k = fam.smorder
    lo, hi, rows = fam.lo, fam.hi, fam.rows
    nlo, nhi = idx_map[lo], idx_map[hi]
    nsize = nhi - nlo + 1
    comp = np.repeat(np.arange(lo.size), nsize)
    j = _ranges(nlo, nsize)
    pos = np.clip(np.searchsorted(old, new[j], side="right") - 1, lo[comp], hi[comp] - 1)
    dt = new[j] - old[pos]
    out = rows[(fam.start - lo)[comp] + pos]
    # a zero step copies the row: a product would turn inf * 0 into nan
    step = dt != 0.0
    out[step] = _taylor_rows(out[step], dt[step])
    nend = np.cumsum(nsize) - 1
    out[nend] = rows[fam.start + hi - lo]
    out[nend, k] = 0.0
    return _family(new_knots, k, out, nlo, nhi, fam.offsets, fam.type, fam.epsilon)
