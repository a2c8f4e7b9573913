"""Independent reference implementations used to freeze expected values.

Everything here deliberately avoids the library's own fast paths: inner
products come from composite Gauss-Legendre quadrature on dense
evaluations, or from the exact closed form summed pair by pair over shared
knot intervals, and the first-row/last-row completion is re-solved as one
dense linear system in the unknown entries, and once more in exact rational
arithmetic.  Gram diagonalization runs on
dense ``H`` and ``P`` with whole-group row envelopes, and ``gsob`` through a
dense Cholesky factor.  Archives are written through ``json``'s own encoder
as the nested dict/list tree of the stored fields.  No oracle steps a row
with the library's Horner sweep: validity and knot refinement walk members
row by row with the dense Taylor step matrices of :func:`taylor_step_matrix`,
evaluation sums the powers of the step term by term, and antiderivatives
weigh rows with their own ``w^(p+1) / (p+1)!``.  The conversion to an
archive's symmetric k-th column runs block by block.  Linear
combinations, support shrinking, evaluation, antiderivatives and the
B-spline recursion build one member at a time.  Whole-spline
construction runs one seed matrix at a time, with explicit step matrices and
one ``np.linalg.solve`` per frlr group.  Numeric CSVs are read through the
``csv`` module and Python's ``float``, field by field.  Functional PCA
takes ``eigh`` of the dense d x d coefficient covariance.
"""

import csv
import fractions
import json
import math

import numpy as np
import scipy.linalg
import scipy.sparse

import splinet as sp
from splinet.bases import SPD_SHIFT
from splinet.construct import COND_LIMIT, SingularSystemError
from splinet.core import _ranges
from splinet.project import EIGEN_NOISE_FLOOR, RETAIN_TOL

GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def taylor_step_matrix(alpha, k):
    """Lower-triangular Toeplitz matrix of Taylor-step weights.

    ``A[i, j] = alpha**(i-j) / (i-j)!`` for ``i >= j``.  Propagating a row of
    derivative values across a knot interval of length ``alpha`` amounts to a
    right-multiplication by this matrix; a negative ``alpha`` steps backward.
    """
    a = np.zeros((k + 1, k + 1))
    for d in range(k + 1):
        val = alpha**d / math.factorial(d)
        for i in range(d, k + 1):
            a[i, i - d] = val
    return a


def interval_weights(xi, k):
    """``(n+2) x (k+1)``: row ``t`` holds ``w^(p+1) / (p+1)!`` for the width
    ``w`` of interval ``t``, the integral of ``dt^p / p!`` over it; the last
    knot starts no interval and holds 0."""
    w = np.diff(np.asarray(xi, dtype=float))
    out = np.zeros((w.size + 1, k + 1))
    for p in range(k + 1):
        out[:-1, p] = w ** (p + 1) / math.factorial(p + 1)
    return out


def _csr(rows, cols, data, shape):
    """CSR matrix from entries already sorted by row, then by column."""
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=shape[0]))])
    return scipy.sparse.csr_matrix((data, cols, indptr), shape=shape)


def _taylor_layout(fam1):
    """Sparse layout ``(C, C_int, O)`` of a one-sided family, in scipy:

    * ``C`` (d x (n+2)(k+1)): row ``i`` is member ``i``'s derivative matrix
      flattened over the knots its support components cover; column
      ``t*(k+1) + p`` holds the p-th derivative at knot ``t``;
    * ``C_int``: ``C`` without each component's last knot, i.e. only the
      Taylor rows that start an interval the member lives on;
    * ``O`` (d x (n+1)): interval incidence, 1 where a member lives.
    """
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


def _merge_components(comps):
    """Union of (lo, hi) index intervals given sorted by ``lo``; runs closer
    than one full knot gap are merged so the result is a legal support set."""
    comps = np.asarray(comps, dtype=int).reshape(-1, 2)
    if not comps.size:
        return ()
    lo, hi = comps.T
    reach = np.maximum.accumulate(hi)
    start = np.flatnonzero(np.concatenate([[True], lo[1:] > reach[:-1] + 1]))
    end = reach[np.append(start[1:] - 1, -1)]
    return tuple(zip(lo[start].tolist(), end.tolist()))


def merge_runs(owner, lo, hi):
    """:func:`splinet.core._merge_runs` as a plain loop over pieces listed by
    ascending ``(owner, lo)``: a piece joins the open component when it has
    its owner and begins at most one interval past its end, which it then
    extends to its own end if that is further; otherwise it opens a
    component.  Returns the head flags and the ``[owner, lo, hi]`` lists."""
    heads, comps = [], []
    for o, a, b in zip(owner, lo, hi):
        join = bool(comps) and comps[-1][0] == o and a <= comps[-1][2] + 1
        if join:
            comps[-1][2] = max(comps[-1][2], b)
        else:
            comps.append([o, a, b])
        heads.append(not join)
    return heads, comps


def _member_from_union(full, comps, k):
    """Cut a full matrix into blocks over the given support components."""
    blocks = [full[lo : hi + 1].copy() for lo, hi in comps]
    for blk in blocks:
        blk[-1, k] = 0.0
    return tuple(comps), blocks


def quad_inner(fam_a, i, fam_b, j, deriv=0):
    """<a_i, b_j> by composite Gauss-Legendre over every knot interval."""
    xi = fam_a.knots.xi
    total = 0.0
    for a, b in zip(xi[:-1], xi[1:]):
        x = 0.5 * (b - a) * GL_NODES + 0.5 * (a + b)
        va = sp.evaluate(fam_a, x, deriv)[:, i]
        vb = sp.evaluate(fam_b, x, deriv)[:, j]
        total += 0.5 * (b - a) * float(np.sum(GL_WEIGHTS * va * vb))
    return total


def quad_gramian(fam_a, fam_b=None):
    fam_b = fam_a if fam_b is None else fam_b
    g = np.zeros((len(fam_a), len(fam_b)))
    for i in range(len(fam_a)):
        for j in range(len(fam_b)):
            g[i, j] = quad_inner(fam_a, i, fam_b, j)
    return g


def _interval_rows(fam1, idx):
    """Interval indices and the one-sided rows active on them for member idx."""
    supp, der = fam1.members[idx]
    ints = [np.arange(lo, hi) for lo, hi in supp]
    rows = [blk[:-1] for blk in der]
    if not ints:
        return np.empty(0, dtype=int), np.empty((0, fam1.smorder + 1))
    return np.concatenate(ints), np.vstack(rows)


def _pair_inner(rows_a, rows_b, widths, k):
    """Sum of integrals of products of two piecewise polynomials given by
    Taylor rows over shared intervals of the given widths."""
    fact = np.array([1.0] + list(np.cumprod(np.arange(1, k + 1)))) if k else np.array([1.0])
    a = rows_a / fact
    b = rows_b / fact
    conv = np.zeros((a.shape[0], 2 * k + 1))
    for i in range(k + 1):
        for j in range(k + 1):
            conv[:, i + j] += a[:, i] * b[:, j]
    powers = np.arange(1, 2 * k + 2)
    w = widths[:, None] ** powers / powers
    return float(np.sum(conv * w))


def pairwise_gramian(fam_a, fam_b=None):
    """Exact closed-form Gram matrix, one member pair at a time.

    Each pair's Taylor rows are matched on the knot intervals both members
    live on, and the product polynomial is integrated interval by interval.
    Pairs whose index spans do not overlap are skipped; the symmetric case
    computes the upper triangle and mirrors it.
    """
    a1 = fam_a
    symmetric = fam_b is None
    b1 = a1 if symmetric else fam_b
    k = a1.smorder
    widths = np.diff(a1.knots.xi)
    a_data = [_interval_rows(a1, i) for i in range(len(a1))]
    b_data = a_data if symmetric else [_interval_rows(b1, j) for j in range(len(b1))]
    g = np.zeros((len(a_data), len(b_data)))
    for i, (ia, ra) in enumerate(a_data):
        for j in range(i if symmetric else 0, len(b_data)):
            ib, rb = b_data[j]
            if not ia.size or not ib.size or ib[0] > ia[-1] or ib[-1] < ia[0]:
                continue
            shared, pa, pb = np.intersect1d(ia, ib, assume_unique=True,
                                            return_indices=True)
            if shared.size:
                g[i, j] = _pair_inner(ra[pa], rb[pb], widths[shared], k)
                if symmetric:
                    g[j, i] = g[i, j]
    return g


def quad_integral(fam, i):
    xi = fam.knots.xi
    total = 0.0
    for a, b in zip(xi[:-1], xi[1:]):
        x = 0.5 * (b - a) * GL_NODES + 0.5 * (a + b)
        total += 0.5 * (b - a) * float(np.sum(GL_WEIGHTS * sp.evaluate(fam, x)[:, i]))
    return total


def dense_frlr(first_row, last_row, seg):
    """Solve the first-row/last-row completion as one dense linear system.

    Unknowns: rows 1..m fully (k+1 each) plus the overwritten low-order
    entries of row m+1.  Equations: Taylor propagation of orders 0..k-1
    across every interval, plus the requirement that row i+1's low block
    equals row i propagated (the k-th column entries of rows 1..m are free
    unknowns appearing in the propagation).
    """
    seg = np.asarray(seg, dtype=float)
    first_row = np.asarray(first_row, dtype=float)
    last_row = np.asarray(last_row, dtype=float)
    k = first_row.size - 1
    m = seg.size - 2
    rows = m + 2
    nun = rows * (k + 1)  # solve for the whole matrix, constrain knowns
    a_rows, rhs = [], []

    def unit(i, c):
        v = np.zeros(nun)
        v[i * (k + 1) + c] = 1.0
        return v

    # known entries
    for c in range(k + 1):
        a_rows.append(unit(0, c)); rhs.append(first_row[c])
    for c in range(k - m, k):
        a_rows.append(unit(m + 1, c)); rhs.append(last_row[c])
    a_rows.append(unit(m + 1, k)); rhs.append(last_row[k])
    # propagation: row_{i+1}[0:k] = (row_i @ A)[0:k]
    for i in range(rows - 1):
        a = taylor_step_matrix(seg[i + 1] - seg[i], k)
        for c in range(k):
            v = np.zeros(nun)
            v[(i + 1) * (k + 1) + c] = 1.0
            for p in range(k + 1):
                v[i * (k + 1) + p] -= a[p, c]
            a_rows.append(v); rhs.append(0.0)
    sol, *_ = np.linalg.lstsq(np.array(a_rows), np.array(rhs), rcond=None)
    return sol.reshape(rows, k + 1)


def random_valid_family(rng, n, k, count=1, method="CRLC"):
    knots = sp.equidistant_knots(0.0, 1.0, n)
    fams = [sp.construct(knots, k, rng.standard_normal(n - k + 1), method)
            for _ in range(count)]
    out = fams[0]
    for f in fams[1:]:
        out = sp.gather(out, f)
    return out


#: random_knots redraws uniform knots until no gap is below 1e-3 of the range
#: for at most this many knots (about exp(n^2 / 1000) draws); above it, that
#: would almost never succeed, so the gaps are drawn instead
REDRAW_MAX_KNOTS = 100


def random_knots(rng, n, a=0.0, b=1.0):
    if n > REDRAW_MAX_KNOTS:
        widths = rng.uniform(0.5, 1.5, n + 1)
        xi = a + (b - a) * np.cumsum(np.append(0.0, widths)) / np.sum(widths)
        xi[-1] = b
        return sp.KnotSet(xi)
    inner = np.sort(rng.uniform(a, b, n))
    while np.min(np.diff(np.concatenate([[a], inner, [b]]))) < (b - a) * 1e-3:
        inner = np.sort(rng.uniform(a, b, n))
    return sp.KnotSet(np.concatenate([[a], inner, [b]]))


def lincomb_family(rng, k, n=12, count=5):
    """``count`` members of ``exsupp(lincomb(...))`` over random knots.

    Every member but the last gets a run of zero B-spline coefficients, so
    most members have two support components; the last member is all zero
    and ends up with an empty support.  Members are scaled by up to 1e3 either
    way, so per-member tolerances differ.
    """
    knots = random_knots(rng, n)
    bs = sp.bspline_basis(knots, k)
    d = len(bs)
    coeffs = rng.standard_normal((count, d)) * 10.0 ** rng.uniform(-3, 3, (count, 1))
    for row in coeffs[:-1]:
        at = rng.integers(1, d - 1)
        row[at : at + rng.integers(0, k + 4)] = 0.0
    coeffs[-1] = 0.0
    return sp.exsupp(sp.lincomb(bs, coeffs))


def loop_lincomb(fam, coeffs, type=None):
    """:func:`splinet.lincomb` one output member at a time: each member's
    row of ``coeffs C`` is scattered into a dense ``(n+2)(k+1)`` row, its
    support is ``|coeffs| O`` merged by ``_merge_components``, and its
    blocks are copies cut from that row."""
    k = fam.smorder
    if not scipy.sparse.issparse(coeffs):
        coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
    a = scipy.sparse.csr_matrix(coeffs, dtype=float)
    c, _, o = _taylor_layout(fam)
    full = a @ c
    cover = abs(a) @ o
    cover.sort_indices()
    shape = (len(fam.knots), k + 1)
    members = []
    for r in range(a.shape[0]):
        row = np.zeros(shape[0] * shape[1])
        at = slice(full.indptr[r], full.indptr[r + 1])
        row[full.indices[at]] = full.data[at]
        t = cover.indices[cover.indptr[r] : cover.indptr[r + 1]]
        comps = _merge_components(np.column_stack([t, t + 1]))
        members.append(_member_from_union(row.reshape(shape), comps, k))
    return sp.SplineFamily(fam.knots, k, tuple(members),
                           type if type is not None else "sp", fam.epsilon)


def loop_exsupp(fam):
    """:func:`splinet.exsupp` one member and one block at a time: the live
    intervals of a block are its rows (bar the last) with an entry above the
    member's tolerance or a non-finite entry, merged by ``_merge_components``."""
    members = []
    for idx in range(len(fam)):
        supp, der = fam.members[idx]
        tol = fam.member_tolerance(idx)
        runs, blocks = [], []
        for (lo, hi), blk in zip(supp, der):
            row_max = np.max(np.abs(blk[:-1]), axis=1)
            alive = np.flatnonzero((row_max > tol) | ~np.isfinite(row_max))
            # one dead interval between live runs stays inside the component
            for a, b in _merge_components(np.column_stack([alive, alive + 1])):
                new = blk[a : b + 1].copy()
                new[-1, -1] = 0.0
                runs.append((lo + a, lo + b))
                blocks.append(new)
        members.append((tuple(runs), blocks))
    return sp.SplineFamily(fam.knots, fam.smorder, tuple(members), fam.type, fam.epsilon)


def loop_evaluate(fam, grid, deriv=0):
    """:func:`splinet.evaluate` one member and one component at a time: the
    points in ``[xi[lo], xi[hi]]`` of each component, bar those at ``xi[hi]``
    unless it is the last knot, are stepped from their interval's row as the
    power sum ``sum over i >= deriv of row[i] dt^(i-deriv) / (i-deriv)!``."""
    xi = fam.knots.xi
    k = fam.smorder
    grid = np.asarray(grid, dtype=float)
    out = np.zeros((grid.size, len(fam)))
    for j, (supp, der) in enumerate(fam.members):
        for (lo, hi), blk in zip(supp, der):
            sel = np.flatnonzero((grid >= xi[lo]) & (grid <= xi[hi]))
            iv = np.searchsorted(xi, grid[sel], side="right") - 1
            keep = (iv < hi) | ((iv == hi) & (hi == xi.size - 1))
            sel, iv = sel[keep], np.clip(iv[keep], lo, hi - 1)
            rows, dt = blk[iv - lo], grid[sel] - xi[iv]
            out[sel, j] = sum(rows[:, i] * dt ** (i - deriv) / math.factorial(i - deriv)
                              for i in range(deriv, k + 1))
    return out


def loop_integra(fam):
    """:func:`splinet.integra` one member at a time: the running integral is
    a cumulative sum over a dense per-knot vector, and a component whose
    running integral ends nonzero reaches the next one (``_merge_components``)
    or the last knot."""
    k = fam.smorder
    n_knots = len(fam.knots)
    c_int = _taylor_layout(fam)[1]
    w = interval_weights(fam.knots.xi, k).ravel()
    tols = fam.epsilon * (abs(c_int) @ w)
    members = []
    for idx, (supp, _) in enumerate(fam.members):
        at = slice(c_int.indptr[idx], c_int.indptr[idx + 1])
        cols = c_int.indices[at]
        per_knot = np.bincount(cols // (k + 1), c_int.data[at] * w[cols], n_knots)
        running = np.concatenate([[0.0], np.cumsum(per_knot[:-1])])
        full = np.column_stack([running, fam.full_matrix(idx)])
        comps = list(supp)
        nxt = [lo for lo, _ in comps[1:]] + [n_knots - 1]
        ends = [hi if abs(running[hi]) <= tols[idx] else e for (_, hi), e in zip(comps, nxt)]
        union = _merge_components([(lo, e) for (lo, _), e in zip(comps, ends)])
        members.append(_member_from_union(full, union, k + 1))
    return sp.SplineFamily(fam.knots, k + 1, tuple(members), "sp", fam.epsilon)


def loop_bspline_basis(knots, k):
    """:func:`splinet.bspline_basis` one member at a time: each order-raising
    step combines the blocks of members l and l+1 over knots
    ``xi[l : l+q+2]``."""
    xi = knots.xi
    n = knots.n

    def raise_pair(blk_l, blk_r, seg, q):
        p1 = np.zeros((q + 2, q))
        p1[:-1] = blk_l
        p2 = np.zeros((q + 2, q))
        p2[1:] = blk_r
        d1, d2 = seg[-2] - seg[0], seg[1] - seg[-1]
        out = np.zeros((q + 2, q + 1))
        j = np.arange(1, q + 1)
        out[:, 1:] = p1 * j / d1 + p2 * j / d2
        out[:, :q] += (seg - seg[0])[:, None] * p1 / d1 + (seg - seg[-1])[:, None] * p2 / d2
        return out

    blocks = [np.array([[1.0], [0.0]]) for _ in range(n + 1)]
    for q in range(1, k + 1):
        blocks = [raise_pair(blocks[l], blocks[l + 1], xi[l : l + q + 2], q)
                  for l in range(n - q + 1)]
    members = []
    for l, blk in enumerate(blocks):
        blk[0, :k] = 0.0
        blk[-1] = 0.0
        members.append((((l, l + k + 1),), (blk,)))
    return sp.SplineFamily(knots, k, tuple(members), "bs")


def random_rows_family(rng, k, n=14, count=6):
    """``count`` members with random supports and entries, not valid splines.

    Each interval row is kept, scaled far below the member's tolerance, or
    zeroed, at random, so live runs are split by dead runs of every length
    (one dead interval among them).  Members are scaled by up to 1e3 either
    way.  The next-to-last member is nonzero on its components' last rows
    only (it lives nowhere), the last has an empty support.
    """
    knots = random_knots(rng, n)
    members = []
    for i in range(count):
        comps, blocks = [], []
        lo = int(rng.integers(0, 3))
        while i < count - 1 and lo < n + 1:
            hi = min(lo + int(rng.integers(1, 7)), n + 1)
            blk = rng.standard_normal((hi - lo + 1, k + 1)) * 10.0 ** rng.uniform(-3, 3)
            fate = rng.random(hi - lo)
            blk[:-1][fate < 0.35] *= 1e-12
            blk[:-1][fate < 0.15] = 0.0
            if i == count - 2:
                blk[:-1] = 0.0
            comps.append((lo, hi))
            blocks.append(blk)
            lo = hi + int(rng.integers(2, 5))
        members.append((tuple(comps), blocks))
    return sp.SplineFamily(knots, k, tuple(members))


def assert_same_family(f, g):
    """Equal supports and bit-identical blocks, member by member."""
    assert (len(f), f.smorder, f.type) == (len(g), g.smorder, g.type)
    for (supp_f, der_f), (supp_g, der_g) in zip(f.members, g.members):
        assert supp_f == supp_g
        assert len(der_f) == len(der_g)
        for a, b in zip(der_f, der_g):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def loop_as_symmetric(fam):
    """The rows an archive stores for ``fam``, one block at a time, held in
    a family of the same layout: the bottom-half k-th entries move down one
    row, and the middle row repeats the row above (even ``m``) or holds 0
    (odd ``m``); for ``k = 0`` the last row takes the last interval value."""
    k = fam.smorder
    members = []
    for supp, der in fam.members:
        blocks = []
        for blk in der:
            m = blk.shape[0] - 2
            l = m // 2
            out = blk.copy()
            if k == 0:
                out[m + 1, 0] = blk[m, 0]
            else:
                out[l + 2 : m + 2, k] = blk[l + 1 : m + 1, k]
                out[l + 1, k] = blk[l, k] if m % 2 == 0 else 0.0
            blocks.append(out)
        members.append((supp, blocks))
    return sp.SplineFamily(fam.knots, k, tuple(members), fam.type, fam.epsilon)


def loop_is_valid_spline(fam):
    """:func:`splinet.is_valid_spline` one member and one row at a time.

    Violations are noted in the order: left boundary, right boundary, the
    Taylor propagation knot by knot; a member's worst knot is the first noted
    at its largest violation.
    """
    from splinet.core import ValidityReport

    xi = fam.knots.xi
    k = fam.smorder
    report_ok = []
    worst, worst_member, worst_knot = 0.0, -1, -1
    first_nonfinite = None
    for idx, (supp, der) in enumerate(fam.members):
        nonfinite = [lo + int(np.argmax(~np.isfinite(blk).all(axis=1)))
                     for (lo, _), blk in zip(supp, der)
                     if not np.isfinite(blk).all()]
        if nonfinite:
            report_ok.append(False)
            if first_nonfinite is None:
                first_nonfinite = (idx, nonfinite[0])
            continue
        bad, bad_knot = 0.0, -1
        for (lo, hi), one in zip(supp, der):
            m = hi - lo - 1
            notes = []
            if k > 0:
                notes.append((float(np.max(np.abs(one[0, :k]))), lo))
                notes.append((float(np.max(np.abs(one[m + 1, :k]))), hi))
            notes.append((abs(float(one[m + 1, k])), hi))
            for i in range(m + 1):
                pred = one[i] @ taylor_step_matrix(xi[lo + i + 1] - xi[lo + i], k)
                if k > 0:
                    notes.append((float(np.max(np.abs(pred[:k] - one[i + 1, :k]))), lo + i + 1))
            for v, knot in notes:
                if v > bad:
                    bad, bad_knot = v, knot
        report_ok.append(bad <= fam.member_tolerance(idx))
        if bad > worst:
            worst, worst_member, worst_knot = bad, idx, bad_knot
    if first_nonfinite is not None:
        worst, (worst_member, worst_knot) = np.inf, first_nonfinite
    return ValidityReport(report_ok, worst, worst_member, worst_knot)


def loop_refine(fam, new_knots):
    """:func:`splinet.refine` one member and one new knot at a time, each
    new row the old row times its Taylor step matrix (copied at old knots)."""
    old = fam.knots.xi
    new = new_knots.xi
    scale = old[-1] - old[0]
    idx_map = np.clip(np.searchsorted(new, old), 0, new.size - 1)
    for i, x in enumerate(old):
        j = idx_map[i]
        if j > 0 and abs(new[j - 1] - x) < abs(new[j] - x):
            idx_map[i] = j - 1
        if abs(new[idx_map[i]] - x) > 1e-12 * scale:
            raise ValueError("new knots do not contain original knot %g" % x)
    k = fam.smorder
    members = []
    for supp, der in fam.members:
        comps, blocks = [], []
        for (lo, hi), blk in zip(supp, der):
            nlo, nhi = int(idx_map[lo]), int(idx_map[hi])
            nb = np.zeros((nhi - nlo + 1, k + 1))
            for j in range(nlo, nhi + 1):
                pos = np.searchsorted(old, new[j], side="right") - 1
                pos = min(max(pos, lo), hi - 1)
                dt = new[j] - old[pos]
                if dt == 0.0:
                    nb[j - nlo] = blk[pos - lo]
                else:
                    nb[j - nlo] = blk[pos - lo] @ taylor_step_matrix(dt, k)
            nb[-1, :] = blk[-1, :]
            nb[-1, k] = 0.0
            blocks.append(nb)
            comps.append((nlo, nhi))
        members.append((tuple(comps), blocks))
    return sp.SplineFamily(new_knots, k, tuple(members), fam.type, fam.epsilon)

# ---------------------------------------------------------------------------
# whole-spline construction, one draw at a time


def _loop_frlc(first_row, kth_col, spacings, k):
    """Propagate rows forward; ``kth_col`` supplies column k for every row."""
    m1 = len(spacings)  # = m + 1
    u = np.zeros((m1 + 1, k + 1))
    u[0] = first_row
    u[:, k] = kth_col
    for i in range(1, m1 + 1):
        a = taylor_step_matrix(spacings[i - 1], k)
        u[i, :k] = (u[i - 1] @ a)[:k]
    return u


def _loop_frfc(first_row_partial, first_col, spacings, k):
    m1 = len(spacings)
    u = np.zeros((m1 + 1, k + 1))
    u[0, :k] = first_row_partial
    u[:, 0] = first_col
    a = taylor_step_matrix(spacings[0], k)
    u[0, k] = (first_col[1] - u[0, :k] @ a[:k, 0]) / a[k, 0]
    for i in range(1, m1 + 1):
        a_prev = taylor_step_matrix(spacings[i - 1], k)
        u[i, 1:k] = (u[i - 1] @ a_prev)[1:k]
        if i < m1:
            a_next = taylor_step_matrix(spacings[i], k)
            u[i, k] = (first_col[i + 1] - u[i, :k] @ a_next[:k, 0]) / a_next[k, 0]
    return u


def _loop_frlr(first_row, last_row, spacings, k):
    """Core first-row/last-row solve; spacings may be negative (mirrored)."""
    m = len(spacings) - 1
    first_row = np.asarray(first_row, dtype=float)
    last_row = np.asarray(last_row, dtype=float)
    if m == 0:
        u = np.vstack([first_row, last_row])
        a = taylor_step_matrix(spacings[0], k)
        prop = (first_row @ a)[:k]
        residual = float(np.max(np.abs(prop - last_row[:k]))) if k else 0.0
        u[1, :k] = prop
        return u, residual

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
    rhs = last_row[k - m : k] - first_row[k - m : k + 1] @ dmat
    mid_kth = np.linalg.solve(cmat.T, rhs)

    kth_col = np.concatenate([[first_row[k]], mid_kth, [last_row[k]]])
    u = _loop_frlc(first_row, kth_col, spacings, k)
    residual = 0.0
    if k - m > 0:
        residual = float(np.max(np.abs(u[m + 1, : k - m] - last_row[: k - m])))
    return u, residual


def exact_frlr(first_row, last_row, spacings, k):
    """The first-row/last-row completion in exact rational arithmetic.

    The float inputs are read exactly as :class:`~fractions.Fraction`.  Every
    entry of every row is carried as an affine function ``e[0] + e[1:] . x``
    of the middle k-th entries ``x`` through Taylor steps summed term by
    term; the equations ``row[m+1][c] = last_row[c]`` for ``c = k-m .. k-1``
    are solved by Gaussian elimination.  Returns the matrix and the residual
    (largest change of the unused last-row entries ``0 .. k-m-1``), both
    rounded to float once at the end.
    """
    frac = fractions.Fraction
    m = len(spacings) - 1
    first = [frac(float(v)) for v in first_row]
    last = [frac(float(v)) for v in last_row]
    fact = [math.factorial(p) for p in range(k + 1)]

    def const(v, j=0):
        e = [frac(0)] * (m + 1)
        e[j] = v
        return e

    rows = [[const(v) for v in first]]
    for r, s in enumerate(spacings, start=1):
        h, prev = frac(float(s)), rows[-1]
        row = [[sum(prev[p][j] * h ** (p - c) / fact[p - c] for p in range(c, k + 1))
                for j in range(m + 1)] for c in range(k)]
        rows.append(row + [const(frac(1), r) if r <= m else const(last[k])])
    # augmented system [A | b] in x, eliminated with the first nonzero pivot
    aug = [rows[m + 1][c][1:] + [last[c] - rows[m + 1][c][0]] for c in range(k - m, k)]
    for i in range(m):
        piv = next(r for r in range(i, m) if aug[r][i] != 0)
        aug[i], aug[piv] = aug[piv], aug[i]
        for r in range(m):
            if r != i and aug[r][i] != 0:
                f = aug[r][i] / aug[i][i]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[i])]
    x = [aug[i][m] / aug[i][i] for i in range(m)]
    u = [[e[0] + sum(ej * xj for ej, xj in zip(e[1:], x)) for e in row] for row in rows]
    residual = max((abs(u[m + 1][c] - last[c]) for c in range(k - m)), default=frac(0))
    return np.array(u, dtype=float), float(residual)


def _loop_backward_row(derivs_next, kth_on_interval, spacing, k):
    """Derivatives 0..k-1 at the left knot of an interval from the right knot."""
    d = np.concatenate([derivs_next, [kth_on_interval]])
    return (d @ taylor_step_matrix(-spacing, k))[:k]


def _loop_left_terminal(s, t, xi, k, residuals):
    """Resolve knots 0..k+1 by a mirrored m=k frlr with zero boundary rows."""
    first = np.concatenate([s[k + 1, :k], [t[k, k] if s[k, k] == 0.0 else s[k, k]]])
    s[k, k] = first[k]
    spac = xi[k::-1] - xi[k + 1 : 0 : -1]  # negative steps xi[k]-xi[k+1], ...
    u, _ = _loop_frlr(first, np.zeros(k + 1), spac, k)
    for i in range(1, k + 1):
        s[k - i, k] = u[i, k]
        s[k + 1 - i, :k] = u[i, :k]
    residuals["left_boundary"] = float(np.max(np.abs(u[k + 1, :k]))) if k else 0.0
    s[0, :k] = 0.0


def _loop_right_terminal(s, t, xi, k, n, residuals):
    if s[n - k, k] == 0.0:
        s[n - k, k] = t[n - k, k]
    first = s[n - k].copy()
    u, _ = _loop_frlr(first, np.zeros(k + 1), np.diff(xi[n - k :]), k)
    for i in range(1, k + 1):
        s[n - k + i, k] = u[i, k]
        s[n - k + i, :k] = u[i, :k]
    residuals["right_boundary"] = float(np.max(np.abs(u[k + 1, :k]))) if k else 0.0
    s[n + 1, :] = 0.0


def _loop_construct_crlc(knots, k, t):
    xi = knots.xi
    n = knots.n
    l = n // 2
    s = np.zeros_like(t)
    residuals = {}
    s[k : n - k + 1, k] = t[k : n - k + 1, k]
    s[l + 1, :k] = t[l + 1, :k]
    q_left = l + 1 if n % 2 else l
    if n % 2 == 0:
        s[l, :k] = _loop_backward_row(s[l + 1, :k], s[l, k], xi[l + 1] - xi[l], k)
        residuals["center_bridge"] = float(np.max(np.abs(s[l, :k] - t[l, :k]))) if k else 0.0
    for i in range(q_left, k + 1, -1):
        s[i - 1, :k] = _loop_backward_row(s[i, :k], s[i - 1, k], xi[i] - xi[i - 1], k)
    for i in range(l + 1, n - k):
        a = taylor_step_matrix(xi[i + 1] - xi[i], k)
        s[i + 1, :k] = (s[i] @ a)[:k]
    _loop_left_terminal(s, t, xi, k, residuals)
    _loop_right_terminal(s, t, xi, k, n, residuals)
    return s, residuals


def _loop_construct_crfc(knots, k, t):
    xi = knots.xi
    n = knots.n
    l = n // 2
    s = np.zeros_like(t)
    residuals = {}
    s[k : n - k + 2, 0] = t[k : n - k + 2, 0]
    s[l + 1, 1:k] = t[l + 1, 1:k]
    # right of center: plain frfc over xi[l+1] .. xi[n-k+1]
    u = _loop_frfc(s[l + 1, :k], s[l + 1 : n - k + 2, 0], np.diff(xi[l + 1 : n - k + 2]), k)
    mr = n - k - l - 1
    for i in range(mr + 2):
        s[l + 1 + i, 1:k] = u[i, 1:k]
        if i <= mr:
            s[l + 1 + i, k] = u[i, k]
    # left of center: mirrored frfc over xi[l+1] .. xi[k]
    rev = xi[l + 1 :: -1][: l + 2 - k]
    vals = s[:, 0][l + 1 :: -1][: l + 2 - k]
    ul = _loop_frfc(s[l + 1, :k], vals, np.diff(rev), k)
    ml = l - k
    for i in range(ml + 2):
        s[l + 1 - i, 1:k] = ul[i, 1:k]
        if i <= ml:
            s[l - i, k] = ul[i, k]
    _loop_left_terminal(s, t, xi, k, residuals)
    _loop_right_terminal(s, t, xi, k, n, residuals)
    return s, residuals


def _loop_construct_rrm(knots, k, t):
    xi = knots.xi
    n = knots.n
    l = n // 2
    s = np.zeros_like(t)
    residuals = {"groups": 0.0}
    s[l + 1, :k] = t[l + 1, :k]
    q_left = l + 1 if n % 2 else l
    if n % 2 == 0:
        s[l, k] = t[l, k]
        s[l, :k] = _loop_backward_row(s[l + 1, :k], t[l, k], xi[l + 1] - xi[l], k)
        residuals["center_bridge"] = float(np.max(np.abs(s[l, :k] - t[l, :k]))) if k else 0.0

    def note(r):
        residuals["groups"] = max(residuals["groups"], r)

    # left half: mirrored m=k groups, then a remainder group, down to xi[k+1]
    cur = q_left
    while cur - (k + 1) >= k + 1:
        nxt = cur - (k + 1)
        first = np.concatenate([s[cur, :k], [t[cur - 1, k]]])
        s[cur - 1, k] = t[cur - 1, k]
        last = np.concatenate([t[nxt, :k], [0.0]])
        seg = xi[nxt : cur + 1][::-1]
        u, r = _loop_frlr(first, last, np.diff(seg), k)
        note(r)
        for i in range(1, k + 1):
            s[cur - i - 1, k] = u[i, k]
            s[cur - i, :k] = u[i, :k]
        s[nxt, :k] = u[k + 1, :k]
        cur = nxt
    if cur > k + 1:
        mrem = cur - k - 2
        first = np.concatenate([s[cur, :k], [t[cur - 1, k]]])
        s[cur - 1, k] = t[cur - 1, k]
        last = np.concatenate([t[k + 1, :k], [0.0]])
        seg = xi[k + 1 : cur + 1][::-1]
        u, r = _loop_frlr(first, last, np.diff(seg), k)
        note(r)
        for i in range(1, mrem + 1):
            s[cur - i - 1, k] = u[i, k]
        for i in range(1, mrem + 2):
            s[cur - i, :k] = u[i, :k]

    # right half: forward m=k groups, remainder, up to xi[n-k]
    cur = l + 1
    while cur + (k + 1) <= n - k:
        nxt = cur + (k + 1)
        first = np.concatenate([s[cur, :k], [t[cur, k]]])
        s[cur, k] = t[cur, k]
        last = np.concatenate([t[nxt, :k], [0.0]])
        u, r = _loop_frlr(first, last, np.diff(xi[cur : nxt + 1]), k)
        note(r)
        for i in range(1, k + 1):
            s[cur + i, k] = u[i, k]
            s[cur + i, :k] = u[i, :k]
        s[nxt, :k] = u[k + 1, :k]
        cur = nxt
    if cur < n - k:
        mrem = n - k - cur - 1
        first = np.concatenate([s[cur, :k], [t[cur, k]]])
        s[cur, k] = t[cur, k]
        last = np.concatenate([t[n - k, :k], [0.0]])
        u, r = _loop_frlr(first, last, np.diff(xi[cur : n - k + 1]), k)
        note(r)
        for i in range(1, mrem + 1):
            s[cur + i, k] = u[i, k]
        for i in range(1, mrem + 2):
            s[cur + i, :k] = u[i, :k]

    _loop_left_terminal(s, t, xi, k, residuals)
    _loop_right_terminal(s, t, xi, k, n, residuals)
    return s, residuals


def loop_construct(knots, k, t, method):
    """The construction of one full ``(n+2) x (k+1)`` seed matrix ``t``, row
    by row with explicit Taylor step matrices and one ``np.linalg.solve`` per
    frlr group: ``(matrix, residuals)`` with float residuals."""
    t = np.asarray(t, dtype=float)
    if k == 0:
        s = t.copy()
        s[-1] = 0.0
        return s, {}
    drivers = {"CRLC": _loop_construct_crlc, "CRFC": _loop_construct_crfc,
               "RRM": _loop_construct_rrm}
    return drivers[method](knots, k, t)


# ---------------------------------------------------------------------------
# Gram diagonalization on dense arrays


class _EnvelopeOrthogonalizer:
    """Dense H and P: a group is projected against every finished column
    whose row range comes within ``k`` of the group's index envelope, on the
    rows spanned by all of them, and every group column records that whole
    span as its row range."""

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
        w, v = np.linalg.eigh(m)
        e = e @ ((v / np.sqrt(w)) @ v.T)
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


def envelope_twob(h, k):
    d = h.shape[0]
    g = _EnvelopeOrthogonalizer(h, k)
    left, right = 0, d - 1
    while left < right:
        g.process((left, right))
        left += 1
        right -= 1
    if left == right:
        g.process((left,))
    return g.p


def envelope_dyadic(h, k, net, toeplitz=False):
    g = _EnvelopeOrthogonalizer(h, k)
    for lv in net:
        if toeplitz and lv:
            r0, r1 = g.process(lv[0])
            step = lv[1][0] - lv[0][0] if len(lv) > 1 else 0
            for i, tup in enumerate(lv[1:], start=1):
                g.copy_translated(lv[0], tup, i * step, r0, r1)
        else:
            for tup in lv:
                g.process(tup)
    return g.p


def lower_band(h, k):
    """LAPACK lower band storage ``ab[u, i] = H[i+u, i]``, u = 0..k, of a
    dense or ``scipy.sparse`` H."""
    d = h.shape[0]
    ab = np.zeros((min(k, d - 1) + 1, d))
    for u in range(ab.shape[0]):
        ab[u, : d - u] = h.diagonal(-u)
    return ab


def cholesky_gsob(h):
    """One-sided transform ``L^{-T}`` from a dense Cholesky factor ``H = L L'``."""
    low = scipy.linalg.cholesky(h, lower=True)
    return scipy.linalg.solve_triangular(low, np.eye(h.shape[0]), lower=True).T


def dense_diagonalize(h, method, k, net=None, toeplitz=False):
    """``(P, nnz)`` for a dense Gram matrix, truncated like the library's
    transform (entries below ``P_TRUNCATION`` times max |P| dropped)."""
    if method == "gsob":
        p = cholesky_gsob(h)
    elif method == "twob":
        p = envelope_twob(h, k)
    else:
        p = envelope_dyadic(h, k, net, toeplitz)
    mag = np.abs(p)
    p[mag < sp.bases.P_TRUNCATION * mag.max()] = 0.0
    return p, int(np.count_nonzero(p))


def family_to_dict(fam, net=None):
    """The archive fields of ``fam`` (and ``net``) as plain dicts and lists."""
    fam = loop_as_symmetric(fam)
    out = {
        "knots": [float(x) for x in fam.knots.xi],
        "order": int(fam.smorder),
        "type": fam.type,
        "epsilon": float(fam.epsilon),
        "splines": [
            {
                "supp": [[int(lo), int(hi)] for lo, hi in supp],
                "der": [[[float(x) for x in row] for row in blk]
                        for blk in der],
            }
            for supp, der in fam.members
        ],
    }
    if net is not None:
        out["net"] = [[list(t) for t in level] for level in net]
    return out


def archive_text(fam, net=None):
    """The bytes ``save_archive`` must write, through ``json.dumps(indent=1)``."""
    return json.dumps(family_to_dict(fam, net), indent=1) + "\n"


def tridiagonal_near_tau(d, ratio):
    """``tridiag(-1, 2 + s, -1)`` of size d whose smallest eigenvalue is
    ``ratio`` times tau, tau = ``SPD_SHIFT`` times its trace (the smallest
    eigenvalue of ``tridiag(-1, 2, -1)`` is ``2 - 2 cos(pi / (d + 1))``)."""
    lam = 2.0 - 2.0 * np.cos(np.pi / (d + 1))
    c = ratio * SPD_SHIFT * d
    s = (2.0 * c - lam) / (1.0 - c)
    return np.diag(np.full(d, 2.0 + s)) - np.eye(d, k=1) - np.eye(d, k=-1)


def _float_field(field):
    try:
        float(field)
    except ValueError:
        return False
    return True


def csv_module_matrix(path):
    """Numeric CSV as a 2-d array through ``csv.reader`` and ``float``: a
    first non-empty row none of whose fields is a number is a header, and
    every row must have as many fields as the first data row."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, r) for r in reader if r]
    if not rows:
        raise ValueError("%s holds no CSV rows" % path)
    body = rows if any(map(_float_field, rows[0][1])) else rows[1:]
    if not body:
        raise ValueError("%s holds no CSV rows below its header" % path)
    for line, r in body:
        if len(r) != len(body[0][1]):
            raise ValueError("%s: the row on line %d has %d fields, expected %d"
                             % (path, line, len(r), len(body[0][1])))
    return np.array([[float(x) for x in r] for _, r in body])


def covariance_fpca(coeff):
    """FPCA of the coefficient rows through ``eigh`` of the d x d sample
    covariance: ``(eigenvalues, eigenvectors, scores, n_retained)`` with all
    d eigenvalues (descending, clipped at 0, the noise floor zeroed), all d
    eigenvectors as columns under the sign rule, and the standardized scores
    of the retained components."""
    coeff = np.asarray(coeff, dtype=float)
    m = coeff.shape[0]
    centered = coeff - coeff.mean(axis=0)
    w, v = np.linalg.eigh(centered.T @ centered / (m - 1))
    w, v = np.clip(w[::-1], 0.0, None), v[:, ::-1]
    w[w < EIGEN_NOISE_FLOOR * max(1.0, float(np.mean(coeff ** 2)))] = 0.0
    lead = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    v = np.where(lead < 0, -v, v)
    retained = int(np.sum(w > RETAIN_TOL * w[0])) if w[0] > 0 else 0
    return w, v, centered @ v[:, :retained] / np.sqrt(w[:retained]), retained
