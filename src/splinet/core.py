"""Core spline types: knots, supports, derivative matrices and families.

A spline of smoothness order ``k`` over knots ``xi[0] < ... < xi[n+1]`` is
stored through the values of its derivatives 0..k at the knots inside its
support.  Derivatives 0..k-1 are continuous; the k-th derivative is constant
between knots and may jump at them, so a convention is needed for the k-th
column of the derivative matrix:

* ``"one"`` (one-sided): row ``i`` holds the value on ``[xi[i], xi[i+1])``;
  the last row of each support block holds 0.
* ``"sym"`` (symmetric): the top half of a block holds right-hand limits and
  the bottom half left-hand limits, split at ``l = m // 2`` rows into the
  block (``m`` = number of internal knots of the support component).

The one-sided form is the canonical in-memory convention; the symmetric form
is used for serialization (see :mod:`splinet.archive`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

ONE_SIDED = "one"
SYMMETRIC = "sym"

#: relative tolerance used to detect equally spaced knots
EPS_EQUID = 1e-8

#: default relative validity tolerance of a family
DEFAULT_EPSILON = 1e-7

_FAMILY_TYPES = ("sp", "bs", "gsob", "twob", "spnt", "dspnt")


def _factorials(k):
    out = np.ones(k + 1)
    for j in range(2, k + 1):
        out[j] = out[j - 1] * j
    return out


def taylor_step_matrix(alpha, k):
    """Lower-triangular Toeplitz matrix of Taylor-step weights.

    ``A[i, j] = alpha**(i-j) / (i-j)!`` for ``i >= j``.  Propagating a row of
    derivative values across a knot interval of length ``alpha`` amounts to a
    right-multiplication by this matrix.  ``alpha`` may be negative here
    (backward step); the public wrapper :func:`taylor_matrices` rejects that.
    """
    a = np.zeros((k + 1, k + 1))
    fact = _factorials(k + 1)
    for d in range(k + 1):
        val = alpha**d / fact[d]
        for i in range(d, k + 1):
            a[i, i - d] = val
    return a


def taylor_astar(alpha, k):
    """Column of integrated Taylor weights (alpha, alpha^2/2!, ..., alpha^(k+1)/(k+1)!)."""
    fact = _factorials(k + 1)
    return np.array([alpha ** (j + 1) / fact[j + 1] * 1.0 for j in range(k + 1)])


def difference_matrix(size):
    """Square matrix with a zero first row, then -1/+1 sub/diagonal bands."""
    d = np.zeros((size, size))
    for i in range(1, size):
        d[i, i] = 1.0
        d[i, i - 1] = -1.0
    return d


@dataclass(frozen=True)
class TaylorStepMatrix:
    A: np.ndarray
    Astar: np.ndarray
    Delta: np.ndarray


def taylor_matrices(alpha, k):
    """Taylor-step matrices for a knot spacing ``alpha >= 0`` and order ``k``."""
    if k < 0:
        raise ValueError("order k must be non-negative")
    if alpha < 0:
        raise ValueError("knot spacings are positive; got alpha=%g" % alpha)
    return TaylorStepMatrix(
        A=taylor_step_matrix(alpha, k),
        Astar=taylor_astar(alpha, k),
        Delta=difference_matrix(k + 2),
    )


@dataclass(frozen=True)
class KnotSet:
    """Ordered knot vector; ``n`` counts the internal knots only."""

    xi: np.ndarray
    equid: bool = field(default=False)

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        if xi.ndim != 1 or xi.size < 2:
            raise ValueError("need at least two knots")
        if not np.all(np.isfinite(xi)):
            raise ValueError("knots must be finite")
        diffs = np.diff(xi)
        if np.any(diffs <= 0):
            raise ValueError("knots must be strictly increasing")
        object.__setattr__(self, "xi", xi)
        rel = np.max(np.abs(diffs - diffs[0])) / diffs[0]
        object.__setattr__(self, "equid", bool(rel <= EPS_EQUID))

    @property
    def n(self):
        return self.xi.size - 2

    def __len__(self):
        return self.xi.size

    def __eq__(self, other):
        return isinstance(other, KnotSet) and np.array_equal(self.xi, other.xi)

    def __hash__(self):
        return hash(self.xi.tobytes())


def equidistant_knots(a, b, n):
    """n internal knots equally spaced in (a, b), terminal knots at a and b."""
    return KnotSet(np.linspace(a, b, n + 2))


@dataclass(frozen=True)
class SupportSet:
    """Disjoint, non-adjacent knot-index intervals ``(lo, hi)``, 0-based.

    A component ``(lo, hi)`` covers knots ``xi[lo] .. xi[hi]`` and therefore
    ``hi - lo`` inter-knot intervals (``m_r = hi - lo - 1`` internal knots).
    """

    components: tuple

    def __post_init__(self):
        comps = tuple((int(lo), int(hi)) for lo, hi in self.components)
        prev_hi = None
        for lo, hi in comps:
            if lo < 0 or hi <= lo:
                raise ValueError("bad support component (%d, %d)" % (lo, hi))
            if prev_hi is not None and lo <= prev_hi + 1:
                raise ValueError("support components must be disjoint and non-adjacent")
            prev_hi = hi
        object.__setattr__(self, "components", comps)

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.components)

    @property
    def empty(self):
        return len(self.components) == 0

    def n_intervals(self):
        return sum(hi - lo for lo, hi in self.components)

    def validate_range(self, n):
        for lo, hi in self.components:
            if hi > n + 1:
                raise ValueError("support component (%d, %d) outside knot range" % (lo, hi))


EMPTY_SUPPORT = SupportSet(())


def full_support(knots):
    return SupportSet(((0, len(knots) - 1),))


@dataclass(frozen=True)
class DerivativeMatrix:
    """Per-support-component blocks of derivative values.

    Block ``r`` is an ``(m_r + 2) x (k + 1)`` array; column ``j`` holds the
    j-th derivative at the component's knots.
    """

    blocks: tuple
    convention: str = ONE_SIDED

    def __post_init__(self):
        blocks = tuple(np.asarray(b, dtype=float) for b in self.blocks)
        if self.convention not in (ONE_SIDED, SYMMETRIC):
            raise ValueError("unknown convention %r" % (self.convention,))
        for b in blocks:
            if b.ndim != 2:
                raise ValueError("derivative blocks must be 2-d")
        object.__setattr__(self, "blocks", blocks)

    def max_abs(self):
        return max((float(np.max(np.abs(b))) for b in self.blocks if b.size), default=0.0)


@dataclass(frozen=True)
class SplineFamily:
    """A collection of splines over shared knots and smoothness order."""

    knots: KnotSet
    smorder: int
    members: tuple  # of (SupportSet, DerivativeMatrix)
    type: str = "sp"
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        if self.smorder < 0:
            raise ValueError("smorder must be non-negative")
        if self.type not in _FAMILY_TYPES:
            raise ValueError("unknown family type %r" % (self.type,))
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError("epsilon must be finite and non-negative; got %r" % (self.epsilon,))
        members = tuple(self.members)
        k = self.smorder
        for supp, der in members:
            supp.validate_range(self.knots.n)
            if len(der.blocks) != len(supp):
                raise ValueError("support/derivative block count mismatch")
            for (lo, hi), blk in zip(supp, der.blocks):
                if blk.shape != (hi - lo + 1, k + 1):
                    raise ValueError(
                        "block shape %s does not match support (%d, %d) at order %d"
                        % (blk.shape, lo, hi, k)
                    )
        object.__setattr__(self, "members", members)

    def __len__(self):
        return len(self.members)

    @property
    def convention(self):
        for _, der in self.members:
            return der.convention
        return ONE_SIDED

    def member_tolerance(self, i):
        """Absolute validity tolerance for member i (epsilon is relative)."""
        scale = self.members[i][1].max_abs()
        return self.epsilon * (scale if scale > 0 else 1.0)

    def full_matrix(self, i):
        """Member i expanded to the full ``(n+2) x (k+1)`` derivative matrix."""
        out = np.zeros((len(self.knots), self.smorder + 1))
        supp, der = self.members[i]
        for (lo, hi), blk in zip(supp, der.blocks):
            out[lo : hi + 1] += blk
        return out


def make_member(supp, blocks, convention=ONE_SIDED):
    return (supp, DerivativeMatrix(tuple(blocks), convention))


def member_from_full(knots, k, full, convention=ONE_SIDED):
    """Wrap a full (n+2) x (k+1) matrix as a full-support member."""
    full = np.asarray(full, dtype=float)
    if full.shape != (len(knots), k + 1):
        raise ValueError("full matrix has wrong shape")
    return make_member(full_support(knots), (full,), convention)


# ---------------------------------------------------------------------------
# stacked rows


def _stack(fam):
    """Component arrays ``member, lo, hi`` and the stacked derivative rows.

    Components are listed member by member in support order; ``rows`` is a
    new array holding their blocks one after another, ``hi - lo + 1`` rows
    each.
    """
    member, lo, hi = np.array([(i, lo, hi) for i, (supp, _) in enumerate(fam.members)
                               for lo, hi in supp], dtype=int).reshape(-1, 3).T
    blocks = [blk for _, der in fam.members for blk in der.blocks]
    rows = np.concatenate(blocks) if blocks else np.empty((0, fam.smorder + 1))
    return member, lo, hi, rows


def _unstack(supports, rows, convention=ONE_SIDED):
    """Members over ``supports`` with their blocks cut, in order, from
    ``rows``."""
    members = []
    at = 0
    for supp in supports:
        blocks = []
        for lo, hi in supp:
            blocks.append(rows[at : at + hi - lo + 1])
            at += hi - lo + 1
        members.append(make_member(supp, blocks, convention))
    return tuple(members)


def _ranges(starts, lengths):
    """Concatenation of ``arange(s, s + l)`` over paired starts and lengths."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(int(np.sum(lengths)))


def _taylor_col(rows, dt, c):
    """Column ``c`` of ``rows[r] @ taylor_step_matrix(dt[r], k)`` for every
    row ``r``: the Horner sum ``v = rows[:, i] + v * dt / (i - c + 1)`` for
    ``i = k-1 .. c``, started from ``v = rows[:, k]``."""
    k = rows.shape[1] - 1
    v = rows[:, k]
    for i in range(k - 1, c - 1, -1):
        v = rows[:, i] + v * dt / (i - c + 1)
    return v


def _taylor_rows(rows, dt):
    """``rows[r] @ taylor_step_matrix(dt[r], k)`` for every row ``r``, one
    :func:`_taylor_col` per column; no step matrix is formed, so memory stays
    O(rows)."""
    out = np.empty(rows.shape)
    for c in range(rows.shape[1]):
        out[:, c] = _taylor_col(rows, dt, c)
    return out


# ---------------------------------------------------------------------------
# convention conversion


def _sym2one_rows(rows, size, k):
    """Stacked symmetric blocks of ``size`` rows each, made one-sided in
    place; returns ``rows``.

    Rows ``l+1 .. m`` of a block take the k-th entry of the row below (the
    bottom half stores left-hand limits) and the last row's k-th entry is 0;
    for ``k = 0`` only the last row changes.
    """
    end = np.cumsum(size) - 1
    if k > 0:
        m = size - 2
        l = m // 2
        shift = _ranges(end - m + l, m - l)
        rows[shift, k] = rows[shift + 1, k]
    rows[end, k] = 0.0
    return rows


def _one2sym_rows(rows, size, k):
    """Stacked one-sided blocks of ``size`` rows each, made symmetric in
    place; returns ``rows``.  The inverse of :func:`_sym2one_rows`.

    Rows ``l+2 .. m+1`` of a block take the k-th entry of the row above (the
    bottom half stores left-hand limits); row ``l+1`` repeats row ``l``'s for
    even ``m`` and holds 0 for odd ``m``.  For ``k = 0`` (piecewise constants)
    only the last row changes: it records the last interval value, the left
    limit there.
    """
    end = np.cumsum(size) - 1
    if k == 0:
        rows[end, 0] = rows[end - 1, 0]
        return rows
    m = size - 2
    l = m // 2
    # the shift reads row l+1 before the middle entry overwrites it
    shift = _ranges(end - m + l + 1, m - l)
    rows[shift, k] = rows[shift - 1, k]
    mid = end - m + l
    rows[mid, k] = np.where(m % 2 == 0, rows[mid - 1, k], 0.0)
    return rows


def sym2one(fam, inverse=False):
    """Convert the k-th derivative column between conventions.

    With ``inverse=False`` a symmetric family becomes one-sided; with
    ``inverse=True`` the opposite.  Only the last column changes.
    """
    src = SYMMETRIC if not inverse else ONE_SIDED
    dst = ONE_SIDED if not inverse else SYMMETRIC
    k = fam.smorder
    for _, der in fam.members:
        if der.convention != src:
            raise ValueError("expected %r convention, found %r" % (src, der.convention))
    # _stack's rows are a fresh copy, so they are converted in place
    _, lo, hi, rows = _stack(fam)
    convert = _one2sym_rows if inverse else _sym2one_rows
    out = convert(rows, hi - lo + 1, k)
    return replace(fam, members=_unstack([supp for supp, _ in fam.members], out, dst))


def as_one_sided(fam):
    if fam.convention == SYMMETRIC:
        return sym2one(fam)
    return fam


def as_symmetric(fam):
    if fam.convention == ONE_SIDED:
        return sym2one(fam, inverse=True)
    return fam


# ---------------------------------------------------------------------------
# validity


@dataclass
class ValidityReport:
    member_ok: list
    max_violation: float
    worst_member: int
    worst_knot: int

    @property
    def all_ok(self):
        return all(self.member_ok)


def is_valid_spline(fam):
    """Check the boundary and Taylor-propagation constraints of every member.

    On each support component ``(lo, hi)``, read in the one-sided convention,
    the violations are: derivatives ``0..k-1`` at ``lo`` and at ``hi``, which
    must vanish; the k-th column at ``hi``, which must be 0; at every later
    knot, derivatives ``0..k-1`` minus the Taylor step of the row before it.
    A symmetric-convention component with ``m`` internal knots, ``l = m // 2``,
    also checks its middle knot: for even ``m`` the stored k-th entries of rows
    ``l`` and ``l+1`` must agree (knot ``lo+l``), for odd ``m`` the k-th entry
    of row ``l+1`` must be 0 (knot ``lo+l+1``).

    A member is valid when its largest violation is at most
    ``epsilon * max|stored entry|`` (``epsilon`` when every entry is 0).  The
    worst member is the lowest-index member reaching ``max_violation`` and the
    worst knot the lowest knot index at which it does; both are -1 when no
    violation is positive, as for an empty family.  A member with a
    non-finite entry is invalid and makes ``max_violation`` ``inf``; the first
    non-finite row (lowest member, then lowest knot) names the worst member
    and knot.  Structural problems (shape mismatches) raise instead.
    """
    k = fam.smorder
    d = len(fam)
    member, lo, hi, rows = _stack(fam)
    size = hi - lo + 1
    end = np.cumsum(size) - 1
    start = end - size + 1
    knot = _ranges(lo, size)
    row_member = np.repeat(member, size)
    sym = np.array([der.convention == SYMMETRIC for _, der in fam.members], dtype=bool)[member]
    one = rows
    if sym.any():
        one = np.where(np.repeat(sym, size)[:, None], _sym2one_rows(rows.copy(), size, k), rows)
    viol = np.zeros(rows.shape[0])
    # non-finite members are reported from their first non-finite row below
    with np.errstate(invalid="ignore", over="ignore"):
        viol[end] = np.max(np.abs(one[end]), axis=1)
        if k > 0:
            viol[start] = np.max(np.abs(one[start, :k]), axis=1)
            t = np.delete(np.arange(rows.shape[0]), end)
            pred = _taylor_rows(one[t], np.diff(fam.knots.xi)[knot[t]])
            viol[t + 1] = np.maximum(viol[t + 1],
                                     np.max(np.abs(pred[:, :k] - one[t + 1, :k]), axis=1))
            # symmetric middle knot: rows l and l+1 (even m) or row l+1 (odd m)
            m = size[sym] - 2
            odd = m % 2 == 1
            mid = start[sym] + m // 2
            gap = np.abs(np.where(odd, 0.0, rows[mid, k]) - rows[mid + 1, k])
            viol[mid + odd] = np.maximum(viol[mid + odd], gap)
        worst_of = np.zeros(d)
        np.maximum.at(worst_of, row_member, viol)
        scale = np.zeros(d)
        np.maximum.at(scale, row_member, np.max(np.abs(rows), axis=1))
    nonfinite = ~np.isfinite(rows).all(axis=1)
    tol = fam.epsilon * np.where(scale > 0, scale, 1.0)
    member_ok = (worst_of <= tol) & (np.bincount(row_member[nonfinite], minlength=d) == 0)
    if nonfinite.any():
        r = int(np.argmax(nonfinite))
        return ValidityReport(member_ok.tolist(), math.inf, int(row_member[r]), int(knot[r]))
    worst = float(np.max(worst_of, initial=0.0))
    if worst == 0.0:
        return ValidityReport(member_ok.tolist(), 0.0, -1, -1)
    w = int(np.argmax(worst_of))
    r = int(np.argmax((row_member == w) & (viol == worst)))
    return ValidityReport(member_ok.tolist(), worst, w, int(knot[r]))


# ---------------------------------------------------------------------------
# evaluation


def evaluate(fam, grid, deriv=0):
    """Evaluate family members (or a derivative) on a grid.

    Returns a ``len(grid) x len(fam)`` array.  Points outside a member's
    support yield exactly 0.0.
    """
    xi = fam.knots.xi
    k = fam.smorder
    if deriv < 0 or deriv > k:
        raise ValueError("derivative order must be in [0, %d]" % k)
    grid = np.asarray(grid, dtype=float)
    if not np.all(np.isfinite(grid)):
        raise ValueError("grid points must be finite")
    if grid.size and (grid.min() < xi[0] or grid.max() > xi[-1]):
        raise ValueError("grid points outside the knot range")
    fam = as_one_sided(fam)
    out = np.zeros((grid.size, len(fam)))
    for j in range(len(fam)):
        supp, der = fam.members[j]
        for (lo, hi), blk in zip(supp, der.blocks):
            sel = np.nonzero((grid >= xi[lo]) & (grid <= xi[hi]))[0]
            if sel.size == 0:
                continue
            t = grid[sel]
            iv = np.searchsorted(xi, t, side="right") - 1
            # right-continuous: a point at the component's right boundary
            # belongs to the next interval (value 0 there), except at the
            # very last knot where the left limit is used
            at_end = (iv == hi) & (hi == xi.size - 1)
            keep = (iv < hi) | at_end
            sel = sel[keep]
            if sel.size == 0:
                continue
            t = t[keep]
            iv = np.clip(iv[keep], lo, hi - 1)
            dt = t - xi[iv]
            # the deriv-th derivative is column deriv of the Taylor step
            out[sel, j] = _taylor_col(blk[iv - lo], dt, deriv)
    return out


def sample_grid(knots, k, N):
    """Knots plus ``k*N`` equally spaced points inside every interval."""
    if N < 1:
        raise ValueError("N must be >= 1")
    xi = knots.xi
    pieces = [xi]
    inner = k * N
    if inner > 0:
        frac = np.arange(1, inner + 1) / (inner + 1.0)
        for i in range(xi.size - 1):
            pieces.append(xi[i] + frac * (xi[i + 1] - xi[i]))
    return np.sort(np.concatenate(pieces))


# ---------------------------------------------------------------------------
# family bookkeeping


def gather(a, b):
    """Concatenate two families sharing knots and order."""
    if a.knots != b.knots or a.smorder != b.smorder:
        raise ValueError("gather requires identical knots and order")
    typ = a.type if a.type == b.type else "sp"
    conv = a.convention
    bm = b.members
    if b.convention != conv and len(b):
        bm = (sym2one(b) if conv == ONE_SIDED else sym2one(b, inverse=True)).members
    return SplineFamily(a.knots, a.smorder, a.members + bm, typ, a.epsilon)


def subsample(fam, indices):
    """Select members by index, keeping order of ``indices``."""
    members = tuple(fam.members[int(i)] for i in indices)
    return replace(fam, members=members)


def empty_family(knots, k, type="sp", epsilon=DEFAULT_EPSILON):
    return SplineFamily(knots, k, (), type, epsilon)


def exsupp(fam):
    """Shrink every member's support to where its values actually live.

    Intervals whose one-sided derivative row is entirely below the member's
    validity tolerance are dropped; an everywhere-small member ends up with
    an empty support.  Live intervals separated by one dead interval stay in
    one component (:func:`_live_runs`).  One pass over the stacked rows.
    """
    fam1 = as_one_sided(fam)
    k = fam1.smorder
    member, lo, hi, rows = _stack(fam1)
    size = hi - lo + 1
    end = np.cumsum(size) - 1
    row_max = np.max(np.abs(rows), axis=1)
    # member_tolerance for every member: epsilon times its largest entry
    scale = np.zeros(len(fam1))
    with np.errstate(invalid="ignore"):  # a NaN entry makes its member's scale NaN
        np.maximum.at(scale, np.repeat(member, size), row_max)
    tol = fam1.epsilon * np.where(scale > 0, scale, 1.0)
    alive = row_max > np.repeat(tol[member], size)
    alive[end] = False  # a component's last row starts no interval
    live = np.flatnonzero(alive)
    comp = np.searchsorted(end, live)
    owner = member[comp]
    t = live - (end - hi)[comp]  # the knot index each live row starts at
    first, last = _live_runs(owner, t)
    new_lo, new_hi = t[first], t[last] + 1
    new_size = new_hi - new_lo + 1
    out = rows[_ranges(live[first], new_size)]
    out[np.cumsum(new_size) - 1, k] = 0.0
    supports = _supports(len(fam1), owner[first], new_lo, new_hi)
    res = replace(fam1, members=_unstack(supports, out))
    return res if fam.convention == ONE_SIDED else sym2one(res, inverse=True)


def _live_runs(member, t):
    """First and last positions of the support components made by live
    intervals ``t``, listed member by member in ascending order.

    A component ends where the member changes or where more than one dead
    interval follows: runs with one dead interval between them would be
    adjacent components, so they stay one (the rule of
    :func:`_merge_components`, applied to every member at once).
    """
    if not t.size:
        return np.empty(0, dtype=int), np.empty(0, dtype=int)
    brk = np.flatnonzero((np.diff(member) != 0) | (np.diff(t) > 2)) + 1
    return np.concatenate([[0], brk]), np.append(brk - 1, t.size - 1)


def _supports(count, member, lo, hi):
    """A :class:`SupportSet` for each of members ``0..count-1`` from
    components ``(lo, hi)`` listed member by member."""
    comps = list(zip(lo.tolist(), hi.tolist()))
    cut = np.searchsorted(member, np.arange(count + 1)).tolist()
    return [SupportSet(tuple(comps[a:b])) for a, b in zip(cut[:-1], cut[1:])]


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
