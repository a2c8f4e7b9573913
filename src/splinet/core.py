"""Core spline types: knots and spline families.

A spline of smoothness order ``k`` over knots ``xi[0] < ... < xi[n+1]`` is
stored through the values of its derivatives 0..k at the knots inside its
support.  Derivatives 0..k-1 are continuous; the k-th derivative is constant
between knots and may jump at them.  In memory its column is one-sided: row
``i`` holds the value on ``[xi[i], xi[i+1])`` and the last row of each
support block holds 0.  Archives store it symmetrically (the top half of a
block holds right-hand limits, the bottom half left-hand limits);
:func:`sym2one` converts stacked rows between the two, and only
:mod:`splinet.archive` calls it.

Every Taylor step, forward or backward, is the Horner sweep of
:func:`_taylor_col`: entry ``c`` of a row carried across ``dt`` becomes
``sum over i >= c of row[i] dt^(i-c) / (i-c)!``; no step matrix is formed.

A :class:`SplineFamily` stores these Taylor rows once, stacked: ``rows``
(R x (k+1)) holds the block of every support component ``(lo[c], hi[c])``,
one row per knot, one after another; components are listed member by member
in support order, and member ``i`` owns components ``offsets[i]:offsets[i+1]``.
``member[c]``, the owner of component ``c``, and ``start[c]``, the stacked row
of its first knot, are derived once, when the family is built.  Every
operation reads and builds these arrays.  A member on its own is the plain
pair an archive stores, ``(supp, blocks)``: its support components as
``(lo, hi)`` int pairs and one ``(hi-lo+1) x (k+1)`` block per component.
:func:`_members` stacks such pairs, the constructor's and an archive's, and
``members`` gives them back.

Every integer argument or entry is read by one rule, :func:`_integer`: an
int, numpy integer or integral float (``3.0`` counts as 3) in range passes,
anything else (a bool, a fraction) is a ``ValueError`` naming the argument.
Every knots argument is read by :func:`_knots`, and every real one (knots,
blocks, coefficients, covariances, data) by :func:`_reals`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

#: relative tolerance of ``KnotSet.equid``; it describes knots and selects no
#: computation path
EPS_EQUID = 1e-8

#: two knots closer than this fraction of the knot range are one knot
KNOT_MATCH_TOL = 1e-12

#: default relative validity tolerance of a family
DEFAULT_EPSILON = 1e-7

_FAMILY_TYPES = ("sp", "bs", "gsob", "twob", "spnt", "dspnt")


def _factorials(k):
    """``0!, 1!, ..., k!`` as floats, the one factorial table."""
    return np.cumprod(np.maximum(np.arange(k + 1), 1.0))


@dataclass(frozen=True)
class KnotSet:
    """Ordered knot vector; ``n`` counts the internal knots only."""

    xi: np.ndarray
    equid: bool = field(init=False)

    def __post_init__(self):
        xi = _reals(self.xi, "knots")
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
        return hash((self.xi + 0.0).tobytes())  # -0.0 == 0.0: one hash


def _knots(knots):
    """``knots``, a :class:`KnotSet` or an array of increasing knots, as a ``KnotSet``."""
    return knots if isinstance(knots, KnotSet) else KnotSet(knots)


def _as_int(value):
    """``value`` as an int, or ``None`` for a bool, a fraction, a non-finite
    float or a non-number."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    return None


def _integer(value, name, low=None, high=None):
    """``value`` by :func:`_as_int`, within ``low <= value <= high`` (``high``
    only with ``low``), or a ``ValueError`` naming the argument: ``"N must be
    an integer >= 1; got 2.5"``, ``"derivative order must be in [0, 2]; got 3"``."""
    got = _as_int(value)
    if got is not None and (low is None or got >= low) and (high is None or got <= high):
        return got
    span = "" if low is None else " >= %d" % low if high is None else " in [%d, %d]" % (low, high)
    what = "" if got is not None and high is not None else " an integer"
    raise ValueError("%s must be%s%s; got %r" % (name, what, span, value))


def _integers(values, name, low=-(2**63), high=2**63 - 1):
    """The entries of ``values``, a flat sequence or array, by :func:`_as_int`
    (skipped when every type, collected in one pass, is ``int``) as an int64
    array in ``[low, high]``, or a ``ValueError`` naming the first entry refused."""
    values = values.ravel().tolist() if isinstance(values, np.ndarray) else list(values)
    ints = values if set(map(type, values)) <= {int} else list(map(_as_int, values))
    if None in ints:
        raise ValueError("%s entry %r is not an integer" % (name, values[ints.index(None)]))
    if ints and not low <= min(ints) <= max(ints) <= high:
        i = next(i for i, v in enumerate(ints) if not low <= v <= high)
        raise ValueError("%s entry %r is not in [%d, %d]" % (name, values[i], low, high))
    return np.array(ints, dtype=np.int64)


def _reals(values, name, ndim=1):
    """``values`` as a float array: an array of integer or float dtype as it
    is, anything else by its entries' types, collected in one pass in C (ints
    and floats in the float range pass), or a ``ValueError`` naming the first
    entry refused; with ``ndim=2`` a list may hold rows, all of one length."""
    if not isinstance(values, (list, tuple)):
        values = np.asarray(values)
        if values.dtype.kind in "iuf":
            return values.astype(float, copy=False)
        return _reals(values.ravel().tolist(), name).reshape(values.shape)
    if ndim == 2 and not {list, tuple, np.ndarray}.isdisjoint(map(type, values)):
        rows = [r.tolist() if isinstance(r, np.ndarray) else r for r in values]
        if not set(map(type, rows)) <= {list, tuple} or len(set(map(len, rows))) > 1:
            raise ValueError("%s rows must be lists of one length" % name)
        return _reals(list(chain.from_iterable(rows)), name).reshape(len(rows), -1)
    bad = {t for t in set(map(type, values))
           if not issubclass(t, (int, float, np.integer, np.floating)) or issubclass(t, bool)}
    if bad:
        value = next(v for v in values if type(v) in bad)
        raise ValueError("%s entry %r is not a number" % (name, value))
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        value = next(v for v in values if isinstance(v, int) and abs(v) > sys.float_info.max)
        raise ValueError("%s entry %r is not a number" % (name, value)) from None


def _members(members, k):
    """``(rows, lo, hi, offsets)`` from ``(supp, blocks)`` pairs of order ``k``:
    ``[lo, hi]`` lists or tuples (:func:`_integers`), each with a block of
    ``hi-lo+1`` rows of ``k+1`` reals (:func:`_reals`).  Real arrays of those
    shapes are stacked as they are, other blocks read as nested lists."""
    supps, ders = zip(*members, strict=True) if members else ((), ())
    comps = list(chain.from_iterable(supps))
    if not set(map(type, comps)) <= {list, tuple} or set(map(len, comps)) - {2}:
        bad = next(c for c in comps if type(c) not in (list, tuple) or len(c) != 2)
        raise ValueError("supp entry %r is not a [lo, hi] pair" % (bad,))
    lo, hi = _integers(chain.from_iterable(comps), "supp").reshape(-1, 2).T
    counts = list(map(len, supps))
    if list(map(len, ders)) != counts:
        raise ValueError("support/derivative block count mismatch")
    offsets = np.cumsum([0] + counts)
    blocks = list(chain.from_iterable(ders))
    size = (hi - lo + 1).tolist()
    types = set(map(type, blocks))
    if (types == {np.ndarray} and {b.dtype.kind for b in blocks} <= set("iuf")
            and [b.shape for b in blocks] == [(m, k + 1) for m in size]):
        return np.concatenate(blocks, dtype=float), lo, hi, offsets
    if np.ndarray in types:
        blocks = [b.tolist() if isinstance(b, np.ndarray) else b for b in blocks]
    try:
        flat = list(chain.from_iterable(blocks))
        fits = list(map(len, blocks)) == size and not set(map(len, flat)) - {k + 1}
    except TypeError:  # a block or a row that is a number
        fits = False
    if not fits:
        raise ValueError("derivative block shape does not match support")
    rows = _reals(list(chain.from_iterable(flat)), "der")
    return rows.reshape(len(flat), k + 1), lo, hi, offsets


def equidistant_knots(a, b, n):
    """n internal knots equally spaced in (a, b), terminal knots at a and b."""
    n = _integer(n, "n", low=0)
    return KnotSet(np.linspace(*KnotSet([a, b]).xi, n + 2))


@dataclass(frozen=True, init=False, eq=False)
class SplineFamily:
    """A collection of splines over shared knots and smoothness order, stored
    as stacked rows (module docstring); all arrays are read-only.

    ``SplineFamily(knots, k, members, type, epsilon)`` takes each member as
    a pair ``(supp, blocks)`` (:func:`_members`): ``supp`` a sequence of
    ``(lo, hi)`` knot-index pairs, ``blocks`` one ``(hi-lo+1) x (k+1)`` array
    or nested list of reals per component.  Support components lie in
    ``0..n+1`` with ``lo < hi``, in increasing order, disjoint and
    non-adjacent; :meth:`_set` checks this for all members at once.
    ``SplineFamily(f.knots, f.smorder, f.members, f.type, f.epsilon)``
    rebuilds ``f``."""

    knots: KnotSet
    smorder: int
    rows: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    offsets: np.ndarray
    member: np.ndarray
    start: np.ndarray
    type: str
    epsilon: float

    def __init__(self, knots, smorder, members, type="sp", epsilon=DEFAULT_EPSILON):
        """Stack the members (:func:`_members`) and check the layout once."""
        k = _integer(smorder, "the order k", low=0)
        self._set(_knots(knots), k, *_members(tuple(members), k), type, epsilon)

    def _set(self, knots, k, rows, lo, hi, offsets, type, epsilon):
        """Check the layout in one vectorized pass and store it; ``k`` is an
        order its caller has read, ``rows`` is taken over and made read-only."""
        if type not in _FAMILY_TYPES:
            raise ValueError("unknown family type %r" % (type,))
        epsilon = float(_reals([epsilon], "epsilon")[0])
        if not (math.isfinite(epsilon) and epsilon >= 0):
            raise ValueError("epsilon must be finite and non-negative; got %r" % (epsilon,))
        lo, hi, offsets = (np.asarray(a, dtype=np.int64) for a in (lo, hi, offsets))
        bad = np.flatnonzero((lo < 0) | (hi <= lo))
        if bad.size:
            raise ValueError("bad support component (%d, %d)" % (lo[bad[0]], hi[bad[0]]))
        member = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
        if np.any((member[1:] == member[:-1]) & (lo[1:] <= hi[:-1] + 1)):
            raise ValueError("support components must be disjoint and non-adjacent")
        bad = np.flatnonzero(hi > knots.n + 1)
        if bad.size:
            raise ValueError("support component (%d, %d) outside knot range"
                             % (lo[bad[0]], hi[bad[0]]))
        size = hi - lo + 1
        if rows.shape != (int(np.sum(size)), k + 1):
            raise ValueError("stacked rows %s do not match the support at order %d"
                             % (rows.shape, k))
        start = np.cumsum(size) - size
        for a in (rows, lo, hi, offsets, member, start):
            a.flags.writeable = False
        vars(self).update(knots=knots, smorder=k, rows=rows, lo=lo, hi=hi, offsets=offsets,
                          member=member, start=start, type=type, epsilon=epsilon)

    def __len__(self):
        return self.offsets.size - 1

    @cached_property
    def members(self):
        """``(supp, blocks)`` per member, built on first use: ``supp`` a tuple
        of ``(lo, hi)`` int pairs, ``blocks`` a tuple of read-only views of
        :attr:`rows`, one per component."""
        comps = list(zip(self.lo.tolist(), self.hi.tolist()))
        blocks = np.split(self.rows, self.start[1:])
        cut = self.offsets.tolist()
        return tuple((tuple(comps[a:b]), tuple(blocks[a:b])) for a, b in zip(cut[:-1], cut[1:]))

    def member_tolerance(self, i):
        """Absolute validity tolerance for member i (epsilon is relative)."""
        return float(_tolerances(subsample(self, [i]))[0])

    def full_matrix(self, i):
        """Member i expanded to the full ``(n+2) x (k+1)`` derivative matrix."""
        one = subsample(self, [i])
        out = np.zeros((len(self.knots), self.smorder + 1))
        out[_ranges(one.lo, one.hi - one.lo + 1)] += one.rows
        return out


def _family(knots, k, rows, lo, hi, offsets, type="sp", epsilon=DEFAULT_EPSILON):
    """A family straight from its stacked layout, the constructor every
    operation builds its result through; ``rows`` is taken over, not copied."""
    fam = object.__new__(SplineFamily)
    fam._set(knots, k, rows, lo, hi, offsets, type, epsilon)
    return fam


def _tolerances(fam):
    """Absolute validity tolerance of every member: ``epsilon`` times its
    largest finite ``|entry|``, or ``epsilon`` when that is 0."""
    mag = np.abs(fam.rows)
    mag[~np.isfinite(mag)] = 0.0
    scale = np.zeros(len(fam))
    np.maximum.at(scale, np.repeat(fam.member, fam.hi - fam.lo + 1), _row_max(mag))
    return fam.epsilon * np.where(scale > 0, scale, 1.0)


def _row_max(a):
    """``np.max(a, axis=1)`` (a NaN passes on) of a 2-d array with a column
    or more, column by column: numpy reduces a short last axis slowly."""
    out = a[:, 0]
    for col in a.T[1:]:
        out = np.maximum(out, col)
    return out


# ---------------------------------------------------------------------------
# stacked rows


def _ranges(starts, lengths):
    """Concatenation of ``arange(s, s + l)`` over paired starts and lengths."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(int(np.sum(lengths)))


def _taylor_col(rows, dt, c):
    """``out[r] = sum over i >= c of rows[r, i] dt[r]^(i-c) / (i-c)!``, column
    ``c`` of every row's Taylor step (``dt`` may be negative), as the Horner
    sum ``v = rows[:, i] + v * dt / (i - c + 1)`` for ``i = k-1 .. c`` from
    ``v = rows[:, k]``."""
    k = rows.shape[1] - 1
    v = rows[:, k]
    for i in range(k - 1, c - 1, -1):
        v = rows[:, i] + v * dt / (i - c + 1)
    return v


def _taylor_rows(rows, dt):
    """``out[r, c] = sum over i >= c of rows[r, i] dt[r]^(i-c) / (i-c)!``, one
    :func:`_taylor_col` per column ``c``; memory stays O(rows)."""
    out = np.empty(rows.shape)
    for c in range(rows.shape[1]):
        out[:, c] = _taylor_col(rows, dt, c)
    return out


# ---------------------------------------------------------------------------
# the symmetric k-th column of archives


def sym2one(rows, lo, hi, inverse=False):
    """A copy of the stacked rows of components ``(lo[c], hi[c])`` with the
    k-th column made one-sided from symmetric, or with ``inverse`` the reverse.

    A symmetric block with ``m`` internal knots holds right-hand limits in
    rows ``0..l`` (``l = m // 2``) and left-hand limits in rows ``l+2..m+1``;
    its row ``l+1`` repeats row ``l`` (even ``m``) or holds 0 (odd ``m``).
    For ``k = 0`` only the last row differs: it repeats the one before.
    Each direction drops the one entry per component that the other fills
    (:func:`_sym_entry`)."""
    out = _reals(rows, "rows", 2).copy()
    k = out.shape[1] - 1
    at, fill = _sym_entry(out, lo, hi)
    if k > 0:
        m = np.asarray(hi) - np.asarray(lo) - 1
        shift = _ranges(at, m - m // 2)  # one-sided rows l+1 .. m
        if inverse:
            out[shift + 1, k] = out[shift, k]
        else:
            out[shift, k] = out[shift + 1, k]
            at = np.cumsum(m + 2) - 1  # each component's last row
    out[at, k] = fill if inverse else 0.0
    return out


def _sym_entry(rows, lo, hi):
    """``(at, fill)``: the stacked row of the one k-th entry per component
    that the symmetric column holds and the one-sided has no place for (row
    ``l+1``; for ``k = 0`` the last row), and the value the symmetric column
    stores there, computed from ``rows`` of either convention (the rows
    before ``at`` are the same in both): row ``l``'s entry for even ``m``, 0
    for odd ``m``; for ``k = 0`` the entry of the row before."""
    k = rows.shape[1] - 1
    size = np.asarray(hi) - np.asarray(lo) + 1
    end = np.cumsum(size) - 1
    if k == 0:
        return end, rows[end - 1, 0]
    m = size - 2
    mid = end - m + m // 2  # row l+1
    return mid, np.where(m % 2 == 0, rows[mid - 1, k], 0.0)


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

    On each support component ``(lo, hi)`` the violations are: derivatives
    ``0..k-1`` at ``lo`` and at ``hi``, which must vanish; the k-th column at
    ``hi``, which must be 0; at every later knot, derivatives ``0..k-1`` minus
    the Taylor step of the row before it.

    A member is valid when its largest violation is at most its tolerance,
    ``epsilon * max|stored entry|`` (:func:`_tolerances`).  The worst member
    is the lowest-index member reaching ``max_violation`` and the worst knot
    the lowest knot index at which it does; both are -1 when no violation is
    positive, as for an empty family.  A member with a non-finite entry is
    invalid and makes ``max_violation`` ``inf``; the first non-finite row
    (lowest member, then lowest knot) names the worst member and knot.
    """
    k = fam.smorder
    d = len(fam)
    rows = fam.rows
    size = fam.hi - fam.lo + 1
    end = fam.start + size - 1
    knot = _ranges(fam.lo, size)
    row_member = np.repeat(fam.member, size)
    viol = np.zeros(rows.shape[0])
    # non-finite members are reported from their first non-finite row below
    with np.errstate(invalid="ignore", over="ignore"):
        viol[end] = _row_max(np.abs(rows[end]))
        if k > 0:
            viol[fam.start] = _row_max(np.abs(rows[fam.start, :k]))
            t = np.delete(np.arange(rows.shape[0]), end)
            pred = _taylor_rows(rows[t], np.diff(fam.knots.xi)[knot[t]])
            viol[t + 1] = np.maximum(viol[t + 1], _row_max(np.abs(pred[:, :k] - rows[t + 1, :k])))
        worst_of = np.zeros(d)
        np.maximum.at(worst_of, row_member, viol)
    nonfinite = ~np.isfinite(rows).all(axis=1)
    tol = _tolerances(fam)
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


#: (point, component) pairs that evaluate() steps at a time
_EVAL_CHUNK = 1 << 16


def evaluate(fam, grid, deriv=0):
    """Evaluate family members (or a derivative) on a grid.

    Returns a ``len(grid) x len(fam)`` array.  Points outside a member's
    support yield exactly 0.0.
    """
    xi = fam.knots.xi
    deriv = _integer(deriv, "derivative order", 0, fam.smorder)
    grid = _reals(grid, "grid")
    if grid.ndim != 1:
        raise ValueError("grid must be one-dimensional; got shape %s" % (grid.shape,))
    if not np.all(np.isfinite(grid)):
        raise ValueError("grid points must be finite")
    if grid.size and (grid.min() < xi[0] or grid.max() > xi[-1]):
        raise ValueError("grid points outside the knot range")
    out = np.zeros((grid.size, len(fam)))
    order = np.argsort(grid, kind="stable")
    t = grid[order]
    # each point's interval; the last knot takes the last interval's left limit
    iv = np.minimum(np.searchsorted(xi, t, side="right") - 1, xi.size - 2)
    # right-continuous: component (lo, hi) holds the points of intervals
    # lo..hi-1, so a point at xi[hi] belongs to the next interval (value 0)
    first = np.searchsorted(iv, fam.lo)
    count = np.searchsorted(iv, fam.hi) - first
    row0 = fam.start - fam.lo  # stacked row of knot j: row0 + j
    # (point, component) pairs in chunks of about _EVAL_CHUNK
    cuts = np.flatnonzero(np.diff(np.cumsum(count) // _EVAL_CHUNK)) + 1
    for comps in np.split(np.arange(count.size), cuts):
        c = np.repeat(comps, count[comps])
        p = _ranges(first[comps], count[comps])
        j = iv[p]
        # the deriv-th derivative is column deriv of the Taylor step
        out[order[p], fam.member[c]] = _taylor_col(fam.rows[row0[c] + j], t[p] - xi[j], deriv)
    return out


def sample_grid(knots, k, N):
    """Knots plus ``k*N`` equally spaced points inside every interval."""
    k, N = _integer(k, "the order k", low=0), _integer(N, "N", low=1)
    xi = _knots(knots).xi
    frac = np.arange(1, k * N + 1) / (k * N + 1.0)
    inner = xi[:-1, None] + frac * np.diff(xi)[:, None]
    return np.sort(np.concatenate([xi, inner.ravel()]))


# ---------------------------------------------------------------------------
# family bookkeeping


def gather(a, b):
    """Concatenate two families sharing knots, order and epsilon."""
    if a.knots != b.knots or a.smorder != b.smorder or a.epsilon != b.epsilon:
        raise ValueError("gather requires identical knots, order and epsilon")
    typ = a.type if a.type == b.type else "sp"
    return _family(a.knots, a.smorder, np.concatenate([a.rows, b.rows]),
                   np.concatenate([a.lo, b.lo]), np.concatenate([a.hi, b.hi]),
                   np.concatenate([a.offsets, b.offsets[1:] + a.offsets[-1]]),
                   typ, a.epsilon)


def subsample(fam, indices):
    """Select members by index, keeping order of ``indices``, each an integer
    in ``[0, len(fam))``: a negative index does not count from the end."""
    idx = _integers(indices, "indices", 0, len(fam) - 1)
    count = np.diff(fam.offsets)[idx]
    comp = _ranges(fam.offsets[idx], count)
    rows = fam.rows[_ranges(fam.start[comp], (fam.hi - fam.lo + 1)[comp])]
    return _family(fam.knots, fam.smorder, rows, fam.lo[comp], fam.hi[comp],
                   np.concatenate([[0], np.cumsum(count)]), fam.type, fam.epsilon)


def empty_family(knots, k, type="sp", epsilon=DEFAULT_EPSILON):
    return SplineFamily(knots, k, (), type, epsilon)


def exsupp(fam):
    """Shrink every member's support to where its values actually live.

    Intervals whose one-sided derivative row is entirely below the member's
    validity tolerance are dropped; an everywhere-small member ends up with
    an empty support.  A row with a NaN or infinite entry is live.  Live
    intervals separated by one dead interval stay in one component: each
    live interval ``(t, t + 1)`` is a piece of :func:`_merge_runs`.  One pass
    over the stacked rows.
    """
    k = fam.smorder
    member, lo, hi, rows = fam.member, fam.lo, fam.hi, fam.rows
    end = fam.start + hi - lo
    row_max = _row_max(np.abs(rows))
    alive = (row_max > np.repeat(_tolerances(fam)[member], hi - lo + 1)) | ~np.isfinite(row_max)
    alive[end] = False  # a component's last row starts no interval
    live = np.flatnonzero(alive)
    comp = np.searchsorted(end, live)
    owner = member[comp]
    t = live - (fam.start - lo)[comp]  # the knot index each live row starts at
    head, new_member, new_lo, new_hi = _merge_runs(owner, t, t + 1, len(fam.knots) + 1)
    new_size = new_hi - new_lo + 1
    out = rows[_ranges(live[head], new_size)]
    out[np.cumsum(new_size) - 1, k] = 0.0
    return _family(fam.knots, k, out, new_lo, new_hi,
                   np.searchsorted(new_member, np.arange(len(fam) + 1)), fam.type, fam.epsilon)


def _merge_runs(owner, lo, hi, span):
    """Support components from pieces ``(lo, hi)`` listed by ascending
    ``(owner, lo)``, the one rule behind every support an operation builds.

    A piece starts a new component when its owner changes or when it begins
    more than one interval past the farthest end so far: runs with one dead
    interval between them would be adjacent components, so they stay one.
    ``span`` exceeds every ``hi + 1`` and keeps owners apart.  Returns each
    piece's head flag (it starts a component) and each component's owner,
    ``lo`` and ``hi``.
    """
    key = owner * span + lo
    reach = np.maximum.accumulate(owner * span + hi)
    head = key > np.append(-1, reach[:-1] + 1)
    starts = np.flatnonzero(head)
    ends = np.append(starts[1:], key.size)[: starts.size] - 1
    owners = owner[starts]
    return head, owners, lo[starts], reach[ends] - owners * span
