import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import splinet as sp
from splinet import calculus, core

import oracles
from oracles import taylor_step_matrix


# ---------------------------------------------------------------------------
# Taylor steps


def _step_matrix(a, k):
    """The Horner step of the identity's rows across ``a``: the step matrix."""
    return core._taylor_rows(np.eye(k + 1), np.full(k + 1, a))


def test_taylor_k1_closed_form():
    assert np.array_equal(_step_matrix(0.5, 1), [[1.0, 0.0], [0.5, 1.0]])
    assert np.array_equal(_step_matrix(0.5, 1), taylor_step_matrix(0.5, 1))
    assert np.array_equal(calculus._interval_weights(np.array([0.0, 0.5]), 1), [0.5, 0.125, 0, 0])


def test_taylor_zero_step_is_identity():
    for k in range(5):
        assert np.array_equal(_step_matrix(0.0, k), np.eye(k + 1))


def test_taylor_negative_step():
    # the mirrored sweeps step backward
    a = _step_matrix(-0.5, 2)
    assert a[1, 0] == -0.5 and a[2, 0] == 0.125
    assert np.allclose(a, taylor_step_matrix(-0.5, 2), rtol=1e-15, atol=0)
    assert np.allclose(a @ _step_matrix(0.5, 2), np.eye(3), rtol=0, atol=1e-15)


def test_taylor_entries_k3():
    a = _step_matrix(2.0, 3)
    # column j of row i is 2^(i-j)/(i-j)!
    expected = np.array([
        [1, 0, 0, 0],
        [2, 1, 0, 0],
        [2, 2, 1, 0],
        [4.0 / 3.0, 2, 2, 1],
    ])
    assert np.allclose(a, expected, atol=1e-15)
    assert np.allclose(a, taylor_step_matrix(2.0, 3), rtol=1e-15, atol=0)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.01, 5.0), st.floats(0.01, 5.0), st.integers(0, 6))
def test_taylor_semigroup(a, b, k):
    # stepping by a then b equals stepping by a+b
    left = core._taylor_rows(_step_matrix(a, k), np.full(k + 1, b))
    assert np.allclose(left, _step_matrix(a + b, k), rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.integers(1, 8), st.integers(0, 2**31 - 1))
def test_taylor_rows_match_dense_step(k, m, seed):
    """Every row's Horner step against the row times its dense step matrix,
    on steps of both signs and of zero."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((m, k + 1)) * 10.0 ** rng.uniform(-3, 3, (m, 1))
    dt = rng.uniform(-2.0, 2.0, m) * 10.0 ** rng.uniform(-3, 0, m)
    dt[rng.random(m) < 0.25] = 0.0
    got = core._taylor_rows(rows, dt)
    want = np.array([row @ taylor_step_matrix(h, k) for row, h in zip(rows, dt)])
    # a sum of terms of either sign is good to a few ulps of its largest term
    terms = np.array([np.abs(row) @ np.abs(taylor_step_matrix(h, k)) for row, h in zip(rows, dt)])
    assert np.all(np.abs(got - want) <= 1e-13 * terms)
    assert np.array_equal(got[dt == 0.0], rows[dt == 0.0])


def test_astar_is_integral_of_row():
    # integrating the Taylor polynomial of a row over [0, h] equals the row
    # times the interval's weights
    rng = np.random.default_rng(3)
    k, h = 3, 0.7
    row = rng.standard_normal(k + 1)
    astar = calculus._interval_weights(np.array([0.0, h]), k)[: k + 1]
    xs = np.linspace(0, h, 20001)
    vals = sum(row[p] * xs**p / math.factorial(p) for p in range(k + 1))
    assert abs(np.trapezoid(vals, xs) - row @ astar) < 1e-9


# ---------------------------------------------------------------------------
# knots and supports


def test_knotset_basic():
    ks = sp.KnotSet([0.0, 1.0, 2.0, 3.0])
    assert ks.n == 2 and len(ks) == 4 and ks.equid
    assert not sp.KnotSet([0.0, 0.5, 2.0]).equid
    with pytest.raises(ValueError):
        sp.KnotSet([0.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        sp.KnotSet([0.0])


def test_knotset_hash_agrees_with_eq():
    """Knots equal as numbers hash alike: ``-0.0 == 0.0``, so a set holds one
    of two such knot sets, as it does of ``equidistant_knots(-0.0, ...)`` and
    ``equidistant_knots(0.0, ...)``."""
    a, b = sp.KnotSet([-0.0, 0.5, 1.0]), sp.KnotSet([0.0, 0.5, 1.0])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert len({sp.equidistant_knots(-0.0, 1.0, 3), sp.equidistant_knots(0.0, 1.0, 3)}) == 1


def test_knotset_equid_is_derived_not_passed():
    with pytest.raises(TypeError):
        sp.KnotSet([0.0, 0.5, 2.0], equid=True)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_knotset_rejects_nonfinite(bad):
    with pytest.raises(ValueError, match="finite"):
        sp.KnotSet([0.0, bad, 1.0, 2.0])
    with pytest.raises(ValueError, match="finite"):
        sp.KnotSet([0.0, 1.0, bad])
    # the endpoints are checked before np.linspace can warn on them
    with pytest.raises(ValueError, match="finite"):
        sp.equidistant_knots(0.0, bad, 5)
    with pytest.raises(ValueError, match="finite"):
        sp.equidistant_knots(bad, 1.0, 5)


def test_equidistant_knots():
    ks = sp.equidistant_knots(-1.0, 1.0, 9)
    assert ks.n == 9 and ks.equid
    assert ks.xi[0] == -1.0 and ks.xi[-1] == 1.0


def test_random_knots_terminates_for_many_knots():
    # above oracles.REDRAW_MAX_KNOTS the gaps are drawn, never redrawn
    knots = oracles.random_knots(np.random.default_rng(0), 1535, -1.0, 3.0)
    assert isinstance(knots, sp.KnotSet) and knots.n == 1535
    assert knots.xi[0] == -1.0 and knots.xi[-1] == 3.0
    gaps = np.diff(knots.xi)
    assert np.all(gaps > 0) and gaps.max() <= 3.0 * gaps.min() * (1 + 1e-9)


def _one_member(knots, *supp):
    """A one-member order-1 family of zero blocks on components ``supp``."""
    return sp.SplineFamily(knots, 1, ((supp, [np.zeros((hi - lo + 1, 2)) for lo, hi in supp]),))


def test_family_support_validation():
    """A member is a plain ``(supp, blocks)`` pair; its support is checked
    where the family stacks it."""
    knots = sp.equidistant_knots(0.0, 1.0, 8)
    (supp, blocks), = _one_member(knots, (0, 3), (5, 8)).members
    assert supp == ((0, 3), (5, 8)) and sum(hi - lo for lo, hi in supp) == 6
    assert [b.shape for b in blocks] == [(4, 2), (4, 2)]
    disjoint = "support components must be disjoint and non-adjacent"
    with pytest.raises(ValueError, match=disjoint):
        _one_member(knots, (0, 3), (4, 6))  # adjacent components must merge
    with pytest.raises(ValueError, match=disjoint):
        _one_member(knots, (5, 8), (0, 3))  # components come in increasing order
    with pytest.raises(ValueError, match=disjoint):
        _one_member(knots, (0, 3), (2, 6))
    with pytest.raises(ValueError, match=r"bad support component \(2, 2\)"):
        _one_member(knots, (2, 2))  # needs at least one interval
    with pytest.raises(ValueError, match=r"bad support component \(-1, 2\)"):
        _one_member(knots, (-1, 2))
    with pytest.raises(ValueError, match=r"support component \(5, 10\) outside knot range"):
        _one_member(knots, (5, 10))
    assert _one_member(knots).members == (((), ()),)


@pytest.mark.parametrize("bound", [(0.5, 3), (0, 3.9), (True, 3), (0, np.True_), (0, "3"),
                                   (0, None), (0, np.nan)])
def test_family_rejects_non_integer_support_bounds(bound):
    """The constructor reads support bounds by the loader's rule: an integral
    float counts, a fraction, a bool or a non-number is an error."""
    knots = sp.equidistant_knots(0.0, 1.0, 8)
    with pytest.raises(ValueError, match="supp entry .* is not an integer"):
        sp.SplineFamily(knots, 1, (((bound,), [np.zeros((4, 2))]),))


def test_family_reads_integral_support_bounds():
    knots = sp.equidistant_knots(0.0, 1.0, 8)
    for bound in ((0.0, 3.0), (np.int64(0), np.int32(3)), (0, np.float64(3.0))):
        fam = sp.SplineFamily(knots, 1, (((bound,), [np.zeros((4, 2))]),))
        supp = fam.members[0][0]
        assert supp == ((0, 3),) and all(type(b) is int for b in supp[0])


# ---------------------------------------------------------------------------
# the symmetric k-th column of archives, frozen example matrices

# frozen reference: k=3 cubic spline over 10 equidistant internal knots,
# symmetric convention (2-decimal values; the conversion is an exact column
# shuffle, so equality is exact)
SYM_EVEN = np.array([
    [0.00, 0.00, 0.00, -24.50],
    [-0.00, -0.10, -2.23, -75.91],
    [-0.03, -0.62, -9.13, 99.79],
    [-0.11, -1.03, -0.06, 2.52],
    [-0.21, -1.03, 0.17, 1.16],
    [-0.30, -1.01, 0.28, 0.30],
    [-0.39, -0.98, 0.31, 0.30],
    [-0.48, -0.96, 0.15, -1.75],
    [-0.56, -0.95, 0.20, 0.53],
    [-0.53, 3.11, 88.98, 976.66],
    [-0.11, 3.58, -78.67, -1844.17],
    [0.00, 0.00, 0.00, 865.37],
])
# the matching one-sided form
ONE_EVEN = np.array([
    [0.00, 0.00, 0.00, -24.50],
    [-0.00, -0.10, -2.23, -75.91],
    [-0.03, -0.62, -9.13, 99.79],
    [-0.11, -1.03, -0.06, 2.52],
    [-0.21, -1.03, 0.17, 1.16],
    [-0.30, -1.01, 0.28, 0.30],
    [-0.39, -0.98, 0.31, -1.75],
    [-0.48, -0.96, 0.15, 0.53],
    [-0.56, -0.95, 0.20, 976.66],
    [-0.53, 3.11, 88.98, -1844.17],
    [-0.11, 3.58, -78.67, 865.37],
    [0.00, 0.00, 0.00, 0.00],
])
# same spline style over 11 internal knots (odd case)
SYM_ODD = np.array([
    [0.00, 0.00, 0.00, 833.39],
    [0.08, 2.89, 69.45, -1799.55],
    [0.39, 2.43, -80.51, 966.97],
    [0.41, -0.92, 0.07, 0.62],
    [0.33, -0.91, 0.12, -5.29],
    [0.25, -0.92, -0.32, -0.38],
    [0.18, -0.95, -0.35, 0.00],
    [0.10, -0.98, -0.43, -0.98],
    [0.01, -0.99, 0.29, 8.73],
    [-0.07, -0.96, 0.40, 1.33],
    [-0.11, 0.41, 32.49, 385.06],
    [-0.02, 0.88, -21.20, -644.33],
    [0.00, 0.00, 0.00, 254.43],
])
ONE_ODD = np.array([
    [0.00, 0.00, 0.00, 833.39],
    [0.08, 2.89, 69.45, -1799.55],
    [0.39, 2.43, -80.51, 966.97],
    [0.41, -0.92, 0.07, 0.62],
    [0.33, -0.91, 0.12, -5.29],
    [0.25, -0.92, -0.32, -0.38],
    [0.18, -0.95, -0.35, -0.98],
    [0.10, -0.98, -0.43, 8.73],
    [0.01, -0.99, 0.29, 1.33],
    [-0.07, -0.96, 0.40, 385.06],
    [-0.11, 0.41, 32.49, -644.33],
    [-0.02, 0.88, -21.20, 254.43],
    [0.00, 0.00, 0.00, 0.00],
])


def _bounds(mat):
    """The one component of a full-support block."""
    return [0], [mat.shape[0] - 1]


@pytest.mark.parametrize("sym, one", [(SYM_EVEN, ONE_EVEN), (SYM_ODD, ONE_ODD)])
def test_sym2one_frozen_matrices(sym, one):
    assert np.array_equal(sp.sym2one(sym, *_bounds(sym)), one)
    assert np.array_equal(sp.sym2one(one, *_bounds(one), inverse=True), sym)


def test_sym2one_touches_only_last_column():
    rng = np.random.default_rng(7)
    for n in (6, 7, 10, 11):
        mat = rng.standard_normal((n + 2, 4))
        mat[0, :3] = mat[-1, :3] = 0.0
        got = sp.sym2one(mat, *_bounds(mat))
        assert np.array_equal(got[:, :3], mat[:, :3])
        assert got[-1, 3] == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12), st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_sym2one_roundtrip(n, k, seed):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((n + 2, k + 1))
    mat[-1, k] = 0.0  # one-sided terminal convention
    back = sp.sym2one(sp.sym2one(mat, *_bounds(mat), inverse=True), *_bounds(mat))
    assert np.array_equal(back, mat)


def test_sym2one_k0():
    mat = np.array([[1.0], [2.0], [3.0], [4.0], [0.0]])
    sym = sp.sym2one(mat, *_bounds(mat), inverse=True)
    # piecewise constants: the terminal row records the last interval value
    assert sym[-1, 0] == 4.0
    assert np.array_equal(sp.sym2one(sym, *_bounds(mat)), mat)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 3),
       st.lists(st.lists(st.integers(0, 5), max_size=3), min_size=1, max_size=4),
       st.integers(0, 2**31 - 1))
def test_sym2one_inverse_matches_block_oracle(k, internal, seed):
    """The stacked one-sided -> symmetric conversion against the block loop,
    bit for bit, then back to the input bit for bit.  ``internal`` lists each
    member's components by their number of internal knots m (odd and even,
    m = 0 included); a member without components has an empty support."""
    rng = np.random.default_rng(seed)
    supports, at = [], 2
    for ms in internal:
        comps, lo = [], 0
        for m in ms:
            comps.append((lo, lo + m + 1))
            lo += m + 3
        supports.append(tuple(comps))
        at = max(at, lo)
    knots = sp.equidistant_knots(0.0, 1.0, at - 2)
    members = []
    for supp in supports:
        blocks = []
        for lo, hi in supp:
            blk = rng.standard_normal((hi - lo + 1, k + 1))
            blk[rng.random(blk.shape) < 0.2] = -0.0
            blk[-1, k] = 0.0  # one-sided terminal convention
            blocks.append(blk)
        members.append((supp, blocks))
    fam = sp.SplineFamily(knots, k, tuple(members))
    got = sp.sym2one(fam.rows, fam.lo, fam.hi, inverse=True)
    assert got.tobytes() == oracles.loop_as_symmetric(fam).rows.tobytes()
    assert sp.sym2one(got, fam.lo, fam.hi).tobytes() == fam.rows.tobytes()


# ---------------------------------------------------------------------------
# validity


@pytest.mark.parametrize("width", [1, 2, 4, 7])
def test_row_max_is_np_max(width):
    """The column-by-column row maximum that validity, exsupp and the
    tolerances take is ``np.max(a, axis=1)``, NaN and infinities included."""
    rng = np.random.default_rng(width)
    a = rng.standard_normal((400, width))
    a[rng.random(a.shape) < 0.05] = np.nan
    a[rng.random(a.shape) < 0.05] = np.inf
    a[rng.random(a.shape) < 0.05] = -np.inf
    a[rng.random(a.shape) < 0.05] = -0.0
    got = core._row_max(a)
    assert got.shape == (400,) and np.array_equal(got, np.max(a, axis=1), equal_nan=True)


def test_is_valid_spline_accepts_constructed():
    rng = np.random.default_rng(11)
    fam = oracles.random_valid_family(rng, 12, 3)
    rep = sp.is_valid_spline(fam)
    assert rep.all_ok and rep.max_violation <= fam.member_tolerance(0)


def _full_member(mat):
    """``mat``, a full ``(n+2) x (k+1)`` matrix, as a full-support member."""
    return ((0, len(mat) - 1),), (mat,)


def test_is_valid_spline_flags_perturbation():
    rng = np.random.default_rng(12)
    fam = oracles.random_valid_family(rng, 12, 3)
    mat = fam.full_matrix(0)
    mat[5, 0] += 10.0 * fam.member_tolerance(0)
    bad = sp.SplineFamily(fam.knots, 3, (_full_member(mat),))
    rep = sp.is_valid_spline(bad)
    assert not rep.all_ok and rep.worst_member == 0


def test_is_valid_spline_flags_boundary():
    knots = sp.equidistant_knots(0.0, 1.0, 8)
    mat = np.zeros((10, 3))
    mat[0, 0] = 1.0  # nonzero value at the left terminal knot
    bad = sp.SplineFamily(knots, 2, (_full_member(mat),))
    rep = sp.is_valid_spline(bad)
    assert not rep.all_ok and rep.worst_knot == 0


@pytest.mark.parametrize("eps", [np.nan, np.inf, -1.0])
def test_family_rejects_bad_epsilon(eps):
    knots = sp.equidistant_knots(0.0, 1.0, 8)
    member = _full_member(np.zeros((10, 3)))
    with pytest.raises(ValueError, match="epsilon"):
        sp.SplineFamily(knots, 2, (member,), "sp", eps)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_is_valid_spline_flags_nonfinite(bad):
    res = sp.splinet(sp.equidistant_knots(0.0, 1.0, 23), 3)
    members = list(res.os.members)
    supp, der = members[4]
    blocks = [b.copy() for b in der]
    blocks[0][2, 1] = bad
    members[4] = (supp, blocks)
    rep = sp.is_valid_spline(sp.SplineFamily(res.os.knots, 3, tuple(members), "sp"))
    assert not rep.all_ok
    assert rep.member_ok == [i != 4 for i in range(len(members))]
    assert rep.max_violation == np.inf
    assert rep.worst_member == 4 and rep.worst_knot == supp[0][0] + 2


def test_is_valid_spline_tie_rule_and_empty():
    knots = sp.equidistant_knots(0.0, 1.0, 7)  # spacing 1/8, exact in binary
    hollow = ((), ())
    for members in ((), (hollow,) * 3):
        rep = sp.is_valid_spline(sp.SplineFamily(knots, 2, members))
        assert rep.all_ok and (rep.max_violation, rep.worst_member, rep.worst_knot) == (0.0, -1, -1)
    # two equal members, each breaking the Taylor step by exactly 1 into
    # knots 4 and 7: the lower member and the lower knot are named
    mat = np.zeros((9, 3))
    mat[3, 2] = mat[6, 2] = 8.0
    ok = _full_member(np.zeros((9, 3)))
    bad = _full_member(mat)
    rep = sp.is_valid_spline(sp.SplineFamily(knots, 2, (ok, bad, bad)))
    assert rep.member_ok == [True, False, False] and rep.max_violation == 1.0
    assert (rep.worst_member, rep.worst_knot) == (1, 4)


def _raise_entry(fam, i, row, col, by):
    """``fam`` with ``by`` added to entry (row, col) of member i's first block."""
    members = list(fam.members)
    supp, der = members[i]
    blocks = [b.copy() for b in der]
    blocks[0][row, col] += by
    members[i] = (supp, blocks)
    return sp.SplineFamily(fam.knots, fam.smorder, tuple(members), fam.type, fam.epsilon)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 3),
       st.sampled_from(["none", "kth", "value", np.nan, np.inf, -np.inf]),
       st.integers(0, 2**31 - 1))
def test_is_valid_spline_matches_loop_oracle(k, edit, seed):
    """The stacked validity pass against the row-by-row loop.

    ``kth`` raises a k-th entry (for k = 0 the last row's), which breaks the
    Taylor step into one knot only; ``value`` raises a value, which breaks
    two neighbouring knots by about the same amount, so only the member is
    compared there; a non-finite ``edit`` is added to a random entry.
    """
    rng = np.random.default_rng(seed)
    fam = oracles.lincomb_family(rng, k)
    i = int(rng.integers(0, len(fam) - 1))
    lo, hi = fam.members[i][0][0]
    r = int(rng.integers(0, hi - lo + 1))
    delta = 1e6 * fam.member_tolerance(i)
    if edit == "kth":
        fam = _raise_entry(fam, i, hi - lo if k == 0 else min(r, hi - lo - 1), k, delta)
    elif edit == "value":
        fam = _raise_entry(fam, i, r, 0, delta)
    elif not isinstance(edit, str):
        fam = _raise_entry(fam, i, r, int(rng.integers(0, k + 1)), edit)

    rep, ref = sp.is_valid_spline(fam), oracles.loop_is_valid_spline(fam)
    assert rep.member_ok == ref.member_ok
    if ref.max_violation == np.inf:
        assert rep.max_violation == np.inf
        assert (rep.worst_member, rep.worst_knot) == (ref.worst_member, ref.worst_knot)
        return
    worst = {rep.worst_member, ref.worst_member} - {-1}
    scale = max((np.max(np.abs(fam.full_matrix(w))) for w in worst), default=0.0)
    assert abs(rep.max_violation - ref.max_violation) <= 1e-14 * scale
    if not all(ref.member_ok):
        assert rep.worst_member == ref.worst_member == i
        if edit != "value":
            assert rep.worst_knot == ref.worst_knot


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_zero_outside_support():
    knots = sp.equidistant_knots(0.0, 1.0, 9)
    bs = sp.bspline_basis(knots, 2)
    grid = np.linspace(0.0, 1.0, 101)
    vals = sp.evaluate(bs, grid)
    xi = knots.xi
    for j in range(len(bs)):
        (lo, hi), = bs.members[j][0]
        outside = (grid < xi[lo]) | (grid > xi[hi])
        assert np.all(vals[outside, j] == 0.0)
        assert np.any(np.abs(vals[~outside, j]) > 0.1)


def test_evaluate_out_of_range_raises():
    knots = sp.equidistant_knots(0.0, 1.0, 5)
    bs = sp.bspline_basis(knots, 1)
    with pytest.raises(ValueError):
        sp.evaluate(bs, [1.5])
    with pytest.raises(ValueError):
        sp.evaluate(bs, [0.5], deriv=2)
    # the grid is one-dimensional and real
    for grid, shape in ((0.5, r"\(\)"), (np.full((3, 1), 0.5), r"\(3, 1\)")):
        with pytest.raises(ValueError, match=r"^grid must be one-dimensional; got shape " + shape):
            sp.evaluate(bs, grid)
    with pytest.raises(ValueError, match="^grid entry '0.5' is not a number$"):
        sp.evaluate(bs, ["0.5"])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_evaluate_nonfinite_grid_raises(bad):
    bs = sp.bspline_basis(sp.equidistant_knots(0.0, 1.0, 5), 1)
    with pytest.raises(ValueError, match="finite"):
        sp.evaluate(bs, [0.5, bad])


def test_evaluate_right_continuous_at_support_edge():
    # an indicator of one interval is 1 at its left knot, 0 at its right knot
    knots = sp.equidistant_knots(0.0, 1.0, 4)
    member = (((1, 2),), (np.array([[1.0], [0.0]]),))
    fam = sp.SplineFamily(knots, 0, (member,))
    xi = knots.xi
    vals = sp.evaluate(fam, [xi[1], xi[2]])[:, 0]
    assert vals[0] == 1.0 and vals[1] == 0.0


def test_evaluate_left_limit_at_last_knot():
    knots = sp.equidistant_knots(0.0, 1.0, 2)
    member = (((2, 3),), (np.array([[1.0], [0.0]]),))
    fam = sp.SplineFamily(knots, 0, (member,))
    assert sp.evaluate(fam, [1.0])[0, 0] == 1.0


def test_evaluate_derivatives_match_difference_quotient():
    rng = np.random.default_rng(4)
    fam = oracles.random_valid_family(rng, 10, 3)
    grid = np.linspace(0.11, 0.93, 37)
    h = 1e-6
    d1 = sp.evaluate(fam, grid, deriv=1)
    approx = (sp.evaluate(fam, grid + h) - sp.evaluate(fam, grid - h)) / (2 * h)
    assert np.max(np.abs(d1 - approx)) < 1e-4 * max(1.0, np.max(np.abs(d1)))


def test_sample_grid():
    knots = sp.equidistant_knots(0.0, 1.0, 3)
    g = sp.sample_grid(knots, 2, 3)
    # knots plus k*N interior points per interval
    assert g.size == 5 + 4 * 6
    assert np.all(np.diff(g) > 0)
    with pytest.raises(ValueError):
        sp.sample_grid(knots, 2, 0)


# ---------------------------------------------------------------------------
# bookkeeping


def test_gather_and_subsample():
    rng = np.random.default_rng(5)
    a = oracles.random_valid_family(rng, 10, 2)
    b = oracles.random_valid_family(rng, 10, 2)
    g = sp.gather(a, b)
    assert len(g) == 2
    assert np.array_equal(g.full_matrix(0), a.full_matrix(0))
    sub = sp.subsample(g, [1])
    assert len(sub) == 1
    assert np.array_equal(sub.full_matrix(0), b.full_matrix(0))
    other = oracles.random_valid_family(rng, 11, 2)
    with pytest.raises(ValueError):
        sp.gather(a, other)
    # b's members would be judged against a's tolerance
    looser = sp.SplineFamily(b.knots, b.smorder, b.members, b.type, 1e-3)
    for x, y in ((a, looser), (looser, a)):
        with pytest.raises(ValueError, match="identical knots, order and epsilon"):
            sp.gather(x, y)


def test_exsupp_shrinks_cancellation():
    knots = sp.equidistant_knots(0.0, 1.0, 9)
    bs = sp.bspline_basis(knots, 2)
    # the zero combination vanishes identically: support becomes empty
    zero = sp.lincomb(bs, np.zeros((1, len(bs))))
    assert not sp.exsupp(zero).members[0][0]
    # a combination of two distant B-splines keeps two components
    c = np.zeros(len(bs))
    c[0] = 1.0
    c[-1] = 1.0
    two = sp.exsupp(sp.lincomb(bs, c))
    assert len(two.members[0][0]) == 2


def test_exsupp_keeps_one_dead_interval():
    # zero coefficients 5..7 at order 2 leave interval 7 alone dead: the live
    # runs on either side would be adjacent components, so they stay one
    bs = sp.bspline_basis(sp.equidistant_knots(0.0, 1.0, 20), 2)
    c = np.ones(len(bs))
    c[5:8] = 0.0
    fam = sp.lincomb(bs, c)
    out = sp.exsupp(fam)
    assert out.members[0][0] == ((0, 21),)
    grid = np.linspace(0.0, 1.0, 211)
    assert np.array_equal(sp.evaluate(out, grid), sp.evaluate(fam, grid))


#: one piece: a new owner?, its start against the farthest end so far (-6..-1
#: overlap or nest, 0..3 intervals past it) and its length
_PIECE = st.tuples(st.booleans(), st.integers(-6, 3), st.integers(1, 5))


@settings(max_examples=200, deadline=None)
@given(st.lists(_PIECE, max_size=30))
@example([])
@example([(False, 0, 2), (False, 1, 1), (False, 2, 3), (False, -6, 1), (True, 3, 1)])
def test_merge_runs_matches_loop_oracle(pieces):
    """Support components of pieces listed by ascending (owner, lo): gaps of
    0..3 intervals past the farthest end (0 and 1 join, 2 and 3 split),
    overlapping and nested pieces, owner changes and no pieces at all."""
    owner, lo, hi = [], [], []
    o, start, reach = 0, 0, 0
    for new_owner, gap, length in pieces:
        if new_owner and owner:
            o, start, reach = o + 1, 0, 0
        start = max(start, reach + gap)  # ascending lo within an owner
        owner.append(o)
        lo.append(start)
        hi.append(start + length)
        reach = max(reach, start + length)
    arrays = [np.array(a, dtype=np.int64) for a in (owner, lo, hi)]
    head, c_owner, c_lo, c_hi = core._merge_runs(*arrays, max(hi, default=0) + 2)
    heads, comps = oracles.merge_runs(owner, lo, hi)
    assert head.tolist() == heads
    assert np.column_stack([c_owner, c_lo, c_hi]).reshape(-1, 3).tolist() == comps


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 3), st.integers(0, 2**31 - 1),
       st.sampled_from([None, np.nan, np.inf, -np.inf]))
@example(2, 7, np.nan)
def test_exsupp_matches_loop_oracle(k, seed, nonfinite):
    """The one-pass exsupp against the per-member loop, bit for bit: dead
    runs of every length (one dead interval stays inside a component), a
    member alive nowhere and an empty support.  A non-finite entry in member
    0's first row keeps that row live."""
    rng = np.random.default_rng(seed)
    fam = oracles.random_rows_family(rng, k)
    if nonfinite is not None:
        (supp, der), *rest = fam.members
        blocks = [b.copy() for b in der]
        blocks[0][0, 0] = nonfinite
        fam = sp.SplineFamily(fam.knots, k, ((supp, blocks), *rest))
    out = sp.exsupp(fam)
    oracles.assert_same_family(out, oracles.loop_exsupp(fam))
    assert not out.members[-2][0] and not out.members[-1][0]
    assert np.isfinite(out.rows).all() == (nonfinite is None)
    # the tolerance scale is the largest finite entry
    entries = np.concatenate([b.ravel() for b in fam.members[0][1]])
    scale = np.max(np.abs(entries[np.isfinite(entries)]), initial=0.0)
    assert fam.member_tolerance(0) == fam.epsilon * (scale if scale > 0 else 1.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.booleans(), st.sampled_from([5, 1 << 16]),
       st.integers(0, 2**31 - 1))
def test_evaluate_matches_loop_oracle(k, spline_rows, chunk, seed):
    """evaluate, one pass over (point, component) pairs in chunks of Horner
    steps, against the per-component loop of power sums, for every derivative
    order on irregular knots and an unsorted grid holding every knot,
    repeated points and random points; rows that are not splines show which
    row each point is stepped from.  Steps run forward, so the power sums of
    the rows' magnitudes bound each value's terms; outside the supports both
    are exactly 0."""
    rng = np.random.default_rng(seed)
    fam = (oracles.lincomb_family if spline_rows else oracles.random_rows_family)(rng, k)
    mag = sp.SplineFamily(fam.knots, k, [(supp, [np.abs(b) for b in der])
                                         for supp, der in fam.members])
    xi = fam.knots.xi
    grid = np.concatenate([xi, rng.uniform(xi[0], xi[-1], 40), xi[rng.integers(0, xi.size, 5)]])
    rng.shuffle(grid)
    with mock.patch.object(sp.core, "_EVAL_CHUNK", chunk):
        for deriv in range(k + 1):
            got = sp.evaluate(fam, grid, deriv)
            err = np.abs(got - oracles.loop_evaluate(fam, grid, deriv))
            assert np.all(err <= 1e-13 * oracles.loop_evaluate(mag, grid, deriv))


def _layout_by_loop(fam):
    """Owner and first stacked row of every component, member by member."""
    member, start, row = [], [], 0
    for i, (supp, _) in enumerate(fam.members):
        for lo, hi in supp:
            member.append(i)
            start.append(row)
            row += hi - lo + 1
    return member, start


def _produced_families(k, spline_rows, seed):
    """A random family (``oracles.lincomb_family`` or, with entries that are
    not splines, ``oracles.random_rows_family``; both hold a member with an
    empty support) and the result of every operation that builds a layout."""
    rng = np.random.default_rng(seed)
    fam = (oracles.lincomb_family if spline_rows else oracles.random_rows_family)(rng, k)
    xi = fam.knots.xi
    finer = sp.KnotSet(np.sort(np.concatenate([xi, (xi[:-1] + xi[1:]) / 2])))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fam.json")
        sp.save_archive(path, fam)
        loaded, _ = sp.load_archive(path)
    results = [fam, loaded, sp.lincomb(fam, rng.standard_normal((3, len(fam)))),
               sp.exsupp(fam), sp.integra(fam), sp.refine(fam, finer),
               sp.subsample(fam, [len(fam) - 1, 0, 2, 0]), sp.gather(fam, loaded),
               sp.empty_family(fam.knots, k)]
    if k:
        results.append(sp.deriva(fam))
    for type in ("spnt", "gsob", "twob"):
        res = sp.splinet(fam.knots, k, type)
        results += [res.bs, res.os]
    mean = oracles.random_valid_family(rng, 10, max(k, 1))
    results.append(sp.rspline(mean, sp.NoiseSpec(sigma=0.3, seed=seed), count=3))
    return results


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.booleans(), st.integers(0, 2**31 - 1))
def test_layout_arrays_match_loop(k, spline_rows, seed):
    """Every family's ``member`` and ``start``, derived once when it is
    built, equal a loop over its members and are read-only int64: random
    families and the result of every operation that builds a layout."""
    results = _produced_families(k, spline_rows, seed)
    for f in results:
        member, start = _layout_by_loop(f)
        for got, want in ((f.member, member), (f.start, start)):
            assert got.dtype == np.int64 and not got.flags.writeable
            assert got.tolist() == want
    assert not hasattr(type(results[0]), "member")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.booleans(), st.integers(0, 2**31 - 1))
def test_members_rebuild_every_family(k, spline_rows, seed):
    """``members`` gives plain ``(supp, blocks)`` pairs that the constructor
    stacks back into the same layout, bit for bit, whichever operation built
    the family; the blocks are read-only views of ``rows``."""
    for f in _produced_families(k, spline_rows, seed):
        for supp, blocks in f.members:
            assert type(supp) is tuple and all(type(b) is int for c in supp for b in c)
            assert all(not b.flags.writeable and np.shares_memory(b, f.rows) for b in blocks)
        g = sp.SplineFamily(f.knots, f.smorder, f.members, f.type, f.epsilon)
        assert (g.knots, g.smorder, g.type, g.epsilon) == (f.knots, f.smorder, f.type, f.epsilon)
        for name in ("rows", "lo", "hi", "offsets", "member", "start"):
            got, want = getattr(g, name), getattr(f, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_readme_quick_tour_runs():
    """README's "Library quick tour" block runs as written."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    tour = text[text.index("## Library quick tour"):]
    start = tour.index("```python\n") + len("```python\n")
    code = tour[start : tour.index("```", start)]
    exec(compile(code, "README.md quick tour", "exec"), {})


def test_empty_family_and_full_member():
    knots = sp.equidistant_knots(0.0, 1.0, 4)
    fam = sp.empty_family(knots, 2)
    assert len(fam) == 0 and fam.members == ()
    mat = np.arange(18.0).reshape(6, 3)
    full = sp.SplineFamily(knots, 2, (_full_member(mat),))
    assert full.members[0][0] == ((0, 5),)
    assert np.array_equal(full.full_matrix(0), mat)
