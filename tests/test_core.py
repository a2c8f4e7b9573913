from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import splinet as sp
from splinet.core import taylor_step_matrix

import oracles


# ---------------------------------------------------------------------------
# Taylor step matrices


def test_taylor_k1_closed_form():
    t = sp.taylor_matrices(0.5, 1)
    assert np.array_equal(t.A, [[1.0, 0.0], [0.5, 1.0]])
    assert np.array_equal(t.Astar, [0.5, 0.125])


def test_taylor_zero_step_is_identity():
    for k in range(5):
        assert np.array_equal(sp.taylor_matrices(0.0, k).A, np.eye(k + 1))


def test_taylor_rejects_negative_spacing():
    with pytest.raises(ValueError):
        sp.taylor_matrices(-0.1, 2)
    # the internal step matrix does accept negative (mirrored) steps
    a = taylor_step_matrix(-0.5, 2)
    assert a[1, 0] == -0.5


def test_taylor_entries_k3():
    a = sp.taylor_matrices(2.0, 3).A
    # column j of row i is 2^(i-j)/(i-j)!
    expected = np.array([
        [1, 0, 0, 0],
        [2, 1, 0, 0],
        [2, 2, 1, 0],
        [4.0 / 3.0, 2, 2, 1],
    ])
    assert np.allclose(a, expected, atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.01, 5.0), st.floats(0.01, 5.0), st.integers(0, 6))
def test_taylor_semigroup(a, b, k):
    # stepping by a then b equals stepping by a+b
    left = taylor_step_matrix(a, k) @ taylor_step_matrix(b, k)
    assert np.allclose(left, taylor_step_matrix(a + b, k), rtol=1e-12, atol=1e-12)


def test_astar_is_integral_of_row():
    # integrating the Taylor polynomial of a row over [0, h] equals row @ Astar
    rng = np.random.default_rng(3)
    k, h = 3, 0.7
    row = rng.standard_normal(k + 1)
    astar = sp.taylor_matrices(h, k).Astar
    xs = np.linspace(0, h, 20001)
    import math

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


def test_supportset_validation():
    s = sp.SupportSet(((0, 3), (5, 8)))
    assert len(s) == 2 and s.n_intervals() == 6 and not s.empty
    with pytest.raises(ValueError):
        sp.SupportSet(((0, 3), (4, 6)))  # adjacent components must merge
    with pytest.raises(ValueError):
        sp.SupportSet(((2, 2),))  # needs at least one interval
    with pytest.raises(ValueError):
        sp.SupportSet(((-1, 2),))
    assert sp.SupportSet(()).empty


# ---------------------------------------------------------------------------
# convention conversion, frozen example matrices

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


def _wrap(mat, conv):
    n = mat.shape[0] - 2
    knots = sp.equidistant_knots(0.0, 1.0, n)
    return sp.SplineFamily(knots, 3, (sp.member_from_full(knots, 3, mat, conv),))


@pytest.mark.parametrize("sym, one", [(SYM_EVEN, ONE_EVEN), (SYM_ODD, ONE_ODD)])
def test_sym2one_frozen_matrices(sym, one):
    fam = _wrap(sym, sp.SYMMETRIC)
    got = sp.sym2one(fam).full_matrix(0)
    assert np.array_equal(got, one)
    back = sp.sym2one(_wrap(one, sp.ONE_SIDED), inverse=True).full_matrix(0)
    assert np.array_equal(back, sym)


def test_sym2one_touches_only_last_column():
    rng = np.random.default_rng(7)
    for n in (6, 7, 10, 11):
        mat = rng.standard_normal((n + 2, 4))
        mat[0, :3] = mat[-1, :3] = 0.0
        fam = _wrap(mat, sp.SYMMETRIC)
        got = sp.sym2one(fam).full_matrix(0)
        assert np.array_equal(got[:, :3], mat[:, :3])
        assert got[-1, 3] == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12), st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_sym2one_roundtrip(n, k, seed):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((n + 2, k + 1))
    mat[-1, k] = 0.0  # one-sided terminal convention
    knots = sp.equidistant_knots(0.0, 1.0, n)
    fam = sp.SplineFamily(knots, k, (sp.member_from_full(knots, k, mat),))
    back = sp.sym2one(sp.sym2one(fam, inverse=True))
    assert np.array_equal(back.full_matrix(0), mat)


def test_sym2one_k0():
    knots = sp.equidistant_knots(0.0, 1.0, 3)
    mat = np.array([[1.0], [2.0], [3.0], [4.0], [0.0]])
    fam = sp.SplineFamily(knots, 0, (sp.member_from_full(knots, 0, mat),))
    symf = sp.sym2one(fam, inverse=True)
    # piecewise constants: the terminal row records the last interval value
    assert symf.full_matrix(0)[-1, 0] == 4.0
    assert np.array_equal(sp.sym2one(symf).full_matrix(0), mat)


def test_sym2one_wrong_convention_raises():
    fam = _wrap(ONE_EVEN, sp.ONE_SIDED)
    with pytest.raises(ValueError):
        sp.sym2one(fam)  # expects a symmetric family


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 3),
       st.lists(st.lists(st.integers(0, 5), max_size=3), min_size=1, max_size=4),
       st.integers(0, 2**31 - 1))
def test_as_symmetric_matches_block_oracle(k, internal, seed):
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
        supports.append(sp.SupportSet(tuple(comps)))
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
        members.append(sp.make_member(supp, blocks))
    fam = sp.SplineFamily(knots, k, tuple(members))
    got, ref = sp.as_symmetric(fam), oracles.loop_as_symmetric(fam)
    back = sp.sym2one(got)
    for (supp, der), (rsupp, rder), (bsupp, bder), (fsupp, fder) in zip(
            got.members, ref.members, back.members, fam.members, strict=True):
        assert supp == rsupp == bsupp == fsupp
        assert der.convention == sp.SYMMETRIC and bder.convention == sp.ONE_SIDED
        assert [b.tobytes() for b in der.blocks] == [b.tobytes() for b in rder.blocks]
        assert [b.tobytes() for b in bder.blocks] == [b.tobytes() for b in fder.blocks]


# ---------------------------------------------------------------------------
# validity


def test_is_valid_spline_accepts_constructed():
    rng = np.random.default_rng(11)
    fam = oracles.random_valid_family(rng, 12, 3)
    rep = sp.is_valid_spline(fam)
    assert rep.all_ok and rep.max_violation <= fam.member_tolerance(0)
    # the symmetric form of a valid spline is valid too
    assert sp.is_valid_spline(sp.as_symmetric(fam)).all_ok


def test_is_valid_spline_flags_perturbation():
    rng = np.random.default_rng(12)
    fam = oracles.random_valid_family(rng, 12, 3)
    mat = fam.full_matrix(0)
    mat[5, 0] += 10.0 * fam.member_tolerance(0)
    bad = sp.SplineFamily(fam.knots, 3, (sp.member_from_full(fam.knots, 3, mat),))
    rep = sp.is_valid_spline(bad)
    assert not rep.all_ok and rep.worst_member == 0


def test_is_valid_spline_flags_boundary():
    knots = sp.equidistant_knots(0.0, 1.0, 8)
    mat = np.zeros((10, 3))
    mat[0, 0] = 1.0  # nonzero value at the left terminal knot
    bad = sp.SplineFamily(knots, 2, (sp.member_from_full(knots, 2, mat),))
    rep = sp.is_valid_spline(bad)
    assert not rep.all_ok and rep.worst_knot == 0


@pytest.mark.parametrize("eps", [np.nan, np.inf, -1.0])
def test_family_rejects_bad_epsilon(eps):
    knots = sp.equidistant_knots(0.0, 1.0, 8)
    member = sp.member_from_full(knots, 2, np.zeros((10, 3)))
    with pytest.raises(ValueError, match="epsilon"):
        sp.SplineFamily(knots, 2, (member,), "sp", eps)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_is_valid_spline_flags_nonfinite(bad):
    res = sp.splinet(sp.equidistant_knots(0.0, 1.0, 23), 3)
    members = list(res.os.members)
    supp, der = members[4]
    blocks = [b.copy() for b in der.blocks]
    blocks[0][2, 1] = bad
    members[4] = sp.make_member(supp, blocks)
    rep = sp.is_valid_spline(sp.SplineFamily(res.os.knots, 3, tuple(members), "sp"))
    assert not rep.all_ok
    assert rep.member_ok == [i != 4 for i in range(len(members))]
    assert rep.max_violation == np.inf
    assert rep.worst_member == 4 and rep.worst_knot == supp.components[0][0] + 2


def test_is_valid_spline_tie_rule_and_empty():
    knots = sp.equidistant_knots(0.0, 1.0, 7)  # spacing 1/8, exact in binary
    hollow = sp.make_member(sp.SupportSet(()), ())
    for members in ((), (hollow,) * 3):
        rep = sp.is_valid_spline(sp.SplineFamily(knots, 2, members))
        assert rep.all_ok and (rep.max_violation, rep.worst_member, rep.worst_knot) == (0.0, -1, -1)
    # two equal members, each breaking the Taylor step by exactly 1 into
    # knots 4 and 7: the lower member and the lower knot are named
    mat = np.zeros((9, 3))
    mat[3, 2] = mat[6, 2] = 8.0
    ok = sp.member_from_full(knots, 2, np.zeros((9, 3)))
    bad = sp.member_from_full(knots, 2, mat)
    rep = sp.is_valid_spline(sp.SplineFamily(knots, 2, (ok, bad, bad)))
    assert rep.member_ok == [True, False, False] and rep.max_violation == 1.0
    assert (rep.worst_member, rep.worst_knot) == (1, 4)


def _raise_entry(fam, i, row, col, by):
    """``fam`` with ``by`` added to entry (row, col) of member i's first block."""
    members = list(fam.members)
    supp, der = members[i]
    blocks = [b.copy() for b in der.blocks]
    blocks[0][row, col] += by
    members[i] = sp.make_member(supp, blocks, der.convention)
    return sp.SplineFamily(fam.knots, fam.smorder, tuple(members), fam.type, fam.epsilon)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 3), st.booleans(),
       st.sampled_from(["none", "kth", "middle", "value", np.nan, np.inf, -np.inf]),
       st.integers(0, 2**31 - 1))
def test_is_valid_spline_matches_loop_oracle(k, symmetric, edit, seed):
    """The stacked validity pass against the row-by-row loop.

    ``kth`` raises a one-sided k-th entry (for k = 0 the last row's), which
    breaks the Taylor step into one knot only; ``middle`` raises the stored
    symmetric middle-knot entry; ``value`` raises a value, which breaks two
    neighbouring knots by about the same amount, so only the member is
    compared there; a non-finite ``edit`` is added to a random entry.
    """
    rng = np.random.default_rng(seed)
    fam = oracles.lincomb_family(rng, k)
    i = int(rng.integers(0, len(fam) - 1))
    lo, hi = fam.members[i][0].components[0]
    r = int(rng.integers(0, hi - lo + 1))
    delta = 1e6 * fam.member_tolerance(i)
    if edit == "kth":
        fam = _raise_entry(fam, i, hi - lo if k == 0 else min(r, hi - lo - 1), k, delta)
    if symmetric:
        fam = sp.as_symmetric(fam)
    if edit == "middle":
        m = hi - lo - 1
        fam = _raise_entry(fam, i, m // 2 + m % 2, k, delta)
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
    scale = max((fam.members[w][1].max_abs() for w in worst), default=0.0)
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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_evaluate_nonfinite_grid_raises(bad):
    bs = sp.bspline_basis(sp.equidistant_knots(0.0, 1.0, 5), 1)
    with pytest.raises(ValueError, match="finite"):
        sp.evaluate(bs, [0.5, bad])


def test_evaluate_right_continuous_at_support_edge():
    # an indicator of one interval is 1 at its left knot, 0 at its right knot
    knots = sp.equidistant_knots(0.0, 1.0, 4)
    member = sp.make_member(sp.SupportSet(((1, 2),)), (np.array([[1.0], [0.0]]),))
    fam = sp.SplineFamily(knots, 0, (member,))
    xi = knots.xi
    vals = sp.evaluate(fam, [xi[1], xi[2]])[:, 0]
    assert vals[0] == 1.0 and vals[1] == 0.0


def test_evaluate_left_limit_at_last_knot():
    knots = sp.equidistant_knots(0.0, 1.0, 2)
    member = sp.make_member(sp.SupportSet(((2, 3),)), (np.array([[1.0], [0.0]]),))
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


def test_gather_mixed_conventions():
    rng = np.random.default_rng(6)
    a = oracles.random_valid_family(rng, 10, 2)
    b = sp.as_symmetric(oracles.random_valid_family(rng, 10, 2))
    g = sp.gather(a, b)
    assert g.convention == sp.ONE_SIDED
    assert sp.is_valid_spline(g).all_ok


def test_exsupp_shrinks_cancellation():
    knots = sp.equidistant_knots(0.0, 1.0, 9)
    bs = sp.bspline_basis(knots, 2)
    # the zero combination vanishes identically: support becomes empty
    zero = sp.lincomb(bs, np.zeros((1, len(bs))))
    assert sp.exsupp(zero).members[0][0].empty
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
    assert out.members[0][0].components == ((0, 21),)
    grid = np.linspace(0.0, 1.0, 211)
    assert np.array_equal(sp.evaluate(out, grid), sp.evaluate(fam, grid))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 3), st.booleans(), st.integers(0, 2**31 - 1),
       st.sampled_from([None, np.nan, np.inf, -np.inf]))
@example(2, False, 7, np.nan)
def test_exsupp_matches_loop_oracle(k, symmetric, seed, nonfinite):
    """The one-pass exsupp against the per-member loop, bit for bit: dead
    runs of every length (one dead interval stays inside a component), a
    member alive nowhere, an empty support, and both conventions.  A
    non-finite entry in member 0's first row keeps that row live."""
    rng = np.random.default_rng(seed)
    fam = oracles.random_rows_family(rng, k)
    if nonfinite is not None:
        (supp, der), *rest = fam.members
        blocks = [b.copy() for b in der.blocks]
        blocks[0][0, 0] = nonfinite
        fam = sp.SplineFamily(fam.knots, k, (sp.make_member(supp, blocks), *rest))
    if symmetric:
        fam = sp.as_symmetric(fam)
    out = sp.exsupp(fam)
    oracles.assert_same_family(out, oracles.loop_exsupp(fam))
    assert out.members[-2][0].empty and out.members[-1][0].empty
    assert np.isfinite(out.rows).all() == (nonfinite is None)
    # the tolerance scale is the largest finite entry
    entries = np.concatenate([b.ravel() for b in fam.members[0][1].blocks])
    scale = np.max(np.abs(entries[np.isfinite(entries)]), initial=0.0)
    assert fam.member_tolerance(0) == fam.epsilon * (scale if scale > 0 else 1.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.booleans(), st.booleans(), st.sampled_from([5, 1 << 16]),
       st.integers(0, 2**31 - 1))
def test_evaluate_matches_loop_oracle(k, spline_rows, symmetric, chunk, seed):
    """evaluate, one pass over (point, component) pairs in chunks, against
    the per-component loop, bit for bit, for every derivative order on an
    unsorted grid holding every knot, repeated points and random points;
    rows that are not splines show which row each point is stepped from."""
    rng = np.random.default_rng(seed)
    fam = (oracles.lincomb_family if spline_rows else oracles.random_rows_family)(rng, k)
    if symmetric:
        fam = sp.as_symmetric(fam)
    xi = fam.knots.xi
    grid = np.concatenate([xi, rng.uniform(xi[0], xi[-1], 40), xi[rng.integers(0, xi.size, 5)]])
    rng.shuffle(grid)
    with mock.patch.object(sp.core, "_EVAL_CHUNK", chunk):
        for deriv in range(k + 1):
            got = sp.evaluate(fam, grid, deriv)
            assert got.tobytes() == oracles.loop_evaluate(fam, grid, deriv).tobytes()


def test_family_rejects_mixed_conventions():
    """Members of one family share one convention: a one-sided member beside
    a symmetric one would be read with the wrong k-th column."""
    a = oracles.random_valid_family(np.random.default_rng(8), 10, 3)
    with pytest.raises(ValueError, match="mix"):
        sp.SplineFamily(a.knots, 3, a.members + sp.as_symmetric(a).members)
    assert sp.gather(a, sp.as_symmetric(a)).convention == sp.ONE_SIDED


def test_empty_family_and_full_support():
    knots = sp.equidistant_knots(0.0, 1.0, 4)
    fam = sp.empty_family(knots, 2)
    assert len(fam) == 0
    assert sp.full_support(knots).components == ((0, 5),)
