import math
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import splinet as sp
import splinet.calculus as calculus

import oracles


def _hat_basis(n):
    """Order-1 B-splines (hat functions) on n equidistant internal knots."""
    return sp.bspline_basis(sp.equidistant_knots(0.0, 1.0, n), 1)


# ---------------------------------------------------------------------------
# gramian, closed-form cases


def test_gramian_indicators():
    # order-0 B-splines are interval indicators: diagonal h, zero elsewhere
    knots = sp.equidistant_knots(0.0, 1.0, 7)
    bs = sp.bspline_basis(knots, 0)
    g = sp.gramian(bs)
    h = 1.0 / 8.0
    assert np.allclose(g, h * np.eye(len(bs)), atol=1e-15)


def test_gramian_hats():
    # neighbouring hat functions of height 1 over spacing h:
    # <B_i, B_i> = 2h/3, <B_i, B_{i+1}> = h/6, zero beyond
    bs = _hat_basis(9)
    g = sp.gramian(bs)
    h = 0.1
    d = len(bs)
    expect = np.zeros((d, d))
    for i in range(d):
        expect[i, i] = 2 * h / 3
        if i + 1 < d:
            expect[i, i + 1] = expect[i + 1, i] = h / 6
    assert np.allclose(g, expect, atol=1e-15)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_gramian_matches_quadrature(k):
    rng = np.random.default_rng(k)
    knots = oracles.random_knots(rng, 2 * k + 4)
    bs = sp.bspline_basis(knots, k)
    g = sp.gramian(bs)
    go = oracles.quad_gramian(bs)
    assert np.max(np.abs(g - go)) < 1e-12 * max(1.0, np.max(np.abs(go)))


def test_gramian_two_families():
    rng = np.random.default_rng(10)
    knots = sp.equidistant_knots(0.0, 1.0, 12)
    a = sp.bspline_basis(knots, 2)
    b = sp.construct(knots, 2, rng.standard_normal(11), "CRLC")
    g = sp.gramian(a, b)
    go = oracles.quad_gramian(a, b)
    assert g.shape == (len(a), 1)
    assert np.max(np.abs(g - go)) < 1e-10 * max(1.0, np.max(np.abs(go)))
    with pytest.raises(ValueError):
        sp.gramian(a, sp.bspline_basis(knots, 1))


def test_gramian_skips_disjoint_pairs():
    # entry computations stay linear in the family size for B-splines
    for n in (20, 40, 80):
        bs = sp.bspline_basis(sp.equidistant_knots(0.0, 1.0, n), 3)
        d = len(bs)
        # symmetric path: only upper-triangle overlapping pairs are computed
        pairs = scipy.sparse.triu(sp.gramian(bs, sparse=True)).nnz
        assert pairs <= d * 4
        assert pairs >= d


def _noisy_tails(fam, rng):
    """Copy of ``fam`` with random last rows: they lie on no knot interval,
    so they must not enter any integral."""
    members = []
    for supp, der in fam.members:
        blocks = [b.copy() for b in der]
        for b in blocks:
            b[-1] = rng.standard_normal(b.shape[1])
        members.append((supp, blocks))
    return sp.SplineFamily(fam.knots, fam.smorder, tuple(members), fam.type)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(100, 300), k=st.integers(0, 3))
def test_gramian_matches_pairwise_oracle(seed, n, k):
    rng = np.random.default_rng(seed)
    widths = rng.uniform(0.05, 1.0, n + 1)
    knots = sp.KnotSet(np.concatenate([[0.0], np.cumsum(widths)]) / np.sum(widths))
    bs = sp.bspline_basis(knots, k)
    d = len(bs)
    coeffs = rng.standard_normal((12, d))
    for row in coeffs[1:]:
        # k + 2 or more zero coefficients in a row leave an empty interval
        # gap, so the member splits into support components
        for _ in range(2):
            lo = int(rng.integers(0, d))
            row[lo : lo + int(rng.integers(k + 2, k + 20))] = 0.0
    coeffs[0] = 0.0  # empty support after exsupp
    multi = _noisy_tails(sp.exsupp(sp.lincomb(bs, coeffs)), rng)
    assert max(len(supp) for supp, _ in multi.members) > 1
    for args in ((bs,), (multi,), (bs, multi), (multi, bs)):
        g = sp.gramian(*args)
        go = oracles.pairwise_gramian(*args)
        assert np.max(np.abs(g - go)) <= 1e-13 * np.max(np.abs(go))
        if len(args) == 1:
            assert np.array_equal(g, g.T)


def test_gramian_refuses_moments_out_of_float_range():
    """The moments reach w^(2k+1): at k = 3 over 5 internal knots of [0, b]
    the Gram matrix is b times that over [0, 1] up to rounding at b = 1e-40,
    and is refused at 1e-45, where w^7 falls below the smallest normal float
    and the Gram matrix would lose its digits, and where w^7 overflows."""
    def gram(b):
        return sp.gramian(sp.bspline_basis(sp.equidistant_knots(0.0, b, 5), 3))

    ref = gram(1.0)
    assert np.max(np.abs(gram(1e-40) - 1e-40 * ref)) <= 1e-14 * 1e-40 * np.max(np.abs(ref))
    with pytest.raises(ValueError, match=r"order-3 Gram moments underflow: the smallest knot "
                                         r"spacing, 1\.666666666666\d*e-46, to the power 7"):
        gram(1e-45)
    with pytest.raises(ValueError, match=r"order-3 Gram moments overflow: the largest knot "
                                         r"spacing, 1\.666666666666\d*e\+59, to the power 7"):
        gram(1e60)


def test_gramian_empty_support_member():
    knots = sp.equidistant_knots(0.0, 1.0, 9)
    bs = sp.bspline_basis(knots, 2)
    zero = sp.exsupp(sp.lincomb(bs, np.zeros((1, len(bs)))))
    g = sp.gramian(sp.gather(bs, zero))
    assert np.all(g[-1] == 0.0) and np.all(g[:, -1] == 0.0)


def test_gramian_sparse_needs_the_sparse_extra(monkeypatch):
    # without scipy the sparse Gram names the extra that installs it; the
    # dense one needs none
    bs = sp.bspline_basis(sp.equidistant_knots(0.0, 1.0, 8), 2)
    monkeypatch.setitem(sys.modules, "scipy.sparse", None)
    with pytest.raises(ImportError, match=r"splinet\[sparse\]"):
        sp.gramian(bs, sparse=True)
    assert sp.gramian(bs).shape == (7, 7)


def test_gramian_sparse_matches_dense():
    rng = np.random.default_rng(8)
    bs = sp.bspline_basis(oracles.random_knots(rng, 40), 3)
    coeffs = rng.standard_normal((6, len(bs)))
    coeffs[:, 10:17] = 0.0
    coeffs[0] = 0.0
    multi = sp.exsupp(sp.lincomb(bs, coeffs))
    # many full-support members against a few B-splines, each on 4
    # intervals: more products than one chunk of the kernel
    many = sp.lincomb(bs, rng.standard_normal((600, len(bs))))
    few = sp.subsample(bs, np.arange(0, len(bs), 4))
    assert len(many) * 4 * len(few) > calculus._PRODUCT_CHUNK
    for args in ((bs,), (multi,), (bs, multi), (many, few)):
        dense = sp.gramian(*args)
        g = sp.gramian(*args, sparse=True)
        c = sp.gramian(*args, _csr=True)
        assert scipy.sparse.isspmatrix_csr(g)
        assert np.array_equal(g.toarray(), dense)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(c, name), getattr(g, name))
        go = oracles.pairwise_gramian(*args)
        assert np.max(np.abs(dense - go)) <= 1e-13 * np.max(np.abs(go))
        # support-disjoint pairs are not stored
        assert g.nnz == np.count_nonzero(dense)
        if len(args) == 1:
            assert (g != g.T).nnz == 0
            # the pairs computed: the upper triangle's
            assert scipy.sparse.triu(g).nnz == np.count_nonzero(np.triu(dense))


# ---------------------------------------------------------------------------
# linear combinations


def test_lincomb_identity_and_linearity():
    rng = np.random.default_rng(1)
    knots = sp.equidistant_knots(0.0, 1.0, 11)
    bs = sp.bspline_basis(knots, 3)
    d = len(bs)
    same = sp.lincomb(bs, np.eye(d))
    grid = np.linspace(0, 1, 301)
    assert np.allclose(sp.evaluate(same, grid), sp.evaluate(bs, grid), atol=1e-15)
    c1, c2 = rng.standard_normal(d), rng.standard_normal(d)
    f12 = sp.lincomb(bs, np.vstack([c1, c2, 2 * c1 - 3 * c2]))
    v = sp.evaluate(f12, grid)
    assert np.allclose(v[:, 2], 2 * v[:, 0] - 3 * v[:, 1], atol=1e-10)
    # sparse coefficients give the same family
    sparse = sp.lincomb(bs, scipy.sparse.csc_matrix(np.vstack([c1, c2])))
    assert np.array_equal(sp.evaluate(sparse, grid), v[:, :2])


def test_lincomb_single_row_and_errors():
    knots = sp.equidistant_knots(0.0, 1.0, 9)
    bs = sp.bspline_basis(knots, 2)
    one = sp.lincomb(bs, np.ones(len(bs)))
    assert len(one) == 1
    with pytest.raises(ValueError):
        sp.lincomb(bs, np.ones(len(bs) + 1))
    with pytest.raises(ValueError):
        sp.lincomb(bs, np.ones((1, 1, len(bs))))


def test_lincomb_support_union():
    knots = sp.equidistant_knots(0.0, 1.0, 11)
    bs = sp.bspline_basis(knots, 2)
    # B-spline l lives on knots l .. l+3; a gap of one interval is merged
    for j, comps in ((6, ((0, 3), (6, 9))), (4, ((0, 7),))):
        c = np.zeros(len(bs))
        c[0] = 1.0
        c[j] = -2.0
        f = sp.lincomb(bs, c)
        assert f.members[0][0] == comps
        assert sp.is_valid_spline(f).all_ok


def test_lincomb_valid():
    rng = np.random.default_rng(2)
    knots = oracles.random_knots(rng, 13)
    bs = sp.bspline_basis(knots, 3)
    f = sp.lincomb(bs, rng.standard_normal((5, len(bs))))
    assert sp.is_valid_spline(f).all_ok


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.sampled_from(["dense", "csr", "csc", "vector"]),
       st.booleans(), st.integers(0, 2**31 - 1))
def test_lincomb_matches_loop_oracle(k, kind, valid, seed):
    """The one-pass lincomb against the per-member loop, bit for bit.

    The family is gathered with itself, so a row with +1 and -1 on a member
    and its copy cancels exactly (nonempty support, zero blocks); one row is
    all zero (empty support); the others mix sparse random coefficients, so
    supports have one-dead-interval merges and several components.  Members
    are valid splines or random rows, whose last rows are not zero.
    """
    rng = np.random.default_rng(seed)
    if valid:
        fam = oracles.lincomb_family(rng, k)
    else:
        fam = oracles.random_rows_family(rng, k)
    fam = sp.gather(fam, fam)
    d = len(fam)
    coeffs = rng.standard_normal((6, d)) * (rng.random((6, d)) < 0.4)
    coeffs[1] = 0.0
    i = int(rng.integers(0, d // 2 - 1))  # either family's last member is empty
    coeffs[2] = 0.0
    coeffs[2, [i, i + d // 2]] = (1.0, -1.0)
    if kind == "vector":
        coeffs = coeffs[int(rng.integers(0, 6))]
    elif kind != "dense":
        coeffs = getattr(scipy.sparse, kind + "_matrix")(coeffs)
    out = sp.lincomb(fam, coeffs, type="bs")
    oracles.assert_same_family(out, oracles.loop_lincomb(fam, coeffs, type="bs"))
    if kind == "dense":
        lo, hi = fam.members[i][0][0]
        assert out.members[2][0][0][0] <= lo
        assert all(not b.any() for b in out.members[2][1])
        assert not out.members[1][0]


def test_lincomb_zero_coefficients_add_no_support():
    """Zeros are dropped where coefficients enter, so a zero coefficient adds
    no support: a scipy matrix storing explicit zeros (and a pair of
    duplicates that cancel) and a dense matrix holding zeros, -0.0 among
    them, give the family of the same coefficients stored without zeros."""
    rng = np.random.default_rng(4)
    bs = sp.bspline_basis(oracles.random_knots(rng, 20), 3)
    d = len(bs)
    coeffs = rng.standard_normal((4, d)) * (rng.random((4, d)) < 0.3)
    coeffs[1] = 0.0
    coeffs[2, 5] = -0.0
    want = sp.lincomb(bs, scipy.sparse.csr_matrix(coeffs))
    assert not want.members[1][0]
    stored = scipy.sparse.csr_matrix((coeffs.ravel(), np.tile(np.arange(d), 4),
                                      np.arange(5) * d), shape=coeffs.shape)
    coo = stored.tocoo()
    cancel = scipy.sparse.coo_matrix((np.append(coo.data, [1.0, -1.0]),
                                      (np.append(coo.row, [1, 1]), np.append(coo.col, [3, 3]))),
                                     shape=coeffs.shape)
    assert stored.nnz == cancel.nnz - 2 == coeffs.size
    for c in (coeffs, stored, cancel):
        assert calculus._as_csr(c).nnz == np.count_nonzero(coeffs)
        oracles.assert_same_family(sp.lincomb(bs, c), want)


#: tracemalloc peak of lincomb(bs, P') over the bytes of its output rows
LINCOMB_PEAK_FACTOR = 5


def test_lincomb_peak_memory_bounded_by_output():
    # P' is made before tracing starts: first as splinet() passes it in (the
    # numpy container the transform holds), then dense; what lincomb
    # allocates on top stays within a small multiple of its output
    res = sp.splinet(sp.equidistant_knots(0.0, 1.0, 1535), 3)
    for pt in (res.transform.pt, res.transform.P.T.toarray()):
        tracemalloc.start()
        try:
            out = sp.lincomb(res.bs, pt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out_bytes = sum(b.nbytes for _, der in out.members for b in der)
        assert peak <= LINCOMB_PEAK_FACTOR * out_bytes, (type(pt), peak, out_bytes)


# ---------------------------------------------------------------------------
# derivative / antiderivative


def test_deriva_of_hat_is_step():
    bs = _hat_basis(9)
    d = sp.deriva(sp.subsample(bs, [3]))
    assert d.smorder == 0
    h = 0.1
    # slope +1/h on the rising interval, -1/h on the falling one
    assert sp.evaluate(d, [3 * h + h / 2])[0, 0] == pytest.approx(1 / h)
    assert sp.evaluate(d, [4 * h + h / 2])[0, 0] == pytest.approx(-1 / h)


def test_deriva_order0_raises():
    bs = sp.bspline_basis(sp.equidistant_knots(0.0, 1.0, 5), 0)
    with pytest.raises(ValueError):
        sp.deriva(bs)


def test_deriva_integra_identity_exact():
    rng = np.random.default_rng(3)
    fam = oracles.random_valid_family(rng, 12, 3, count=3)
    back = sp.deriva(sp.integra(fam))
    for i in range(len(fam)):
        assert np.array_equal(back.full_matrix(i), fam.full_matrix(i))


def test_integra_deriva_identity_on_grid():
    # boundary-condition splines vanish at the left end, so integrating the
    # derivative restores them
    rng = np.random.default_rng(4)
    fam = oracles.random_valid_family(rng, 12, 3, count=2)
    back = sp.integra(sp.deriva(fam))
    grid = np.linspace(0, 1, 501)
    scale = max(1.0, np.max(np.abs(sp.evaluate(fam, grid))))
    assert np.max(np.abs(sp.evaluate(back, grid) - sp.evaluate(fam, grid))) < 1e-9 * scale


def test_dintegra_matches_quadrature():
    rng = np.random.default_rng(5)
    knots = oracles.random_knots(rng, 10)
    bs = sp.bspline_basis(knots, 3)
    vals = sp.dintegra(bs)
    for i in range(len(bs)):
        assert vals[i] == pytest.approx(oracles.quad_integral(bs, i), abs=1e-13)


def test_dintegra_of_indicator():
    knots = sp.equidistant_knots(0.0, 1.0, 7)
    bs = sp.bspline_basis(knots, 0)
    assert np.allclose(sp.dintegra(bs), 1.0 / 8.0, atol=1e-16)


def test_dintegra_of_deriva_is_zero():
    rng = np.random.default_rng(6)
    fam = oracles.random_valid_family(rng, 14, 3, count=4)
    assert np.max(np.abs(sp.dintegra(sp.deriva(fam)))) < 1e-10


@pytest.mark.parametrize("equid", [True, False])
def test_weights_and_moments_keep_their_bits(equid):
    """The interval weights and the Gram moment blocks, from the one
    factorial table, equal power by power the formulas over integer
    factorials: ``w^(p+1) / (p+1)!`` and ``w^e / (e p! q!)``, ``e = p+q+1``."""
    rng = np.random.default_rng(29)
    xi = (sp.equidistant_knots(0.0, 1.0, 21) if equid else oracles.random_knots(rng, 21)).xi
    w = np.diff(xi)[:, None, None]
    for k in range(7):
        assert np.array_equal(calculus._interval_weights(xi, k),
                              oracles.interval_weights(xi, k).ravel())
        e = np.arange(k + 1)[:, None] + np.arange(k + 1) + 1
        fact = np.array([math.factorial(j) for j in range(k + 1)], dtype=float)
        assert np.array_equal(calculus._moment_blocks(xi, k), w ** e / (e * np.outer(fact, fact)))


@pytest.mark.parametrize("source", ["zero_lincomb", "empty"])
def test_dintegra_is_float_without_support(source):
    """Members without support integrate to float zeros, as all others do."""
    knots = sp.equidistant_knots(0.0, 1.0, 6)
    os = sp.splinet(knots, 2).os
    fam = (sp.lincomb(os, np.zeros((2, len(os)))) if source == "zero_lincomb"
           else sp.empty_family(knots, 2))
    vals = sp.dintegra(fam)
    assert vals.dtype == np.float64 and vals.tolist() == [0.0] * len(fam)


def test_integra_extends_support_for_nonzero_integral():
    knots = sp.equidistant_knots(0.0, 1.0, 11)
    bs = sp.bspline_basis(knots, 2)
    prim = sp.integra(sp.subsample(bs, [2]))
    (lo, hi), = prim.members[0][0]
    # the running integral stays at a positive constant to the right
    assert hi == len(knots) - 1
    assert sp.evaluate(prim, [1.0])[0, 0] == pytest.approx(sp.dintegra(bs)[2])


def test_integra_keeps_support_for_zero_integral():
    bs = _hat_basis(11)
    # B_2 - B_7 integrates to zero: antiderivative support ends after B_7
    c = np.zeros(len(bs))
    c[2], c[7] = 1.0, -1.0
    prim = sp.integra(sp.lincomb(bs, c))
    (lo, hi), = prim.members[0][0]
    assert hi == 9  # last knot of the second hat, not the range end
    assert sp.is_valid_spline(prim).all_ok


@pytest.mark.parametrize("family", ["bs", "os"])
def test_integra_end_values_match_dintegra(family):
    # d = 189: large derivative entries must not truncate the running
    # integral of a member whose integral is small next to them
    res = sp.splinet(sp.equidistant_knots(0.0, 1.0, 191), 3)
    fam = res.bs if family == "bs" else res.os
    ends = sp.evaluate(sp.integra(fam), [1.0])[0]
    dint = sp.dintegra(fam)
    assert np.max(np.abs(ends - dint)) <= 1e-12 * np.max(np.abs(dint))


def test_integra_is_antiderivative_on_grid():
    rng = np.random.default_rng(7)
    fam = oracles.random_valid_family(rng, 10, 2)
    prim = sp.integra(fam)
    xs = np.linspace(0, 1, 2001)
    vals = sp.evaluate(fam, xs)[:, 0]
    running = np.concatenate([[0.0], np.cumsum((vals[1:] + vals[:-1]) / 2 * np.diff(xs))])
    assert np.max(np.abs(sp.evaluate(prim, xs)[:, 0] - running)) < 1e-5


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.sampled_from(["lincomb", "deriva", "rows", "rows_nan"]),
       st.integers(0, 2**31 - 1))
def test_integra_matches_loop_oracle(k, source, seed):
    """integra, one pass over the stacked rows, against the per-member loop
    with its own interval weights ``w^(p+1) / (p+1)!``, bit for bit, on
    irregular knots: members of several components whose integrals end
    nonzero (the antiderivative joins them) or at zero (derivatives of
    splines), rows that are not splines, with signed zeros and a NaN, and
    empty supports."""
    rng = np.random.default_rng(seed)
    if source.startswith("rows"):
        fam = oracles.random_rows_family(rng, k)
        members = [(supp, [np.where(b == 0.0, -0.0, b) for b in der])
                   for supp, der in fam.members]
        if source == "rows_nan":
            members[0][1][0][0, 0] = np.nan
        fam = sp.SplineFamily(fam.knots, k, tuple(members))
    elif source == "deriva":
        fam = sp.deriva(oracles.lincomb_family(rng, k + 1))
    else:
        fam = oracles.lincomb_family(rng, k)
    oracles.assert_same_family(sp.integra(fam), oracles.loop_integra(fam))
