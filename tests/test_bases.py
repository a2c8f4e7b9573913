import re
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import splinet as sp
from splinet.bases import (
    BASIS_TYPES,
    SPD_SHIFT,
    _check_spd,
    _cho_solve_banded,
    _cholesky_banded,
    _dyadic,
    _gsob,
    _net_complete,
    _truncate,
    _twob,
    diagonalize_gram,
)

import oracles


# ---------------------------------------------------------------------------
# B-splines


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_bspline_count_and_support(k):
    n = 3 * k + 5
    knots = sp.equidistant_knots(0.0, 1.0, n)
    bs = sp.bspline_basis(knots, k)
    assert len(bs) == n - k + 1
    for l, (supp, _) in enumerate(bs.members):
        assert supp == ((l, l + k + 1),)
    assert sp.is_valid_spline(bs).all_ok


def test_bspline_too_few_knots():
    with pytest.raises(ValueError):
        sp.bspline_basis(sp.equidistant_knots(0.0, 1.0, 2), 3)


@pytest.mark.parametrize("k", [-1, 2.5, True, None, "3"])
def test_order_must_be_a_nonnegative_integer(k):
    # one rule for the order: bspline_basis (so splinet) and net_layout
    # refuse it by name; -1 used to fail reshaping and 2.5 with a TypeError
    knots = sp.equidistant_knots(0.0, 1.0, 10)
    for call in (lambda: sp.bspline_basis(knots, k), lambda: sp.splinet(knots, k),
                 lambda: sp.net_layout(10, k)):
        with pytest.raises(ValueError, match="order k must be an integer >= 0; got %s"
                           % re.escape(repr(k))):
            call()


def test_order_integral_float_accepted():
    knots = sp.equidistant_knots(0.0, 1.0, 10)
    oracles.assert_same_family(sp.bspline_basis(knots, 3.0), sp.bspline_basis(knots, 3))
    assert sp.net_layout(10, 3.0) == sp.net_layout(10, 3)
    res = sp.splinet(knots, np.float64(3.0))
    assert res.os.smorder == 3 and res.net == sp.net_layout(10, 3)


@pytest.mark.parametrize("k, b", [(3, 1e-300), (2, 1e-200), (5, 1e-70)])
def test_bspline_overflow_raises(k, b):
    # a derivative of order j scales like 1/h**j: once 1/h**k overflows the
    # recursion is refused with the order and h named, and numpy warns nothing
    knots = sp.equidistant_knots(0.0, b, 5)
    h = float(np.min(np.diff(knots.xi)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            sp.bspline_basis(knots, k)
    assert str(err.value) == ("order-%d B-spline derivatives overflow: the smallest knot "
                              "spacing, %r, is too small" % (k, h))
    # a spacing whose 1/h**k is a float still builds
    assert np.all(np.isfinite(sp.bspline_basis(sp.equidistant_knots(0.0, 1e-50, 5), k).rows))


def test_bspline_partition_of_unity():
    for n, k in [(9, 2), (12, 3), (15, 1), (10, 0), (14, 4)]:
        knots = sp.equidistant_knots(0.0, 2.0, n)
        bs = sp.bspline_basis(knots, k)
        xi = knots.xi
        grid = np.linspace(xi[k], xi[n + 1 - k], 400, endpoint=False)
        s = sp.evaluate(bs, grid).sum(axis=1)
        assert np.max(np.abs(s - 1.0)) < 1e-12


def test_bspline_nonequidistant_matches_quadrature_hats():
    rng = np.random.default_rng(0)
    knots = oracles.random_knots(rng, 8)
    bs = sp.bspline_basis(knots, 1)
    xi = knots.xi
    # hat i peaks at value 1 at knot i+1
    for i in range(len(bs)):
        assert sp.evaluate(bs, [xi[i + 1]])[0, i] == pytest.approx(1.0)


def test_bspline_equidistant_members_are_translates():
    knots = sp.equidistant_knots(0.0, 1.0, 11)
    bs = sp.bspline_basis(knots, 3)
    h = knots.xi[1] - knots.xi[0]
    grid = np.linspace(0, 4 * h, 200)
    v0 = sp.evaluate(sp.subsample(bs, [0]), grid)[:, 0]
    v3 = sp.evaluate(sp.subsample(bs, [3]), grid + 3 * h)[:, 0]
    assert np.allclose(v0, v3, atol=1e-13)


def test_bspline_normalized_unit_norm():
    knots = sp.equidistant_knots(0.0, 1.0, 10)
    bs = sp.bspline_basis(knots, 2, normalize=True)
    assert np.allclose(np.diag(sp.gramian(bs)), 1.0, atol=1e-12)


def test_bspline_matches_scipy():
    from scipy.interpolate import BSpline

    rng = np.random.default_rng(1)
    knots = oracles.random_knots(rng, 9)
    k = 3
    bs = sp.bspline_basis(knots, k)
    xi = knots.xi
    grid = np.linspace(xi[0], xi[-1], 500, endpoint=False)
    vals = sp.evaluate(bs, grid)
    for l in range(len(bs)):
        ref = BSpline.basis_element(xi[l : l + k + 2], extrapolate=False)(grid)
        ref = np.nan_to_num(ref)
        assert np.max(np.abs(vals[:, l] - ref)) < 1e-10


# ---------------------------------------------------------------------------
# dyadic net layout


def test_net_layout_example():
    net = sp.net_layout(3, 1)  # d = 3, tuples of size 1
    assert _net_complete(net, 1)
    assert net == (((0,), (2,)), ((1,),))
    net0 = sp.net_layout(2, 0)  # order 0 also has tuples of size 1
    assert _net_complete(net0, 0) and net0 == net


def test_net_layout_k3_complete():
    # n = 3*2^2 - 1 = 11, d = 9, three tuples of size 3 on two levels
    net = sp.net_layout(11, 3)
    assert _net_complete(net, 3)
    assert net == ((((0, 1, 2)), ((6, 7, 8))), (((3, 4, 5)),))
    assert len(net) == 2


def test_net_layout_incomplete():
    net = sp.net_layout(12, 3)  # d = 10: trailing tuple of size 1
    assert not _net_complete(net, 3)
    assert [t for lv in net for t in lv][-1] == (9,)
    assert not _net_complete(sp.net_layout(14, 3), 3)  # 4 full tuples != 2^N - 1


def test_net_layout_complete_sizes():
    for nn in range(1, 6):
        for k in (1, 2, 3):
            n = k * 2**nn - 1
            net = sp.net_layout(n, k)
            assert _net_complete(net, k) and len(net) == nn
            assert [len(lv) for lv in net] == [2 ** (nn - 1 - i) for i in range(nn)]


@pytest.mark.parametrize("k", range(7))
def test_net_layout_level_tuples_more_than_k_apart(k):
    # the invariant that lets kernel 2 solve a whole level at once: H's band
    # reaches k off the diagonal, and two tuples of one level lie more than
    # k indices apart, so they never share a run of seen indices; the net
    # lays out each index once
    for d in range(1, 300):
        net = sp.net_layout(d + k - 1, k)
        laid = sorted(i for lv in net for t in lv for i in t)
        assert laid == list(range(d))
        for lv in net:
            assert all(len(t) and list(t) == list(range(t[0], t[-1] + 1)) for t in lv)
            assert all(b[0] - a[-1] > k for a, b in zip(lv, lv[1:]))


# ---------------------------------------------------------------------------
# Gram diagonalization


def test_gsob_2x2_closed_form():
    # Gram matrix [[1, 1/2], [1/2, 1]] -> inverse-transpose Cholesky
    h = np.array([[1.0, 0.5], [0.5, 1.0]])
    tr = diagonalize_gram(h, "gsob")
    p = tr.P.toarray()
    expect = np.array([[1.0, -1.0 / np.sqrt(3.0)], [0.0, 2.0 / np.sqrt(3.0)]])
    assert np.allclose(p, expect, atol=1e-14)
    assert np.allclose(p.T @ h @ p, np.eye(2), atol=1e-14)


@pytest.mark.parametrize("method", ["gsob", "twob", "dyadic"])
@pytest.mark.parametrize("n, k", [(11, 3), (9, 2), (10, 2), (7, 1), (23, 3)])
def test_diagonalize_gram_identity(method, n, k):
    bs = sp.bspline_basis(sp.equidistant_knots(0.0, 1.0, n), k)
    h = sp.gramian(bs)
    tr = diagonalize_gram(h, method, k)
    assert np.max(np.abs(tr.P.T @ h @ tr.P - np.eye(len(bs)))) < 1e-10


def test_gsob_is_triangular():
    bs = sp.bspline_basis(sp.equidistant_knots(0.0, 1.0, 12), 3)
    tr = diagonalize_gram(sp.gramian(bs), "gsob")
    p = tr.P.toarray()
    assert np.allclose(p, np.triu(p))
    d = len(bs)
    assert tr.nnz == d * (d + 1) // 2


def test_twob_sparsity_bound():
    # the two-sided transform is one-sided column by column except near the
    # middle, where entries decay geometrically (rate ~0.54/index for cubics);
    # the quarter-fill bound therefore holds once truncation can remove the
    # middle tails, i.e. for large enough d at each order
    for n, k in [(20, 1), (33, 1), (81, 2), (100, 3), (120, 3)]:
        bs = sp.bspline_basis(sp.equidistant_knots(0.0, 1.0, n), k)
        tr = diagonalize_gram(sp.gramian(bs), "twob")
        d = len(bs)
        assert tr.nnz <= d * (d + 2) / 4 + d


def test_nnz_ordering():
    # dyadic sparsest, one-sided densest
    for n, k in [(47, 3), (95, 3), (31, 2), (63, 2)]:
        bs = sp.bspline_basis(sp.equidistant_knots(0.0, 1.0, n), k)
        h = sp.gramian(bs)
        nnz_g = diagonalize_gram(h, "gsob").nnz
        nnz_t = diagonalize_gram(h, "twob").nnz
        nnz_d = diagonalize_gram(h, "dyadic", k).nnz
        assert nnz_d < nnz_t < nnz_g


def test_dyadic_toeplitz_matches_general():
    for nn in (3, 4, 5):
        n = 3 * 2**nn - 1
        knots = sp.equidistant_knots(0.0, 1.0, n)
        bs = sp.bspline_basis(knots, 3)
        h = sp.gramian(bs)
        net = sp.net_layout(n, 3)
        fast = _dyadic(oracles.lower_band(h, 3), net, toeplitz=True).P.toarray()
        slow = _dyadic(oracles.lower_band(h, 3), net, toeplitz=False).P.toarray()
        scale = np.max(np.abs(slow))
        assert np.max(np.abs(fast - slow)) < 1e-12 * scale


def _assert_matches_oracle(tr, oracle):
    p, nnz = oracle
    assert np.max(np.abs(tr.P.toarray() - p)) <= 1e-12 * np.max(np.abs(p))
    assert tr.nnz == nnz


def _assert_orthonormal(tr, h):
    hs = scipy.sparse.csr_matrix(h)
    err = abs(tr.P.T @ hs @ tr.P - scipy.sparse.identity(h.shape[0]))
    assert err.max() <= 1e-10


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(0, 5), extra=st.integers(0, 300))
def test_transform_matches_envelope_oracle(seed, k, extra):
    # random knots: every scheme against the dense envelope/Cholesky oracle,
    # from d = 1 and the zero band of k = 0 up (n = k gives d = 1; twob's
    # first pair is within k when d <= k + 1)
    n = k + extra
    rng = np.random.default_rng(seed)
    widths = rng.uniform(0.05, 1.0, n + 1)
    knots = sp.KnotSet(np.concatenate([[0.0], np.cumsum(widths)]) / np.sum(widths))
    h = sp.gramian(sp.bspline_basis(knots, k))
    net = sp.net_layout(n, k)
    for method in ("gsob", "twob", "dyadic"):
        tr = diagonalize_gram(h, method, k)
        _assert_matches_oracle(tr, oracles.dense_diagonalize(h, method, k, net))
        _assert_orthonormal(tr, h)
    # complete equidistant net of about the same size, 2^N - 1 tuples of
    # max(k, 1) indices: the Toeplitz path
    size = max(k, 1)
    n_c = size * (2 ** max(1, int(np.log2((n - k + 1) / size + 1))) - 1) + k - 1
    h = sp.gramian(sp.bspline_basis(sp.equidistant_knots(0.0, 1.0, n_c), k))
    net = sp.net_layout(n_c, k)
    assert _net_complete(net, k)
    tr = diagonalize_gram(h, "dyadic", k)
    _assert_matches_oracle(tr, oracles.dense_diagonalize(h, "dyadic", k, net, toeplitz=True))
    _assert_orthonormal(tr, h)


def test_transform_p_needs_the_sparse_extra(monkeypatch):
    # without scipy, P names the extra that installs it; the numpy arrays of
    # P' still serve
    h = sp.gramian(sp.bspline_basis(sp.equidistant_knots(0.0, 1.0, 8), 2))
    monkeypatch.setitem(sys.modules, "scipy.sparse", None)
    tr = diagonalize_gram(h, "gsob")
    with pytest.raises(ImportError, match=r"splinet\[sparse\]"):
        tr.P
    assert np.allclose(tr.pt.toarray() @ h @ tr.pt.toarray().T, np.eye(7), atol=1e-12)


@pytest.mark.parametrize("k", range(6))
def test_twob_matches_envelope_oracle_at_every_middle(k):
    # d = 1..2k+4 on irregular knots: all pairs within k (d <= k + 1), far
    # pairs then a middle pair within k, far pairs then a centre index
    rng = np.random.default_rng(40 + k)
    for d in range(1, 2 * k + 5):
        widths = rng.uniform(0.2, 1.0, d + k)
        knots = sp.KnotSet(np.concatenate([[0.0], np.cumsum(widths)]) / np.sum(widths))
        h = sp.gramian(sp.bspline_basis(knots, k))
        tr = diagonalize_gram(h, "twob")
        _assert_matches_oracle(tr, oracles.dense_diagonalize(h, "twob", k))
        _assert_orthonormal(tr, h)


def test_diagonalize_gram_validation():
    with pytest.raises(ValueError):
        diagonalize_gram(np.array([[1.0, 2.0], [0.0, 1.0]]), "gsob")  # asymmetric
    with pytest.raises(ValueError):
        diagonalize_gram(np.array([[1.0, 2.0], [2.0, 1.0]]), "gsob")  # indefinite
    with pytest.raises(ValueError, match="finite"):
        diagonalize_gram(np.array([[1.0, np.nan], [np.nan, 1.0]]), "gsob")
    h = np.eye(3)
    with pytest.raises(ValueError):
        diagonalize_gram(h, "dyadic")  # needs the order
    with pytest.raises(ValueError):
        diagonalize_gram(h, "qr")


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_check_spd_symmetry_is_scale_free(scale):
    # H - H' is measured against H's own largest entry; below scale 1 it used
    # to be measured against 1
    h = scale * np.array([[1.0, 0.5], [0.25, 1.0]])
    for form in (h, scipy.sparse.csr_matrix(h)):
        with pytest.raises(ValueError, match="symmetric"):
            _check_spd(form)
    h[1, 0] = h[0, 1] * (1.0 + 1e-12)
    assert np.allclose(_check_spd(h), [[scale, scale], [0.5 * scale, 0.0]], rtol=1e-11, atol=0)
    with pytest.raises(ValueError, match="not positive definite"):
        _check_spd(np.zeros((3, 3)))


def test_check_spd_banded_path():
    # large banded matrix goes through the banded Cholesky test
    bs = sp.bspline_basis(sp.equidistant_knots(0.0, 1.0, 60), 2)
    h = sp.gramian(bs)
    assert _check_spd(h) is not None
    h2 = h.copy()
    h2[30, 30] = -1.0
    with pytest.raises(ValueError):
        _check_spd(h2)


def test_dyadic_order_must_be_a_nonnegative_integer():
    # the dyadic scheme lays out its net from the order, read by the one
    # order rule; a missing, bool, fractional or negative one is refused
    h = sp.gramian(sp.bspline_basis(sp.equidistant_knots(0.0, 1.0, 7), 3))
    for k in (None, True, 2.5, -1):
        with pytest.raises(ValueError, match="order k must be an integer >= 0; got %s"
                           % re.escape(repr(k))):
            diagonalize_gram(h, "dyadic", k)
    assert np.array_equal(diagonalize_gram(h, "dyadic", 3.0).pt.toarray(),
                          diagonalize_gram(h, "dyadic", 3).pt.toarray())


@pytest.mark.parametrize("d", [50, 150])  # one Cholesky block, three
def test_check_spd_tau_shift(d):
    # positive definite, but the smallest eigenvalue below tau: rejected
    below, above = oracles.tridiagonal_near_tau(d, 0.5), oracles.tridiagonal_near_tau(d, 2.0)
    for h, ratio in ((below, 0.5), (above, 2.0)):
        tau = SPD_SHIFT * np.trace(h)
        assert np.linalg.eigvalsh(h)[0] == pytest.approx(ratio * tau, rel=1e-3)
    for h in (below, scipy.sparse.csr_matrix(below)):
        with pytest.raises(ValueError, match="not positive definite"):
            _check_spd(h)
    with pytest.raises(ValueError, match="not positive definite"):
        _cholesky_banded(oracles.lower_band(below, 1), SPD_SHIFT * np.trace(below))
    _cholesky_banded(oracles.lower_band(below, 1))
    assert np.array_equal(_check_spd(scipy.sparse.csr_matrix(above)), oracles.lower_band(above, 1))
    _cholesky_banded(oracles.lower_band(above, 1), SPD_SHIFT * np.trace(above))


@pytest.mark.parametrize("w, d", [(0, 1), (0, 70), (1, 2), (2, 64), (3, 65), (3, 200),
                                  (5, 130), (70, 150)])
def test_banded_cholesky_solve_matches_dense(w, d):
    # block edges, a short last block and a band wider than a block
    rng = np.random.default_rng(w * 1000 + d)
    a = rng.standard_normal((d, d))
    h = np.triu(np.tril(a @ a.T, w), -w) + 3.0 * d * np.eye(d)
    b = rng.standard_normal((d, 3))
    factors = _cholesky_banded(oracles.lower_band(h, w))
    ref = np.linalg.solve(h, b)
    assert np.max(np.abs(_cho_solve_banded(factors, b) - ref)) <= 1e-12 * np.max(np.abs(ref))
    one = _cho_solve_banded(factors, b[:, 0])
    assert np.max(np.abs(one - ref[:, 0])) <= 1e-12 * np.max(np.abs(ref))
    # the blocks multiply back to H
    low = np.zeros((d, d))
    e = 0
    for f, lead in factors:
        s, e = e, e + f.shape[0] - lead
        low[s:e, s - lead : e] = f[lead:]
    assert np.max(np.abs(low @ low.T - h)) <= 1e-12 * np.max(np.abs(h))


# ---------------------------------------------------------------------------
# splinet


@pytest.mark.parametrize("type", ["spnt", "gsob", "twob"])
@pytest.mark.parametrize("n, k", [(11, 3), (13, 2), (8, 1), (20, 3)])
def test_splinet_orthonormal(type, n, k):
    res = sp.splinet(sp.equidistant_knots(0.0, 1.0, n), k, type=type)
    g = sp.gramian(res.os)
    assert np.max(np.abs(g - np.eye(len(res.os)))) < 1e-10
    assert sp.is_valid_spline(res.os).all_ok


def test_splinet_nonequidistant_orthonormal():
    rng = np.random.default_rng(2)
    knots = oracles.random_knots(rng, 11)
    for type in ("spnt", "gsob", "twob"):
        res = sp.splinet(knots, 3, type=type)
        g = sp.gramian(res.os)
        assert np.max(np.abs(g - np.eye(len(res.os)))) < 1e-9


def test_twob_runtime_guard():
    # the two-sided scheme on irregular knots at d = 1533: every column stays
    # on the rows of its decay length
    rng = np.random.default_rng(5)
    widths = rng.uniform(0.5, 1.5, 1536)
    knots = sp.KnotSet(np.concatenate([[0.0], np.cumsum(widths)]) / np.sum(widths))
    t0 = time.perf_counter()
    res = sp.splinet(knots, 3, type="twob")
    total = time.perf_counter() - t0
    assert len(res.os) == 1533
    assert total < 5.0, total


def test_splinet_type_tags():
    assert sp.splinet(sp.equidistant_knots(0.0, 1.0, 11), 3).os.type == "dspnt"
    assert sp.splinet(sp.equidistant_knots(0.0, 1.0, 12), 3).os.type == "spnt"
    res = sp.splinet(sp.equidistant_knots(0.0, 1.0, 12), 3, type="bs")
    assert res.os is None and res.transform is None and res.bs.type == "bs"


def test_splinet_spans_same_space():
    # the orthonormal family spans the B-splines: projecting B-splines back
    # reproduces them exactly
    res = sp.splinet(sp.equidistant_knots(0.0, 1.0, 11), 3)
    c = sp.gramian(res.bs, res.os)
    back = sp.lincomb(res.os, c)
    grid = np.linspace(0, 1, 301)
    assert np.max(np.abs(sp.evaluate(back, grid) - sp.evaluate(res.bs, grid))) < 1e-10


def test_splinet_toeplitz_flag_agrees():
    knots = sp.equidistant_knots(0.0, 1.0, 23)
    a = sp.splinet(knots, 3)
    h = sp.gramian(a.bs)
    b = _truncate(_dyadic(oracles.lower_band(h, 3), a.net, toeplitz=False))
    scale = np.max(np.abs(b.P.toarray()))
    assert np.max(np.abs(a.transform.P.toarray() - b.P.toarray())) < 1e-12 * scale


@pytest.mark.parametrize("type, use_toeplitz, equid", [
    ("dspnt", True, True), ("dspnt", False, True), ("spnt", None, False),
    ("gsob", None, False), ("twob", None, False)])
def test_splinet_sparse_gram_archive_matches_dense_route(type, use_toeplitz, equid):
    # splinet() hands the sparse Gram to diagonalize_gram; the dense Gram
    # gives the same transform and, through the dense P', the same archive
    rng = np.random.default_rng(11)
    # 45 members make a complete net, 46 do not
    knots = sp.equidistant_knots(0.0, 1.0, 47) if equid else oracles.random_knots(rng, 48)
    res = sp.splinet(knots, 3, type=type)
    sparse_os, sparse_tr = res.os, res.transform
    h = sp.gramian(res.bs)
    if type in ("dspnt", "spnt"):
        if use_toeplitz is False:
            # splinet() takes the Toeplitz path on these knots: run the
            # general one on the sparse Gram as splinet() would
            sparse_tr = _truncate(_dyadic(_check_spd(sp.gramian(res.bs, sparse=True)), res.net))
            sparse_os = sp.lincomb(res.bs, sparse_tr.P.T.toarray(), type=type)
        tr = _truncate(_dyadic(oracles.lower_band(h, 3), res.net, toeplitz=bool(use_toeplitz)))
    else:
        tr = diagonalize_gram(h, type)
    dense = sp.lincomb(res.bs, tr.P.T.toarray(), type=res.os.type)
    assert res.os.type == type
    assert tr.nnz == sparse_tr.nnz
    assert oracles.archive_text(sparse_os, res.net) == oracles.archive_text(dense, res.net)


@pytest.mark.parametrize("type", BASIS_TYPES)
def test_splinet_archive_matches_dense_pt_route(type):
    # splinet() hands lincomb P' in the container the transform holds; the
    # dense P' gives the same archive, byte for byte
    rng = np.random.default_rng(11)
    # 45 members make a complete net, 46 do not
    knots = sp.equidistant_knots(0.0, 1.0, 47) if type == "dspnt" else oracles.random_knots(rng, 48)
    res = sp.splinet(knots, 3, type=type)
    if type == "bs":
        # no P: the B-splines are written as every other type builds them
        assert res.os is None and res.transform is None
        other = sp.splinet(knots, 3, type="gsob").bs
        assert oracles.archive_text(res.bs, res.net) == oracles.archive_text(other, res.net)
        return
    assert res.os.type == type
    dense = sp.lincomb(res.bs, res.transform.pt.toarray(), type=type)
    assert oracles.archive_text(res.os, res.net) == oracles.archive_text(dense, res.net)


def _perturbed_knots(n, seed=3):
    """n internal knots whose widths are 1/(n+1) perturbed by 2e-9 relative:
    equidistant to ``EPS_EQUID``, but their Gram matrix is not Toeplitz."""
    rng = np.random.default_rng(seed)
    widths = (1.0 + 2e-9 * rng.uniform(-1.0, 1.0, n + 1)) / (n + 1)
    return sp.KnotSet(np.concatenate([[0.0], np.cumsum(widths)]))


def _irregular_knots(n, seed=5):
    widths = np.random.default_rng(seed).uniform(0.5, 1.5, n + 1)
    return sp.KnotSet(np.concatenate([[0.0], np.cumsum(widths)]) / np.sum(widths))


def test_splinet_near_equidistant_orthonormal():
    # the widths pass the equidistance test; translating one tuple per level
    # on these knots gave a basis orthonormal only to 3.7e-9
    n = 3 * 2**6 - 1
    knots = _perturbed_knots(n)
    assert knots.equid
    res = sp.splinet(knots, 3)
    assert np.max(np.abs(sp.gramian(res.os) - np.eye(len(res.os)))) <= 1e-10


_PATH_CASES = [("unit", True), ("shifted", True), ("irregular", False), ("perturbed", False)]


@pytest.mark.parametrize("d, kind, toeplitz", [
    (d, kind, toeplitz) for d in (1533, 6141) for kind, toeplitz in _PATH_CASES
] + [(24573, kind, toeplitz) for kind, toeplitz in _PATH_CASES[:2]])
def test_dyadic_path_read_off_the_gram(monkeypatch, d, kind, toeplitz):
    # the Toeplitz path is taken exactly when H's band is Toeplitz: on
    # equidistant knots over [0, 1] and [0.9, 2.9], not on irregular or
    # perturbed ones
    n = d + 2
    knots = {"unit": lambda: sp.equidistant_knots(0.0, 1.0, n),
             "shifted": lambda: sp.equidistant_knots(0.9, 2.9, n),
             "irregular": lambda: _irregular_knots(n),
             "perturbed": lambda: _perturbed_knots(n)}[kind]()
    taken = []

    def spy(ab, net, toeplitz=False):
        taken.append(toeplitz)
        return _dyadic(ab, net, toeplitz)

    monkeypatch.setattr(sp.bases, "_dyadic", spy)
    h = sp.gramian(sp.bspline_basis(knots, 3), sparse=True)
    diagonalize_gram(h, "dyadic", 3)
    assert taken == [toeplitz]


def test_dyadic_order_narrower_than_band_refused():
    # tuples of one index over a Gram of band 2: two tuples of a level would
    # be coupled by H, so neither one solve per level nor translating tuple
    # (0,) to (2,) would hold; the order that built H is taken
    h = sp.gramian(sp.bspline_basis(sp.equidistant_knots(0.0, 1.0, 8), 2))
    assert h.shape == (7, 7)
    for k in (0, 1):
        with pytest.raises(ValueError, match="order-%d tuples are narrower than the gram "
                           "matrix's band, which reaches 2 entries off the diagonal" % k):
            diagonalize_gram(h, "dyadic", k)
    tr = diagonalize_gram(h, "dyadic", 2)
    _assert_orthonormal(tr, h)
    _assert_matches_oracle(tr, oracles.dense_diagonalize(h, "dyadic", 2, sp.net_layout(8, 2)))


def test_splinet_supports_grow_by_level():
    res = sp.splinet(sp.equidistant_knots(0.0, 1.0, 23), 3)
    sizes = []
    for lv in res.net:
        idx = [i for tup in lv for i in tup]
        spans = [sum(hi - lo for lo, hi in res.os.members[i][0]) for i in idx]
        sizes.append(max(spans))
    # deeper levels have geometrically wider supports
    assert sizes[0] < sizes[1] < sizes[2]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.integers(0, 25), st.booleans(), st.integers(0, 2**31 - 1))
def test_bspline_basis_matches_loop_oracle(k, extra, equid, seed):
    """The order-raising recursion over all members at once against the
    per-member loop, bit for bit, on equidistant and irregular knots."""
    rng = np.random.default_rng(seed)
    n = k + extra
    knots = sp.equidistant_knots(0.0, 1.0, n) if equid else oracles.random_knots(rng, n)
    oracles.assert_same_family(sp.bspline_basis(knots, k), oracles.loop_bspline_basis(knots, k))


# ---------------------------------------------------------------------------
# memory and locality at large d


def _traced_peak(fn):
    """``fn()`` and the ``tracemalloc`` peak of the call."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _stored_bytes(pt):
    return pt.data.nbytes + pt.indices.nbytes + pt.indptr.nbytes


#: tracemalloc peak of splinet() at d = 24573 over its output family's row
#: bytes plus P's stored bytes (measured 2.7 on both dyadic paths)
SPLINET_PEAK_FACTOR = 4

#: tracemalloc peak of diagonalize_gram() over P's stored bytes (measured 4.4
#: for gsob and 4.1 for twob at d = 1533 and 6141)
DIAGONALIZE_PEAK_FACTOR = 8


@pytest.mark.parametrize("equid", [True, False])
def test_splinet_large_d_memory_bounded_by_output(equid):
    # d = 3 * 2^13 - 3 = 24573, a complete net: the Toeplitz path on
    # equidistant knots, the general dyadic path on irregular ones.  A d x d
    # array (P' or the Gram) would take 4.8 GB
    n = 3 * 2**13 - 1
    knots = sp.equidistant_knots(0.0, 1.0, n) if equid else oracles.random_knots(
        np.random.default_rng(12), n)
    t0 = time.perf_counter()
    sp.splinet(knots, 3)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, elapsed  # measured 0.4 s and 1.3 s
    res, peak = _traced_peak(lambda: sp.splinet(knots, 3))
    assert len(res.os) == 24573 and res.os.type == "dspnt"
    out_bytes = res.os.rows.nbytes + _stored_bytes(res.transform.pt)
    assert peak <= SPLINET_PEAK_FACTOR * out_bytes, (peak, out_bytes)


def test_gsob_twob_columns_trimmed_to_decay_length():
    # the entries of a band matrix's inverse (and of its inverse Cholesky
    # factor) decay exponentially away from the diagonal, so a column of P
    # is as long before truncation at d = 6141 as at d = 1533; where an
    # entry first drops below the working trim moves by a row with the knots
    longest = {}
    for d in (1533, 6141):
        knots = oracles.random_knots(np.random.default_rng(0), d + 2)
        h = sp.gramian(sp.bspline_basis(knots, 3), sparse=True)
        ab = _check_spd(h)
        for method, scheme in (("gsob", _gsob), ("twob", _twob)):
            longest[method, d] = int(np.diff(scheme(ab).pt.indptr).max())
            tr, peak = _traced_peak(lambda: diagonalize_gram(h, method))
            assert peak <= DIAGONALIZE_PEAK_FACTOR * _stored_bytes(tr.pt), (method, d, peak)
    for method in ("gsob", "twob"):
        assert longest[method, 1533] < 200, longest
        assert abs(longest[method, 6141] - longest[method, 1533]) <= 2, longest
