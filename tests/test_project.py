import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splinet as sp
import splinet.bases
import splinet.project

import oracles


def _family(n=12, k=3, count=3, seed=0):
    rng = np.random.default_rng(seed)
    return oracles.random_valid_family(rng, n, k, count=count)


# ---------------------------------------------------------------------------
# projection of spline families


def test_project_identity_on_own_knots():
    fam = _family()
    pr = sp.project_splines(fam)
    grid = np.linspace(0, 1, 401)
    assert np.max(np.abs(sp.evaluate(pr.sp, grid) - sp.evaluate(fam, grid))) < 1e-9


def test_project_residual_orthogonality():
    fam = _family(n=14, count=2, seed=1)
    coarse = sp.equidistant_knots(0.0, 1.0, 6)
    pr = sp.project_splines(fam, coarse, type="spnt")
    union = sp.KnotSet(np.union1d(fam.knots.xi, coarse.xi))
    fam_u = sp.refine(fam, union)
    proj_u = sp.refine(pr.sp, union)
    basis_u = sp.refine(pr.basis, union)
    resid = sp.lincomb(sp.gather(fam_u, proj_u),
                       np.hstack([np.eye(2), -np.eye(2)]))
    # residual is orthogonal to the whole target space
    g = sp.gramian(resid, basis_u)
    assert np.max(np.abs(g)) < 1e-8


def test_project_idempotent():
    fam = _family(n=14, count=2, seed=2)
    coarse = sp.equidistant_knots(0.0, 1.0, 6)
    pr = sp.project_splines(fam, coarse)
    pr2 = sp.project_splines(pr.sp, coarse)
    assert np.max(np.abs(pr2.coeff - pr.coeff)) < 1e-10


def test_project_pythagoras():
    fam = _family(n=14, count=1, seed=3)
    coarse = sp.equidistant_knots(0.0, 1.0, 6)
    pr = sp.project_splines(fam, coarse)
    union = sp.KnotSet(np.union1d(fam.knots.xi, coarse.xi))
    fam_u, proj_u = sp.refine(fam, union), sp.refine(pr.sp, union)
    norm2 = float(sp.gramian(fam_u)[0, 0])
    pnorm2 = float(sp.gramian(proj_u)[0, 0])
    resid = sp.lincomb(sp.gather(fam_u, proj_u), np.array([1.0, -1.0]))
    rnorm2 = float(sp.gramian(resid)[0, 0])
    assert abs(norm2 - (pnorm2 + rnorm2)) < 1e-8 * norm2


@pytest.mark.parametrize("type", ["bs", "gsob", "twob", "dspnt"])
def test_project_basis_independence(type):
    fam = _family(n=14, count=2, seed=4)
    coarse = sp.equidistant_knots(0.0, 1.0, 7)
    base = sp.project_splines(fam, coarse, type="spnt")
    other = sp.project_splines(fam, coarse, type=type)
    grid = np.linspace(0, 1, 301)
    diff = sp.evaluate(base.sp, grid) - sp.evaluate(other.sp, grid)
    assert np.max(np.abs(diff)) < 1e-8


def test_project_transform_attached():
    fam = _family()
    pr = sp.project_splines(fam, type="spnt")
    assert pr.transform is not None
    assert sp.project_splines(fam, type="bs").transform is None


def test_project_bad_type():
    with pytest.raises(ValueError):
        sp.project_splines(_family(), type="qr")


# ---------------------------------------------------------------------------
# functional data


def test_fdata_validation():
    with pytest.raises(ValueError):
        sp.FunctionalDataMatrix([0.0, 0.0, 1.0], np.zeros((3, 2)))
    with pytest.raises(ValueError):
        sp.FunctionalDataMatrix([0.0, 1.0], np.zeros((3, 2)))
    with pytest.raises(ValueError):
        sp.FunctionalDataMatrix([0.0, 1.0], [0.0, np.nan])
    f = sp.FunctionalDataMatrix([0.0, 0.5, 1.0], [1.0, 2.0, 3.0])
    assert f.values.shape == (3, 1) and f.n_samples == 1


def test_project_data_exact_for_steps_k0():
    # an order-0 target space contains the step data exactly
    knots = sp.equidistant_knots(0.0, 1.0, 7)
    args = knots.xi[:-1]
    vals = np.array([1.0, -2.0, 3.0, 0.5, 2.0, -1.0, 0.25, 4.0])
    pr = sp.project_data(sp.FunctionalDataMatrix(args, vals), knots, 0)
    mids = (knots.xi[:-1] + knots.xi[1:]) / 2
    got = sp.evaluate(pr.sp, mids)[:, 0]
    assert np.allclose(got, vals, atol=1e-12)


def test_project_data_converges_with_sampling():
    # densely sampled smooth data projects close to the underlying spline
    rng = np.random.default_rng(5)
    fam = oracles.random_valid_family(rng, 10, 3)
    knots = fam.knots
    t = np.linspace(0.0, 1.0, 20000, endpoint=False)
    vals = sp.evaluate(fam, t)[:, 0]
    pr = sp.project_data(sp.FunctionalDataMatrix(t, vals), knots, 3)
    grid = np.linspace(0, 1, 301)
    scale = max(1.0, np.max(np.abs(sp.evaluate(fam, grid))))
    err = np.max(np.abs(sp.evaluate(pr.sp, grid) - sp.evaluate(fam, grid)))
    assert err < 1e-4 * scale


def test_project_data_multiple_samples_and_bs():
    rng = np.random.default_rng(6)
    knots = sp.equidistant_knots(0.0, 1.0, 8)
    t = np.linspace(0.0, 1.0, 3000, endpoint=False)
    vals = np.column_stack([np.sin(2 * np.pi * t), np.cos(2 * np.pi * t)])
    a = sp.project_data(sp.FunctionalDataMatrix(t, vals), knots, 2, type="spnt")
    b = sp.project_data(sp.FunctionalDataMatrix(t, vals), knots, 2, type="bs")
    grid = np.linspace(0, 1, 201)
    assert np.max(np.abs(sp.evaluate(a.sp, grid) - sp.evaluate(b.sp, grid))) < 1e-8


@pytest.mark.parametrize("ratio", [0.5, 2.0])
def test_bs_projection_checks_tau_shift(monkeypatch, ratio):
    # the bs normal equations are solved only for a Gram matrix whose
    # smallest eigenvalue exceeds tau (bases._check_spd); 150 rows take
    # three Cholesky blocks
    d = 150
    h = oracles.tridiagonal_near_tau(d, ratio)
    basis = sp.bspline_basis(sp.equidistant_knots(0.0, 1.0, d + 2), 3)
    b = np.random.default_rng(0).standard_normal((2, d))
    monkeypatch.setattr(splinet.project, "_gram", lambda a1, b1, symmetric: h)
    if ratio < 1:
        with pytest.raises(ValueError, match="not positive definite"):
            splinet.project._projection(basis, None, b, "bs")
        return
    coeff = splinet.project._projection(basis, None, b, "bs").coeff
    ref = np.linalg.solve(h, b.T).T
    assert np.max(np.abs(coeff - ref)) <= 1e-4 * np.max(np.abs(ref))


def test_bs_projection_builds_no_dense_gram():
    # the banded normal equations take their band from the sparse Gram: at
    # d = 1533 a dense d x d Gram alone would be 18.8 MB, four times the bound
    basis = sp.bspline_basis(sp.equidistant_knots(0.0, 1.0, 1535), 3)
    d = len(basis)
    b = np.random.default_rng(4).standard_normal((2, d))
    tracemalloc.start()
    try:
        coeff = splinet.project._projection(basis, None, b, "bs").coeff
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < d * d * 8 / 4, peak
    # the same band as the dense Gram's, so the same coefficients to the bit
    factors = splinet.bases._cholesky_banded(splinet.bases._check_spd(sp.gramian(basis)))
    assert np.array_equal(coeff, splinet.bases._cho_solve_banded(factors, b.T).T)


def test_project_data_out_of_range_warns():
    knots = sp.equidistant_knots(0.0, 1.0, 6)
    t = np.array([-0.5, 0.1, 0.4, 0.8, 1.7])
    vals = np.ones(5)
    with pytest.warns(UserWarning):
        sp.project_data(sp.FunctionalDataMatrix(t, vals), knots, 1)
    with pytest.raises(ValueError):
        sp.project_data(sp.FunctionalDataMatrix([-3.0, -2.0], [1.0, 1.0]), knots, 1)


# ---------------------------------------------------------------------------
# FPCA


def _synthetic_projection(m=300, seed=8):
    knots = sp.equidistant_knots(0.0, 1.0, 11)
    res = sp.splinet(knots, 3)
    d = len(res.os)
    rng = np.random.default_rng(seed)
    lams = np.array([4.0, 1.0, 0.25])
    q, _ = np.linalg.qr(rng.standard_normal((d, 3)))
    mean = rng.standard_normal(d)
    scores = rng.standard_normal((m, 3))
    coeff = mean + scores * np.sqrt(lams) @ q.T
    return sp.ProjectionResult(coeff, res.os, sp.lincomb(res.os, coeff)), lams, q


def test_fpca_recovers_structure():
    pr, lams, q = _synthetic_projection(m=1500)
    fp = sp.fpca(pr)
    assert fp.n_retained == 3
    assert np.allclose(fp.eigenvalues[:3], lams, rtol=0.15)
    # eigenvector alignment up to sign
    for j in range(3):
        assert abs(fp.eigenvectors[:, j] @ q[:, j]) > 0.99
    # scores are standardized
    assert np.allclose(fp.scores.std(axis=0), 1.0, atol=0.05)
    assert np.allclose(fp.scores.mean(axis=0), 0.0, atol=0.1)


def test_fpca_requires_orthonormal_basis():
    knots = sp.equidistant_knots(0.0, 1.0, 11)
    bs = sp.bspline_basis(knots, 3)
    coeff = np.random.default_rng(0).standard_normal((5, len(bs)))
    pr = sp.ProjectionResult(coeff, bs, sp.lincomb(bs, coeff))
    with pytest.raises(ValueError):
        sp.fpca(pr)


@pytest.mark.parametrize("entry, value, ok", [
    (None, None, True), ((0, 0), 1 + 1e-7, True), ((0, 0), 1 + 1e-5, False),
    ((0, 1), 1e-5, False), ((0, 0), 0.0, False)])
def test_fpca_orthonormality_rule(entry, value, ok):
    # the Gram of A @ basis is A A^T: a diagonal off 1, an off-diagonal entry
    # off 0 by more than 1e-6, or a zero member (a diagonal entry not stored)
    # is refused
    os_ = sp.splinet(sp.equidistant_knots(0.0, 1.0, 11), 3).os
    a = np.eye(len(os_))
    if entry is not None:
        a[entry] = value
    coeff = np.random.default_rng(0).standard_normal((4, len(os_)))
    pr = sp.ProjectionResult(coeff, sp.lincomb(os_, a), None)
    if ok:
        sp.fpca(pr)
    else:
        with pytest.raises(ValueError, match="fpca needs an orthonormal basis"):
            sp.fpca(pr)


def test_fpca_orthonormality_check_builds_no_dense_gram():
    # the check reads the sparse Gram: at d = 1533 a dense d x d Gram alone
    # would be 18.8 MB, four times the bound
    basis = sp.bspline_basis(sp.equidistant_knots(0.0, 1.0, 1535), 3)
    d = len(basis)
    coeff = np.random.default_rng(5).standard_normal((2, d))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="fpca needs an orthonormal basis; project with "
                                             "type='spnt'"):
            sp.fpca(sp.ProjectionResult(coeff, basis, None))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < d * d * 8 / 4, peak


@pytest.mark.parametrize("bad", ["nan", "inf", "wide", "narrow", "flat"])
def test_fpca_rejects_bad_coefficients(bad):
    # checked before any arithmetic: no RuntimeWarning, no numpy error text
    pr, _, _ = _synthetic_projection(m=20)
    coeff = pr.coeff.copy()
    d = coeff.shape[1]
    if bad == "nan":
        coeff[3, 2] = np.nan
    elif bad == "inf":
        coeff[0, d - 1] = -np.inf
    elif bad == "wide":
        coeff = np.hstack([coeff, coeff[:, :2]])
    elif bad == "narrow":
        coeff = coeff[:, : d - 1]
    else:
        coeff = coeff[0]
    with pytest.raises(ValueError, match="finite" if bad in ("nan", "inf") else "%d coefficients" % d):
        sp.fpca(sp.ProjectionResult(coeff, pr.basis, None))


def test_fpca_identical_samples():
    knots = sp.equidistant_knots(0.0, 1.0, 11)
    res = sp.splinet(knots, 3)
    coeff = np.tile(np.arange(len(res.os), dtype=float), (4, 1))
    fp = sp.fpca(sp.ProjectionResult(coeff, res.os, sp.lincomb(res.os, coeff)))
    assert fp.n_retained == 0 and np.all(fp.eigenvalues == 0.0)
    assert fp.eigenvectors.shape == (len(res.os), 0) and fp.scores.shape == (4, 0)
    assert len(fp.eigenfunctions) == 0


@pytest.mark.parametrize("n, m, rank", [
    (11, 5, None), (11, 9, None), (11, 40, None), (93, 12, None), (93, 91, None),
    (93, 150, None), (11, 20, 3), (93, 30, 5), (11, 6, 0)],
    ids=["m<d", "m=d", "m>d", "m<d_91", "m=d_91", "m>d_91", "rank3", "rank5_91", "identical"])
def test_fpca_matches_covariance_eigh(n, m, rank):
    """The thin SVD of the centered rows against ``eigh`` of the d x d
    covariance: eigenvalues within 1e-13 of the largest and the same retained
    count; where an eigenvalue is more than 1e-6 of the largest from its
    neighbours, the eigenvector and the scores agree up to sign within 1e-10."""
    basis = sp.splinet(sp.equidistant_knots(0.0, 1.0, n), 3).os
    d = len(basis)
    rng = np.random.default_rng(n + m)
    if rank is None:
        coeff = rng.standard_normal((m, d)) * rng.uniform(0.1, 3.0, d) + rng.standard_normal(d)
    else:
        coeff = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, d))
        coeff += rng.standard_normal(d)
    fp = sp.fpca(sp.ProjectionResult(coeff, basis, None))
    w, v, scores, retained = oracles.covariance_fpca(coeff)
    r = fp.n_retained
    assert r == retained == min(m - 1, d if rank is None else rank)
    assert fp.eigenvalues.shape == (d,) and fp.eigenvectors.shape == (d, r)
    assert fp.scores.shape == (m, r) and len(fp.eigenfunctions) == r
    lam1 = w[0]
    assert np.all(np.abs(fp.eigenvalues - w) <= 1e-13 * lam1)
    assert np.all(fp.eigenvalues[r:] == 0.0)
    gap = np.abs(np.diff(w))
    separated = np.minimum(np.append(np.inf, gap), np.append(gap, np.inf))[:r] > 1e-6 * lam1
    sign = np.sign(np.sum(fp.eigenvectors * v[:, :r], axis=0))
    assert np.all(np.abs(fp.eigenvectors - sign * v[:, :r])[:, separated] <= 1e-10)
    assert np.all(np.abs(fp.scores - sign * scores)[:, separated] <= 1e-10)
    assert np.array_equal(fp.eigenfunctions.rows, sp.lincomb(basis, fp.eigenvectors.T).rows)


def test_fpca_builds_no_covariance():
    # with 5 samples at d = 1533 one d x d float array alone would be 18.8 MB,
    # and d eigenfunctions many times that
    basis = sp.splinet(sp.equidistant_knots(0.0, 1.0, 1535), 3).os
    d = len(basis)
    coeff = np.random.default_rng(5).standard_normal((5, d))
    tracemalloc.start()
    try:
        fp = sp.fpca(sp.ProjectionResult(coeff, basis, None))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fp.n_retained == 4 and len(fp.eigenfunctions) == 4
    assert peak < d * d * 8 / 2, peak


def test_fpca_sign_convention():
    pr, _, _ = _synthetic_projection()
    fp = sp.fpca(pr)
    for j in range(fp.n_retained):
        lead = np.argmax(np.abs(fp.eigenvectors[:, j]))
        assert fp.eigenvectors[lead, j] > 0


def test_kl_reconstruct_monotone():
    pr, _, _ = _synthetic_projection(m=500)
    fp = sp.fpca(pr)
    row = pr.coeff[0]
    grid = np.linspace(0, 1, 201)
    target = sp.evaluate(pr.sp, grid)[:, 0]
    errs = []
    for mm in range(fp.n_retained + 1):
        rec = sp.kl_reconstruct(fp, row, mm)
        errs.append(np.max(np.abs(sp.evaluate(rec, grid)[:, 0] - target)))
    assert errs[-1] < 1e-8  # full reconstruction is exact
    assert errs[0] >= errs[-1]
    with pytest.raises(ValueError):
        sp.kl_reconstruct(fp, row, fp.n_retained + 1)


def test_kl_reconstruct_errors_name_d_and_range():
    pr, _, _ = _synthetic_projection()
    fp = sp.fpca(pr)
    d, r = len(pr.basis), fp.n_retained
    row = pr.coeff[0]
    for short in (row[:-1], np.append(row, 0.0), pr.coeff[:2]):
        with pytest.raises(ValueError, match="one row of %d coefficients" % d):
            sp.kl_reconstruct(fp, short, r)
    for m in (1.5, 2.0, True, -1, r + 1):
        with pytest.raises(ValueError, match=r"an integer in \[0, %d\]" % r):
            sp.kl_reconstruct(fp, row, m)
    assert len(sp.kl_reconstruct(fp, row, np.int64(r))) == 1


# ---------------------------------------------------------------------------
# CSV helpers


def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    coeff = rng.standard_normal((3, 4))
    path = tmp_path / "c.csv"
    sp.write_coeff_csv(path, coeff)
    header = path.read_text().splitlines()[0]
    assert header == "c1,c2,c3,c4"

    fpath = tmp_path / "f.csv"
    args = np.linspace(0, 1, 11)
    vals = rng.standard_normal((11, 2))
    body = "\n".join(
        ",".join([repr(float(a))] + [repr(float(x)) for x in row])
        for a, row in zip(args, vals)
    )
    fpath.write_text("arg,s1,s2\n" + body + "\n")
    fd = sp.read_fdata_csv(fpath)
    assert np.array_equal(fd.args, args)
    assert np.array_equal(fd.values, vals)


def test_written_headers_read_as_headers(tmp_path):
    # no field of a header splinet writes is a number, so each reads as a
    # header
    read = splinet.project.read_csv_matrix
    path = tmp_path / "coeff.csv"
    sp.write_coeff_csv(path, np.ones((2, 3)))
    assert read(path).shape == (2, 3)
    for header in (["arg", "member", "value"], ["component", "eigenvalue"]):
        splinet.project._write_csv(path, header, 4, lambda rows: [rows + 0.5] * len(header))
        assert path.read_text().splitlines()[0] == ",".join(header)
        assert np.array_equal(read(path), np.repeat(np.arange(4)[:, None] + 0.5, len(header), 1))


#: the characters of random fields: those of numbers, ``_`` and non-ASCII
#: digits (which Python's float reads and numpy's parser does not), a comma,
#: a letter and ASCII and Unicode spaces
_FIELD_CHARS = "0123456789.eE+-_ infatyINFATY,x\t\xa0\u2003\uff11\u0663"


def _numpy_reads(field):
    """Whether ``np.loadtxt`` reads ``field``, quoted, as one float."""
    try:
        return np.loadtxt(['"%s"' % field], delimiter=",", comments=None,
                          quotechar='"').size == 1
    except ValueError:
        return False


@settings(max_examples=400, deadline=None)
@given(st.text(_FIELD_CHARS, max_size=8) | st.sampled_from(
    ["1_0", "\uff11", " 1.5 ", "\xa01.5\xa0", "1e", "+.5", "-inf", "NaN", "nan(1)", "0x10"]))
def test_is_number_is_numpy_parser(field):
    # a field the reader calls a number is one np.loadtxt reads, and no
    # other, so a file it rejects always has a field or a row to name
    assert splinet.project._is_number(field) == _numpy_reads(field)


@st.composite
def _csv_texts(draw):
    """A random finite table and a CSV text of it in mixed formatting."""
    m, c = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    table = np.array(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                   min_size=m * c, max_size=m * c))).reshape(m, c)
    end = draw(st.sampled_from(["\n", "\r\n"]))

    def field(text):
        pad = draw(st.sampled_from(["", " ", "  "]))
        if draw(st.booleans()):
            return '"%s%s%s"' % (pad, text, pad)
        return pad + text + pad

    def blanks():
        return end * draw(st.integers(0, 2))

    lines = [blanks()]
    if draw(st.booleans()):
        lines.append(",".join(field("c%d" % (j + 1)) for j in range(c)) + end)
    for row in table.tolist():
        fmt = draw(st.sampled_from([repr, "%.17g".__mod__]))
        lines.append(blanks() + ",".join(field(fmt(x)) for x in row) + end)
    text = "".join(lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return table, text


@settings(max_examples=150, deadline=None)
@given(_csv_texts())
def test_csv_reader_matches_csv_module(tmp_path_factory, table_text):
    table, text = table_text
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    got = splinet.project.read_csv_matrix(path)
    ref = oracles.csv_module_matrix(path)
    assert got.shape == ref.shape == table.shape
    assert got.tobytes() == ref.tobytes() == table.tobytes()


@pytest.mark.parametrize("text, shape", [
    ('"1.5",2\n3,4\n', (2, 2)),  # a quoted number is a number: no header
    ("1_0,x\n1,2\n", (1, 2)),     # neither field is a number to numpy
    ("\n\nc1\n\n7\n", (1, 1)),
    ("# c1\n7\n", (1, 1)),       # no comments in a CSV: a header
    ('"c\n1",c2\n1,2\n', (1, 2)),  # a header row spanning two lines
    ('a,b\n"1\n",2\n3,4\n', (2, 2)),
])
def test_csv_header_rule(tmp_path, text, shape):
    path = tmp_path / "t.csv"
    path.write_text(text)
    assert splinet.project.read_csv_matrix(path).shape == shape
