import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splinet as sp
from splinet.construct import _construct_rows, _frlr, _mirror

import oracles
from oracles import taylor_step_matrix


def _taylor_consistent(mat, seg, k, tol=1e-9):
    """Every row propagated across its interval matches the next row's
    derivatives 0..k-1."""
    scale = max(1.0, np.max(np.abs(mat)))
    for i in range(len(seg) - 1):
        pred = mat[i] @ taylor_step_matrix(seg[i + 1] - seg[i], k)
        if k and np.max(np.abs(pred[:k] - mat[i + 1, :k])) > tol * scale:
            return False
    return True


# ---------------------------------------------------------------------------
# completion solvers


def test_frlc_basic():
    seg = np.array([0.0, 0.3, 0.7, 1.0])
    first = np.array([0.0, 1.0, -2.0])
    col = np.array([-2.0, 3.0, 1.0, -4.0])
    u = sp.solve_frlc(first, col, seg)
    assert np.array_equal(u[0], first)
    assert np.array_equal(u[:, 2], col)
    assert _taylor_consistent(u, seg, 2, tol=1e-14)


def test_frlc_overrides_inconsistent_corner():
    seg = np.array([0.0, 1.0])
    u = sp.solve_frlc([1.0, 0.5], [9.0, 0.0], seg)
    # the first entry of the column must agree with the first row
    assert u[0, 1] == 0.5


def test_frfc_reproduces_value_column():
    rng = np.random.default_rng(0)
    for k in (1, 2, 3):
        seg = np.sort(rng.uniform(0, 1, k + 4))
        first = rng.standard_normal(k)
        vals = rng.standard_normal(seg.size)
        vals[0] = first[0]
        u = sp.solve_frfc(first, vals, seg)
        assert np.allclose(u[:, 0], vals, atol=1e-12)
        assert _taylor_consistent(u, seg, k, tol=1e-10)


def test_frfc_validation():
    with pytest.raises(ValueError):
        sp.solve_frfc(np.empty(0), [1.0, 2.0], [0.0, 1.0])  # k must be >= 1
    with pytest.raises(ValueError):
        sp.solve_frfc([1.0], [2.0, 3.0], [0.0, 1.0])  # corner disagreement


def test_frfc_matches_frlc():
    # completing from the value column and re-completing from the recovered
    # k-th column must give the same matrix
    rng = np.random.default_rng(1)
    seg = np.array([0.0, 0.4, 0.9, 1.5, 2.0])
    first = rng.standard_normal(2)
    vals = rng.standard_normal(seg.size)
    vals[0] = first[0]
    u = sp.solve_frfc(first, vals, seg)
    u2 = sp.solve_frlc(u[0], u[:, 2], seg)
    assert np.allclose(u, u2, atol=1e-12)


def test_frlr_m0_residual():
    seg = np.array([0.0, 1.0])
    first = np.array([0.0, 1.0, 2.0, 6.0])
    # exact Taylor image of `first` across the interval
    last_exact = first @ taylor_step_matrix(1.0, 3)
    u, res = sp.solve_frlr(first, last_exact, seg)
    assert res < 1e-14
    u, res = sp.solve_frlr(first, last_exact + [0.5, 0.5, 0.5, 0.0], seg)
    assert res == pytest.approx(0.5)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("m_off", [0, 1, 2])
def test_frlr_matches_dense_oracle(k, m_off):
    m = max(k - m_off, 0)
    rng = np.random.default_rng(100 * k + m)
    seg = np.concatenate([[0.0], np.cumsum(rng.uniform(0.3, 1.2, m + 1))])
    first = rng.standard_normal(k + 1)
    # build a consistent last row by forward propagation with random k-th col
    mid_kth = rng.standard_normal(m)
    col = np.concatenate([[first[k]], mid_kth, [0.0]])
    truth = sp.solve_frlc(first, col, seg)
    last = truth[-1].copy()
    last[k] = rng.standard_normal()  # free entry, not used for the solve
    u, res = sp.solve_frlr(first, last, seg)
    assert np.allclose(u[:, :k], truth[:, :k], atol=1e-9)
    assert np.allclose(u[1 : m + 1, k], mid_kth, atol=1e-9)
    dense = oracles.dense_frlr(first, last, seg)
    assert np.allclose(u[:-1], dense[:-1], atol=1e-8)
    assert res < 1e-8


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda k: st.tuples(st.just(k), st.integers(1, k))),
       st.booleans(), st.integers(0, 2**31 - 1))
def test_frlr_matches_exact_oracle(km, mirrored, seed):
    """solve_frlr and the batched _frlr against the completion in exact
    rational arithmetic, matrices and residuals to 1e-12 of the largest
    entry, on increasing segments and on their mirror images (negative
    spacings, as the left halves of construct run)."""
    k, m = km
    rng = np.random.default_rng(seed)
    seg = np.concatenate([[0.0], np.cumsum(rng.uniform(0.3, 1.2, m + 1))])
    seg *= 10.0 ** rng.uniform(-1, 1)
    spacings = np.diff(seg[::-1] if mirrored else seg)
    first, last = rng.standard_normal((2, 3, k + 1))
    u, residual = _frlr(first, last, spacings, k)
    for i in range(3):
        ref, ref_residual = oracles.exact_frlr(first[i], last[i], spacings, k)
        tol = 1e-12 * np.max(np.abs(ref))
        assert np.all(np.abs(u[i] - ref) <= tol)
        assert abs(residual[i] - ref_residual) <= tol
        if not mirrored:
            u1, r1 = sp.solve_frlr(first[i], last[i], seg)
            assert np.all(np.abs(u1 - ref) <= tol) and abs(r1 - ref_residual) <= tol


def test_frlr_equidistant_matches_general():
    rng = np.random.default_rng(9)
    k, m = 3, 3
    seg_eq = np.linspace(0.0, 2.0, m + 2)
    # an equidistant segment and one with a knot moved by 1e-3 both recover
    # the middle k-th entries they were built from
    first = rng.standard_normal(k + 1)
    col = np.concatenate([[first[k]], rng.standard_normal(m), [0.0]])
    truth = sp.solve_frlc(first, col, seg_eq)
    u, _ = sp.solve_frlr(first, truth[-1], seg_eq)
    seg_ne = seg_eq.copy()
    seg_ne[1] += 1e-3
    truth_ne = sp.solve_frlc(first, col, seg_ne)
    u_ne, _ = sp.solve_frlr(first, truth_ne[-1], seg_ne)
    assert np.allclose(u[1 : m + 1, k], col[1 : m + 1], atol=1e-9)
    assert np.allclose(u_ne[1 : m + 1, k], col[1 : m + 1], atol=1e-6)


def test_frlr_validation():
    with pytest.raises(ValueError):
        sp.solve_frlr([0.0, 1.0], [0.0, 0.0], [0.0, 0.5, 0.7, 1.0])  # m > k
    with pytest.raises(ValueError):
        sp.solve_frlr([0.0, 1.0], [0.0], [0.0, 1.0])  # row length mismatch
    with pytest.raises(ValueError):
        sp.solve_frlr([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [0.0, 0.5, 1.0], m=2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solvers_reject_non_finite_knots(bad):
    seg = [0.0, bad, 1.0]
    with pytest.raises(ValueError, match="finite"):
        sp.solve_frlc(np.zeros(3), np.zeros(3), seg)
    with pytest.raises(ValueError, match="finite"):
        sp.solve_frfc(np.zeros(2), np.zeros(3), seg)
    with pytest.raises(ValueError, match="finite"):
        sp.solve_frlr(np.ones(3), np.ones(3), seg)
    with pytest.raises(ValueError, match="finite"):
        sp.solve_frlr(np.ones(3), np.ones(3), [0.0, bad])


def test_singular_system_error_type():
    assert issubclass(sp.SingularSystemError, ValueError)


# ---------------------------------------------------------------------------
# whole-spline construction


@pytest.mark.parametrize("method", ["CRLC", "CRFC", "RRM"])
@pytest.mark.parametrize("n, k", [(6, 2), (7, 2), (10, 3), (11, 3), (12, 4), (9, 1)])
def test_construct_is_valid(method, n, k):
    rng = np.random.default_rng(n * 10 + k)
    knots = sp.equidistant_knots(0.0, 1.0, n)
    if method == "RRM":
        seed = rng.standard_normal((n + 2, k + 1))
    elif method == "CRLC":
        seed = rng.standard_normal(n - k + 1)
    else:
        seed = rng.standard_normal(n - k + 1)
    fam = sp.construct(knots, k, seed, method)
    rep = sp.is_valid_spline(fam)
    assert rep.all_ok, rep
    m = fam.full_matrix(0)
    assert np.all(m[0, :k] == 0.0) and np.all(m[-1, :k] == 0.0)
    assert m[-1, k] == 0.0


def test_construct_nonequidistant():
    rng = np.random.default_rng(21)
    knots = oracles.random_knots(rng, 12)
    for method in ("CRLC", "CRFC", "RRM"):
        seed = (rng.standard_normal((14, 4)) if method == "RRM"
                else rng.standard_normal(10))
        fam = sp.construct(knots, 3, seed, method)
        assert sp.is_valid_spline(fam).all_ok


def test_construct_crlc_keeps_seed():
    # the CR-LC strategy never changes the seeded k-th derivative values or
    # the central derivatives
    rng = np.random.default_rng(2)
    n, k = 11, 3
    knots = sp.equidistant_knots(0.0, 1.0, n)
    seed = rng.standard_normal(n - k + 1)
    fam = sp.construct(knots, k, seed, "CRLC")
    m = fam.full_matrix(0)
    assert np.array_equal(m[k : n - k + 1, k], seed[: n - 2 * k + 1])
    assert np.array_equal(m[n // 2 + 1, :k], seed[n - 2 * k + 1 :])


def test_construct_crfc_keeps_seed():
    rng = np.random.default_rng(3)
    n, k = 12, 3
    knots = sp.equidistant_knots(0.0, 1.0, n)
    seed = rng.standard_normal(n - k + 1)
    fam = sp.construct(knots, k, seed, "CRFC")
    m = fam.full_matrix(0)
    assert np.allclose(m[k : n - k + 2, 0], seed[: n - 2 * k + 2], atol=1e-12)


def test_construct_rrm_small_correction_for_valid_input():
    # repairing an already-valid matrix leaves it essentially unchanged
    rng = np.random.default_rng(4)
    n, k = 12, 3
    knots = sp.equidistant_knots(0.0, 1.0, n)
    base = sp.construct(knots, k, rng.standard_normal(n - k + 1), "CRLC")
    mat = base.full_matrix(0)
    repaired, residuals = sp.construct(knots, k, mat, "RRM", return_residuals=True)
    grid = np.linspace(0, 1, 301)
    diff = sp.evaluate(repaired, grid) - sp.evaluate(base, grid)
    assert np.max(np.abs(diff)) < 1e-8 * max(1.0, np.max(np.abs(sp.evaluate(base, grid))))
    assert max(residuals.values()) < 1e-8 * max(1.0, np.max(np.abs(mat)))


def test_construct_residual_reports_damage():
    rng = np.random.default_rng(5)
    n, k = 12, 3
    knots = sp.equidistant_knots(0.0, 1.0, n)
    base = sp.construct(knots, k, rng.standard_normal(n - k + 1), "CRLC")
    mat = base.full_matrix(0)
    mat[n // 2, 0] += 50.0  # damage the value left of the center knot
    _, residuals = sp.construct(knots, k, mat, "RRM", return_residuals=True)
    assert residuals["center_bridge"] > 1.0


def test_construct_k0():
    knots = sp.equidistant_knots(0.0, 1.0, 4)
    fam = sp.construct(knots, 0, np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    assert sp.is_valid_spline(fam).all_ok
    assert sp.evaluate(fam, [0.1])[0, 0] == 1.0


def test_construct_errors():
    knots = sp.equidistant_knots(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        sp.construct(knots, 3, np.zeros(3))  # n < 2k+2: too few knots
    knots = sp.equidistant_knots(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        sp.construct(knots, 3, np.zeros(5), "CRLC")  # wrong seed length
    with pytest.raises(ValueError):
        sp.construct(knots, 3, np.zeros(8), "RRM")  # RRM wants a full matrix
    with pytest.raises(ValueError):
        sp.construct(knots, 3, np.zeros(8), "nope")


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(0, 6), st.integers(0, 2**31 - 1))
def test_construct_valid_property(k, extra, seed):
    n = 2 * k + 2 + extra
    rng = np.random.default_rng(seed)
    knots = sp.equidistant_knots(0.0, 1.0, n)
    fam = sp.construct(knots, k, rng.standard_normal(n - k + 1), "CRLC")
    assert sp.is_valid_spline(fam).all_ok


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["CRLC", "CRFC", "RRM"]), st.integers(0, 3), st.integers(0, 7),
       st.booleans(), st.integers(0, 2**31 - 1))
def test_construct_batch_matches_loop_oracle(method, k, extra, equid, seed):
    """The batched core against the one-draw-at-a-time recursions, draw by
    draw, values and residuals to 1e-12 of the draw's largest entry.

    Draw 1 has zeros at the k-th entries the terminals test (knots k and
    n-k); draw 2 keeps only its k-th column, so CRFC computes 0 at knot k and
    the left terminal falls back to the seed there while the other draws do
    not; draw 3 is all zero and must come out exactly zero.
    """
    rng = np.random.default_rng(seed)
    n = 2 * k + 2 + extra
    knots = sp.equidistant_knots(0.0, 1.0, n) if equid else oracles.random_knots(rng, n)
    t = rng.standard_normal((6, n + 2, k + 1)) * 10.0 ** rng.uniform(-3, 3, (6, 1, 1))
    t[1, k, k] = t[1, n - k, k] = 0.0
    t[2, :, :k] = 0.0
    t[3] = 0.0
    s, residuals = _construct_rows(knots, k, t, method)
    assert s.shape == t.shape
    for i in range(len(t)):
        ref, ref_residuals = oracles.loop_construct(knots, k, t[i], method)
        tol = 1e-12 * np.max(np.abs(ref))
        assert np.all(np.abs(s[i] - ref) <= tol)
        assert residuals.keys() == ref_residuals.keys()
        for name, r in ref_residuals.items():
            assert residuals[name].shape == (len(t),)
            assert abs(residuals[name][i] - r) <= tol


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["CRLC", "CRFC", "RRM"]), st.integers(1, 3), st.integers(0, 4),
       st.integers(0, 2**31 - 1))
def test_construct_mirror_equivariant(method, k, extra, seed):
    """For odd n the central knot is its own mirror image, so building on
    the reflected knots ``1 - xi[::-1]`` from the reflected seed (rows read
    from the right as in ``_mirror``, derivative j times (-1)^j) gives the
    reflected spline, and the two boundary residuals trade places."""
    rng = np.random.default_rng(seed)
    n = 2 * k + 3 + 2 * extra
    knots = oracles.random_knots(rng, n)
    t = rng.standard_normal((3, n + 2, k + 1)) * 10.0 ** rng.uniform(-3, 3, (3, 1, 1))
    flip = (-1.0) ** np.arange(k + 1)
    s, residuals = _construct_rows(knots, k, t, method)
    s_r, residuals_r = _construct_rows(sp.KnotSet(1.0 - knots.xi[::-1]), k, _mirror(t) * flip,
                                       method)
    ref = _mirror(s) * flip
    tol = 1e-13 * np.max(np.abs(ref), axis=(1, 2))
    assert np.all(np.abs(s_r - ref) <= tol[:, None, None])
    swap = {"left_boundary": "right_boundary", "right_boundary": "left_boundary"}
    assert residuals_r.keys() == residuals.keys()
    for name, r in residuals_r.items():
        assert np.all(np.abs(r - residuals[swap.get(name, name)]) <= tol)


def test_frlr_condition_checked_once_per_group(monkeypatch):
    """One condition number per frlr system however many draws are stacked,
    and a singular system still raises, for the batch as for one draw."""
    calls = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda a: calls.append(1) or cond(a))
    knots = sp.equidistant_knots(0.0, 1.0, 20)
    rng = np.random.default_rng(12)
    counts = []
    for m in (1, 50):
        calls.clear()
        _construct_rows(knots, 3, rng.standard_normal((m, 22, 4)), "RRM")
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
    # three spacings of 1e-7 next to one of 1: cond(C) is far above COND_LIMIT
    xi = np.concatenate([[0.0, 1e-7, 2e-7, 3e-7], 3e-7 + np.arange(1.0, 9.0)])
    clustered = sp.KnotSet(xi)
    for method in ("CRLC", "CRFC", "RRM"):
        with pytest.raises(sp.SingularSystemError):
            sp.construct(clustered, 3, np.ones((12, 4)), method)
        with pytest.raises(sp.SingularSystemError):
            _construct_rows(clustered, 3, np.ones((5, 12, 4)), method)
    with pytest.raises(sp.SingularSystemError):
        sp.solve_frlr(np.ones(4), np.zeros(4), [0.0, 1.0, 1.0 + 1e-7, 1.0 + 2e-7, 1.0 + 3e-7])


# ---------------------------------------------------------------------------
# refinement


def test_refine_preserves_values():
    rng = np.random.default_rng(6)
    fam = oracles.random_valid_family(rng, 10, 3)
    old = fam.knots.xi
    extra = rng.uniform(0.05, 0.95, 7)
    new = sp.KnotSet(np.unique(np.concatenate([old, extra])))
    ref = sp.refine(fam, new)
    assert ref.knots == new
    assert sp.is_valid_spline(ref).all_ok
    grid = np.linspace(0, 1, 501)
    assert np.allclose(sp.evaluate(ref, grid), sp.evaluate(fam, grid),
                       atol=1e-10 * np.max(np.abs(fam.full_matrix(0))))


def test_refine_compact_support():
    knots = sp.equidistant_knots(0.0, 1.0, 9)
    bs = sp.bspline_basis(knots, 2)
    new = sp.KnotSet(np.unique(np.concatenate([knots.xi, [0.33, 0.66]])))
    ref = sp.refine(bs, new)
    grid = np.linspace(0, 1, 401)
    assert np.allclose(sp.evaluate(ref, grid), sp.evaluate(bs, grid), atol=1e-12)
    # supports stay compact (mapped indices, not full range)
    for (supp, _), (osupp, _) in zip(ref.members, bs.members):
        width = sum(hi - lo for lo, hi in supp)
        owidth = sum(hi - lo for lo, hi in osupp)
        assert owidth <= width <= owidth + 2


def test_refine_requires_superset():
    rng = np.random.default_rng(7)
    fam = oracles.random_valid_family(rng, 8, 2)
    bad = sp.equidistant_knots(0.0, 1.0, 7)  # misses original knots
    with pytest.raises(ValueError):
        sp.refine(fam, bad)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.sampled_from([None, np.nan, np.inf, -np.inf]),
       st.integers(0, 2**31 - 1))
def test_refine_matches_loop_oracle(k, bad, seed):
    """The stacked refinement against the per-knot loop: equal supports, rows
    at old knots copied bit for bit (``-0.0`` and non-finite entries too),
    the other rows equal to rounding wherever the loop's row is finite."""
    rng = np.random.default_rng(seed)
    fam = oracles.lincomb_family(rng, k)
    members = list(fam.members)
    supp, der = members[0]
    blocks = [b.copy() for b in der]
    blocks[0][0, 0] = -0.0
    if bad is not None:
        blk = blocks[-1]
        blk[rng.integers(0, blk.shape[0]), rng.integers(0, k + 1)] = bad
    members[0] = (supp, blocks)
    fam = sp.SplineFamily(fam.knots, k, tuple(members), fam.type, fam.epsilon)
    new = sp.KnotSet(np.union1d(fam.knots.xi, rng.uniform(0.0, 1.0, 6)))
    at_old = np.isin(new.xi, fam.knots.xi)
    out = sp.refine(fam, new)
    with np.errstate(invalid="ignore"):
        ref = oracles.loop_refine(fam, new)
    assert out.knots == new
    for (supp, der), (rsupp, rder) in zip(out.members, ref.members, strict=True):
        assert supp == rsupp
        scale = max((float(np.max(np.abs(b[np.isfinite(b)]), initial=0.0))
                     for b in rder), default=0.0)
        for (lo, hi), blk, rblk in zip(supp, der, rder, strict=True):
            copied = at_old[lo : hi + 1]
            assert blk[copied].tobytes() == rblk[copied].tobytes()
            finite = np.isfinite(rblk).all(axis=1)
            assert np.all(np.abs(blk[finite] - rblk[finite]) <= 1e-14 * scale)
