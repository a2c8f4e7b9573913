import os
import warnings

import numpy as np
import pytest

import splinet as sp

import oracles


def _mean(n=12, k=3, seed=0):
    rng = np.random.default_rng(seed)
    knots = sp.equidistant_knots(0.0, 1.0, n)
    return sp.construct(knots, k, rng.standard_normal(n - k + 1), "CRLC")


def test_rspline_draws_are_valid():
    fam = sp.rspline(_mean(), sp.NoiseSpec(sigma=0.5, theta=0.5, seed=1), count=40)
    assert len(fam) == 40
    assert sp.is_valid_spline(fam).all_ok


def test_rspline_zero_noise_is_mean():
    mean = _mean()
    fam = sp.rspline(mean, sp.NoiseSpec(sigma=0.0, theta=0.0, seed=2), count=3)
    grid = np.linspace(0, 1, 201)
    mv = sp.evaluate(mean, grid)[:, 0]
    for j in range(3):
        assert np.allclose(sp.evaluate(fam, grid)[:, j], mv, atol=1e-9)


def test_rspline_deterministic_per_seed():
    mean = _mean()
    a = sp.rspline(mean, sp.NoiseSpec(seed=7), count=5)
    b = sp.rspline(mean, sp.NoiseSpec(seed=7), count=5)
    c = sp.rspline(mean, sp.NoiseSpec(seed=8), count=5)
    for j in range(5):
        assert np.array_equal(a.full_matrix(j), b.full_matrix(j))
    assert not np.array_equal(a.full_matrix(0), c.full_matrix(0))


def test_rspline_count_prefix_stable():
    # member i depends only on the seed, not on how many draws are requested
    mean = _mean()
    a = sp.rspline(mean, sp.NoiseSpec(seed=3), count=6)
    b = sp.rspline(mean, sp.NoiseSpec(seed=3), count=2)
    for j in range(2):
        assert np.array_equal(a.full_matrix(j), b.full_matrix(j))


@pytest.mark.parametrize("method", ["CRLC", "CRFC", "RRM"])
def test_rspline_prefix_bitexact(method):
    # draws 0-4 of a 1000-member batch are the bits of a 5-member batch and
    # draw 0 those of a single draw
    mean = _mean()
    noise = sp.NoiseSpec(sigma=0.3, theta=0.5, seed=9)
    big = sp.rspline(mean, noise, count=1000, method=method)
    five = sp.rspline(mean, noise, count=5, method=method)
    one = sp.rspline(mean, noise, count=1, method=method)
    blocks = [[fam.members[j][1][0].tobytes() for j in range(len(fam))]
              for fam in (big, five, one)]
    assert blocks[0][:5] == blocks[1]
    assert blocks[0][:1] == blocks[2]


def test_rspline_thread_invariance(monkeypatch):
    mean = _mean()
    monkeypatch.setenv("SPLINET_THREADS", "1")
    a = sp.rspline(mean, sp.NoiseSpec(seed=5), count=8)
    monkeypatch.setenv("SPLINET_THREADS", "4")
    b = sp.rspline(mean, sp.NoiseSpec(seed=5), count=8)
    for j in range(8):
        assert np.array_equal(a.full_matrix(j), b.full_matrix(j))


def test_rspline_sigma_scales_spread():
    # sigma is a covariance: quadrupling it doubles the spread, and with the
    # same seed the draws are coupled so the ratio is essentially exact
    mean = _mean()
    grid = np.array([0.31, 0.55, 0.74])
    m = 400
    small = sp.rspline(mean, sp.NoiseSpec(sigma=0.2, theta=1.0, seed=11), count=m)
    big = sp.rspline(mean, sp.NoiseSpec(sigma=0.8, theta=1.0, seed=11), count=m)
    sd_small = sp.evaluate(small, grid).std(axis=1)
    sd_big = sp.evaluate(big, grid).std(axis=1)
    ratio = sd_big / sd_small
    assert np.all(ratio > 1.8) and np.all(ratio < 2.2)


def test_noise_spec_matrix_forms():
    mean = _mean(n=8, k=2)
    rows = len(mean.knots.xi)
    sig_diag = np.linspace(0.1, 1.0, rows)
    th = np.array([0.5, 0.5, 1.0])
    fam = sp.rspline(mean, sp.NoiseSpec(sigma=sig_diag, theta=th, seed=4), count=3)
    assert sp.is_valid_spline(fam).all_ok
    full = np.diag(sig_diag)
    fam2 = sp.rspline(mean, sp.NoiseSpec(sigma=full, theta=np.diag(th), seed=4), count=3)
    for j in range(3):
        assert np.array_equal(fam.full_matrix(j), fam2.full_matrix(j))


def test_noise_spec_validation():
    mean = _mean(n=8, k=2)
    with pytest.raises(ValueError):
        sp.rspline(mean, sp.NoiseSpec(sigma=np.ones(3), seed=0))  # wrong length
    asym = np.eye(10)
    asym[0, 1] = 0.5
    with pytest.raises(ValueError):
        sp.rspline(mean, sp.NoiseSpec(sigma=asym, seed=0))
    indef = -np.eye(10)
    with pytest.raises(ValueError):
        sp.rspline(mean, sp.NoiseSpec(sigma=indef, seed=0))


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_noise_spec_checks_are_scale_free(scale):
    # symmetry and semidefiniteness are measured against the matrix's own
    # scale: below scale 1 they used to be absolute, so both faults passed
    base = scale * np.eye(10)
    asym, indef = base.copy(), base.copy()
    asym[0, 1] = 50.0 * scale
    indef[0, 0] = -50.0 * scale
    for bad, message in ((asym, "Sigma must be symmetric"),
                         (indef, "Sigma is indefinite beyond tolerance")):
        with pytest.raises(ValueError, match=message):
            sp.NoiseSpec(sigma=bad).roots(10, 3)
        with pytest.raises(ValueError, match=message.replace("Sigma", "Theta")):
            sp.NoiseSpec(theta=bad).roots(3, 10)
    for good in (base, np.zeros((10, 10))):
        sig, _ = sp.NoiseSpec(sigma=good).roots(10, 3)
        assert np.allclose(sig @ sig, good, rtol=0, atol=1e-14 * scale)


@pytest.mark.parametrize("field, bad", [("sigma", np.nan), ("theta", np.inf),
                                        ("sigma", [1.0] * 9 + [-np.inf])])
def test_noise_spec_rejects_nonfinite(field, bad):
    mean = _mean(n=8, k=2)
    name = {"sigma": "Sigma", "theta": "Theta"}[field]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="%s has non-finite entries" % name):
            sp.rspline(mean, sp.NoiseSpec(**{field: bad}))


def test_noise_spec_reads_covariances_where_they_enter():
    """Sigma and Theta are read and checked for finiteness when the spec is
    made, not at the draw; specs of the same covariances compare and hash
    equal, however the covariances were given."""
    for field, name in (("sigma", "Sigma"), ("theta", "Theta")):
        with pytest.raises(ValueError, match="%s entry '0.5' is not a number" % name):
            sp.NoiseSpec(**{field: "0.5"})
        with pytest.raises(ValueError, match="%s has non-finite entries" % name):
            sp.NoiseSpec(**{field: [1.0, np.nan]})
    eye = sp.NoiseSpec(sigma=np.eye(2), theta=np.array([0.5, 0.25]), seed=3)
    same = sp.NoiseSpec(sigma=[[1, 0], [0, 1]], theta=(0.5, 0.25), seed=3)
    assert eye == same and hash(eye) == hash(same) and len({eye, same}) == 1
    assert eye.sigma == ((1.0, 0.0), (0.0, 1.0)) and eye.theta == (0.5, 0.25)
    assert eye != sp.NoiseSpec(sigma=[1.0, 1.0], theta=[0.5, 0.25], seed=3)
    assert eye != sp.NoiseSpec(sigma=np.eye(2), theta=[0.5, 0.25], seed=4)
    assert sp.NoiseSpec(sigma=np.float32(0.5)) == sp.NoiseSpec(sigma=0.5)


def test_noise_spec_seed_range():
    for bad in (-1, 2**128):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*128\); got %d" % bad):
            sp.NoiseSpec(seed=bad)
    for bad in (1.5, True, "3"):
        with pytest.raises(ValueError, match="seed must be an integer"):
            sp.NoiseSpec(seed=bad)
    fam = sp.rspline(_mean(), sp.NoiseSpec(seed=2**128 - 1), count=2)
    assert sp.is_valid_spline(fam).all_ok


def test_rspline_input_validation():
    mean = _mean()
    two = sp.gather(mean, mean)
    with pytest.raises(ValueError):
        sp.rspline(two, sp.NoiseSpec())
    with pytest.raises(ValueError):
        sp.rspline(mean, sp.NoiseSpec(), count=0)


def test_rng_algorithm_documented():
    assert "Philox" in sp.RNG_ALGORITHM
