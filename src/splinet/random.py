"""Random splines: matrix-normal perturbation plus construct correction.

A draw perturbs the mean spline's full derivative matrix S by
``Sigma^{1/2} Z Theta^{1/2}`` with Z a standard normal matrix; the perturbed
matrices of all draws are then repaired into valid splines by one batched
run of the construction core (see :mod:`splinet.construct`), which forms the
knot-dependent systems once per call and treats each draw as one more
right-hand side.

Randomness comes from numpy's counter-based Philox bit generator.  Member
``i`` always uses the substream ``Philox(key=seed).jumped(i)``, and the
batched repair handles each draw on its own, so a fixed seed gives
bit-identical output however many members are drawn.  Draws run in a single
thread; the ``SPLINET_THREADS`` environment variable is ignored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _family, _integer, _reals
from .construct import _check_construct, _construct_rows

#: bit generator used for all draws; recorded here and in the CLI output
#: because the archive format carries no metadata field
RNG_ALGORITHM = "numpy Philox4x64 counter-based generator, one jumped substream per member"

#: a covariance is symmetric when M - M' is within this fraction of its
#: largest entry
COV_SYMMETRY_TOL = 1e-10

#: a covariance is positive semidefinite when its smallest eigenvalue is
#: above minus this fraction of its trace
COV_PSD_TOL = 1e-10


def _expand_cov(c, size, name):
    c = np.array(c, dtype=float)
    if c.ndim == 0:
        mat = float(c) * np.eye(size)
    elif c.ndim == 1:
        if c.size != size:
            raise ValueError("%s diagonal has wrong length" % name)
        mat = np.diag(c)
    elif c.shape == (size, size):
        mat = c
    else:
        raise ValueError("%s has wrong shape %r, expected (%d, %d)"
                         % (name, c.shape, size, size))
    if np.max(np.abs(mat - mat.T)) > COV_SYMMETRY_TOL * np.max(np.abs(mat)):
        raise ValueError("%s must be symmetric" % name)
    return 0.5 * (mat + mat.T)


def _sqrt_psd(mat, name):
    w, v = np.linalg.eigh(mat)
    if w[0] < -COV_PSD_TOL * np.trace(mat):
        raise ValueError("%s is indefinite beyond tolerance" % name)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.T


def _frozen(value):
    """``value``, a float or nested lists of floats, with tuples for lists."""
    return tuple(map(_frozen, value)) if isinstance(value, list) else value


@dataclass(frozen=True)
class NoiseSpec:
    """Row covariance Sigma, column covariance Theta, and an RNG seed.

    Scalars mean that multiple of the identity; vectors mean diagonals.
    Each covariance is read by :func:`~splinet.core._reals` where it enters
    and must be finite; it is stored as a float or nested tuples of floats,
    so that specs compare and hash by value.  Its shape is checked at the
    draw, against the mean's size.  The seed is an integer in
    ``[0, 2**128)``.
    """

    sigma: object = 1.0
    theta: object = 1.0
    seed: int = 0

    def __post_init__(self):
        seed = _integer(self.seed, "seed")
        if not 0 <= seed < 2**128:  # a Philox key is two 64-bit words
            raise ValueError("seed must be in [0, 2**128); got %d" % seed)
        object.__setattr__(self, "seed", seed)
        for field, name in (("sigma", "Sigma"), ("theta", "Theta")):
            c = _reals(getattr(self, field), name, 2)
            if not np.all(np.isfinite(c)):
                raise ValueError("%s has non-finite entries" % name)
            object.__setattr__(self, field, _frozen(c.tolist()))

    def roots(self, n_rows, n_cols):
        sig = _expand_cov(self.sigma, n_rows, "Sigma")
        th = _expand_cov(self.theta, n_cols, "Theta")
        return _sqrt_psd(sig, "Sigma"), _sqrt_psd(th, "Theta")


def rspline(mean, noise, count=1, method="RRM"):
    """Draw ``count`` random splines around a single-member mean family.

    Member ``i`` perturbs the mean with the normal draws of substream
    ``Philox(key=noise.seed).jumped(i)``; all members are then repaired by
    one batched run of the construction core behind
    :func:`~splinet.construct.construct`, so member ``i`` is the same bits
    for every ``count > i``.
    """
    if len(mean) != 1:
        raise ValueError("mean must be a single-member family")
    count = _integer(count, "count", low=1)
    knots = mean.knots
    k = mean.smorder
    _check_construct(knots.n, k, method)
    s = mean.full_matrix(0)
    sig_half, th_half = noise.roots(s.shape[0], s.shape[1])
    t = np.empty((count,) + s.shape)
    for i in range(count):
        rng = np.random.Generator(np.random.Philox(key=noise.seed).jumped(i))
        # one product per draw: a BLAS call over the whole stack may round a
        # draw differently depending on count
        t[i] = s + sig_half @ rng.standard_normal(s.shape) @ th_half
    rows, _ = _construct_rows(knots, k, t, method)
    return _family(knots, k, rows.reshape(-1, k + 1), np.zeros(count, dtype=np.int64),
                   np.full(count, knots.n + 1), np.arange(count + 1), "sp", mean.epsilon)
