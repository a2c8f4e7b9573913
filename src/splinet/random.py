"""Random splines: matrix-normal perturbation plus construct correction.

A draw perturbs the mean spline's full derivative matrix S by
``Sigma^{1/2} Z Theta^{1/2}`` with Z a standard normal matrix, then repairs
the result into a valid spline with :func:`splinet.construct.construct`.

Randomness comes from numpy's counter-based Philox bit generator.  Member
``i`` always uses the substream ``Philox(key=seed).jumped(i)``, so a fixed
seed gives bit-identical output however many members are drawn.  Draws run
in a single thread; the ``SPLINET_THREADS`` environment variable is
ignored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SplineFamily, as_one_sided
from .construct import construct

#: bit generator used for all draws; recorded here and in the CLI output
#: because the archive format carries no metadata field
RNG_ALGORITHM = "numpy Philox4x64 counter-based generator, one jumped substream per member"


def _expand_cov(c, size, name):
    c = np.asarray(c, dtype=float)
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
    if not np.allclose(mat, mat.T, atol=1e-10 * max(1.0, np.max(np.abs(mat)))):
        raise ValueError("%s must be symmetric" % name)
    return 0.5 * (mat + mat.T)


def _sqrt_psd(mat, name):
    w, v = np.linalg.eigh(mat)
    if w[0] < -1e-10 * max(np.trace(mat), 1.0):
        raise ValueError("%s is indefinite beyond tolerance" % name)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.T


@dataclass(frozen=True)
class NoiseSpec:
    """Row covariance Sigma, column covariance Theta, and an RNG seed.

    Scalars mean that multiple of the identity; vectors mean diagonals.
    """

    sigma: object = 1.0
    theta: object = 1.0
    seed: int = 0

    def roots(self, n_rows, n_cols):
        sig = _expand_cov(self.sigma, n_rows, "Sigma")
        th = _expand_cov(self.theta, n_cols, "Theta")
        return _sqrt_psd(sig, "Sigma"), _sqrt_psd(th, "Theta")


def rspline(mean, noise, count=1, method="RRM"):
    """Draw ``count`` random splines around a single-member mean family."""
    if len(mean) != 1:
        raise ValueError("mean must be a single-member family")
    if count < 1:
        raise ValueError("count must be >= 1")
    fam1 = as_one_sided(mean)
    knots = fam1.knots
    k = fam1.smorder
    s = fam1.full_matrix(0)
    sig_half, th_half = noise.roots(s.shape[0], s.shape[1])
    seed = int(noise.seed)

    def draw(i):
        rng = np.random.Generator(np.random.Philox(key=seed).jumped(i))
        z = rng.standard_normal(s.shape)
        t = s + sig_half @ z @ th_half
        fam = construct(knots, k, t, method, epsilon=fam1.epsilon)
        return fam.members[0]

    members = [draw(i) for i in range(count)]
    return SplineFamily(knots, k, tuple(members), "sp", fam1.epsilon)
