"""Orthogonal projection onto spline spaces and functional PCA.

Spline families project by solving the normal equations against a basis of
the target space; discretized functional data are treated as
right-continuous step functions whose inner products with basis members are
exact (differences of the basis antiderivative at the arguments).  The PCA
works on decomposition coefficients in an orthonormal basis, where the L2
geometry of the function space is the Euclidean geometry of coefficients.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .archive import read_csv_matrix, write_coeff_csv  # write_coeff_csv is re-exported
from .bases import _check_spd, _cho_solve_banded, _cholesky_banded, splinet
from .calculus import _gram, gramian, integra, lincomb
from .core import KNOT_MATCH_TOL, KnotSet, SplineFamily, _integer, _knots, _reals, evaluate
from .construct import refine


@dataclass(frozen=True)
class ProjectionResult:
    """Decomposition coefficients, the basis used, and the projections."""

    coeff: np.ndarray  # (m, d)
    basis: SplineFamily
    sp: SplineFamily
    transform: object = None  # TransformMatrix when an orthonormal type


@dataclass(frozen=True)
class FunctionalDataMatrix:
    """Discrete functional data: shared arguments and per-sample columns."""

    args: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        args = _reals(self.args, "args")
        values = _reals(self.values, "values", 2)
        if values.ndim == 1:
            values = values[:, None]
        if args.ndim != 1 or values.shape[0] != args.size:
            raise ValueError("values must have one row per argument")
        if np.any(np.diff(args) <= 0):
            raise ValueError("arguments must be strictly increasing")
        if np.any(~np.isfinite(values)) or np.any(~np.isfinite(args)):
            raise ValueError("missing or non-finite entries are not supported")
        vars(self).update(args=args, values=values)

    @property
    def n_samples(self):
        return self.values.shape[1]


def _make_basis(knots, k, type):
    res = splinet(knots, k, type=type)
    basis = res.bs if type == "bs" else res.os
    return basis, res.transform


def _union_knots(a, b):
    scale = max(a.xi[-1] - a.xi[0], b.xi[-1] - b.xi[0])
    merged = np.sort(np.concatenate([a.xi, b.xi]))
    keep = np.concatenate([[True], np.diff(merged) > KNOT_MATCH_TOL * scale])
    return KnotSet(merged[keep])


def _projection(basis, transform, b, type):
    """The projection whose inner products with the basis members are ``b``
    (m x d): the coefficients are ``b`` itself for an orthonormal basis and
    solve the banded normal equations (bandwidth k) for B-splines, whose
    Gram matrix must pass :func:`~splinet.bases._check_spd`."""
    coeff = b
    if type == "bs":
        # _check_spd factors H - tau*I, which does not solve H x = b, so H
        # itself is factored a second time
        factors = _cholesky_banded(_check_spd(_gram(basis, basis, True)))
        coeff = _cho_solve_banded(factors, b.T).T
    return ProjectionResult(coeff, basis, lincomb(basis, coeff), transform)


def project_splines(fam, target_knots=None, type="spnt"):
    """Project every member of ``fam`` onto a spline space.

    Both spaces are refined into their knot union, where the projection is
    orthogonal in L2; with no ``target_knots`` that is the family's own
    knots, and the projection a pure change of basis.
    """
    target = fam.knots if target_knots is None else _knots(target_knots)
    basis, transform = _make_basis(target, fam.smorder, type)
    union = _union_knots(fam.knots, target)
    return _projection(basis, transform, gramian(refine(fam, union), refine(basis, union)), type)


def project_data(data, knots, k, type="spnt"):
    """Project step-function data onto a spline space.

    Each sample is the right-continuous step function taking the row value
    on ``[args[i], args[i+1])``; the last value extends to the end of the
    knot range.  Arguments outside the knot range are dropped with a
    warning.
    """
    if not isinstance(data, FunctionalDataMatrix):
        data = FunctionalDataMatrix(*data)
    knots = _knots(knots)
    xi = knots.xi
    inside = (data.args >= xi[0]) & (data.args <= xi[-1])
    if not np.any(inside):
        raise ValueError("all data arguments fall outside the knot range")
    if not np.all(inside):
        warnings.warn("%d data arguments outside the knot range were dropped"
                      % int(np.sum(~inside)))
    args, values = data.args[inside], data.values[inside]

    basis, transform = _make_basis(knots, k, type)
    prim = integra(basis)
    ends = args if args[-1] == xi[-1] else np.concatenate([args, [xi[-1]]])
    deltas = np.diff(evaluate(prim, ends), axis=0)  # antiderivative steps
    # with args ending at the last knot, the last step has zero width and
    # its value never contributes
    return _projection(basis, transform, values[: deltas.shape[0]].T @ deltas, type)


# ---------------------------------------------------------------------------
# functional PCA


#: largest entry of |G - I|, G the sparse Gram of the basis, for which
#: :func:`fpca` takes the basis as orthonormal
ORTHONORMAL_TOL = 1e-6

#: eigenvalues below this fraction of the coefficients' mean square (at
#: least 1) are rounding noise, as from centering identical samples, and
#: count as zero
EIGEN_NOISE_FLOOR = 1e-20

#: a component is retained when its eigenvalue exceeds this fraction of the
#: largest
RETAIN_TOL = 1e-10


@dataclass(frozen=True)
class FpcaResult:
    """FPCA of m coefficient rows over a basis of d members, of which the
    ``n_retained`` leading components carry variance."""

    mean_coeff: np.ndarray  # (d,) mean coefficient row
    eigenvalues: np.ndarray  # (d,) descending; zero past the rank of the data
    eigenfunctions: SplineFamily  # one member per retained component
    scores: np.ndarray  # (m, n_retained), standardized
    basis: SplineFamily
    eigenvectors: np.ndarray  # (d, n_retained): columns, one per retained component
    n_retained: int


def fpca(pr):
    """Principal component analysis of a projection's coefficient rows.

    The eigenpairs of the coefficient covariance come from the thin SVD of
    the m x d centered rows (Ramsay & Silverman, *Functional Data Analysis*,
    2005, ch. 8): eigenvalues s**2 / (m - 1), padded with zeros to d, and
    eigenvectors the rows of V'.  So no d x d array is formed, and only the
    retained components get eigenvectors, scores and eigenfunctions.  Each
    eigenvector's largest-magnitude coefficient is positive.
    """
    basis = pr.basis
    d = len(basis)
    coeff = _reals(pr.coeff, "coeff", 2)
    if coeff.ndim != 2 or coeff.shape[1] != d:
        raise ValueError("fpca needs one row of %d coefficients per sample (one per basis "
                         "member), got an array of shape %s" % (d, coeff.shape))
    if not np.all(np.isfinite(coeff)):
        raise ValueError("fpca coefficients must be finite")
    # the sparse Gram against the identity: stored entries off the diagonal
    # must vanish, the diagonal (0 where not stored) must be 1
    g = _gram(basis, basis, True)
    off = g.data[g.indices != g.rows()]
    if np.max(np.abs(np.concatenate([g.diagonal() - 1.0, off])), initial=0.0) > ORTHONORMAL_TOL:
        raise ValueError("fpca needs an orthonormal basis; project with type='spnt'")
    m = coeff.shape[0]
    if m < 2:
        raise ValueError("fpca needs at least two samples")
    mean = coeff.mean(axis=0)
    centered = coeff - mean
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    w = np.zeros(d)
    w[: s.size] = s * s / (m - 1)
    w[w < EIGEN_NOISE_FLOOR * max(1.0, float(np.mean(coeff ** 2)))] = 0.0
    retained = int(np.sum(w > RETAIN_TOL * w.max(initial=0.0)))
    v = vt[:retained].T
    lead = v[np.argmax(np.abs(v), axis=0), np.arange(retained)]
    v = np.where(lead < 0, -v, v)
    scores = centered @ v / np.sqrt(w[:retained])
    return FpcaResult(mean, w, lincomb(basis, v.T), scores, basis, v, retained)


def kl_reconstruct(fp, coeff_row, m_components):
    """Truncated Karhunen-Loeve reconstruction of one coefficient row: ``d``
    coefficients, one per basis member, kept on ``m_components`` retained
    components, an integer in ``[0, n_retained]`` (``2.0`` counts as 2)."""
    m_components = _integer(m_components, "m_components", 0, fp.n_retained)
    d = len(fp.basis)
    coeff_row = _reals(coeff_row, "coeff_row")
    if coeff_row.shape != (d,):
        raise ValueError("kl_reconstruct needs one row of %d coefficients (one per basis "
                         "member), got an array of shape %s" % (d, coeff_row.shape))
    centered = coeff_row - fp.mean_coeff
    v = fp.eigenvectors[:, :m_components]
    rec = fp.mean_coeff + v @ (v.T @ centered)
    return lincomb(fp.basis, rec[None, :])


# ---------------------------------------------------------------------------
# functional-data CSVs


def read_fdata_csv(path):
    """Functional-data CSV: column 1 ascending args, columns 2.. samples."""
    body = read_csv_matrix(path)
    if body.shape[1] < 2:
        raise ValueError("need an argument column plus at least one sample")
    return FunctionalDataMatrix(body[:, 0], body[:, 1:])
