"""Orthogonal projection onto spline spaces and functional PCA.

Spline families project by solving the normal equations against a basis of
the target space; discretized functional data are treated as
right-continuous step functions whose inner products with basis members are
exact (differences of the basis antiderivative at the arguments).  The PCA
works on decomposition coefficients in an orthonormal basis, where the L2
geometry of the function space is the Euclidean geometry of coefficients.
"""

from __future__ import annotations

import csv
import itertools
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .bases import BASIS_TYPES, _lower_band, splinet
from .calculus import gramian, integra, lincomb
from .core import KnotSet, SplineFamily, evaluate
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
        args = np.asarray(self.args, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if args.ndim != 1 or values.shape[0] != args.size:
            raise ValueError("values must have one row per argument")
        if np.any(np.diff(args) <= 0):
            raise ValueError("arguments must be strictly increasing")
        if np.any(~np.isfinite(values)) or np.any(~np.isfinite(args)):
            raise ValueError("missing or non-finite entries are not supported")
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "values", values)

    @property
    def n_samples(self):
        return self.values.shape[1]


def _make_basis(knots, k, type):
    if type not in BASIS_TYPES:
        raise ValueError("basis type must be one of %s" % (BASIS_TYPES,))
    res = splinet(knots, k, type=type)
    basis = res.bs if type == "bs" else res.os
    return basis, res.transform


def _union_knots(a, b):
    scale = max(a.xi[-1] - a.xi[0], b.xi[-1] - b.xi[0])
    merged = np.union1d(a.xi, b.xi)
    keep = np.concatenate([[True], np.diff(merged) > 1e-12 * scale])
    return KnotSet(merged[keep])


def _projection(basis, transform, b, type):
    """The projection whose inner products with the basis members are ``b``
    (m x d): the coefficients are ``b`` itself for an orthonormal basis and
    solve the banded normal equations (bandwidth k) for B-splines."""
    coeff = b
    if type == "bs":
        ab = _lower_band(gramian(basis), basis.smorder)
        coeff = scipy.linalg.cho_solve_banded(
            (scipy.linalg.cholesky_banded(ab, lower=True), True), b.T).T
    return ProjectionResult(coeff, basis, lincomb(basis, coeff), transform)


def project_splines(fam, target_knots=None, type="spnt"):
    """Project every member of ``fam`` onto a spline space.

    With no ``target_knots`` this is a pure change of basis on the family's
    own knots; otherwise both spaces are refined into their knot union and
    the projection is orthogonal in L2 of that union.
    """
    k = fam.smorder
    target = fam.knots if target_knots is None else target_knots
    basis, transform = _make_basis(target, k, type)
    if target == fam.knots:
        fam_ref, basis_ref = fam, basis
    else:
        union = _union_knots(fam.knots, target)
        fam_ref = refine(fam, union)
        basis_ref = refine(basis, union)
    return _projection(basis, transform, gramian(fam_ref, basis_ref), type)


def project_data(data, knots, k, type="spnt"):
    """Project step-function data onto a spline space.

    Each sample is the right-continuous step function taking the row value
    on ``[args[i], args[i+1])``; the last value extends to the end of the
    knot range.  Arguments outside the knot range are dropped with a
    warning.
    """
    if not isinstance(data, FunctionalDataMatrix):
        data = FunctionalDataMatrix(*data)
    if not isinstance(knots, KnotSet):
        knots = KnotSet(np.asarray(knots, dtype=float))
    xi = knots.xi
    inside = (data.args >= xi[0]) & (data.args <= xi[-1])
    if not np.any(inside):
        raise ValueError("all data arguments fall outside the knot range")
    if not np.all(inside):
        warnings.warn("%d data arguments outside the knot range were dropped"
                      % int(np.sum(~inside)))
    args = data.args[inside]
    values = data.values[inside]

    basis, transform = _make_basis(knots, k, type)
    prim = integra(basis)
    ends = args if args[-1] == xi[-1] else np.concatenate([args, [xi[-1]]])
    deltas = np.diff(evaluate(prim, ends), axis=0)  # antiderivative steps
    # with args ending at the last knot, the last step has zero width and
    # its value never contributes
    return _projection(basis, transform, values[: deltas.shape[0]].T @ deltas, type)


# ---------------------------------------------------------------------------
# functional PCA


@dataclass(frozen=True)
class FpcaResult:
    mean_coeff: np.ndarray
    eigenvalues: np.ndarray
    eigenfunctions: SplineFamily
    scores: np.ndarray
    basis: SplineFamily
    eigenvectors: np.ndarray  # columns, one per retained component
    n_retained: int


def fpca(pr):
    """Principal component analysis of a projection's coefficient rows."""
    basis = pr.basis
    d = len(basis)
    ident = gramian(basis)
    if np.max(np.abs(ident - np.eye(d))) > 1e-6:
        raise ValueError("fpca needs an orthonormal basis; project with type='spnt'")
    coeff = np.asarray(pr.coeff, dtype=float)
    m = coeff.shape[0]
    if m < 2:
        raise ValueError("fpca needs at least two samples")
    mean = coeff.mean(axis=0)
    centered = coeff - mean
    cov = centered.T @ centered / (m - 1)
    w, v = np.linalg.eigh(cov)
    w, v = w[::-1], v[:, ::-1]  # descending
    lam1 = w[0] if w.size else 0.0
    if w.size and w[-1] < -1e-10 * max(lam1, 1.0):
        raise ValueError("coefficient covariance is indefinite")
    w = np.clip(w, 0.0, None)
    # rounding noise from centering identical samples counts as zero
    w[w < 1e-20 * max(1.0, float(np.mean(coeff ** 2)))] = 0.0
    lam1 = w[0] if w.size else 0.0
    # reproducible sign: largest-magnitude coefficient positive
    lead = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    v = np.where(lead < 0, -v, v)
    retained = int(np.sum(w > 1e-10 * lam1)) if lam1 > 0 else 0
    scores = centered @ v[:, :retained]
    scores = scores / np.sqrt(w[:retained])
    eigenfun = lincomb(basis, v.T)
    return FpcaResult(mean, w, eigenfun, scores, basis, v, retained)


def kl_reconstruct(fp, coeff_row, m_components):
    """Truncated Karhunen-Loeve reconstruction of one coefficient row."""
    if m_components < 0 or m_components > fp.n_retained:
        raise ValueError("m_components must be in [0, %d]" % fp.n_retained)
    centered = np.asarray(coeff_row, dtype=float) - fp.mean_coeff
    v = fp.eigenvectors[:, :m_components]
    rec = fp.mean_coeff + v @ (v.T @ centered)
    return lincomb(fp.basis, rec[None, :])


# ---------------------------------------------------------------------------
# CSV interfaces


def read_csv_matrix(path):
    """Numeric CSV as a 2-d array; a first row that is not numeric is a header."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if not rows:
        raise ValueError("%s holds no CSV rows" % path)
    start = 0
    try:
        float(rows[0][0])
    except ValueError:
        start = 1  # header line
    return np.array([[float(x) for x in r] for r in rows[start:]])


def read_fdata_csv(path):
    """Functional-data CSV: column 1 ascending args, columns 2.. samples."""
    body = read_csv_matrix(path)
    if body.ndim != 2 or body.shape[1] < 2:
        raise ValueError("need an argument column plus at least one sample")
    return FunctionalDataMatrix(body[:, 0], body[:, 1:])


_CSV_CHUNK_ROWS = 4096


def _reprs(values):
    """``repr`` of every entry of a float array, in row-major order."""
    return list(map(float.__repr__, np.asarray(values, dtype=float).ravel().tolist()))


def _repr_rows(matrix):
    """The rows of a 2-d float array as lists of ``repr`` strings."""
    toks, c = _reprs(matrix), matrix.shape[1]
    return [toks[i * c:(i + 1) * c] for i in range(matrix.shape[0])]


def _write_csv(path, header, rows):
    """Write ``header`` and ``rows`` (sequences of strings) as ``csv.writer``
    writes fields that need no quoting: comma separated, ``\\r\\n`` line ends.
    Rows are joined and written ``_CSV_CHUNK_ROWS`` at a time, so the text of
    a long CSV is never held whole."""
    rows = iter(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        while lines := list(map(",".join, itertools.islice(rows, _CSV_CHUNK_ROWS))):
            fh.write("\r\n".join(lines) + "\r\n")


def write_coeff_csv(path, coeff):
    coeff = np.atleast_2d(np.asarray(coeff, dtype=float))
    _write_csv(path, ["c%d" % (j + 1) for j in range(coeff.shape[1])], _repr_rows(coeff))
