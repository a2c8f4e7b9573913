"""Orthogonal projection onto spline spaces and functional PCA.

Spline families project by solving the normal equations against a basis of
the target space; discretized functional data are treated as
right-continuous step functions whose inner products with basis members are
exact (differences of the basis antiderivative at the arguments).  The PCA
works on decomposition coefficients in an orthonormal basis, where the L2
geometry of the function space is the Euclidean geometry of coefficients.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .archive import _float_texts
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
# CSV interfaces


def _is_number(field):
    """Whether numpy's parser reads ``field``: stripped, ASCII, no ``_``, a Python float."""
    text = field.strip()
    try:
        float(text)
    except ValueError:
        return False
    return text.isascii() and "_" not in text


def _read_numbers(path, csv):
    """The numbers of a text file as a 2-d array, read by ``np.loadtxt``.

    A CSV (``csv`` true) separates fields by commas, may quote them with
    ``"`` and has a header when no field of its first row is a number.  A
    knot file separates fields by whitespace, ``#`` starting a comment.
    Blank lines hold no row.  Only when ``np.loadtxt`` rejects the file are
    its lines read again, to name the first fault and its 1-based line: a row
    not as wide as the first data row, or a field that is not a number.
    """
    fmt = dict(delimiter=",", comments=None, quotechar='"') if csv else dict(comments="#")

    def rows(fh):  # (first line, fields) of each row, as np.loadtxt splits it
        start, text = 0, ""
        for line, part in enumerate(fh, 1):
            if not csv:
                if fields := part.partition("#")[0].split():
                    yield line, fields
                continue
            # a quoted field may span lines: a row ends where its quotes balance,
            # or at the end of the file
            start, text = start or line, text + part
            if text.count('"') % 2 == 0:
                if text != "\n":
                    yield start, split(text)
                start, text = 0, ""
        if text:
            yield start, split(text)

    def split(text):
        return np.loadtxt([text], dtype=object, ndmin=1, **fmt).tolist()

    with open(path, encoding="utf-8") as fh:
        head = list(itertools.islice(rows(fh), 2))
    if not head:
        raise ValueError("%s holds no CSV rows" % path if csv else
                         "%s: no knots in the file" % path)
    header = csv and not any(map(_is_number, head[0][1]))
    if header and len(head) == 1:
        raise ValueError("%s holds no CSV rows below its header" % path)
    try:
        return np.loadtxt(path, ndmin=2, skiprows=head[1][0] - 1 if header else 0,
                          encoding="utf-8", **fmt)
    except ValueError as exc:
        width = len(head[header][1])
        with open(path, encoding="utf-8") as fh:
            for line, fields in itertools.islice(rows(fh), header, None):
                if len(fields) != width:
                    raise ValueError("%s: the row on line %d has %d fields, expected %d"
                                     % (path, line, len(fields), width)) from None
                for j, x in enumerate(fields, 1):
                    if not _is_number(x):
                        raise ValueError("%s: field %d on line %d is not a number: %r"
                                         % (path, j, line, x)) from None
        # no fault found where numpy found one: its own message
        raise ValueError("%s: %s" % (path, exc)) from None


def read_csv_matrix(path):
    """Numeric CSV as a 2-d array (:func:`_read_numbers`)."""
    return _read_numbers(path, csv=True)


def read_fdata_csv(path):
    """Functional-data CSV: column 1 ascending args, columns 2.. samples."""
    body = read_csv_matrix(path)
    if body.shape[1] < 2:
        raise ValueError("need an argument column plus at least one sample")
    return FunctionalDataMatrix(body[:, 0], body[:, 1:])


_CSV_CHUNK_ROWS = 4096


def _cells(col):
    """One string per row of a column chunk: the entries of a float array
    exactly as ``float.__repr__`` writes them (shortest round trip, ``nan``
    and ``inf`` for non-finite ones), rendered by the archive's float
    renderer (:func:`~splinet.archive._float_texts`: orjson and three byte
    rewrites); of an integer array through ``str``; of an object array of
    strings as they are.  The fields of a row of a 2-d array are comma
    joined."""
    if col.dtype.kind == "f":
        return _float_texts(col[:, None] if col.ndim == 1 else col)
    toks = col.ravel().tolist()
    if col.dtype != object:
        toks = list(map(str, toks))
    if col.ndim == 1:
        return toks
    c = col.shape[1]
    return [",".join(toks[i * c:(i + 1) * c]) for i in range(col.shape[0])]


def _write_csv(path, header, nrows, columns):
    """Write ``header`` and ``nrows`` rows as ``csv.writer`` writes fields
    that need no quoting: comma separated, ``\\r\\n`` line ends.

    ``columns(rows)`` gives the table's columns at the row indices ``rows``
    (an integer array): number arrays or object arrays of strings, a 2-d
    one giving one field per column (see :func:`_cells`).  It is asked for
    ``_CSV_CHUNK_ROWS`` rows at a time, and each chunk is rendered, joined
    and written before the next, so neither the text of a long CSV nor its
    tokens are ever held whole."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, nrows, _CSV_CHUNK_ROWS):
            rows = np.arange(lo, min(lo + _CSV_CHUNK_ROWS, nrows))
            lines = map(",".join, zip(*map(_cells, columns(rows))))
            fh.write("\r\n".join(lines) + "\r\n")


def _write_matrix_csv(path, prefix, matrix):
    """A 2-d float array under the header ``prefix1,prefix2,...``."""
    _write_csv(path, ["%s%d" % (prefix, j + 1) for j in range(matrix.shape[1])],
               matrix.shape[0], lambda rows: [matrix[rows]])


def write_coeff_csv(path, coeff):
    _write_matrix_csv(path, "c", np.atleast_2d(_reals(coeff, "coeff", 2)))
