"""Output checks, run after the timed section, independent of splinet.

Archives are parsed with ``json`` and evaluated here from the documented
format (derivative values at knots, symmetric convention for the k-th
column), so a defect in splinet's own evaluator or loader cannot hide a
defect in its output.  Inner products use composite Gauss-Legendre
quadrature over every knot interval, in the style of ``tests/oracles.py``.
Every check is a tolerance test, never a byte comparison.
"""

from __future__ import annotations

import json
import math

import numpy as np

#: largest accepted relative error of any checked output
REL_TOL = 1e-6
#: most basis members whose orthonormality one check verifies
MAX_CHECKED = 64
#: Gauss-Legendre nodes per interval; exact for the degree-6 products of cubics
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(6)


class Archive:
    """A spline archive read straight from its JSON form."""

    def __init__(self, path):
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        self.xi = np.asarray(obj["knots"], dtype=float)
        self.k = int(obj["order"])
        if self.k < 1:
            raise ValueError("checks support order >= 1 only")
        self.members = [
            ([tuple(c) for c in m["supp"]], [np.asarray(b, dtype=float) for b in m["der"]])
            for m in obj["splines"]
        ]

    def __len__(self):
        return len(self.members)

    def evaluate(self, x, idx):
        """Values of members ``idx`` at points ``x`` (right-continuous)."""
        xi, k = self.xi, self.k
        fact = np.array([math.factorial(p) for p in range(k + 1)], dtype=float)
        out = np.zeros((x.size, len(idx)))
        for col, i in enumerate(idx):
            supp, blocks = self.members[i]
            for (lo, hi), blk in zip(supp, blocks):
                sel = (x >= xi[lo]) & (x < xi[hi])
                if hi == xi.size - 1:
                    sel |= x == xi[-1]
                if not np.any(sel):
                    continue
                t = x[sel]
                iv = np.clip(np.searchsorted(xi, t, side="right") - 1, lo, hi - 1)
                j = iv - lo
                m = hi - lo - 1
                # symmetric convention: rows 0..m//2 hold right-hand limits of
                # the k-th derivative, the rows below hold left-hand limits
                kth = np.where(j <= m // 2, blk[j, k], blk[j + 1, k])
                coef = np.column_stack([blk[j, :k], kth]) / fact
                dt = (t - xi[iv])[:, None] ** np.arange(k + 1)
                out[sel, col] = np.sum(coef * dt, axis=1)
        return out


def quadrature(breaks):
    """Nodes and weights of composite Gauss-Legendre over sorted ``breaks``."""
    a, b = breaks[:-1, None], breaks[1:, None]
    x = 0.5 * (b - a) * GL_NODES + 0.5 * (a + b)
    w = 0.5 * (b - a) * GL_WEIGHTS
    return x.ravel(), np.broadcast_to(w, x.shape).ravel()


def subset(rng, d):
    return np.sort(rng.choice(d, size=min(d, MAX_CHECKED), replace=False))


def orthonormality_error(arch, rng):
    """max |G - I| over the Gram matrix of a seeded member subset."""
    idx = subset(rng, len(arch))
    x, w = quadrature(arch.xi)
    v = arch.evaluate(x, idx)
    g = v.T @ (w[:, None] * v)
    return float(np.max(np.abs(g - np.eye(idx.size))))


def read_csv(path, header=True):
    """Numeric CSV body as a 2-d array; raises on ragged or non-numeric rows."""
    body = np.loadtxt(path, delimiter=",", skiprows=1 if header else 0, ndmin=2)
    if not np.all(np.isfinite(body)):
        raise ValueError("%s holds non-finite values" % path)
    return body


def expect_shape(arr, shape, what):
    if arr.shape != shape:
        raise ValueError("%s has shape %s, expected %s" % (what, arr.shape, shape))


# ---------------------------------------------------------------------------
# per-command checks: each returns the worst relative error it measured
# (0.0 when it only checks structure) and raises ValueError on a bad output


def check_basis(job, rng):
    arch = Archive(job["out"] + ".os.json")
    if len(arch) != job["d"]:
        raise ValueError("basis has %d members, expected %d" % (len(arch), job["d"]))
    if len(Archive(job["out"] + ".bs.json")) != job["d"]:
        raise ValueError("B-spline archive has the wrong size")
    return orthonormality_error(arch, rng)


def check_exit_only(job, rng):
    return 0.0


def check_random(job, rng):
    arch = Archive(job["out"])
    if len(arch) != job["count"]:
        raise ValueError("drew %d members, expected %d" % (len(arch), job["count"]))
    for _, blocks in arch.members:
        if not all(np.all(np.isfinite(b)) for b in blocks):
            raise ValueError("a drawn member holds non-finite values")
    return 0.0


def check_fpca(job, rng):
    """Eigenvalues against eigvalsh of the coefficient covariance; eigenfunctions
    orthonormal; score CSV shaped by the retained count."""
    coeff = read_csv(job["coeff"])
    centered = coeff - coeff.mean(axis=0)
    cov = centered.T @ centered / (coeff.shape[0] - 1)
    ref = np.clip(np.linalg.eigvalsh(cov)[::-1], 0.0, None)
    ev = read_csv(job["out"] + ".eigenvalues.csv")
    expect_shape(ev, (ref.size, 2), "eigenvalue CSV")
    err = float(np.max(np.abs(ev[:, 1] - ref)) / ref[0])
    retained = int(np.sum(ev[:, 1] > 1e-10 * ev[0, 1]))
    scores = read_csv(job["out"] + ".scores.csv")
    expect_shape(scores, (coeff.shape[0], retained), "score CSV")
    eigf = Archive(job["out"] + ".eigenfunctions.json")
    return max(err, orthonormality_error(eigf, rng))


def check_project_splines(job, rng):
    """For a seeded subset of members f: ||Pf||^2 = sum of squared coefficients
    (orthonormal basis) and <f - Pf, Pf> = 0, both by quadrature."""
    coeff = read_csv(job["out"] + ".coeff.csv")
    src = Archive(job["input"])
    proj = Archive(job["out"] + ".proj.json")
    expect_shape(coeff, (len(src), job["d"]), "coefficient CSV")
    if len(proj) != len(src):
        raise ValueError("projection archive has the wrong size")
    idx = subset(rng, len(src))
    x, w = quadrature(np.union1d(src.xi, proj.xi))
    f, pf = src.evaluate(x, idx), proj.evaluate(x, idx)
    norm_f = np.sum(w[:, None] * f * f, axis=0)
    norm_pf = np.sum(w[:, None] * pf * pf, axis=0)
    resid = np.sum(w[:, None] * (f - pf) * pf, axis=0)
    err = np.maximum(np.abs(norm_pf - np.sum(coeff[idx] ** 2, axis=1)), np.abs(resid))
    return float(np.max(err / norm_f))


def check_eval(job, rng):
    """Long CSV (arg, member, value) against this module's evaluator."""
    src = Archive(job["input"])
    body = read_csv(job["out"])
    n_pts = body.shape[0] // max(len(src), 1)
    expect_shape(body, (n_pts * len(src), 3), "evaluation CSV")
    if not np.array_equal(body[:, 1], np.repeat(np.arange(len(src)), n_pts)):
        raise ValueError("evaluation CSV rows are not member-major")
    grid = body[:n_pts, 0]
    idx = subset(rng, len(src))
    vals = body[:, 2].reshape(len(src), n_pts).T
    ref = src.evaluate(grid, idx)
    return float(np.max(np.abs(vals[:, idx] - ref)) / np.max(np.abs(ref)))


CHECKS = {
    "basis": check_basis,
    "check": check_exit_only,
    "random": check_random,
    "project_splines": check_project_splines,
    "fpca": check_fpca,
    "eval": check_eval,
}


def check_job(job, rc, rng):
    """(ok, worst relative error or None, reason) for one job's outputs."""
    if rc != 0:
        return False, None, "exit code %d" % rc
    try:
        err = CHECKS[job["check"]](job, rng)
    except (ValueError, OSError, KeyError, IndexError) as exc:
        return False, None, str(exc)
    return err <= REL_TOL, err, "relative error %r" % err
