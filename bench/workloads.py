"""The benchmark's workloads: seeded inputs and the CLI jobs of one pass.

Every input (knot files, coefficient CSVs, mean archive) is written from
the seed before anything is timed, with numpy alone, so splinet only ever
sees files.  A job is a dict: ``argv`` for ``splinet.cli.main``, ``check``
naming the output check in ``checks.py``, and the fields that check reads.
Strings may hold ``{in}`` (the run's input directory) and ``{out}`` (the
pass's output directory).
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

K = 3  # smoothness order of every basis
#: complete dyadic nets, d = K * (2**L - 1); memory of the dense P grows like d**2
EQUID_SIZES = (381, 1533, 6141)
SCHEME_SIZE = 1533
SCHEMES = ("spnt", "gsob", "twob")
FDATA_SIZES = (93, 189)
FDATA_ARGS, FDATA_SAMPLES, FDATA_COMPONENTS = 2000, 200, 12
MEAN_KNOTS, DRAWS, PROJ_KNOTS = 40, 1000, 20

WARMUP = ["basis", "--equid", "0", "1", "23", "-k", str(K), "-o", "{out}/warmup"]


def job(argv, check, **fields):
    return dict(argv=argv, check=check, **fields)


def n_internal(d):
    """Internal knot count giving a basis of d members at order K."""
    return d + K - 1


def write_knots(path, xi):
    np.savetxt(path, xi, fmt="%.17g")


def basis_equid(rng, in_dir):
    """Complete nets on equidistant knots (Toeplitz path), each basis then checked.

    Gram assembly, the dense-P lincomb and archive writes dominate; the
    orthogonalizer does little.  The only workload whose memory grows like d**2.
    The seed sets the knot range.
    """
    a = round(float(rng.uniform(0.0, 1.0)), 3)
    b = round(a + float(rng.uniform(0.5, 2.0)), 3)
    jobs = []
    for d in EQUID_SIZES:
        out = "{out}/e%d" % d
        jobs.append(job(["basis", "--equid", repr(a), repr(b), str(n_internal(d)),
                         "-k", str(K), "-o", out], "basis", out=out, d=d))
        jobs.append(job(["check", "-i", out + ".os.json"], "check"))
    return jobs


def basis_schemes(rng, in_dir):
    """Seeded irregular knots at d = 1533, one basis per scheme.

    Runs the general B-spline recursion and the orthogonalizer's per-group
    scan (twob dominates); gsob puts a triangular dense P through lincomb and
    the archive.  Without it the orthogonalizer would go unmeasured.
    """
    widths = rng.uniform(0.5, 1.5, n_internal(SCHEME_SIZE) + 1)
    xi = np.concatenate([[0.0], np.cumsum(widths)])
    write_knots(os.path.join(in_dir, "irregular.txt"), xi / xi[-1])
    jobs = []
    for t in SCHEMES:
        out = "{out}/s_" + t
        jobs.append(job(["basis", "--knots", "{in}/irregular.txt", "-k", str(K),
                         "--type", t, "-o", out], "basis", out=out, d=SCHEME_SIZE))
    return jobs


def fdata_args(rng):
    """Seeded, unevenly spaced arguments of functional data on [0, 1]."""
    return np.concatenate([[0.0], np.sort(rng.beta(2.0, 2.0, FDATA_ARGS - 2)), [1.0]])


def write_coeff(path, rng, d):
    """Coefficients of FDATA_SAMPLES smooth curves plus noise in a d-member basis.

    A few dense components with decaying variance over a white noise floor,
    as smooth data projected onto an orthonormal basis give; the covariance
    is dense and of full rank, so the eigensolve does all its sweeps.
    """
    load, _ = np.linalg.qr(rng.standard_normal((d, FDATA_COMPONENTS)))
    scale = 1.0 / np.arange(1, FDATA_COMPONENTS + 1)
    coeff = (rng.standard_normal((FDATA_SAMPLES, FDATA_COMPONENTS)) * scale) @ load.T
    coeff += 0.05 * rng.standard_normal(coeff.shape)
    header = ",".join("c%d" % (j + 1) for j in range(d))
    np.savetxt(path, coeff, fmt="%.17g", delimiter=",", header=header, comments="")


def fdata_fpca(rng, in_dir):
    """Knots at the quantiles of seeded data arguments: basis, then fpca of a
    seeded coefficient CSV, per size.

    The FPCA eigensolve and CSV parsing and formatting dominate; Gram and
    lincomb do little.  ``project -i data.csv`` is left out: at the seed it
    returns wrong coefficients (``calculus.integra`` truncates antiderivatives).
    """
    args = fdata_args(rng)
    jobs = []
    for d in FDATA_SIZES:
        name, coeff = "quantile%d.txt" % d, "coeff%d.csv" % d
        write_knots(os.path.join(in_dir, name),
                    np.quantile(args, np.linspace(0.0, 1.0, n_internal(d) + 2)))
        write_coeff(os.path.join(in_dir, coeff), rng, d)
        basis, fp = "{out}/f%d" % d, "{out}/fp%d" % d
        jobs += [
            job(["basis", "--knots", "{in}/" + name, "-k", str(K), "-o", basis], "basis",
                out=basis, d=d),
            job(["fpca", "--coeff", "{in}/" + coeff, "--basis", basis + ".os.json",
                 "-o", fp], "fpca", out=fp, coeff="{in}/" + coeff),
        ]
    return jobs


def mean_archive(rng, n):
    """A valid order-K spline on n equidistant internal knots of [0, 1].

    Its K-th derivative is a seeded step function, corrected (least norm) so
    that the values and first K-1 derivatives vanish at both ends; rows are
    propagated by exact Taylor steps.  Returns the archive as a dict.
    """
    xi = np.linspace(0.0, 1.0, n + 2)
    h = np.diff(xi)
    fact = np.array([math.factorial(p) for p in range(K + 1)], dtype=float)

    def rows(c):
        r = np.zeros((n + 2, K + 1))
        for i in range(n + 1):
            r[i, K] = c[i]
            for p in range(K):
                q = np.arange(p, K + 1)
                r[i + 1, p] = np.sum(r[i, q] * h[i] ** (q - p) / fact[q - p])
        return r

    ends = np.array([rows(e)[-1, :K] for e in np.eye(n + 1)]).T
    c = rng.standard_normal(n + 1)
    c -= ends.T @ np.linalg.solve(ends @ ends.T, ends @ c)
    one = rows(c)
    one[-1, K] = 0.0
    one /= np.max(np.abs(one[:, 0]))
    # symmetric convention: left-hand limits below the middle row
    m, sym = n, one.copy()
    half = m // 2
    sym[half + 2 : m + 2, K] = one[half + 1 : m + 1, K]
    sym[half + 1, K] = one[half, K] if m % 2 == 0 else 0.0
    return {"knots": xi.tolist(), "order": K, "type": "sp", "epsilon": 1e-7,
            "splines": [{"supp": [[0, n + 1]], "der": [sym.tolist()]}]}


def random_check(rng, in_dir):
    """RRM draws around a seeded mean, then check, project onto 20 knots, eval.

    One construct per draw, an archive written then read twice, 1000 members
    validated, a long CSV written; Gram runs as 1000 full-support rows against
    18 basis members after refine.
    """
    with open(os.path.join(in_dir, "mean.json"), "w", encoding="utf-8") as fh:
        json.dump(mean_archive(rng, MEAN_KNOTS), fh)
    seed = str(int(rng.integers(0, 2**31)))
    draws = "{out}/draws.json"
    return [
        job(["random", "--mean", "{in}/mean.json", "-M", str(DRAWS), "--seed", seed,
             "-o", draws], "random", out=draws, count=DRAWS),
        job(["check", "-i", draws], "check"),
        job(["project", "-i", draws, "--equid", "0", "1", str(PROJ_KNOTS), "-o", "{out}/pr"],
            "project_splines", input=draws, out="{out}/pr", d=PROJ_KNOTS - K + 1),
        job(["eval", "-i", draws, "-N", "2", "-o", "{out}/draws.eval.csv"], "eval",
            input=draws, out="{out}/draws.eval.csv"),
    ]


WORKLOADS = {
    "basis_equid": basis_equid,
    "basis_schemes": basis_schemes,
    "fdata_fpca": fdata_fpca,
    "random_check": random_check,
}


def expand(obj, in_dir, out_dir):
    """Fill ``{in}``/``{out}`` in every string of a job (or list of jobs)."""
    if isinstance(obj, str):
        return obj.replace("{in}", in_dir).replace("{out}", out_dir)
    if isinstance(obj, list):
        return [expand(x, in_dir, out_dir) for x in obj]
    if isinstance(obj, dict):
        return {key: expand(val, in_dir, out_dir) for key, val in obj.items()}
    return obj
