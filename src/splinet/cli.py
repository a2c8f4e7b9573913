"""Batch command line front end.

Commands: ``basis``, ``eval``, ``check``, ``random``, ``project``,
``fpca``, ``gram``.  Splines travel as JSON archives, numbers as CSV.
Exit codes: 0 success, 1 numerical or validity failure, 2 usage error.
All work runs in one thread; the ``SPLINET_THREADS`` environment variable
is ignored.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .archive import load_archive, save_archive
from .bases import BASIS_TYPES, splinet
from .calculus import gramian, lincomb
from .core import KnotSet, ValidityReport, equidistant_knots, evaluate, is_valid_spline, sample_grid
from .project import (
    FunctionalDataMatrix,
    ProjectionResult,
    fpca,
    project_data,
    project_splines,
    read_csv_matrix,
    read_fdata_csv,
    write_coeff_csv,
    _repr_rows,
    _reprs,
    _write_csv,
)
from .random import RNG_ALGORITHM, NoiseSpec, rspline


def _knots_from_args(args):
    if args.equid is not None and args.knots is not None:
        raise UsageError("--equid and --knots are mutually exclusive")
    if args.equid is not None:
        a, b, n = args.equid
        return equidistant_knots(float(a), float(b), _count_arg("--equid N", n))
    if args.knots is not None:
        return KnotSet(np.sort(np.loadtxt(args.knots, dtype=float).ravel()))
    raise UsageError("need either --equid A B N or --knots FILE")


class UsageError(Exception):
    pass


def _count_arg(flag, text):
    """``text`` as a non-negative integer (``10`` or ``10.0``); anything else,
    a fraction, a negative or non-finite number, is a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (value >= 0 and value.is_integer()):
        raise UsageError("%s must be a non-negative integer; got %r" % (flag, text))
    return int(value)


#: integer flags with a lower bound: attribute -> (flag, smallest value)
_FLAG_MIN = {"order": ("-k", 0), "density": ("-N", 1), "count": ("-M", 1),
             "deriv": ("--deriv", 0)}


def _check_flag_ranges(args):
    for attr, (flag, low) in _FLAG_MIN.items():
        value = getattr(args, attr, None)
        if value is not None and value < low:
            raise UsageError("%s must be >= %d; got %d" % (flag, low, value))


def _fmt(x):
    return repr(float(x))


def _cmd_basis(args):
    knots = _knots_from_args(args)
    res = splinet(knots, args.order, type=args.type, normalize=args.normalize)
    save_archive(args.out + ".bs.json", res.bs)
    if res.os is not None:
        save_archive(args.out + ".os.json", res.os, res.net)
        print("wrote %s.bs.json and %s.os.json (%d members, type %s)"
              % (args.out, args.out, len(res.os), res.os.type))
    else:
        print("wrote %s.bs.json (%d members)" % (args.out, len(res.bs)))
    return 0


def _cmd_eval(args):
    fam, _ = load_archive(args.input)
    grid = sample_grid(fam.knots, max(fam.smorder, 1), args.density)
    vals = evaluate(fam, grid, deriv=args.deriv)
    # long format: every grid point of member 0, then of member 1, ...
    members = [s for s in map(str, range(vals.shape[1])) for _ in range(grid.size)]
    _write_csv(args.out, ["arg", "member", "value"],
               zip(_reprs(grid) * vals.shape[1], members, _reprs(vals.T)))
    print("wrote %s (%d points x %d members)" % (args.out, grid.size, vals.shape[1]))
    return 0


def _cmd_check(args):
    fam, _ = load_archive(args.input)
    report = is_valid_spline(fam)
    if report.all_ok:
        print("valid: %d members, max violation %s" % (len(fam), _fmt(report.max_violation)))
        return 0
    print("invalid: member %d violates validity by %s at knot index %d"
          % (report.worst_member, _fmt(report.max_violation), report.worst_knot),
          file=sys.stderr)
    return 1


def _parse_cov(text):
    if text is None:
        return 1.0
    try:
        return float(text)
    except ValueError:
        return np.loadtxt(text, delimiter=",", dtype=float)


def _cmd_random(args):
    mean, _ = load_archive(args.mean)
    if args.noise is not None:
        with open(args.noise, encoding="utf-8") as fh:
            spec = json.load(fh)
        noise = NoiseSpec(np.asarray(spec.get("sigma", 1.0), dtype=float),
                          np.asarray(spec.get("theta", 1.0), dtype=float),
                          spec.get("seed", args.seed))
    else:
        noise = NoiseSpec(_parse_cov(args.sigma), _parse_cov(args.theta), args.seed)
    fam = rspline(mean, noise, args.count, method=args.method)
    save_archive(args.out, fam)
    print("rng: %s (seed %d)" % (RNG_ALGORITHM, noise.seed), file=sys.stderr)
    print("wrote %s (%d members)" % (args.out, len(fam)))
    return 0


def _cmd_project(args):
    with open(args.input, encoding="utf-8") as fh:
        is_archive = fh.read(1) == "{"
    if is_archive:
        fam, _ = load_archive(args.input)
        target = None
        if args.equid is not None or args.knots is not None:
            target = _knots_from_args(args)
        pr = project_splines(fam, target, type=args.type)
    else:
        data = read_fdata_csv(args.input)
        knots = _knots_from_args(args)
        pr = project_data(data, knots, args.order, type=args.type)
    write_coeff_csv(args.out + ".coeff.csv", pr.coeff)
    save_archive(args.out + ".proj.json", pr.sp)
    print("wrote %s.coeff.csv and %s.proj.json (%d samples, %d basis members)"
          % (args.out, args.out, pr.coeff.shape[0], pr.coeff.shape[1]))
    return 0


def _cmd_fpca(args):
    basis, _ = load_archive(args.basis)
    coeff = read_csv_matrix(args.coeff)
    pr = ProjectionResult(coeff, basis, lincomb(basis, coeff))
    fp = fpca(pr)
    _write_csv(args.out + ".eigenvalues.csv", ["component", "eigenvalue"],
               zip(map(str, range(1, fp.eigenvalues.size + 1)), _reprs(fp.eigenvalues)))
    save_archive(args.out + ".eigenfunctions.json", fp.eigenfunctions)
    _write_csv(args.out + ".scores.csv",
               ["z%d" % (j + 1) for j in range(fp.scores.shape[1])],
               _repr_rows(fp.scores))
    print("wrote %s.eigenvalues.csv, %s.eigenfunctions.json, %s.scores.csv "
          "(%d retained components)" % (args.out, args.out, args.out, fp.n_retained))
    return 0


def _cmd_gram(args):
    fam, _ = load_archive(args.input)
    other = None
    if args.second is not None:
        other, _ = load_archive(args.second)
    g = gramian(fam, other)
    _write_csv(args.out, ["g%d" % (j + 1) for j in range(g.shape[1])],
               _repr_rows(g))
    print("wrote %s (%d x %d)" % (args.out, g.shape[0], g.shape[1]))
    return 0


def _add_knot_flags(p):
    p.add_argument("--equid", nargs=3, metavar=("A", "B", "N"),
                   help="equidistant knots: range [A, B] with N internal knots")
    p.add_argument("--knots", help="file with explicit knot values")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="splinet",
        description="Spline bases, orthonormalization, projection and FPCA.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="generate a B-spline basis and an orthonormal one")
    _add_knot_flags(p)
    p.add_argument("-k", "--order", type=int, required=True)
    p.add_argument("--type", default="spnt", choices=BASIS_TYPES)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("-o", "--out", default="basis", help="output path prefix")
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("eval", help="evaluate an archive on a sample grid (long CSV)")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-N", "--density", type=int, default=5,
                   help="sample points per interval multiplier")
    p.add_argument("--deriv", type=int, default=0)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("check", help="validity-check an archive")
    p.add_argument("-i", "--input", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("random", help="draw random splines around a mean")
    p.add_argument("--mean", required=True, help="single-member archive")
    p.add_argument("-M", "--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma", help="scalar, or CSV vector/matrix file")
    p.add_argument("--theta", help="scalar, or CSV vector/matrix file")
    p.add_argument("--noise", help="JSON file with sigma/theta/seed")
    p.add_argument("--method", default="RRM", choices=["CRLC", "CRFC", "RRM"])
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser("project", help="project an archive or functional-data CSV")
    p.add_argument("-i", "--input", required=True)
    _add_knot_flags(p)
    p.add_argument("-k", "--order", type=int, default=3)
    p.add_argument("--type", default="spnt", choices=BASIS_TYPES)
    p.add_argument("-o", "--out", default="projection", help="output path prefix")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("fpca", help="functional PCA of decomposition coefficients")
    p.add_argument("--coeff", required=True, help="coefficients CSV")
    p.add_argument("--basis", required=True, help="orthonormal basis archive")
    p.add_argument("-o", "--out", default="fpca", help="output path prefix")
    p.set_defaults(func=_cmd_fpca)

    p = sub.add_parser("gram", help="Gram matrix of one or two archives")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--with", dest="second", help="second archive")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_gram)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        _check_flag_ranges(args)
        return args.func(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
