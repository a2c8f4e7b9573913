"""Batch command line front end.

Commands: ``basis``, ``eval``, ``check``, ``random``, ``project``,
``fpca``, ``gram``.  Splines travel as JSON archives, numbers as CSV.
Exit codes: 0 success, 1 numerical or validity failure, 2 usage error.
``eval`` needs the memory of the archive plus one float per value: its long
CSV is rendered and written a chunk of rows at a time.  All work runs in one
thread; the ``SPLINET_THREADS`` environment variable is ignored.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .archive import (_cells, _is_archive, _is_number, _noise_file, _read_numbers, _write_csv,
                      _write_matrix_csv, load_archive, read_csv_matrix, save_archive,
                      write_coeff_csv)
from .bases import BASIS_TYPES, splinet
from .calculus import gramian
from .core import KnotSet, _as_int, equidistant_knots, evaluate, is_valid_spline, sample_grid
from .project import ProjectionResult, fpca, project_data, project_splines, read_fdata_csv
from .random import RNG_ALGORITHM, NoiseSpec, rspline


def _knots_from_args(args):
    if args.equid is not None and args.knots is not None:
        raise UsageError("--equid and --knots are mutually exclusive")
    if args.equid is not None:
        a, b, n = args.equid
        return equidistant_knots(_real_arg("--equid A", a), _real_arg("--equid B", b),
                                 _int_arg("--equid N", n, 0))
    if args.knots is not None:
        return KnotSet(np.sort(_read_numbers(args.knots, csv=False).ravel()))
    raise UsageError("need either --equid A B N or --knots FILE")


class UsageError(Exception):
    pass


def _real_arg(flag, text):
    """``text`` as a float where numpy's parser reads a number, as in a file
    (:func:`~splinet.archive._is_number`: ``1_0`` and ``１`` are not); a
    non-number is a usage error (``nan`` and ``inf`` are numbers, left to
    the knot checks)."""
    if not _is_number(text):
        raise UsageError("%s must be a number; got %r" % (flag, text))
    return float(text)


def _int_arg(flag, text, low=None):
    """``text`` as an integer where numpy's parser reads a number: exactly,
    by ``int``, when it has no fraction (a 128-bit ``--seed`` keeps its
    bits), else as a decimal of integral value (``3.0`` counts as 3, as
    :func:`~splinet.core._integer` takes it); anything else, or a value below
    ``low``, is a usage error."""
    value = None
    if _is_number(text):
        try:
            value = int(text)
        except ValueError:
            value = _as_int(float(text))
    if value is None:
        raise UsageError("%s must be an integer; got %r" % (flag, text))
    if low is not None and value < low:
        raise UsageError("%s must be >= %d; got %d" % (flag, low, value))
    return value


#: integer flags: attribute -> (flag, smallest value or None)
_INT_FLAGS = {"order": ("-k", 0), "density": ("-N", 1), "count": ("-M", 1),
              "deriv": ("--deriv", 0), "seed": ("--seed", None)}


def _read_int_flags(args):
    """Replace the text of every integer flag by its value (:func:`_int_arg`)."""
    for attr, (flag, low) in _INT_FLAGS.items():
        text = getattr(args, attr, None)
        if text is not None:
            setattr(args, attr, _int_arg(flag, text, low))


def _fmt(x):
    return repr(float(x))


def _cmd_basis(args):
    knots = _knots_from_args(args)
    res = splinet(knots, args.order, type=args.type, normalize=args.normalize)
    save_archive(args.out + ".bs.json", res.bs)
    if res.os is not None:
        save_archive(args.out + ".os.json", res.os,
                     res.net if args.type in ("spnt", "dspnt") else None)
        print("wrote %s.bs.json and %s.os.json (%d members, type %s)"
              % (args.out, args.out, len(res.os), res.os.type))
    else:
        print("wrote %s.bs.json (%d members)" % (args.out, len(res.bs)))
    return 0


def _cmd_eval(args):
    fam, _ = load_archive(args.input)
    grid = sample_grid(fam.knots, max(fam.smorder, 1), args.density)
    vals = evaluate(fam, grid, deriv=args.deriv)
    # long format: every grid point of member 0, then of member 1, ...; the
    # grid and the member ids are rendered once, the values a chunk at a time
    arg = np.array(_cells(grid), dtype=object)
    ids = np.array(_cells(np.arange(vals.shape[1])), dtype=object)

    def columns(rows):
        member, point = np.divmod(rows, grid.size)
        return [arg[point], ids[member], vals[point, member]]

    _write_csv(args.out, ["arg", "member", "value"], vals.size, columns)
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


def _parse_cov(flag, text):
    """A ``--sigma``/``--theta`` value: a number, or a CSV file
    (:func:`read_csv_matrix`) of one value (a scalar), one row or one column
    (a diagonal) or a matrix.  Text that Python's ``float`` reads but numpy's
    parser does not (``1_0``, ``１``) is a usage error."""
    if text is None:
        return 1.0
    if _is_number(text):
        return float(text)
    try:
        float(text)
    except ValueError:
        return np.squeeze(read_csv_matrix(text))
    raise UsageError("%s must be a number or a CSV file; got %r" % (flag, text))


def _cmd_random(args):
    mean, _ = load_archive(args.mean)
    if args.noise is not None:
        noise = _noise_file(args.noise, args.seed)
    else:
        noise = NoiseSpec(_parse_cov("--sigma", args.sigma), _parse_cov("--theta", args.theta),
                          args.seed)
    fam = rspline(mean, noise, args.count, method=args.method)
    save_archive(args.out, fam)
    print("rng: %s (seed %d)" % (RNG_ALGORITHM, noise.seed), file=sys.stderr)
    print("wrote %s (%d members)" % (args.out, len(fam)))
    return 0


def _cmd_project(args):
    if _is_archive(args.input):
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
    # fpca reads only the coefficients and the basis, so the projections
    # themselves are not built
    fp = fpca(ProjectionResult(coeff, basis, None))
    if fp.n_retained == 0:
        raise ValueError("%s: the coefficient rows carry no variance, so fpca retains no "
                         "component" % args.coeff)
    _write_csv(args.out + ".eigenvalues.csv", ["component", "eigenvalue"],
               fp.eigenvalues.size, lambda rows: [rows + 1, fp.eigenvalues[rows]])
    save_archive(args.out + ".eigenfunctions.json", fp.eigenfunctions)
    _write_matrix_csv(args.out + ".scores.csv", "z", fp.scores)
    print("wrote %s.eigenvalues.csv, %s.eigenfunctions.json, %s.scores.csv "
          "(%d retained components)" % (args.out, args.out, args.out, fp.n_retained))
    return 0


def _cmd_gram(args):
    fam, _ = load_archive(args.input)
    other = None
    if args.second is not None:
        other, _ = load_archive(args.second)
    g = gramian(fam, other)
    _write_matrix_csv(args.out, "g", g)
    print("wrote %s (%d x %d)" % (args.out, g.shape[0], g.shape[1]))
    return 0


def _add_knot_flags(p):
    p.add_argument("--equid", nargs=3, metavar=("A", "B", "N"),
                   help="equidistant knots: range [A, B] with N internal knots")
    p.add_argument("--knots", help="file with explicit knot values")


class _Parser(argparse.ArgumentParser):
    """An argument parser that takes every token :func:`_is_number` reads as
    a value, never as an option: argparse alone takes ``-1000`` and ``-1.5``
    but not ``-1e3``, ``-.5e1`` or ``-inf``.  Subparsers are of this class
    too."""

    def _parse_optional(self, arg_string):
        return None if _is_number(arg_string) else super()._parse_optional(arg_string)


def build_parser():
    ap = _Parser(
        prog="splinet",
        description="Spline bases, orthonormalization, projection and FPCA.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="generate a B-spline basis and an orthonormal one")
    _add_knot_flags(p)
    p.add_argument("-k", "--order", required=True)
    p.add_argument("--type", default="spnt", choices=BASIS_TYPES)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("-o", "--out", default="basis", help="output path prefix")
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("eval", help="evaluate an archive on a sample grid (long CSV)")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-N", "--density", default="5",
                   help="sample points per interval multiplier")
    p.add_argument("--deriv", default="0")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("check", help="validity-check an archive")
    p.add_argument("-i", "--input", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("random", help="draw random splines around a mean")
    p.add_argument("--mean", required=True, help="single-member archive")
    p.add_argument("-M", "--count", default="1")
    p.add_argument("--seed", default="0")
    p.add_argument("--sigma", help="scalar, or CSV vector/matrix file")
    p.add_argument("--theta", help="scalar, or CSV vector/matrix file")
    p.add_argument("--noise", help="JSON file with sigma/theta/seed")
    p.add_argument("--method", default="RRM", choices=["CRLC", "CRFC", "RRM"])
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser("project", help="project an archive or functional-data CSV")
    p.add_argument("-i", "--input", required=True)
    _add_knot_flags(p)
    p.add_argument("-k", "--order", default="3")
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
        _read_int_flags(args)
        return args.func(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
