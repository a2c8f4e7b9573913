"""Run every kind of CLI job on small inputs in this process, then report
whether any ``scipy`` module or ``numpy.ma`` was imported.

Usage, with ``src`` on ``PYTHONPATH``::

    python tests/cli_jobs.py DIR

The inputs are written to ``DIR`` by numpy and splinet alone.  The jobs
cover every command and the jobs of the benchmark's workloads: ``basis`` of
every type and with ``--normalize``, ``check``, ``random`` (also with
``--sigma``/``--theta`` CSV files, one-row diagonals and matrices, and with a
``--noise`` JSON file of a diagonal ``sigma``, a matrix ``theta`` and a
``seed``), ``project`` of
an archive (orthonormal and ``bs``) and of a data CSV, ``fpca`` (also on
a coefficient CSV whose header is quoted, and on 4 rows over 9 basis
members), ``eval`` and ``gram`` of one archive and of two.  The exit status
is 0 when every job exits 0, the ``eval`` CSV (100 draws on 148 points,
several of the writer's chunks) has the bytes ``csv.writer`` gives the same
values, ``fpca`` on 4 rows writes 9 eigenvalues and one eigenfunction per
score column, 3 of each, ``basis --knots`` on a file
with a bad line and ``project -i`` on a CSV with a bad field exit 1 naming
the file and the line, ``random --noise`` on a file whose ``sigma`` holds
``"0.5"`` exits 1 naming the file, ``basis`` with ``1_0`` for ``--equid B`` or ``-k``
exits 2 naming the flag, ``check`` and ``eval`` on an archive whose middle
k-th entry was edited exit 1 naming the member and the knot, ``project -i``
on an archive re-written after a leading newline writes the bytes it writes
from the archive itself, ``check`` passes an archive whose ``order`` and
``supp`` bounds are written as floats (``3.0``), on which ``eval`` writes
the bytes it writes from the archive itself, and refuses one with
``"order": true`` naming that entry, and no
``scipy`` module is loaded: scipy is needed
only for the ``scipy.sparse`` objects the library returns or accepts on
request, never on a CLI path.  Nor is ``numpy.ma``, which numpy loads on
the first ``np.unique`` call.
"""

import contextlib
import csv
import io
import json
import os
import sys

import numpy as np

import splinet as sp
from splinet.bases import BASIS_TYPES
from splinet.cli import main
from splinet.project import _CSV_CHUNK_ROWS


def write_inputs(d):
    """Knot file, single-member mean archive, covariance CSVs (one-row
    diagonals and matrices of Sigma over the mean's 22 knots and of Theta
    over its 4 derivatives), functional-data CSV, a coefficient CSV of 12
    samples over the 9 members of ``b11`` under a quoted header and one of 4
    samples, and a ``--noise`` JSON file of the diagonal of Sigma, the matrix
    Theta and a seed."""
    rng = np.random.default_rng(0)
    widths = rng.uniform(0.5, 1.5, 31)
    np.savetxt(os.path.join(d, "knots.txt"), np.cumsum(np.append(0.0, widths)) / widths.sum())
    knots = sp.equidistant_knots(0.0, 1.0, 20)
    sp.save_archive(os.path.join(d, "mean.json"),
                    sp.construct(knots, 3, rng.standard_normal(18), "CRLC"))
    for name, size in (("sigma", 22), ("theta", 4)):
        i = np.arange(size)
        np.savetxt(os.path.join(d, name + "_row.csv"), np.linspace(0.1, 0.3, size)[None, :],
                   fmt="%.17g", delimiter=",")
        np.savetxt(os.path.join(d, name + "_mat.csv"),
                   0.2 * np.exp(-np.abs(i[:, None] - i) / 2.0), fmt="%.17g", delimiter=",")
    i = np.arange(4)
    with open(os.path.join(d, "noise.json"), "w", encoding="utf-8") as fh:
        json.dump({"sigma": np.linspace(0.1, 0.3, 22).tolist(),
                   "theta": (0.2 * np.exp(-np.abs(i[:, None] - i) / 2.0)).tolist(), "seed": 9}, fh)
    args = np.linspace(0.0, 1.0, 200, endpoint=False)
    samples = np.sin(2 * np.pi * np.outer(args, rng.uniform(0.5, 2.0, 8)))
    np.savetxt(os.path.join(d, "data.csv"), np.column_stack([args, samples]), fmt="%.17g",
               delimiter=",", header="arg," + ",".join("s%d" % i for i in range(8)),
               comments="")
    np.savetxt(os.path.join(d, "quoted.coeff.csv"), rng.standard_normal((12, 9)), fmt="%.17g",
               delimiter=",", header=",".join('"c%d"' % (j + 1) for j in range(9)), comments="")
    np.savetxt(os.path.join(d, "few.coeff.csv"), rng.standard_normal((4, 9)), fmt="%.17g",
               delimiter=",")


def jobs(d):
    p = lambda name: os.path.join(d, name)  # noqa: E731
    knots = ["--knots", p("knots.txt"), "-k", "3"]
    out = [["basis"] + knots + ["--type", t, "-o", p("b_" + t)] for t in BASIS_TYPES]
    return out + [
        ["basis"] + knots + ["--normalize", "-o", p("b_norm")],
        ["basis", "--equid", "0", "1", "11", "-k", "3", "-o", p("b11")],
        ["check", "-i", p("b_spnt.os.json")],
        ["random", "--mean", p("mean.json"), "-M", "100", "--seed", "3", "-o", p("draws.json")],
        ["check", "-i", p("draws.json")],
        ["random", "--mean", p("mean.json"), "-M", "5", "--sigma", p("sigma_row.csv"),
         "--theta", p("theta_row.csv"), "-o", p("draws_diag.json")],
        ["random", "--mean", p("mean.json"), "-M", "5", "--sigma", p("sigma_mat.csv"),
         "--theta", p("theta_mat.csv"), "-o", p("draws_mat.json")],
        ["random", "--mean", p("mean.json"), "-M", "5", "--noise", p("noise.json"),
         "-o", p("draws_noise.json")],
        ["check", "-i", p("draws_noise.json")],
        ["project", "-i", p("draws.json"), "--equid", "0", "1", "12", "-o", p("pr")],
        ["project", "-i", p("draws.json"), "--equid", "0", "1", "12", "--type", "bs",
         "-o", p("pr_bs")],
        ["project", "-i", p("data.csv"), "--equid", "0", "1", "11", "-k", "3", "-o", p("pd")],
        ["fpca", "--coeff", p("pd.coeff.csv"), "--basis", p("b11.os.json"), "-o", p("fp")],
        ["fpca", "--coeff", p("quoted.coeff.csv"), "--basis", p("b11.os.json"),
         "-o", p("fp_quoted")],
        ["fpca", "--coeff", p("few.coeff.csv"), "--basis", p("b11.os.json"), "-o", p("fp_few")],
        ["eval", "-i", p("draws.json"), "-N", "2", "-o", p("draws.eval.csv")],
        ["gram", "-i", p("b_bs.bs.json"), "-o", p("gram.csv")],
        ["gram", "-i", p("draws.json"), "--with", p("mean.json"), "-o", p("gram2.csv")],
    ]


def eval_matches_csv_module(d):
    """The ``eval`` job's CSV against ``csv.writer`` on the same values; the
    table must span more than three of the writer's chunks."""
    fam, _ = sp.load_archive(os.path.join(d, "draws.json"))
    grid = sp.sample_grid(fam.knots, fam.smorder, 2)
    vals = sp.evaluate(fam, grid)
    ref = io.StringIO(newline="")
    w = csv.writer(ref)
    w.writerow(["arg", "member", "value"])
    w.writerows((repr(g), j, repr(v))
                for j, col in enumerate(vals.T.tolist()) for g, v in zip(grid.tolist(), col))
    with open(os.path.join(d, "draws.eval.csv"), "rb") as fh:
        return vals.size > 3 * _CSV_CHUNK_ROWS and fh.read() == ref.getvalue().encode("utf-8")


def fpca_at_rank(d):
    """The ``fpca`` job on 4 rows over 9 basis members: 9 eigenvalues, and
    as many eigenfunctions as score columns, one per retained component (3)."""
    p = lambda name: os.path.join(d, "fp_few." + name)  # noqa: E731
    values = np.loadtxt(p("eigenvalues.csv"), delimiter=",", skiprows=1, ndmin=2)
    scores = np.loadtxt(p("scores.csv"), delimiter=",", skiprows=1, ndmin=2)
    members = len(sp.load_archive(p("eigenfunctions.json"))[0])
    return values.shape[0] == 9 and members == scores.shape[1] == 3


def _exit_and_stderr(argv):
    """``main(argv)``'s exit code and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _exits_1_naming(argv, path, line):
    """Whether ``argv`` exits 1 with a message naming ``path`` and ``line``."""
    code, err = _exit_and_stderr(argv)
    return code == 1 and "%s: " % path in err and "line %d" % line in err


def bad_knots_named(d):
    """``basis --knots`` on a file with a bad line exits 1 and names the
    file and the line in its message."""
    path = os.path.join(d, "bad_knots.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("0\n0.5\nabc\n1\n")
    return _exits_1_naming(["basis", "--knots", path, "-k", "1", "-o", os.path.join(d, "bad")],
                           path, 3)


def bad_csv_named(d):
    """``project -i`` on a data CSV with a field that is not a number exits
    1 and names the file and the line in its message."""
    path = os.path.join(d, "bad_data.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("arg,s1\n0.0,1.0\n0.5,1_0\n0.75,2.0\n")
    return _exits_1_naming(["project", "-i", path, "--equid", "0", "1", "11", "-k", "3",
                            "-o", os.path.join(d, "bad_pd")], path, 3)


def bad_noise_named(d):
    """``random --noise`` on a JSON file whose ``sigma`` holds a string exits
    1 and names the file in its message."""
    path = os.path.join(d, "bad_noise.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"sigma": [1, "0.5"]}, fh)
    code, err = _exit_and_stderr(["random", "--mean", os.path.join(d, "mean.json"), "-M", "2",
                                  "--noise", path, "-o", os.path.join(d, "bad_noise_draws.json")])
    return code == 1 and err.startswith("error: %s: sigma must be a number" % path)


def bad_flag_number(d):
    """``basis`` with ``1_0``, which Python reads as 10 but numpy's parser
    refuses in a file, for ``--equid B`` or for ``-k`` exits 2 with a usage
    error naming the flag."""
    out = os.path.join(d, "bad_flag")
    for flags, flag in ((["--equid", "0", "1_0", "5", "-k", "3"], "--equid B"),
                        (["--equid", "0", "1", "5", "-k", "1_0"], "-k")):
        code, err = _exit_and_stderr(["basis", *flags, "-o", out])
        if code != 2 or not err.startswith("usage error: %s must be" % flag):
            return False
    return True


def middle_entry_refused(d):
    """``check`` and ``eval`` on a copy of ``b11.os.json`` whose member 4
    has its k-th entry at the middle knot, which only the symmetric
    convention stores, edited: each exits 1 with a malformed-archive error
    naming the member and the knot."""
    with open(os.path.join(d, "b11.os.json"), encoding="utf-8") as fh:
        arch = json.load(fh)
    lo, hi = arch["splines"][4]["supp"][0]
    mid = (hi - lo - 1) // 2 + 1
    arch["splines"][4]["der"][0][mid][-1] += 1.0
    path = os.path.join(d, "middle.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(arch, fh)
    says = "error: malformed archive: member 4, knot %d: " % (lo + mid)
    for argv in (["check", "-i", path], ["eval", "-i", path, "-o", path + ".csv"]):
        code, err = _exit_and_stderr(argv)
        if code != 1 or not err.startswith(says):
            return False
    return True


def float_integer_fields(d):
    """``b11.os.json`` re-written with its ``order`` and ``supp`` bounds as
    integral floats: ``check`` exits 0, and ``eval`` writes the CSV bytes it
    writes from the archive itself.  With ``"order": true`` instead,
    ``check`` exits 1 naming ``order entry True``."""
    src = os.path.join(d, "b11.os.json")
    with open(src, encoding="utf-8") as fh:
        arch = json.load(fh)
    arch["order"] = float(arch["order"])
    for item in arch["splines"]:
        item["supp"] = [[float(lo), float(hi)] for lo, hi in item["supp"]]
    floats = os.path.join(d, "floats.json")
    with open(floats, "w", encoding="utf-8") as fh:
        json.dump(arch, fh)
    if main(["check", "-i", floats]) != 0:
        return False
    csvs = []
    for path in (src, floats):
        if main(["eval", "-i", path, "-o", path + ".csv"]) != 0:
            return False
        with open(path + ".csv", "rb") as fh:
            csvs.append(fh.read())
    arch["order"] = True
    boolean = os.path.join(d, "bool_order.json")
    with open(boolean, "w", encoding="utf-8") as fh:
        json.dump(arch, fh)
    code, err = _exit_and_stderr(["check", "-i", boolean])
    return csvs[0] == csvs[1] and code == 1 and err.startswith(
        "error: malformed archive: order entry True is not an integer")


def leading_newline_archive(d):
    """``project -i`` on ``draws.json`` re-written after one newline, which
    is still JSON, writes the same ``.coeff.csv`` and ``.proj.json`` bytes
    as the ``pr`` job on the archive itself."""
    with open(os.path.join(d, "draws.json"), encoding="utf-8") as fh:
        text = fh.read()
    path = os.path.join(d, "draws_ws.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n" + text)
    if main(["project", "-i", path, "--equid", "0", "1", "12", "-o", os.path.join(d, "pr_ws")]):
        return False
    for ext in (".coeff.csv", ".proj.json"):
        with open(os.path.join(d, "pr" + ext), "rb") as a, \
                open(os.path.join(d, "pr_ws" + ext), "rb") as b:
            if a.read() != b.read():
                return False
    return True


def unwanted_modules():
    """The ``scipy`` and ``numpy.ma`` modules loaded."""
    return sorted(m for m in sys.modules
                  if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"])


def run(d):
    write_inputs(d)
    failed = [argv for argv in jobs(d) if main(argv) != 0]
    if not failed and not eval_matches_csv_module(d):
        failed = [["eval", "(its CSV differs from csv.writer's or spans too few chunks)"]]
    if not failed and not fpca_at_rank(d):
        failed = [["fpca", "(4 rows: not 9 eigenvalues, or eigenfunctions unlike score columns)"]]
    if not failed and not leading_newline_archive(d):
        failed = [["project", "-i", "(an archive after a newline: not the archive's outputs)"]]
    if not bad_knots_named(d):
        failed.append(["basis", "--knots", "(a bad knot file: no exit 1, file or line named)"])
    if not bad_csv_named(d):
        failed.append(["project", "-i", "(a bad data CSV: no exit 1, file or line named)"])
    if not bad_noise_named(d):
        failed.append(["random", "--noise", "(a sigma holding \"0.5\": no exit 1, file named)"])
    if not bad_flag_number(d):
        failed.append(["basis", "--equid", "(1_0 as a flag value: no exit 2, flag named)"])
    if not float_integer_fields(d):
        failed.append(["check", "eval", "(order and supp written as 3.0: not read as integers, "
                       "or \"order\": true not refused by name)"])
    if not middle_entry_refused(d):
        failed.append(["check", "eval", "(an edited middle k-th entry: no exit 1, member or "
                       "knot not named)"])
    for argv in failed:
        print("job failed: splinet %s" % " ".join(argv), file=sys.stderr)
    loaded = unwanted_modules()
    if loaded:
        print("modules imported: %s" % ", ".join(loaded), file=sys.stderr)
    return 1 if failed or loaded else 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1]))
