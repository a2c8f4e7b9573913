import csv
import io
import json
import tracemalloc
import warnings

import numpy as np
import pytest

import splinet as sp
from splinet.cli import main
from splinet.archive import _CSV_CHUNK_CELLS

import oracles


def _run(args, capsys=None):
    code = main(args)
    return code


def test_basis_and_check(tmp_path, capsys):
    out = str(tmp_path / "b")
    assert main(["basis", "--equid", "0", "1", "11", "-k", "3", "-o", out]) == 0
    msg = capsys.readouterr().out
    assert "dspnt" in msg
    bs, _ = sp.load_archive(out + ".bs.json")
    os_fam, net = sp.load_archive(out + ".os.json")
    assert len(bs) == 9 and len(os_fam) == 9
    assert os_fam.type == "dspnt" and net == sp.net_layout(11, 3)
    assert main(["check", "-i", out + ".os.json"]) == 0
    assert "valid" in capsys.readouterr().out


@pytest.mark.parametrize("kind, has_net", [("spnt", True), ("dspnt", True), ("gsob", False),
                                           ("twob", False)])
def test_basis_writes_net_for_dyadic_bases_only(tmp_path, kind, has_net):
    """The net describes the dyadic bases; gsob and twob archives hold none."""
    out = str(tmp_path / kind)
    assert main(["basis", "--equid", "0", "1", "11", "-k", "3", "--type", kind, "-o", out]) == 0
    _, net = sp.load_archive(out + ".os.json")
    assert (net is not None) == has_net
    assert has_net == ('"net"' in open(out + ".os.json").read())


def test_basis_knots_file(tmp_path):
    kf = tmp_path / "knots.txt"
    kf.write_text("\n".join(str(x) for x in np.linspace(0, 2, 9)))
    out = str(tmp_path / "kb")
    assert main(["basis", "--knots", str(kf), "-k", "2", "--type", "bs", "-o", out]) == 0
    bs, _ = sp.load_archive(out + ".bs.json")
    assert len(bs) == 6
    assert not (tmp_path / "kb.os.json").exists()


def test_knot_flags_usage_errors(tmp_path, capsys):
    out = str(tmp_path / "x")
    assert main(["basis", "-k", "2", "-o", out]) == 2  # no knots given
    kf = tmp_path / "k.txt"
    kf.write_text("0 0.5 1")
    assert main(["basis", "--equid", "0", "1", "5", "--knots", str(kf),
                 "-k", "2", "-o", out]) == 2  # mutually exclusive
    assert main(["frobnicate"]) == 2  # unknown command
    capsys.readouterr()


@pytest.mark.parametrize("argv, says", [
    (["basis", "--equid", "0", "1", "5", "-k", "-1"], "-k must be >= 0; got -1"),
    (["project", "-i", "{mean}", "--equid", "0", "1", "5", "-k", "-2"], "-k must be >= 0"),
    (["eval", "-i", "{mean}", "-N", "0"], "-N must be >= 1; got 0"),
    (["eval", "-i", "{mean}", "-N", "-3"], "-N must be >= 1"),
    (["random", "--mean", "{mean}", "-M", "0"], "-M must be >= 1; got 0"),
    (["basis", "--equid", "0", "1", "-3", "-k", "2"], "--equid N must be >= 0; got -3"),
    (["basis", "--equid", "0", "1", "10.4", "-k", "2"], "got '10.4'"),
    (["basis", "--equid", "0", "1", "2.5", "-k", "2"], "got '2.5'"),
    (["basis", "--equid", "0", "1", "nan", "-k", "2"], "got 'nan'"),
    (["basis", "--equid", "0", "1", "inf", "-k", "2"], "got 'inf'"),
    (["basis", "--equid", "0", "1", "five", "-k", "2"], "got 'five'"),
    (["eval", "-i", "{mean}", "--deriv", "-1"], "--deriv must be >= 0; got -1"),
    (["basis", "--equid", "abc", "1", "7", "-k", "2"], "--equid A must be a number; got 'abc'"),
    (["basis", "--equid", "0", "one", "7", "-k", "2"], "--equid B must be a number; got 'one'"),
    (["project", "-i", "{mean}", "--equid", "0x1", "1", "5"], "--equid A must be a number"),
    # flags take numbers as files do: numpy's parser reads no "_" and no
    # non-ASCII digit, though Python's float and int read 1_0 as 10 and ３ as 3
    (["basis", "--equid", "0", "1_0", "5", "-k", "1"], "--equid B must be a number; got '1_0'"),
    (["basis", "--equid", "0", "\uff11", "5", "-k", "1"], "--equid B must be a number"),
    (["basis", "--equid", "0", "1", "1_0", "-k", "1"], "--equid N must be an integer; got '1_0'"),
    (["basis", "--equid", "0", "1", "5", "-k", "1_0"], "-k must be an integer; got '1_0'"),
    (["basis", "--equid", "0", "1", "5", "-k", "\uff13"], "-k must be an integer; got '\uff13'"),
    (["basis", "--equid", "0", "1", "5", "-k", "3.5"], "-k must be an integer; got '3.5'"),
    (["basis", "--equid", "0", "1", "5", "-k", "abc"], "-k must be an integer; got 'abc'"),
    (["project", "-i", "{mean}", "--equid", "0", "1", "5", "-k", "1_0"], "-k must be an integer"),
    (["eval", "-i", "{mean}", "-N", "1_0"], "-N must be an integer; got '1_0'"),
    (["eval", "-i", "{mean}", "--deriv", "\uff11"], "--deriv must be an integer"),
    (["random", "--mean", "{mean}", "-M", "1_0"], "-M must be an integer; got '1_0'"),
    (["random", "--mean", "{mean}", "--seed", "1_0"], "--seed must be an integer; got '1_0'"),
    (["random", "--mean", "{mean}", "--sigma", "1_0"],
     "--sigma must be a number or a CSV file; got '1_0'"),
    (["random", "--mean", "{mean}", "--theta", "\uff11"], "--theta must be a number or a CSV file"),
])
def test_flag_values_are_usage_errors(tmp_path, capsys, argv, says):
    mp = str(tmp_path / "mean.json")
    sp.save_archive(mp, oracles.random_valid_family(np.random.default_rng(3), 10, 2))
    out = tmp_path / "out"
    argv = [mp if a == "{mean}" else a for a in argv] + ["-o", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and says in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mean.json"]


def test_deriv_above_order_exit_1(tmp_path, capsys):
    mp = str(tmp_path / "mean.json")
    sp.save_archive(mp, oracles.random_valid_family(np.random.default_rng(3), 10, 2))
    out = tmp_path / "out.csv"
    assert main(["eval", "-i", mp, "--deriv", "3", "-o", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: derivative order must be in [0, 2]")
    assert not out.exists()


def test_equid_count_may_be_written_as_float(tmp_path):
    out = str(tmp_path / "b")
    assert main(["basis", "--equid", "0", "1", "10.0", "-k", "2", "--type", "bs", "-o", out]) == 0
    bs, _ = sp.load_archive(out + ".bs.json")
    assert bs.knots.n == 10


def test_every_int_flag_takes_integral_decimals(tmp_path, capsys):
    """One rule reads every integer flag: ``3.0`` and ``3e0`` count as 3, as
    the library's integer rule has it, and give the bytes that ``3`` gives."""
    mean = str(tmp_path / "mean.json")
    sp.save_archive(mean, oracles.random_valid_family(np.random.default_rng(3), 10, 2))
    outputs = []
    for i, (k, n, count, seed, density, deriv) in enumerate((("3", "11", "2", "7", "2", "1"),
                                                             ("3.0", "11.0", "2.0", "7.0", "2.0",
                                                              "1.0"),
                                                             ("3e0", "1.1e1", "2e0", "7e0",
                                                              "2e0", "1e0"))):
        out = str(tmp_path / str(i))
        for argv in (["basis", "--equid", "0", "1", n, "-k", k, "--type", "bs", "-o", out],
                     ["random", "--mean", mean, "-M", count, "--seed", seed, "-o", out + ".draws"],
                     ["eval", "-i", out + ".bs.json", "-N", density, "--deriv", deriv,
                      "-o", out + ".csv"]):
            assert main(argv) == 0, argv
        outputs.append([open(out + suffix, "rb").read()
                        for suffix in (".bs.json", ".draws", ".csv")])
    capsys.readouterr()
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_int_flags_read_exactly(tmp_path, capsys):
    # int reads the seed, not float: the largest 128-bit seed keeps its bits,
    # and padding is stripped as in a file
    mp = str(tmp_path / "mean.json")
    sp.save_archive(mp, oracles.random_valid_family(np.random.default_rng(3), 10, 2))
    seed = str(2**128 - 1)
    assert main(["random", "--mean", mp, "-M", " 2 ", "--seed", seed,
                 "-o", str(tmp_path / "d.json")]) == 0
    assert "(seed %s)" % seed in capsys.readouterr().err
    assert len(sp.load_archive(str(tmp_path / "d.json"))[0]) == 2


def test_nonfinite_knots_exit_1(tmp_path, capsys):
    out = str(tmp_path / "x")
    for bad in ("nan", "inf"):
        assert main(["basis", "--equid", "0", bad, "5", "-k", "2", "-o", out]) == 1
    kf = tmp_path / "k.txt"
    for bad in ("nan", "inf", "-inf"):
        kf.write_text("0 0.5 %s 1" % bad)
        assert main(["basis", "--knots", str(kf), "-k", "2", "-o", out]) == 1
    assert capsys.readouterr().err.count("knots must be finite") == 5


@pytest.mark.parametrize("a, first", [("-1e3", -1000.0), ("-.5e1", -5.0), ("-1000", -1000.0),
                                      ("-1.5", -1.5)])
def test_negative_equid_bound_is_a_value(tmp_path, a, first):
    # argparse alone takes -1e3 and -.5e1 for options
    out = str(tmp_path / "b")
    assert main(["basis", "--equid", a, "1", "5", "-k", "3", "-o", out]) == 0
    assert sp.load_archive(out + ".bs.json")[0].knots.xi[0] == first


def test_negative_infinite_equid_bound_reaches_knot_check(tmp_path, capsys):
    assert main(["basis", "--equid", "-inf", "1", "5", "-k", "3",
                 "-o", str(tmp_path / "b")]) == 1
    assert capsys.readouterr().err == "error: knots must be finite\n"
    assert list(tmp_path.iterdir()) == []


def test_underflowing_gram_moments_exit_1(tmp_path, capsys):
    # the knot spacing 1e-50 / 6 makes w**7 underflow: the Gram matrix would
    # be wrong, so splinet() refuses and no archive is written
    assert main(["basis", "--equid", "0", "1e-50", "5", "-k", "3",
                 "-o", str(tmp_path / "t")]) == 1
    assert capsys.readouterr().err.startswith("error: order-3 Gram moments underflow")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("type", ["bs", "spnt"])
def test_overflowing_bsplines_exit_1(tmp_path, capsys, type):
    # the knot spacing 1e-300 / 6 makes 1/h**3 overflow: rejected where the
    # B-splines are built, with no numpy warning and no archive written
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["basis", "--equid", "0", "1e-300", "5", "-k", "3", "--type", type,
                     "-o", str(tmp_path / "t")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: order-3 B-spline derivatives overflow: the smallest knot "
                          "spacing, 1.66666666666666"), err
    assert list(tmp_path.iterdir()) == []


def test_empty_knots_file_exit_1(tmp_path, capsys):
    kf = tmp_path / "k.txt"
    for text in ("", "# no knots\n"):
        kf.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["basis", "--knots", str(kf), "-k", "2", "-o", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == "error: %s: no knots in the file\n" % kf
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k.txt"]


#: the fault each bad knot file below is refused for, by the row at fault
_KNOT_ROW_FAULT = {"abc": "field 1 on line 3 is not a number: 'abc'",
                   "0.5 1e": "field 2 on line 4 is not a number: '1e'",
                   "0.5": "the row on line 2 has 1 fields, expected 2"}


@pytest.mark.parametrize("text, line, row", [
    ("0\n0.5\nabc\n1\n", 3, "abc"),
    ("# knots\n\n0 0.2\n0.5 1e\n", 4, "0.5 1e"),
    ("0 0.2  # two\n0.5\n1 2\n", 2, "0.5"),
])
def test_bad_knots_file_names_file_and_line(tmp_path, capsys, text, line, row):
    kf = tmp_path / "k.txt"
    kf.write_text(text)
    assert main(["basis", "--knots", str(kf), "-k", "1", "-o", str(tmp_path / "x")]) == 1
    fault = _KNOT_ROW_FAULT[row]
    assert "on line %d" % line in fault
    assert capsys.readouterr().err == "error: %s: %s\n" % (kf, fault)


#: a knot file's faults: (text, the error after the file name); comment and
#: blank lines count in the line number
_KNOT_FAULTS = [
    ("0\n0.5\n1_0\n", "field 1 on line 3 is not a number: '1_0'"),
    ("# knots\n0 0.5\n\n\uff11 2\n", "field 1 on line 4 is not a number: '\uff11'"),
    ("0 0.5  # two\n0.7 0.8 0.9\n", "the row on line 2 has 3 fields, expected 2"),
    ("0\n0.5\n1 # 2 x\n1e\n", "field 1 on line 4 is not a number: '1e'"),
    # a 0xff byte (written through surrogateescape), in the first two rows and
    # past the first 8192 bytes, where np.loadtxt meets it
    ("0 0.\udcff5\n", "not UTF-8 text: invalid start byte"),
    pytest.param("0\n" * 5000 + "0.\udcff5\n", "not UTF-8 text: invalid start byte",
                 id="0xff-past-8192-bytes"),
]
#: a two-column CSV's faults below its header ``arg,s1`` on line 1
_CSV_FAULTS = [
    ("0,1\n0.5,1_0\n", "field 2 on line 3 is not a number: '1_0'"),
    ("0,1\n\n0.5,\uff11\n", "field 2 on line 4 is not a number: '\uff11'"),
    ("0,1\n0.5,\n", "field 2 on line 3 is not a number: ''"),
    ("0,1\n0.5,1,2\n", "the row on line 3 has 3 fields, expected 2"),
    ("0,1\n# a note\n0.5,2\n", "the row on line 3 has 1 fields, expected 2"),
    ('0,1\n"0.5","x"\n', "field 2 on line 3 is not a number: 'x'"),
    # a quoted field spanning lines 2-3 is one row: the fault is on line 4
    ('"1\n",2\n3,x\n', "field 2 on line 4 is not a number: 'x'"),
    # a quote left open runs to the end of the file, one field from line 3
    ('0,1\n"0.5\n,2\n', "the row on line 3 has 1 fields, expected 2"),
    ("0,\udcff1\n", "not UTF-8 text: invalid start byte"),
    pytest.param("0,1\n" * 3000 + "0.5,\udcff\n", "not UTF-8 text: invalid start byte",
                 id="0xff-past-8192-bytes"),
]


@pytest.mark.parametrize("text, says", _KNOT_FAULTS)
def test_knot_file_fault_named(tmp_path, capsys, text, says):
    kf = tmp_path / "k.txt"
    kf.write_bytes(text.encode("utf-8", "surrogateescape"))
    assert main(["basis", "--knots", str(kf), "-k", "1", "-o", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == "error: %s: %s\n" % (kf, says)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k.txt"]


@pytest.mark.parametrize("text, says", _CSV_FAULTS)
@pytest.mark.parametrize("command", ["project", "fpca", "sigma"])
def test_csv_fault_named(tmp_path, capsys, command, text, says):
    # the one reader names the file, the 1-based line and the field for
    # every CSV the CLI reads, before any output is written
    b = str(tmp_path / "b")
    assert main(["basis", "--equid", "0", "1", "7", "-k", "2", "-o", b]) == 0
    mp = str(tmp_path / "mean.json")
    sp.save_archive(mp, oracles.random_valid_family(np.random.default_rng(6), 10, 2))
    path = tmp_path / "in.csv"
    path.write_bytes(("arg,s1\n" + text).encode("utf-8", "surrogateescape"))
    out = str(tmp_path / "out")
    argv = {"project": ["project", "-i", str(path), "--equid", "0", "1", "7", "-k", "2"],
            "fpca": ["fpca", "--coeff", str(path), "--basis", b + ".os.json"],
            "sigma": ["random", "--mean", mp, "--sigma", str(path), "-M", "2"]}[command]
    capsys.readouterr()
    assert main(argv + ["-o", out]) == 1
    assert capsys.readouterr().err == "error: %s: %s\n" % (path, says)
    assert not any(p.name.startswith("out") for p in tmp_path.iterdir())


def test_eval_csv(tmp_path):
    out = str(tmp_path / "b")
    main(["basis", "--equid", "0", "1", "9", "-k", "2", "--type", "bs", "-o", out])
    ev = str(tmp_path / "vals.csv")
    assert main(["eval", "-i", out + ".bs.json", "-N", "3", "-o", ev]) == 0
    with open(ev, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["arg", "member", "value"]
    bs, _ = sp.load_archive(out + ".bs.json")
    grid = sp.sample_grid(bs.knots, 2, 3)
    assert len(rows) - 1 == grid.size * len(bs)
    # spot-check one entry against direct evaluation
    arg, member, value = float(rows[1][0]), int(rows[1][1]), float(rows[1][2])
    assert value == sp.evaluate(bs, [arg])[0, member]


#: (internal knots, order, density, members, rows) of the eval tables below
_EVAL_TABLES = [
    (9, 3, 2, 7, 497),      # 71 points x 7 members: less than one chunk
    (6, 2, 1, 0, 0),        # no members: the header alone
    (7, 1, 7, 63, 4095),    # 65 x 63: one row short of a chunk
    (6, 2, 4, 64, 4096),    # 64 x 64: exactly one chunk
    (3, 3, 1, 241, 4097),   # 17 x 241: the second chunk holds one row
    (9, 3, 2, 200, 14200),  # 71 x 200: three chunks and a part
]


def test_eval_csv_bytes_match_csv_module(tmp_path):
    """``eval`` writes what ``csv.writer`` writes for the same values, at
    every derivative and on both sides of every chunk edge (a grid has at
    least 3 points, so a 1-row table is the writer test's case)."""
    assert _CSV_CHUNK_CELLS // 3 == 4096  # the row counts above sit on its edges
    arch, ev = tmp_path / "fam.json", tmp_path / "vals.csv"
    for n_int, k, density, count, rows in _EVAL_TABLES:
        knots = sp.equidistant_knots(0.0, 1.0, n_int)
        basis = sp.splinet(knots, k).os
        sp.save_archive(arch, sp.subsample(basis, np.arange(count) % len(basis)))
        fam, _ = sp.load_archive(arch)
        grid = sp.sample_grid(knots, max(k, 1), density)
        assert grid.size * count == rows
        for deriv in range(k + 1):
            assert main(["eval", "-i", str(arch), "-N", str(density), "--deriv", str(deriv),
                         "-o", str(ev)]) == 0
            vals = sp.evaluate(fam, grid, deriv=deriv)
            ref = io.StringIO(newline="")
            w = csv.writer(ref)
            w.writerow(["arg", "member", "value"])
            w.writerows((repr(float(g)), j, repr(float(vals[i, j])))
                        for j in range(vals.shape[1]) for i, g in enumerate(grid))
            assert ev.read_bytes() == ref.getvalue().encode("utf-8"), (rows, deriv)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("count", [1000, 2000])
def test_eval_memory_is_archive_plus_values(tmp_path, count):
    """``eval`` holds the values as floats and renders one chunk of rows at a
    time, so its peak stays within the value array plus one chunk's tokens
    and text of what loading the archive takes, whatever the member count
    (rendering the whole table first took 26 MB more at 1000 draws)."""
    mean = sp.construct(sp.equidistant_knots(0.0, 1.0, 40), 3,
                        np.random.default_rng(0).standard_normal(38), "CRLC")
    arch = tmp_path / "draws.json"
    sp.save_archive(arch, sp.rspline(mean, sp.NoiseSpec(seed=11), count))
    load_peak = _traced_peak(sp.load_archive, arch)
    peak = _traced_peak(main, ["eval", "-i", str(arch), "-N", "2", "-o", str(tmp_path / "e.csv")])
    values_bytes = 288 * count * 8  # 288 grid points
    # a row of a chunk: three tokens and their list slots, its line and its
    # share of the chunk's text, well under 300 bytes
    chunk_bytes = _CSV_CHUNK_CELLS // 3 * 300
    assert peak - load_peak <= values_bytes + chunk_bytes


def test_check_invalid_archive(tmp_path, capsys):
    out = str(tmp_path / "b")
    main(["basis", "--equid", "0", "1", "9", "-k", "2", "--type", "bs", "-o", out])
    path = out + ".bs.json"
    obj = json.loads(open(path).read())
    obj["splines"][0]["der"][0][1][0] += 1.0  # break Taylor consistency
    open(path, "w").write(json.dumps(obj))
    assert main(["check", "-i", path]) == 1
    assert "invalid" in capsys.readouterr().err


def test_check_nan_archive(tmp_path, capsys):
    out = str(tmp_path / "b")
    main(["basis", "--equid", "0", "1", "11", "-k", "3", "-o", out])
    path = out + ".os.json"
    obj = json.loads(open(path).read())
    obj["splines"][2]["der"][0][1][1] = float("nan")
    open(path, "w").write(json.dumps(obj))
    assert main(["check", "-i", path]) == 1
    assert "member 2 violates validity by inf" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "eval"])
def test_edited_middle_entry_is_refused(tmp_path, capsys, command):
    """The k-th entry that the symmetric convention adds at a member's
    middle knot, edited beyond the member's tolerance, is refused where the
    archive is loaded: every command exits 1 naming the member and knot."""
    out = str(tmp_path / "b")
    main(["basis", "--equid", "0", "1", "11", "-k", "3", "-o", out])
    path = out + ".os.json"
    obj = json.loads(open(path).read())
    lo, hi = obj["splines"][4]["supp"][0]
    mid = (hi - lo - 1) // 2 + 1
    obj["splines"][4]["der"][0][mid][3] += 1.0
    open(path, "w").write(json.dumps(obj))
    capsys.readouterr()
    argv = [command, "-i", path] + (["-o", str(tmp_path / "e.csv")] if command == "eval" else [])
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: malformed archive: member 4, knot %d: "
                                              % (lo + mid))
    assert not (tmp_path / "e.csv").exists()


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1.0])
def test_check_rejects_bad_epsilon(tmp_path, capsys, eps):
    out = str(tmp_path / "b")
    main(["basis", "--equid", "0", "1", "9", "-k", "2", "--type", "bs", "-o", out])
    path = out + ".bs.json"
    obj = json.loads(open(path).read())
    obj["splines"][0]["der"][0][1][0] += 0.5  # member 0 is broken
    obj["epsilon"] = eps
    open(path, "w").write(json.dumps(obj))
    capsys.readouterr()
    assert main(["check", "-i", path]) == 1
    captured = capsys.readouterr()
    assert "error: malformed archive: epsilon must be finite and non-negative" in captured.err
    assert "valid" not in captured.out


@pytest.mark.parametrize("edit", ["top_level_list", "splines_int", "net_int_level",
                                  "no_knots", "order_fraction", "supp_fraction",
                                  "net_out_of_range", "net_repeated", "der_string",
                                  "knots_bool", "epsilon_bool"])
def test_check_malformed_archive(tmp_path, capsys, edit):
    out = str(tmp_path / "b")
    main(["basis", "--equid", "0", "1", "11", "-k", "3", "-o", out])
    path = out + ".os.json"
    obj = json.loads(open(path).read())
    if edit == "top_level_list":
        obj = [1, 2]
    elif edit == "splines_int":
        obj["splines"] = 5
    elif edit == "net_int_level":
        obj["net"] = [[5]]
    elif edit == "order_fraction":
        obj["order"] = 3.7
    elif edit == "supp_fraction":
        obj["splines"][0]["supp"] = [[0.0, 4.5]]
    elif edit == "net_out_of_range":
        obj["net"] = [[[99999, -4, 7]]]
    elif edit == "net_repeated":
        obj["net"][0][0][0] = obj["net"][-1][0][0]
    elif edit == "der_string":
        obj["splines"][0]["der"][0][0][0] = "0.25"
    elif edit == "knots_bool":
        obj["knots"][0] = False
    elif edit == "epsilon_bool":
        obj["epsilon"] = True
    else:
        del obj["knots"]
    open(path, "w").write(json.dumps(obj))
    capsys.readouterr()
    assert main(["check", "-i", path]) == 1
    assert "error: malformed archive" in capsys.readouterr().err


def test_missing_file_is_error(tmp_path, capsys):
    assert main(["check", "-i", str(tmp_path / "nope.json")]) == 1
    capsys.readouterr()


def test_empty_csv_is_error(tmp_path, capsys):
    main(["basis", "--equid", "0", "1", "7", "-k", "2", "-o", str(tmp_path / "b")])
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["project", "-i", str(empty), "--equid", "0", "1", "7", "-k", "2",
                 "-o", str(tmp_path / "p")]) == 1
    assert main(["fpca", "--coeff", str(empty), "--basis", str(tmp_path / "b.os.json"),
                 "-o", str(tmp_path / "f")]) == 1
    assert "no CSV rows" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf", "wide"])
def test_fpca_bad_coefficients_exit_1(tmp_path, capsys, bad):
    # a non-finite entry or a row wider than the basis is refused before the
    # eigensolve: exit 1 with the library's message
    b = str(tmp_path / "b")
    assert main(["basis", "--equid", "0", "1", "11", "-k", "3", "-o", b]) == 0
    coeff = np.random.default_rng(6).standard_normal((5, 9))
    if bad == "nan":
        coeff[2, 4] = np.nan
    elif bad == "inf":
        coeff[0, 0] = np.inf
    else:
        coeff = np.hstack([coeff, coeff[:, :2]])
    cp = tmp_path / "c.csv"
    sp.write_coeff_csv(cp, coeff)
    capsys.readouterr()
    assert main(["fpca", "--coeff", str(cp), "--basis", b + ".os.json",
                 "-o", str(tmp_path / "f")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: fpca")
    assert ("finite" if bad != "wide" else "9 coefficients") in err


def test_fpca_without_variance_exits_1(tmp_path, capsys):
    # identical rows retain no component: exit 1 and write none of the files
    b = str(tmp_path / "b")
    assert main(["basis", "--equid", "0", "1", "9", "-k", "3", "-o", b]) == 0
    cp = tmp_path / "c.csv"
    sp.write_coeff_csv(cp, np.tile(np.arange(7.0), (3, 1)))
    capsys.readouterr()
    assert main(["fpca", "--coeff", str(cp), "--basis", b + ".os.json",
                 "-o", str(tmp_path / "f")]) == 1
    assert capsys.readouterr().err == ("error: %s: the coefficient rows carry no variance, so "
                                       "fpca retains no component\n" % cp)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.bs.json", "b.os.json", "c.csv"]


def test_ragged_csv_is_error(tmp_path, capsys):
    # a row with a missing field names its line and both field counts
    b = str(tmp_path / "b")
    assert main(["basis", "--equid", "0", "1", "7", "-k", "2", "-o", b]) == 0
    data = tmp_path / "ragged.csv"
    data.write_text("arg,s1,s2\n0.0,1.0,2.0\n0.5,1.5\n0.75,1.0,2.0\n")
    capsys.readouterr()
    assert main(["project", "-i", str(data), "--equid", "0", "1", "7", "-k", "2",
                 "-o", str(tmp_path / "p")]) == 1
    assert "error: %s: the row on line 3 has 2 fields, expected 3" % data in capsys.readouterr().err
    coeff = tmp_path / "ragged.coeff.csv"
    coeff.write_text("c1,c2,c3,c4,c5,c6\n" + "1,2,3,4,5,6\n" * 3 + "\n" + "1,2,3,4,5,6,7\n")
    assert main(["fpca", "--coeff", str(coeff), "--basis", b + ".os.json",
                 "-o", str(tmp_path / "f")]) == 1
    assert "the row on line 6 has 7 fields, expected 6" in capsys.readouterr().err


def test_bad_number_in_csv_is_error(tmp_path, capsys):
    # a field that is not a number names the file, its line and its field
    b = str(tmp_path / "b")
    assert main(["basis", "--equid", "0", "1", "7", "-k", "2", "-o", b]) == 0
    data = tmp_path / "bad.csv"
    data.write_text("arg,s1\n0.0,1.0\n0.5,abc\n0.75,1.0\n")
    capsys.readouterr()
    assert main(["project", "-i", str(data), "--equid", "0", "1", "7", "-k", "2",
                 "-o", str(tmp_path / "p")]) == 1
    assert ("error: %s: field 2 on line 3 is not a number: 'abc'" % data
            in capsys.readouterr().err)
    coeff = tmp_path / "bad.coeff.csv"
    coeff.write_text("c1,c2,c3,c4,c5,c6\n" + "1,2,3,4,5,6\n" * 3 + "\n" + "1,2,3,,5,6\n")
    assert main(["fpca", "--coeff", str(coeff), "--basis", b + ".os.json",
                 "-o", str(tmp_path / "f")]) == 1
    assert ("error: %s: field 4 on line 6 is not a number: ''" % coeff
            in capsys.readouterr().err)


def test_random_and_reproducibility(tmp_path, capsys):
    rng = np.random.default_rng(0)
    mean = oracles.random_valid_family(rng, 12, 3)
    mp = str(tmp_path / "mean.json")
    sp.save_archive(mp, mean)
    o1, o2 = str(tmp_path / "d1.json"), str(tmp_path / "d2.json")
    assert main(["random", "--mean", mp, "-M", "5", "--seed", "42",
                 "--sigma", "0.3", "-o", o1]) == 0
    err = capsys.readouterr().err
    assert "Philox" in err
    assert main(["random", "--mean", mp, "-M", "5", "--seed", "42",
                 "--sigma", "0.3", "-o", o2]) == 0
    assert open(o1, "rb").read() == open(o2, "rb").read()
    fam, _ = sp.load_archive(o1)
    assert len(fam) == 5 and sp.is_valid_spline(fam).all_ok


@pytest.mark.parametrize("flags, says", [(["--sigma", "nan"], "Sigma has non-finite"),
                                         (["--theta", "inf"], "Theta has non-finite"),
                                         (["--seed", "-1"], "seed must be in")])
def test_random_bad_noise_exit_1(tmp_path, capsys, flags, says):
    mean = oracles.random_valid_family(np.random.default_rng(5), 10, 2)
    mp = str(tmp_path / "mean.json")
    sp.save_archive(mp, mean)
    out = tmp_path / "draws.json"
    assert main(["random", "--mean", mp, "-M", "2", *flags, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and says in err
    assert not out.exists()


def test_random_noise_json(tmp_path):
    rng = np.random.default_rng(1)
    mean = oracles.random_valid_family(rng, 10, 2)
    mp = str(tmp_path / "mean.json")
    sp.save_archive(mp, mean)
    nz = tmp_path / "noise.json"
    # scalars, or Sigma's diagonal (one entry per knot) and Theta as a matrix
    for spec in ({"sigma": 0.2, "theta": 1.0, "seed": 7},
                 {"sigma": [0.1] * 12, "theta": np.eye(3).tolist()}):
        nz.write_text(json.dumps(spec))
        out = str(tmp_path / "draws.json")
        assert main(["random", "--mean", mp, "--noise", str(nz), "-M", "3", "-o", out]) == 0
        fam, _ = sp.load_archive(out)
        assert len(fam) == 3


def test_random_noise_json_seed_past_64_bits(tmp_path):
    """A ``--noise`` file's seed keeps all of its 128 bits (orjson would read
    an integer past 64 bits as a float): it draws what ``--seed`` draws."""
    mean = oracles.random_valid_family(np.random.default_rng(6), 10, 2)
    mp = str(tmp_path / "mean.json")
    sp.save_archive(mp, mean)
    seed = 2**127 + 12345
    nz = tmp_path / "noise.json"
    nz.write_text(json.dumps({"sigma": 0.2, "seed": seed}))
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["random", "--mean", mp, "--noise", str(nz), "-M", "2", "-o", a]) == 0
    assert main(["random", "--mean", mp, "--sigma", "0.2", "--seed", str(seed), "-M", "2",
                 "-o", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


@pytest.mark.parametrize("seed", [1.7, True, "3"])
def test_random_noise_json_seed_must_be_integer(tmp_path, capsys, seed):
    mean = oracles.random_valid_family(np.random.default_rng(6), 10, 2)
    mp = str(tmp_path / "mean.json")
    sp.save_archive(mp, mean)
    nz = tmp_path / "noise.json"
    nz.write_text(json.dumps({"sigma": 0.2, "seed": seed}))
    out = str(tmp_path / "draws.json")
    assert main(["random", "--mean", mp, "--noise", str(nz), "-M", "2", "-o", out]) == 1
    assert capsys.readouterr().err.startswith("error: %s: seed must be an integer" % nz)


@pytest.mark.parametrize("text, says", [
    ("7", "must hold a JSON object; got 7"),
    ('"x"', "must hold a JSON object; got 'x'"),
    ("[1, 2]", "must hold a JSON object; got [1, 2]"),
    ("{", "not JSON"),
    ('{"sigma": {}}', "sigma must be a number, a list of numbers or a list of such lists; got {}"),
    ('{"theta": "0.5"}', "theta must be a number"),
    ('{"sigma": null}', "sigma must be a number"),
    ('{"sigma": [1, true]}', "sigma must be a number"),
    ('{"theta": [[1, 0], [0]]}', "theta must be a number"),
    ('{"theta": [[[1.0]]]}', "theta must be a number"),
    pytest.param('{"sigma": 1%s}' % ("0" * 400), "sigma must be a number",
                 id="int-past-float-range"),
])
def test_random_noise_file_checked_where_it_enters(tmp_path, capsys, text, says):
    mean = oracles.random_valid_family(np.random.default_rng(6), 10, 2)
    mp = str(tmp_path / "mean.json")
    sp.save_archive(mp, mean)
    nz = tmp_path / "noise.json"
    nz.write_text(text)
    out = tmp_path / "draws.json"
    assert main(["random", "--mean", mp, "--noise", str(nz), "-M", "2", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s: " % nz) and says in err and err.count("\n") == 1, err
    assert not out.exists()


def test_random_covariance_files(tmp_path):
    """A ``--sigma``/``--theta`` CSV of one value is a scalar, of one row or
    one column a diagonal, and of anything else a matrix: each draws the
    bytes of the same covariance given inline or in a ``--noise`` file."""
    mean = oracles.random_valid_family(np.random.default_rng(6), 10, 2)
    mp = str(tmp_path / "mean.json")
    sp.save_archive(mp, mean)
    sigma, theta = np.linspace(0.1, 0.3, 12), 0.2 * np.eye(3) + 0.05

    def draws(*flags):
        out = tmp_path / "draws.json"
        assert main(["random", "--mean", mp, "-M", "3", "--seed", "5", *flags,
                     "-o", str(out)]) == 0
        return out.read_bytes()

    def csv_file(name, a):
        np.savetxt(tmp_path / name, a, fmt="%.17g", delimiter=",")
        return str(tmp_path / name)

    assert draws("--sigma", csv_file("one.csv", [[0.3]])) == draws("--sigma", "0.3")
    nz = tmp_path / "noise.json"
    nz.write_text(json.dumps({"sigma": sigma.tolist(), "theta": theta.tolist()}))
    want = draws("--noise", str(nz))
    mat = csv_file("theta.csv", theta)
    assert draws("--sigma", csv_file("row.csv", sigma[None, :]), "--theta", mat) == want
    assert draws("--sigma", csv_file("col.csv", sigma[:, None]), "--theta", mat) == want


@pytest.mark.parametrize("text, says", [
    ("", "holds no CSV rows"),
    ("\n\n", "holds no CSV rows"),
    ("s1,s2\n", "holds no CSV rows below its header"),
    ("0.1,0.2\n0.3\n", ": the row on line 2 has 1 fields, expected 2"),
    ("0.1,0.2\n0.3,x\n", ": field 2 on line 2 is not a number: 'x'"),
    ("0.1x,0.2\n0.3,0.4\n", ": field 1 on line 1 is not a number: '0.1x'"),
], ids=["empty", "blank", "header-only", "ragged", "non-numeric", "mixed-first-row"])
@pytest.mark.parametrize("flag", ["--sigma", "--theta"])
def test_random_covariance_file_checked_where_it_enters(tmp_path, capsys, text, says, flag):
    # an empty, header-only, ragged or non-numeric file exits 1 with one
    # line naming the file (and the line), before any draw
    mean = oracles.random_valid_family(np.random.default_rng(6), 10, 2)
    mp = str(tmp_path / "mean.json")
    sp.save_archive(mp, mean)
    cov = tmp_path / "cov.csv"
    cov.write_text(text)
    out = tmp_path / "draws.json"
    assert main(["random", "--mean", mp, flag, str(cov), "-M", "2", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s" % cov) and says in err and err.count("\n") == 1, err
    assert not out.exists()


def test_project_archive(tmp_path):
    rng = np.random.default_rng(2)
    fam = oracles.random_valid_family(rng, 14, 3, count=2)
    fp = str(tmp_path / "fam.json")
    sp.save_archive(fp, fam)
    out = str(tmp_path / "proj")
    assert main(["project", "-i", fp, "--equid", "0", "1", "6", "-o", out]) == 0
    coeff = np.loadtxt(out + ".coeff.csv", delimiter=",", skiprows=1)
    assert coeff.shape == (2, 4)  # d = 6 - 3 + 1
    proj, _ = sp.load_archive(out + ".proj.json")
    assert len(proj) == 2


def test_project_archive_after_whitespace(tmp_path):
    """An archive that starts with JSON whitespace is still an archive: the
    same outputs as from the archive itself."""
    rng = np.random.default_rng(2)
    fp = str(tmp_path / "fam.json")
    sp.save_archive(fp, oracles.random_valid_family(rng, 14, 3, count=2))
    with open(fp, encoding="utf-8") as fh:
        text = fh.read()
    ws = str(tmp_path / "ws.json")
    with open(ws, "w", encoding="utf-8") as fh:
        fh.write("\n \t\r\n" + text)
    for src, out in ((fp, "plain"), (ws, "ws")):
        assert main(["project", "-i", src, "--equid", "0", "1", "5", "-o",
                     str(tmp_path / out)]) == 0
    for ext in (".coeff.csv", ".proj.json"):
        assert (tmp_path / ("ws" + ext)).read_bytes() == (tmp_path / ("plain" + ext)).read_bytes()


def test_project_csv_then_fpca(tmp_path):
    # functional data -> projection -> FPCA, chained through files
    t = np.linspace(0.0, 1.0, 600, endpoint=False)
    rng = np.random.default_rng(3)
    samples = np.column_stack([
        np.sin(2 * np.pi * t) * (1 + 0.3 * rng.standard_normal())
        + 0.2 * rng.standard_normal() * np.cos(4 * np.pi * t)
        for _ in range(12)
    ])
    dp = tmp_path / "data.csv"
    with open(dp, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["arg"] + ["s%d" % i for i in range(12)])
        for a, row in zip(t, samples):
            w.writerow([repr(float(a))] + [repr(float(x)) for x in row])
    out = str(tmp_path / "proj")
    assert main(["project", "-i", str(dp), "--equid", "0", "1", "11",
                 "-k", "3", "-o", out]) == 0
    # basis archive for the fpca step: same knots, same type
    bout = str(tmp_path / "b")
    assert main(["basis", "--equid", "0", "1", "11", "-k", "3", "-o", bout]) == 0
    fout = str(tmp_path / "f")
    assert main(["fpca", "--coeff", out + ".coeff.csv",
                 "--basis", bout + ".os.json", "-o", fout]) == 0
    eig = np.loadtxt(fout + ".eigenvalues.csv", delimiter=",", skiprows=1)
    assert eig.shape[1] == 2 and np.all(np.diff(eig[:, 1]) <= 1e-12)
    assert eig.shape[0] == len(sp.load_archive(bout + ".os.json")[0])
    scores = np.loadtxt(fout + ".scores.csv", delimiter=",", skiprows=1)
    assert scores.shape[0] == 12
    # one eigenfunction per retained component, one score column each
    ef, _ = sp.load_archive(fout + ".eigenfunctions.json")
    assert len(ef) == scores.shape[1] == 2


def test_gram_command(tmp_path):
    rng = np.random.default_rng(4)
    fam = oracles.random_valid_family(rng, 10, 2, count=3)
    fp = str(tmp_path / "fam.json")
    sp.save_archive(fp, fam)
    out = str(tmp_path / "g.csv")
    assert main(["gram", "-i", fp, "-o", out]) == 0
    g = np.loadtxt(out, delimiter=",", skiprows=1)
    assert g.shape == (3, 3)
    assert np.allclose(g, sp.gramian(fam), atol=1e-15)
    out2 = str(tmp_path / "g2.csv")
    assert main(["gram", "-i", fp, "--with", fp, "-o", out2]) == 0
    g2 = np.loadtxt(out2, delimiter=",", skiprows=1)
    assert np.allclose(g, g2, atol=1e-12)


def _assert_splinet_script(dist):
    import splinet.cli

    assert dist.metadata["Name"] == "splinet"
    eps = dist.entry_points.select(group="console_scripts", name="splinet")
    assert len(eps) == 1
    (ep,) = eps
    assert ep.value == "splinet.cli:main"
    assert ep.load() is splinet.cli.main


def test_console_script_entry(tmp_path):
    """pyproject.toml registers a `splinet` console script for cli.main and
    requires numpy and orjson alone outside its extras.

    The metadata is generated from a copy of the project with setuptools'
    `egg_info`, so the check needs no installed package and writes nothing
    into the working tree; an installed `splinet` distribution is checked
    as well.
    """
    import importlib.metadata as md
    import pathlib
    import shutil
    import subprocess
    import sys

    pytest.importorskip("setuptools", minversion="61")  # reads [project]
    root = pathlib.Path(__file__).resolve().parents[1]
    proj = tmp_path / "proj"
    proj.mkdir()
    shutil.copy2(root / "pyproject.toml", proj)
    shutil.copytree(
        root / "src", proj / "src", ignore=shutil.ignore_patterns("__pycache__")
    )
    base = tmp_path / "meta"
    base.mkdir()
    res = subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()",
         "egg_info", "--egg-base", str(base)],
        cwd=proj, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    (egg,) = base.glob("*.egg-info")
    _assert_splinet_script(md.Distribution.at(egg))
    # scipy is an extra: outside the extras, numpy and orjson are the requirements
    requires = md.Distribution.at(egg).requires
    assert ([r for r in requires if "extra ==" not in r]
            == ["numpy>=1.24", "orjson>=3.8"]), requires
    assert 'scipy>=1.10; extra == "sparse"' in requires, requires

    try:
        installed = md.distribution("splinet")
    except md.PackageNotFoundError:
        return
    _assert_splinet_script(installed)


def test_cli_jobs_import_no_scipy(tmp_path):
    """Every kind of CLI job runs without importing scipy: ``cli_jobs.py``
    runs them all in one fresh interpreter, so that nothing this test
    process has loaded counts, and fails if a job fails or a ``scipy``
    module was imported."""
    import os
    import pathlib
    import subprocess
    import sys

    here = pathlib.Path(__file__).resolve().parent
    path = [str(here.parent / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    res = subprocess.run([sys.executable, str(here / "cli_jobs.py"), str(tmp_path)],
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr


def test_cli_jobs_import_no_numpy_ma(tmp_path):
    """numpy loads ``numpy.ma`` on its first ``np.unique`` call, which no CLI
    job makes: ``basis``, ``project`` onto other knots (their union) and
    ``fpca`` run in a fresh interpreter without loading it."""
    import os
    import pathlib
    import subprocess
    import sys
    import textwrap

    script = textwrap.dedent("""
        import sys
        from splinet.cli import main
        d = sys.argv[1] + "/"
        for argv in (["basis", "--equid", "0", "1", "11", "-k", "3", "-o", d + "b11"],
                     ["basis", "--equid", "0", "1", "7", "-k", "3", "-o", d + "b7"],
                     ["project", "-i", d + "b11.os.json", "--equid", "0", "1", "7",
                      "-o", d + "p"],
                     ["fpca", "--coeff", d + "p.coeff.csv", "--basis", d + "b7.os.json",
                      "-o", d + "f"]):
            if main(argv) != 0:
                sys.exit("job failed: %s" % argv)
        sys.exit("numpy.ma was imported" if "numpy.ma" in sys.modules else 0)
    """)
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    path = [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    res = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
