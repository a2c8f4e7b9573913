import csv
import io
import json
import tracemalloc
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import splinet as sp
from splinet import archive
from splinet.archive import family_from_dict
from splinet.bases import DyadicNet

import oracles


def test_roundtrip_bitexact(tmp_path):
    rng = np.random.default_rng(0)
    fam = oracles.random_valid_family(rng, 12, 3, count=3)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    sp.save_archive(p1, fam)
    back, net = sp.load_archive(p1)
    assert net is None
    assert back.smorder == fam.smorder
    assert np.array_equal(back.knots.xi, fam.knots.xi)
    assert back.rows.tobytes() == fam.rows.tobytes()
    # a second save of the loaded family is byte-identical
    sp.save_archive(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_roundtrip_with_net(tmp_path):
    res = sp.splinet(sp.equidistant_knots(0.0, 1.0, 11), 3)
    path = tmp_path / "os.json"
    sp.save_archive(path, res.os, res.net)
    fam, net = sp.load_archive(path)
    assert net is not None and net.complete
    assert net.levels == res.net.levels
    grid = np.linspace(0, 1, 201)
    assert np.allclose(sp.evaluate(fam, grid), sp.evaluate(res.os, grid), atol=1e-14)
    assert fam.type == "dspnt"


def test_stored_fields(tmp_path):
    fam = sp.bspline_basis(sp.equidistant_knots(0.0, 2.0, 7), 2)
    path = tmp_path / "bs.json"
    sp.save_archive(path, fam)
    obj = json.loads(path.read_text())
    assert obj["order"] == 2 and obj["type"] == "bs"
    assert len(obj["knots"]) == 9 and len(obj["splines"]) == 6
    first = obj["splines"][0]
    assert first["supp"] == [[0, 3]]
    assert len(first["der"]) == 1 and len(first["der"][0]) == 4
    assert len(first["der"][0][0]) == 3  # k+1 columns


def test_multi_component_support_roundtrip(tmp_path):
    knots = sp.equidistant_knots(0.0, 1.0, 11)
    bs = sp.bspline_basis(knots, 2)
    c = np.zeros(len(bs))
    c[0], c[6] = 1.0, -2.0
    fam = sp.exsupp(sp.lincomb(bs, c))
    path = tmp_path / "m.json"
    sp.save_archive(path, fam)
    back, _ = sp.load_archive(path)
    assert back.members[0][0] == fam.members[0][0]
    grid = np.linspace(0, 1, 201)
    assert np.allclose(sp.evaluate(back, grid), sp.evaluate(fam, grid), atol=1e-14)


def test_corrupted_block_shape(tmp_path):
    fam = sp.bspline_basis(sp.equidistant_knots(0.0, 1.0, 7), 2)
    path = tmp_path / "bad.json"
    sp.save_archive(path, fam)
    obj = json.loads(path.read_text())
    obj["splines"][0]["der"][0] = obj["splines"][0]["der"][0][:-1]
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError):
        sp.load_archive(path)


def test_incomplete_net_flag(tmp_path):
    res = sp.splinet(sp.equidistant_knots(0.0, 1.0, 12), 3)
    path = tmp_path / "inc.json"
    sp.save_archive(path, res.os, res.net)
    _, net = sp.load_archive(path)
    assert net is not None and not net.complete
    # full tuples, 2^N - 1 of them, that leave member 9 out
    sp.save_archive(path, res.os, sp.net_layout(11, 3))
    _, net = sp.load_archive(path)
    assert net is not None and not net.complete


@pytest.mark.parametrize("field, value, message", [
    ("order", 3.7, "order entry 3.7 is not an integer"),
    ("order", "3", "order entry '3' is not an integer"),
    ("order", True, "order entry True is not an integer"),
    ("supp", [[0, 4.5]], "supp entry 4.5 is not an integer"),
    ("net", [[[99, -4, 7]]], "net index outside 0..8"),
    ("net", [[[0, 1, 2], [3, 4, 2]]], "net index repeated"),
    ("net", [[[0, 1, 2.5]]], "net entry 2.5 is not an integer"),
], ids=["order_fraction", "order_string", "order_bool", "supp_fraction", "net_out_of_range",
        "net_repeated", "net_fraction"])
def test_malformed_integer_fields(tmp_path, field, value, message):
    res = sp.splinet(sp.equidistant_knots(0.0, 1.0, 11), 3)
    path = tmp_path / "os.json"
    sp.save_archive(path, res.os, res.net)
    obj = json.loads(path.read_text())
    if field == "supp":
        obj["splines"][0]["supp"] = value
    else:
        obj[field] = value
    with pytest.raises(ValueError, match="malformed archive: " + message):
        family_from_dict(obj)


@pytest.mark.parametrize("field, value, message", [
    ("der", "0.25", "der entry '0.25' is not a number"),
    ("der", True, "der entry True is not a number"),
    ("der", None, "der entry None is not a number"),
    ("der", [0.5], r"der entry \[0.5\] is not a number"),
    ("knots", "0.5", "knots entry '0.5' is not a number"),
    ("knots", False, "knots entry False is not a number"),
    ("epsilon", True, "epsilon entry True is not a number"),
    ("epsilon", "1e-7", "epsilon entry '1e-7' is not a number"),
], ids=["der_string", "der_bool", "der_null", "der_list", "knots_string", "knots_bool",
        "epsilon_bool", "epsilon_string"])
def test_malformed_real_fields(tmp_path, field, value, message):
    """``float`` would take a numeric string and a boolean (and numpy ``null``
    as NaN); the loader takes only JSON numbers."""
    res = sp.splinet(sp.equidistant_knots(0.0, 1.0, 11), 3)
    path = tmp_path / "os.json"
    sp.save_archive(path, res.os, res.net)
    obj = json.loads(path.read_text())
    if field == "der":
        obj["splines"][2]["der"][0][1][3] = value
    elif field == "knots":
        obj["knots"][4] = value
    else:
        obj[field] = value
    with pytest.raises(ValueError, match="malformed archive: " + message):
        family_from_dict(obj)


@pytest.mark.parametrize("splines, message", [
    ([{"supp": [[0, 2], [3, 5]], "der": [[[0.0] * 3] * 3] * 2}], "disjoint and non-adjacent"),
    ([{"supp": [[0, 9]], "der": [[[0.0] * 3] * 10]}], r"support component \(0, 9\) outside"),
    ([{"supp": [[2, 2]], "der": [[[0.0] * 3]]}], r"bad support component \(2, 2\)"),
    ([{"supp": [[0, 2]], "der": []}], "block count mismatch"),
    ([{"supp": [[0, 2]], "der": [[[0.0] * 2] * 3]}], "block shape does not match"),
    ([{"supp": [[0, 2], [4, 7]], "der": [[[0.0] * 3] * 4, [[0.0] * 3] * 3]}],
     "block shape does not match"),
], ids=["adjacent", "out_of_range", "empty_component", "block_count", "row_width",
        "block_rows_swapped"])
def test_archive_support_and_shape_checked(splines, message):
    """Archive members go straight into the stacked layout; its one
    vectorized check is the only check of supports and block shapes, as it
    is for ``SplineFamily``'s ``(supp, blocks)`` pairs."""
    obj = {"knots": list(np.linspace(0.0, 1.0, 8)), "order": 2, "splines": splines}
    with pytest.raises(ValueError, match=message):
        family_from_dict(obj)


@pytest.mark.parametrize("edit, message", [
    ("negative_supp", "derivative block shape does not match support"),
    ("block_rows", "derivative block shape does not match support"),
    ("unknown_type", "unknown family type 'zz'"),
    ("decreasing_knots", "knots must be strictly increasing"),
])
def test_every_loader_fault_is_malformed_archive(edit, message):
    """Faults that the knot and layout checks find read as the loader's own:
    one ``malformed archive: `` prefix before the check's text."""
    fam = sp.bspline_basis(sp.equidistant_knots(0.0, 1.0, 7), 2)
    obj = oracles.family_to_dict(fam)
    if edit == "negative_supp":
        obj["splines"][0]["supp"] = [[-1, 3]]
    elif edit == "block_rows":
        obj["splines"][1]["der"][0].append([0.0] * 3)
    elif edit == "unknown_type":
        obj["type"] = "zz"
    else:
        obj["knots"][3], obj["knots"][4] = obj["knots"][4], obj["knots"][3]
    with pytest.raises(ValueError) as err:
        family_from_dict(obj)
    assert str(err.value) == "malformed archive: " + message


@pytest.mark.parametrize("k", [0, 2, 3])
def test_loader_checks_the_repeated_entry(k):
    """The symmetric k-th column repeats one entry per component that the
    one-sided rows have no place for: at the middle knot the entry above
    (B-splines of order 2, two internal knots) or 0 (order 3, three), and
    for k = 0 the last interval's value in the last row.  Within the
    member's tolerance of that it loads as if unedited; beyond it, or NaN,
    the loader refuses it, naming the member and the knot."""
    fam = sp.bspline_basis(sp.equidistant_knots(0.0, 1.0, 7), k)
    obj = oracles.family_to_dict(fam)
    i = 2
    lo, hi = obj["splines"][i]["supp"][0]
    m = hi - lo - 1
    r = m + 1 if k == 0 else m // 2 + 1
    row = obj["splines"][i]["der"][0][r]
    stored, tol = row[k], fam.member_tolerance(i)
    row[k] = stored + 0.5 * tol
    assert family_from_dict(obj)[0].rows.tobytes() == fam.rows.tobytes()
    for bad in (stored + 2.0 * tol, float("nan")):
        row[k] = bad
        with pytest.raises(ValueError, match="^malformed archive: member %d, knot %d: k-th "
                                             "derivative entry" % (i, lo + r)):
            family_from_dict(obj)


def test_integral_float_order_accepted(tmp_path):
    fam = sp.bspline_basis(sp.equidistant_knots(0.0, 1.0, 7), 2)
    path = tmp_path / "bs.json"
    sp.save_archive(path, fam)
    obj = json.loads(path.read_text())
    obj["order"] = 2.0
    obj["splines"][0]["supp"] = [[0.0, 3.0]]
    back, _ = family_from_dict(obj)
    assert back.smorder == 2 and back.members[0][0] == ((0, 3),)


# ---------------------------------------------------------------------------
# the writer against json.dumps(indent=1), and bit-exact round trips

_REALS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([np.nan, np.inf, -np.inf, -0.0]),
)


@st.composite
def _supports(draw, n):
    """Disjoint, non-adjacent components over knots 0..n+1; may be empty."""
    comps, lo = [], draw(st.integers(0, n + 2))
    while lo <= n and draw(st.booleans()):
        hi = min(lo + draw(st.integers(1, 3)), n + 1)
        comps.append((lo, hi))
        lo = hi + 2 + draw(st.integers(0, 2))
    return tuple(comps)


@st.composite
def _families(draw):
    k = draw(st.integers(0, 3))
    n = draw(st.integers(0, 8))
    steps = draw(st.lists(st.floats(1e-3, 10.0), min_size=n + 1, max_size=n + 1))
    knots = sp.KnotSet(draw(st.floats(-100.0, 100.0)) + np.concatenate([[0.0], np.cumsum(steps)]))
    members = []
    for _ in range(draw(st.integers(0, 4))):
        supp = draw(_supports(n))
        blocks = [np.array(draw(st.lists(_REALS, min_size=(hi - lo + 1) * (k + 1),
                                         max_size=(hi - lo + 1) * (k + 1))))
                  .reshape(hi - lo + 1, k + 1) for lo, hi in supp]
        members.append((supp, blocks))
    fam = sp.SplineFamily(knots, k, tuple(members),
                          draw(st.sampled_from(["sp", "bs", "gsob", "twob", "spnt", "dspnt"])),
                          draw(st.floats(0.0, 1e3)))
    net = None
    if draw(st.booleans()):
        # member indices at most once each, as the loader requires
        pool = iter(draw(st.permutations(range(len(members)))))
        shape = draw(st.lists(st.lists(st.integers(0, 4), max_size=3), max_size=3))
        levels = tuple(tuple(tuple(islice(pool, size)) for size in lv) for lv in shape)
        net = DyadicNet(levels, False, k)
    return fam, net


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _nonfinite_family():
    """-0.0, NaN and both infinities in blocks of odd and even ``m``, the
    even one repeating a NaN at its middle knot, beside an empty support."""
    odd = np.array([[np.nan, -0.0], [np.inf, -np.inf], [0.0, 1e-300]])
    even = np.array([[0.0, 1.5], [-0.0, np.nan], [np.nan, np.inf], [0.0, 0.0]])
    return sp.SplineFamily(sp.equidistant_knots(0.0, 1.0, 2), 1,
                           ((((0, 2),), [odd]),
                            (((0, 3),), [even]),
                            ((), [])))


def _check_writer(path, fam, net):
    """``save_archive`` writes what ``json.dumps(indent=1)`` does, and loading
    it back gives the same bits, bar each component's last k-th entry: the
    symmetric column has no place for it, and it reads back as 0."""
    sp.save_archive(path, fam, net)
    assert path.read_text(encoding="utf-8") == oracles.archive_text(fam, net)
    back, back_net = sp.load_archive(path)
    rows = fam.rows.copy()
    rows[fam.start + fam.hi - fam.lo, fam.smorder] = 0.0
    assert np.array_equal(_bits(back.knots.xi), _bits(fam.knots.xi))
    assert (back.smorder, back.type) == (fam.smorder, fam.type)
    assert _bits(back.epsilon) == _bits(fam.epsilon)
    assert len(back) == len(fam)
    assert [s for s, _ in back.members] == [s for s, _ in fam.members]
    assert np.array_equal(_bits(back.rows), _bits(rows))
    assert (back_net is None) == (net is None)
    if net is not None:
        assert back_net.levels == net.levels


@settings(max_examples=150, deadline=None)
@given(_families())
@example((_nonfinite_family(), None))
@example((sp.empty_family(sp.equidistant_knots(0.0, 1.0, 3), 2), None))
def test_writer_matches_json_oracle_and_roundtrips(tmp_path_factory, case):
    fam, net = case
    _check_writer(tmp_path_factory.mktemp("prop") / "f.json", fam, net)


#: few values, so that rows and blocks recur; 0.0 and -0.0 differ only in bits
_FEW_REALS = st.sampled_from([0.0, -0.0, 1.5, np.nan, np.inf, -np.inf])


@st.composite
def _repeating_families(draw):
    """Families whose derivative blocks recur across and within members: the
    members share at most two supports, each block comes from a pool of at
    most two per length, built from at most four rows (one of them the first
    with the signs of its zeros flipped), so equal rows also sit in blocks of
    other lengths."""
    k = draw(st.integers(0, 2))
    n = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(_FEW_REALS, min_size=k + 1, max_size=k + 1),
                         min_size=1, max_size=3))
    rows.append([-x if x == 0.0 else x for x in rows[0]])  # rows[0] with zero signs flipped
    pool = {}

    def block(size):
        if size not in pool:
            pool[size] = [np.array([rows[draw(st.integers(0, len(rows) - 1))]
                                    for _ in range(size)])
                          for _ in range(draw(st.integers(1, 2)))]
        return pool[size][draw(st.integers(0, len(pool[size]) - 1))]

    supports = draw(st.lists(_supports(n).filter(bool), min_size=1,
                             max_size=2))
    members = []
    for _ in range(draw(st.integers(1, 6))):
        supp = supports[draw(st.integers(0, len(supports) - 1))]
        members.append((supp, [block(hi - lo + 1) for lo, hi in supp]))
    return sp.SplineFamily(sp.equidistant_knots(0.0, 1.0, n), k, tuple(members))


def _repeats_family():
    """One block twice in a member and again in another; the same block with
    one -0.0 for 0.0; a repeated NaN and infinity block; the rows of the
    first block again in a block of two rows."""
    a = np.array([[0.0, 1.5], [0.0, 1.5], [2.5, -1.0]])
    signed = a.copy()
    signed[1, 0] = -0.0
    odd = np.array([[np.nan, np.inf], [-np.inf, np.nan], [np.nan, np.nan]])
    two, three = ((0, 2), (4, 6)), ((0, 2),)
    members = [(two, [a, a]), (three, [a]),
               (three, [signed]), (two, [odd, odd]),
               (((1, 3), (5, 6)), [signed, a[:2]]),
               (three, [odd])]
    return sp.SplineFamily(sp.equidistant_knots(0.0, 1.0, 5), 1, tuple(members))


@settings(max_examples=150, deadline=None)
@given(_repeating_families())
@example(_repeats_family())
def test_writer_repeated_blocks_match_json_oracle(tmp_path_factory, fam):
    """Blocks whose text is rendered once and reused: the bytes of every
    occurrence are those of ``json.dumps``, and ``-0.0``, NaN and the
    infinities survive the round trip bit for bit."""
    _check_writer(tmp_path_factory.mktemp("rep") / "f.json", fam, None)


def _distinct_blocks(fam):
    bounds = np.append(0, np.cumsum(fam.hi - fam.lo + 1))
    return {fam.rows[a:b].tobytes() for a, b in zip(bounds[:-1], bounds[1:])}


def test_each_distinct_block_rendered_once(tmp_path, monkeypatch):
    """On equidistant knots the B-splines, and the splinet's members within a
    level, are translates of each other, so their blocks repeat bit for bit;
    the writer renders each distinct block once, plus the knots."""
    res = sp.splinet(sp.equidistant_knots(0.0, 1.0, 1535), 3)
    assert len(res.os) == 1533
    calls = []
    tokens = archive._tokens
    monkeypatch.setattr(archive, "_tokens", lambda values: calls.append(1) or tokens(values))
    for fam, net in ((res.bs, None), (res.os, res.net)):
        distinct = len(_distinct_blocks(fam))
        assert distinct < len(fam) // 2
        calls.clear()
        sp.save_archive(tmp_path / "f.json", fam, net)
        assert len(calls) <= distinct + 1


def test_writer_peak_memory_without_repeats(tmp_path):
    """1000 random draws share no block: the writer holds a count per block,
    not their bytes or text, and converts a chunk of components to the
    symmetric convention at a time, so its peak stays well under the rows'
    size."""
    mean = sp.construct(sp.equidistant_knots(0.0, 1.0, 40), 3,
                        np.random.default_rng(0).standard_normal(38), "CRLC")
    fam = sp.rspline(mean, sp.NoiseSpec(seed=11), 1000)
    assert len(_distinct_blocks(fam)) == len(fam) == 1000
    tracemalloc.start()
    try:
        sp.save_archive(tmp_path / "draws.json", fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * fam.rows.nbytes


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.integers(0, 6), st.sampled_from([4095, 4096, 4097, 8193])),
       st.integers(0, 5), st.lists(_REALS, min_size=1, max_size=30))
@example(4097, 0, [0.0])
@example(8193, 0, [0.0])
@example(4095, 3, [1.5, -0.0, np.nan, np.inf])
@example(4096, 5, [0.1, -1e300, 5e-324])
@example(4097, 1, [-np.inf, 2.0])
@example(8193, 2, [0.0, -2.5, 1e22])
def test_csv_writer_matches_csv_module(tmp_path_factory, rows, cols, values):
    # the values repeat through the matrix; the row counts around
    # _CSV_CHUNK_ROWS = 4096 put rows on both sides of the chunk edges
    m = np.resize(np.array(values, dtype=float), (rows, cols))
    path = tmp_path_factory.mktemp("csv") / "c.csv"
    sp.write_coeff_csv(path, m)
    ref = io.StringIO(newline="")
    w = csv.writer(ref)
    w.writerow(["c%d" % (j + 1) for j in range(cols)])
    w.writerows([[repr(float(x)) for x in row] for row in m])
    assert path.read_bytes() == ref.getvalue().encode("utf-8")
