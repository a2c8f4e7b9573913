import csv
import io
import json
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import splinet as sp
from splinet.archive import family_from_dict
from splinet.bases import DyadicNet
from splinet.core import ONE_SIDED, SYMMETRIC, make_member

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
    for i in range(len(fam)):
        assert np.array_equal(sp.as_symmetric(back).full_matrix(i),
                              sp.as_symmetric(fam).full_matrix(i))
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
    assert back.members[0][0].components == fam.members[0][0].components
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
    vectorized check rejects what a SupportSet or block shape would."""
    obj = {"knots": list(np.linspace(0.0, 1.0, 8)), "order": 2, "splines": splines}
    with pytest.raises(ValueError, match=message):
        family_from_dict(obj)


def test_integral_float_order_accepted(tmp_path):
    fam = sp.bspline_basis(sp.equidistant_knots(0.0, 1.0, 7), 2)
    path = tmp_path / "bs.json"
    sp.save_archive(path, fam)
    obj = json.loads(path.read_text())
    obj["order"] = 2.0
    obj["splines"][0]["supp"] = [[0.0, 3.0]]
    back, _ = family_from_dict(obj)
    assert back.smorder == 2 and back.members[0][0].components == ((0, 3),)


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
    return sp.SupportSet(tuple(comps))


@st.composite
def _families(draw):
    k = draw(st.integers(0, 3))
    n = draw(st.integers(0, 8))
    steps = draw(st.lists(st.floats(1e-3, 10.0), min_size=n + 1, max_size=n + 1))
    knots = sp.KnotSet(draw(st.floats(-100.0, 100.0)) + np.concatenate([[0.0], np.cumsum(steps)]))
    convention = draw(st.sampled_from([ONE_SIDED, SYMMETRIC]))
    members = []
    for _ in range(draw(st.integers(0, 4))):
        supp = draw(_supports(n))
        blocks = [np.array(draw(st.lists(_REALS, min_size=(hi - lo + 1) * (k + 1),
                                         max_size=(hi - lo + 1) * (k + 1))))
                  .reshape(hi - lo + 1, k + 1) for lo, hi in supp]
        members.append(make_member(supp, blocks, convention))
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
    """-0.0, NaN and both infinities in one block, beside an empty support."""
    blk = np.array([[np.nan, -0.0], [np.inf, -np.inf], [0.0, 1e-300]])
    return sp.SplineFamily(sp.equidistant_knots(0.0, 1.0, 1), 1,
                           (make_member(sp.SupportSet(((0, 2),)), [blk], SYMMETRIC),
                            make_member(sp.SupportSet(()), [], SYMMETRIC)))


@settings(max_examples=150, deadline=None)
@given(_families())
@example((_nonfinite_family(), None))
@example((sp.empty_family(sp.equidistant_knots(0.0, 1.0, 3), 2), None))
def test_writer_matches_json_oracle_and_roundtrips(tmp_path_factory, case):
    fam, net = case
    path = tmp_path_factory.mktemp("prop") / "f.json"
    sp.save_archive(path, fam, net)
    assert path.read_text(encoding="utf-8") == oracles.archive_text(fam, net)
    back, back_net = sp.load_archive(path)
    ref = sp.as_symmetric(fam)
    assert np.array_equal(_bits(back.knots.xi), _bits(ref.knots.xi))
    assert (back.smorder, back.type) == (ref.smorder, ref.type)
    assert _bits(back.epsilon) == _bits(ref.epsilon)
    assert len(back) == len(ref)
    for (s1, d1), (s2, d2) in zip(back.members, ref.members):
        assert s1.components == s2.components
        assert len(d1.blocks) == len(d2.blocks)
        assert all(np.array_equal(_bits(b1), _bits(b2)) for b1, b2 in zip(d1.blocks, d2.blocks))
    assert (back_net is None) == (net is None)
    if net is not None:
        assert back_net.levels == net.levels


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6), st.integers(0, 5), st.data())
def test_csv_writer_matches_csv_module(tmp_path_factory, rows, cols, data):
    m = np.array(data.draw(st.lists(_REALS, min_size=rows * cols, max_size=rows * cols)),
                 dtype=float).reshape(rows, cols)
    path = tmp_path_factory.mktemp("csv") / "c.csv"
    sp.write_coeff_csv(path, m)
    ref = io.StringIO(newline="")
    w = csv.writer(ref)
    w.writerow(["c%d" % (j + 1) for j in range(cols)])
    w.writerows([[repr(float(x)) for x in row] for row in m])
    assert path.read_bytes() == ref.getvalue().encode("utf-8")
