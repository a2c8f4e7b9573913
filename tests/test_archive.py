import csv
import gc
import io
import json
import tracemalloc
from itertools import islice
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import splinet as sp
from splinet import archive
from splinet.archive import family_from_dict

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
    assert net == res.net == sp.net_layout(11, 3)
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
    # the type tag says whether the net is complete; the loader gives back
    # the levels as written
    res = sp.splinet(sp.equidistant_knots(0.0, 1.0, 12), 3)
    path = tmp_path / "inc.json"
    sp.save_archive(path, res.os, res.net)
    fam, net = sp.load_archive(path)
    assert fam.type == "spnt" and net == res.net == sp.net_layout(12, 3)
    # full tuples, 2^N - 1 of them, that leave member 9 out
    sp.save_archive(path, res.os, sp.net_layout(11, 3))
    fam, net = sp.load_archive(path)
    assert fam.type == "spnt" and net == sp.net_layout(11, 3)


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
    ([{"supp": [[0, 1, 2]], "der": [[[0.0] * 3] * 3]}],
     r"^malformed archive: supp entry \[0, 1, 2\] is not a \[lo, hi\] pair$"),
    ([{"supp": [[0, 2], [3]], "der": [[[0.0] * 3] * 3, [[0.0] * 3]]}],
     r"^malformed archive: supp entry \[3\] is not a \[lo, hi\] pair$"),
    ([{"supp": [[0, 2]], "der": [[[0.0] * 3] * 3]}, {"supp": [5], "der": [[[0.0] * 3]]}],
     r"^malformed archive: supp entry 5 is not a \[lo, hi\] pair$"),
], ids=["adjacent", "out_of_range", "empty_component", "block_count", "row_width",
        "block_rows_swapped", "supp_triple", "supp_single", "supp_number"])
def test_archive_support_and_shape_checked(splines, message):
    """Archive members go straight into the stacked layout; its one
    vectorized check is the only check of supports and block shapes, as it
    is for ``SplineFamily``'s ``(supp, blocks)`` pairs.  A ``supp`` entry that
    is not a ``[lo, hi]`` pair is named before the bounds are read as one
    flat list, where it would shift every bound after it."""
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


def test_load_restores_the_collector(tmp_path):
    """The loader pauses the cyclic garbage collector while ``json`` parses
    and leaves it as it found it, on success and on a parse error."""
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    sp.save_archive(good, sp.bspline_basis(sp.equidistant_knots(0.0, 1.0, 7), 2))
    bad.write_text('{"knots": [0.0, 1.0')
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            sp.load_archive(good)
            assert gc.isenabled() == enabled
            with pytest.raises(ValueError):
                sp.load_archive(bad)
            assert gc.isenabled() == enabled
    finally:
        gc.enable() if was else gc.disable()


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
# the loader parses with orjson, and with json where orjson refuses a file


def _outcome(load):
    """What a load gives: the family's fields and the net, bit for bit, or
    the exception's type and message."""
    try:
        fam, net = load()
    except Exception as exc:  # noqa: BLE001 - the outcome is compared whole
        return type(exc), str(exc)
    return (fam.knots.xi.tobytes(), fam.smorder, fam.type, _bits(fam.epsilon).tobytes(),
            fam.lo.tobytes(), fam.hi.tobytes(), fam.offsets.tobytes(), fam.rows.tobytes(), net)


def _json_load(path):
    """The archive at ``path`` read by ``json`` from UTF-8 text alone, a
    refusal naming the file as the loader's does."""
    try:
        with open(path, encoding="utf-8") as fh:
            return family_from_dict(json.load(fh))
    except ValueError as exc:
        raise ValueError("%s: %s" % (path, exc)) from None


def _edits():
    """Archive texts that orjson refuses but ``json`` reads, or that both
    refuse; and, keyed ``text_*``, number text that orjson reads itself but
    that ``float.__repr__`` never writes."""
    res = sp.splinet(sp.equidistant_knots(0.0, 1.0, 5), 2)
    text = oracles.archive_text(res.os, res.net)

    def at(anchor, token):  # the token after the first ``anchor`` replaced
        start = text.index(anchor) + len(anchor)
        return text[:start] + token + text[text.index(",", start):]

    knot, der = '"knots": [\n  ', '"der": [\n    [\n     [\n      '
    return {
        "nonfinite": oracles.archive_text(_nonfinite_family(), None),
        "knot_past_double": at(knot, "1e400"),
        "knot_infinity": at(knot, "-Infinity"),
        "der_past_double": at(der, "-1e400"),
        "der_nan": at(der, "NaN"),
        "epsilon_nan": at('"epsilon": ', "NaN"),
        "lone_surrogate": at('"type": ', '"\\ud800"'),
        "truncated": text[: len(text) // 2],
        "trailing": text + "[]",
        "text_knot_minus_zero_int": at(knot, "-0"),
        "text_knot_long_decimal": at(knot, "-0.000000000000000000000000000000000000000000100000"
                                           "00000000000000000000000000000000000000000000001"),
        "text_epsilon_halfway": at('"epsilon": ', "1.0000000000000001110223024625156540423631"
                                                  "6680908203125E-10"),
        "text_der_subnormal_halfway": at(der, "2.4703282292062328e-324"),
        "text_der_long_integer": at(der, "-123456789012345678901234567890e-40"),
        "text_order_exponent": at('"order": ', "20e-1"),
    }


@pytest.mark.parametrize("case", ["nonfinite", "knot_past_double", "knot_infinity",
                                  "der_past_double", "der_nan", "epsilon_nan", "lone_surrogate",
                                  "truncated", "trailing"])
def test_loader_matches_json_where_orjson_refuses(tmp_path, case):
    """``NaN`` and ``Infinity`` tokens, numbers past the double range, a lone
    surrogate and a broken file load, or are refused with the message, as
    ``json`` alone has it."""
    path = tmp_path / "a.json"
    path.write_text(_edits()[case], encoding="utf-8")
    got = _outcome(lambda: sp.load_archive(path))
    assert got == _outcome(lambda: _json_load(path))
    if case == "nonfinite":
        assert isinstance(got[0], bytes)  # it loads


@pytest.mark.parametrize("case", ["text_knot_minus_zero_int", "text_knot_long_decimal",
                                  "text_epsilon_halfway", "text_der_subnormal_halfway",
                                  "text_der_long_integer", "text_order_exponent"])
def test_loader_matches_json_on_number_text(tmp_path, case):
    """Number text that a hand-edited archive may hold and orjson reads
    itself (a bare ``-0``, long or non-shortest decimals, a tie between two
    doubles, a capital ``E``, an integral ``order`` with an exponent) loads
    to the bits that ``json`` reads, or is refused with its message."""
    path = tmp_path / "a.json"
    path.write_text(_edits()[case], encoding="utf-8")
    with open(path, "rb") as fh:
        orjson.loads(fh.read())  # orjson's own parse, not the fallback
    assert _outcome(lambda: sp.load_archive(path)) == _outcome(lambda: _json_load(path))


def _json_number(sign, whole, frac, exp):
    return sign + whole + ("." + frac if frac else "") + (exp or "")


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(["", "-"]),
       st.integers(0, 10**40).map(str) | st.sampled_from(["0", "1", "9"]),
       st.none() | st.text("0123456789", min_size=1, max_size=40),
       st.none() | st.builds("".join, st.tuples(st.sampled_from("eE"),
                                                st.sampled_from(["", "+", "-"]),
                                                st.text("0123456789", min_size=1, max_size=3))))
@example("-", "0", None, None)
@example("", "18446744073709551615", None, None)
@example("", "18446744073709551616", None, None)
@example("-", "9223372036854775808", None, None)
@example("-", "9223372036854775809", None, None)
@example("", "1" + "0" * 400, None, None)
@example("", "1", "00000000000000011102230246251565404236316680908203125", None)
@example("", "1", "00000000000000011102230246251565404236316680908203126", None)
@example("", "2", "4703282292062328", "e-324")
@example("", "1", "7976931348623159", "e308")
@example("-", "0", "0", "e-400")
def test_orjson_reads_number_tokens_as_json(sign, whole, frac, exp):
    """A JSON number token that orjson reads gives ``json``'s type and bits,
    except that an integer outside [-2**63, 2**64) becomes the float nearest
    to it; orjson refuses only a number past the double range, which the
    loader then reads by ``json``."""
    tok = _json_number(sign, whole, frac, exp)
    want = json.loads(tok)
    try:
        got = orjson.loads(tok)
    except orjson.JSONDecodeError:
        try:
            assert abs(float(want)) == float("inf")
        except OverflowError:  # an integer past the double range
            pass
        return
    if isinstance(want, int) and not -(2**63) <= want < 2**64:
        want = float(want)
    assert type(got) is type(want)
    if isinstance(want, float):
        assert _bits(got) == _bits(want)
    else:
        assert got == want


@pytest.mark.parametrize("encode", [
    lambda text: text.encode("utf-16"),
    lambda text: text.replace('"bs"', '"bs\u00e9"').encode("latin-1"),
    lambda text: b"\xef\xbb\xbf" + text.encode("utf-8"),
], ids=["utf16", "latin1", "utf8_bom"])
def test_loader_refuses_what_is_not_utf8_json(tmp_path, encode):
    """A UTF-16 file, a stray Latin-1 byte and a UTF-8 byte order mark are
    refused as ``json`` refuses the file read as UTF-8 text: the bytes are
    decoded as UTF-8, never left to ``json``'s encoding detection."""
    path = tmp_path / "a.json"
    text = oracles.archive_text(sp.bspline_basis(sp.equidistant_knots(0.0, 1.0, 3), 1), None)
    assert '"bs"' in text
    path.write_bytes(encode(text))
    got = _outcome(lambda: sp.load_archive(path))
    assert got == _outcome(lambda: _json_load(path))
    assert issubclass(got[0], ValueError)


_BIG = "123456789012345678901234567890"


@pytest.mark.parametrize("field, old, new", [
    ("order", '"order": 2', '"order": ' + _BIG),
    ("supp", '"supp": [\n    [\n     0,', '"supp": [\n    [\n     %s,' % _BIG),
    ("net", '"net": [\n  [\n   [\n    0', '"net": [\n  [\n   [\n    ' + _BIG),
], ids=["order", "supp", "net"])
def test_integer_past_64_bits_refused_as_float(tmp_path, field, old, new):
    """orjson reads an integer past 64 bits as a float: an ``order``,
    ``supp`` or ``net`` entry that wide is still refused, its message quoting
    the float, not the digits."""
    res = sp.splinet(sp.equidistant_knots(0.0, 1.0, 5), 2)
    path = tmp_path / "a.json"
    text = oracles.archive_text(res.os, res.net)
    assert old in text
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    with pytest.raises(ValueError) as err:
        sp.load_archive(path)
    assert str(err.value) == ("%s: malformed archive: %s entry %r is not in [%d, %d]"
                              % (path, field, float(_BIG), -(2**63), 2**63 - 1))


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
        net = tuple(tuple(tuple(islice(pool, size)) for size in lv) for lv in shape)
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
    assert back_net == net


#: stacked rows per writer chunk: one component, a few, and the default
_CHUNK_ROWS = st.sampled_from([1, 4, archive._CONVERT_ROWS])


@settings(max_examples=150, deadline=None)
@given(_families(), _CHUNK_ROWS)
@example((_nonfinite_family(), None), archive._CONVERT_ROWS)
@example((sp.empty_family(sp.equidistant_knots(0.0, 1.0, 3), 2), None), archive._CONVERT_ROWS)
def test_writer_matches_json_oracle_and_roundtrips(tmp_path_factory, case, chunk):
    """Members with no support before, between and after the others, and
    chunks that end anywhere between members, give ``json.dumps``'s bytes."""
    fam, net = case
    with mock.patch.object(archive, "_CONVERT_ROWS", chunk):
        _check_writer(tmp_path_factory.mktemp("prop") / "f.json", fam, net)


#: few values, so that rows and blocks recur; 0.0 and -0.0 differ only in bits
_FEW_REALS = st.sampled_from([0.0, -0.0, 1.5, np.nan, np.inf, -np.inf])


@st.composite
def _repeating_families(draw):
    """Families whose Taylor rows recur across and within members and
    blocks: the members share at most two supports, each block comes from a
    pool of at most two per length, built from a pool of rows that holds one
    to three drawn rows, the first with the signs of its zeros flipped, a row
    of zeros beside the same row of ``-0.0`` and a row of NaN.  So equal rows
    sit in blocks that differ elsewhere and in blocks of other lengths, and
    rows that differ only in the sign of a zero or hold NaN recur."""
    k = draw(st.integers(0, 2))
    n = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(_FEW_REALS, min_size=k + 1, max_size=k + 1),
                         min_size=1, max_size=3))
    rows.append([-x if x == 0.0 else x for x in rows[0]])  # rows[0] with zero signs flipped
    rows += [[0.0] * (k + 1), [-0.0] * (k + 1), [np.nan] * (k + 1)]
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
    """One block twice in a member and again in another; a block that
    shares two rows with it and differs in the third; the same block with
    one -0.0 for 0.0; a repeated NaN and infinity block; the rows of the
    first block again in a block of two rows, beside members with no
    support."""
    a = np.array([[0.0, 1.5], [0.0, 1.5], [2.5, -1.0]])
    other = a.copy()
    other[1] = [np.nan, 0.25]
    signed = a.copy()
    signed[1, 0] = -0.0
    odd = np.array([[np.nan, np.inf], [-np.inf, np.nan], [np.nan, np.nan]])
    two, three = ((0, 2), (4, 6)), ((0, 2),)
    members = [((), []), (two, [a, a]), (three, [a]), ((), []), ((), []),
               (three, [signed]), (two, [odd, other]), (three, [other]),
               (((1, 3), (5, 6)), [signed, a[:2]]),
               (three, [odd]), ((), [])]
    return sp.SplineFamily(sp.equidistant_knots(0.0, 1.0, 5), 1, tuple(members))


@settings(max_examples=150, deadline=None)
@given(_repeating_families(), _CHUNK_ROWS)
@example(_repeats_family(), 1)
@example(_repeats_family(), archive._CONVERT_ROWS)
def test_writer_repeated_blocks_match_json_oracle(tmp_path_factory, fam, chunk):
    """Rows whose text is rendered once and reused: the bytes of every
    occurrence are those of ``json.dumps``, and ``-0.0``, NaN and the
    infinities survive the round trip bit for bit, however the members fall
    into chunks."""
    with mock.patch.object(archive, "_CONVERT_ROWS", chunk):
        _check_writer(tmp_path_factory.mktemp("rep") / "f.json", fam, None)


@settings(max_examples=50, deadline=None)
@given(_repeating_families())
@example(_repeats_family())
def test_writer_hash_collisions_render_afresh(tmp_path_factory, fam):
    """A row hash that ignores signs, so that ``-0.0`` and ``0.0``, and rows
    of opposite signs, collide: the cache compares the rows' bytes, so a
    collision costs a render, never wrong text."""
    hashes = archive._row_hashes
    unsigned = lambda bits: hashes(bits & np.uint64(2**63 - 1))
    with mock.patch.object(archive, "_row_hashes", unsigned):
        _check_writer(tmp_path_factory.mktemp("col") / "f.json", fam, None)


def _distinct_rows(fam):
    """The distinct rows of ``fam`` as written: with the symmetric k-th column."""
    sym = sp.sym2one(fam.rows, fam.lo, fam.hi, inverse=True)
    return {row.tobytes() for row in sym}


def _distinct_blocks(fam):
    bounds = np.append(0, np.cumsum(fam.hi - fam.lo + 1))
    return {fam.rows[a:b].tobytes() for a, b in zip(bounds[:-1], bounds[1:])}


def test_each_distinct_row_rendered_once(tmp_path, monkeypatch):
    """On equidistant knots the B-splines, and the splinet's members within a
    level, are translates of each other, so their Taylor rows repeat bit for
    bit, and rows also recur across blocks that differ elsewhere: the writer
    renders the numbers of each distinct symmetric row once, plus the knots."""
    res = sp.splinet(sp.equidistant_knots(0.0, 1.0, 1535), 3)
    assert len(res.os) == 1533
    rendered = []
    texts = archive._float_texts
    monkeypatch.setattr(archive, "_float_texts", lambda values, *a, **kw:
                        rendered.append(values.size) or texts(values, *a, **kw))
    for fam, net in ((res.bs, None), (res.os, res.net)):
        distinct = len(_distinct_rows(fam))
        # no more than the rows of the distinct blocks, and fewer than half the rows
        assert distinct <= sum(map(len, _distinct_blocks(fam))) // (8 * (fam.smorder + 1))
        assert distinct < fam.rows.shape[0] // 2
        rendered.clear()
        sp.save_archive(tmp_path / "f.json", fam, net)
        assert sum(rendered) <= distinct * (fam.smorder + 1) + len(fam.knots)


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


def test_wide_csv_peak_memory(tmp_path):
    """A CSV is written a chunk of cells at a time, however wide its rows:
    the peak for a 1000 x 1000 matrix stays within the matrix's own 8 MB
    (as one chunk of all 1000 rows it was 80.9 MB)."""
    m = np.random.default_rng(0).standard_normal((1000, 1000))
    tracemalloc.start()
    try:
        sp.write_coeff_csv(tmp_path / "m.csv", m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= m.nbytes


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.integers(0, 6), st.sampled_from([2458, 4095, 4096, 4097, 8193, 12289])),
       st.integers(0, 5), st.lists(_REALS, min_size=1, max_size=30))
@example(4097, 0, [0.0])
@example(12289, 1, [0.5, -0.0])
@example(2458, 5, [np.inf, 1e-5])
@example(8193, 0, [0.0])
@example(4095, 3, [1.5, -0.0, np.nan, np.inf])
@example(4096, 5, [0.1, -1e300, 5e-324])
@example(4097, 1, [-np.inf, 2.0])
@example(8193, 2, [0.0, -2.5, 1e22])
def test_csv_writer_matches_csv_module(tmp_path_factory, rows, cols, values):
    # the values repeat through the matrix; a chunk holds
    # _CSV_CHUNK_CELLS // cols rows (4096 at three columns, 2457 at five,
    # 12288 at one or none), and the row counts above put rows on both
    # sides of its edges
    m = np.resize(np.array(values, dtype=float), (rows, cols))
    path = tmp_path_factory.mktemp("csv") / "c.csv"
    sp.write_coeff_csv(path, m)
    ref = io.StringIO(newline="")
    w = csv.writer(ref)
    w.writerow(["c%d" % (j + 1) for j in range(cols)])
    w.writerows([[repr(float(x)) for x in row] for row in m])
    assert path.read_bytes() == ref.getvalue().encode("utf-8")


# ---------------------------------------------------------------------------
# the one float renderer


def _repr_rows(values):
    return [",".join(map(float.__repr__, row)) for row in values.tolist()]


def _check_float_texts(width, values):
    a = np.asarray(values, dtype=float)
    a = np.resize(a, (-(-a.size // width), width))
    assert archive._float_texts(a) == _repr_rows(a)
    assert archive._float_texts(a.T) == _repr_rows(a.T)  # not C-contiguous
    assert archive._float_texts(a, ",\n ") == [r.replace(",", ",\n ") for r in _repr_rows(a)]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                   min_size=1, max_size=40))
@example(1, [1e-5, -1e-5, 9.999999999999999e-05, 1e-4, 1e16, 9999999999999998.0, 5e-324,
             -0.0, 3e-7])
@example(3, [1e-5, 2.5e-5, -1e-9, 1e16, -1.5e300, 10.00001, 0.0, -0.00001, 1e21])
@example(6, [-1e-5, 9.999999999999999e-05, 5e-324, -1e16, 1e-4, 4e-6, 1e-10, 1e15])
def test_float_texts_are_float_repr(width, values):
    """Every token is exactly ``float.__repr__`` of its entry: orjson's forms
    of a positive exponent, a one-digit negative exponent and a decimal in
    [1e-5, 1e-4) are rewritten, at the start of a token only."""
    _check_float_texts(width, values)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_float_texts_of_any_bits(width, bits):
    """Every finite double, drawn as a 64-bit pattern, subnormals included."""
    a = np.array(bits, dtype=np.uint64).view(np.float64)
    a = a[np.isfinite(a)]
    if a.size:
        _check_float_texts(width, a)


def test_float_texts_nonfinite_entry_by_entry():
    """orjson has no token for NaN or an infinity: an array that holds one is
    rendered one ``float.__repr__`` at a time, then through ``names``, and
    only such an array is."""
    a = np.array([[1e16, np.nan], [np.inf, -np.inf], [-0.0, 2.5e-5]])
    assert archive._float_texts(a) == ["1e+16,nan", "inf,-inf", "-0.0,2.5e-05"]
    assert (archive._float_texts(a, ", ", archive._JSON_NONFINITE)
            == ["1e+16, NaN", "Infinity, -Infinity", "-0.0, 2.5e-05"])
    with mock.patch.object(archive.orjson, "dumps", side_effect=AssertionError) as dumps:
        archive._float_texts(a)
        with pytest.raises(AssertionError):
            archive._float_texts(np.nan_to_num(a))
    assert dumps.call_count == 1
    assert archive._float_texts(np.empty((0, 3))) == []
    assert archive._float_texts(np.empty((2, 0))) == ["", ""]
