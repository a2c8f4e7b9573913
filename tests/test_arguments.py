"""One rule per argument kind: every integer argument is read by
``core._integer`` (sequences of them by its array form ``core._integers``),
every knots argument by ``core._knots``, every real argument by
``core._reals`` and every ``(supp, blocks)`` member pair by
``core._members``."""

import math
import numbers
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import splinet as sp
from splinet import core
from splinet.archive import family_from_dict
from splinet.bases import diagonalize_gram
from splinet.project import ProjectionResult

import oracles

KNOTS = sp.equidistant_knots(0.0, 1.0, 10)
BS = sp.bspline_basis(KNOTS, 3)
H = sp.gramian(BS)
GRID = sp.sample_grid(KNOTS, 3, 2)
MEAN = sp.construct(KNOTS, 3, np.random.default_rng(1).standard_normal(8), "CRLC")
DATA = (np.linspace(0.0, 1.0, 50, endpoint=False),
        np.sin(np.outer(np.linspace(0.0, 1.0, 50, endpoint=False), [1.0, 2.0])))
SEGMENT = np.linspace(0.0, 1.0, 5)  # 3 internal knots
FIRST, LAST = np.array([0.0, 0.0, 0.0, 6.0]), np.array([0.5, -1.0, 2.0, 0.0])


def _fpca():
    """An FPCA of 12 random draws around ``MEAN`` with more than 3 retained
    components."""
    draws = sp.rspline(MEAN, sp.NoiseSpec(sigma=0.3, seed=4), 12)
    fp = sp.fpca(sp.project_splines(draws))
    assert fp.n_retained > 3
    return fp


FP = _fpca()
ROW = np.linspace(-1.0, 1.0, len(FP.basis))


def _splinet(k):
    res = sp.splinet(KNOTS, k)
    return res.bs, res.os, res.net, res.transform.pt.toarray()


def _project_data(k):
    res = sp.project_data(DATA, KNOTS, k)
    return res.coeff, res.basis, res.sp


# (argument name as messages give it, call on the value, a value past a bound)
ENTRY_POINTS = {
    "bspline_basis": ("the order k", lambda v: sp.bspline_basis(KNOTS, v), -1),
    "splinet": ("the order k", _splinet, -1),
    "net_layout_k": ("the order k", lambda v: sp.net_layout(10, v), -1),
    "net_layout_n": ("n", lambda v: sp.net_layout(v, 3), 2),
    "diagonalize_gram": ("the order k",
                         lambda v: diagonalize_gram(H, "dyadic", v).pt.toarray(), -1),
    "construct": ("the order k",
                  lambda v: sp.construct(KNOTS, v, np.arange(8.0), "CRLC"), -1),
    "SplineFamily": ("the order k", lambda v: sp.SplineFamily(KNOTS, v, BS.members), -1),
    "empty_family": ("the order k", lambda v: sp.empty_family(KNOTS, v), -1),
    "evaluate": ("derivative order", lambda v: sp.evaluate(BS, GRID, v), 4),
    "sample_grid_k": ("the order k", lambda v: sp.sample_grid(KNOTS, v, 2), -1),
    "sample_grid_N": ("N", lambda v: sp.sample_grid(KNOTS, 2, v), 0),
    "subsample": ("indices entry", lambda v: sp.subsample(BS, [v]), -1),
    "rspline": ("count", lambda v: sp.rspline(MEAN, sp.NoiseSpec(seed=2), v), 0),
    "NoiseSpec": ("seed", lambda v: sp.NoiseSpec(seed=v), -1),
    "equidistant_knots": ("n", lambda v: sp.equidistant_knots(0.0, 1.0, v), -1),
    "solve_frlr": ("m", lambda v: sp.solve_frlr(FIRST, LAST, SEGMENT, m=v), -1),
    "kl_reconstruct": ("m_components", lambda v: sp.kl_reconstruct(FP, ROW, v),
                       FP.n_retained + 1),
    "project_data": ("the order k", _project_data, -1),
}


def _assert_same(a, b):
    """``a`` and ``b`` equal, bit for bit where they hold floats; a family's
    order is an ``int``."""
    if isinstance(a, sp.SplineFamily):
        oracles.assert_same_family(a, b)
        assert a.knots == b.knots and type(a.smorder) is int
    elif isinstance(a, (tuple, list)):
        assert type(a) is type(b) and len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    elif isinstance(a, np.ndarray):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    elif hasattr(a, "__dataclass_fields__"):
        for field in a.__dataclass_fields__:
            _assert_same(getattr(a, field), getattr(b, field))
    else:
        assert a == b and type(a) is type(b)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_integer_arguments_follow_one_rule(entry):
    """Past a bound, a fraction, a bool and numpy's bool are a ValueError
    naming the argument; an integral float and a numpy integer give what the
    int gives."""
    name, call, past = ENTRY_POINTS[entry]
    for bad in (past, 2.5, True, np.True_):
        with pytest.raises(ValueError) as err:
            call(bad)
        assert str(err.value).startswith(name + " "), (bad, str(err.value))
    want = call(3)
    for good in (3.0, np.int64(3)):
        _assert_same(call(good), want)


# ---------------------------------------------------------------------------
# the rule against an independent oracle


def _oracle(value, low, high):
    """The int that the rule makes of ``value``, or ``None``: a non-bool
    integer, or a finite float equal to its floor, inside the bounds."""
    if isinstance(value, (bool, np.bool_)):
        return None
    if isinstance(value, numbers.Integral):
        got = int(value)
    elif isinstance(value, (float, np.floating)) and math.isfinite(value) \
            and math.floor(value) == value:
        got = int(math.floor(value))
    else:
        return None
    if (low is not None and got < low) or (high is not None and got > high):
        return None
    return got


_VALUES = st.one_of(
    st.integers(),
    st.sampled_from([2**200, -(2**200), 2**63, -(2**63) - 1]),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.integers(-(2**53), 2**53).map(float),
    st.floats(),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.5, -2.5, 1e300, -0.0]),
    st.booleans(),
    st.sampled_from([np.True_, np.False_, None, "3", "3.0", b"3", [3], 3 + 0j]),
)
# no bound, a lower bound, or both
_BOUNDS = st.one_of(st.just((None, None)), st.tuples(st.integers(-20, 20), st.none()),
                    st.tuples(st.integers(-20, 20), st.integers(-20, 20)))


@settings(max_examples=400, deadline=None)
@given(_VALUES, _BOUNDS)
@example(2**200, (None, None))
@example(np.True_, (None, None))
@example(math.nan, (None, None))
@example(3.0, (3, 3))
def test_integer_rule_matches_oracle(value, bounds):
    low, high = bounds
    want = _oracle(value, low, high)
    if want is None:
        with pytest.raises(ValueError) as err:
            core._integer(value, "arg", low, high)
        assert str(err.value).startswith("arg must be ")
        assert str(err.value).endswith("; got %r" % (value,))
    else:
        got = core._integer(value, "arg", low, high)
        assert type(got) is int and got == want


def _scalar(value, low, high):
    """``core._integer``'s int, or ``None`` where it refuses ``value``."""
    try:
        return core._integer(value, "arg", low, high)
    except ValueError:
        return None


@settings(max_examples=300, deadline=None)
@given(st.lists(_VALUES, max_size=6), st.integers(-20, 0), st.integers(0, 20))
@example([0, 2**64], -20, 20)
@example([1, True, 2.5], 0, 20)
def test_integer_array_form_matches_scalar_form(values, low, high):
    """The array form accepts a sequence exactly when the scalar form accepts
    each entry within its bounds (and int64's), with the same ints, and
    otherwise names the first entry refused, type first."""
    kinds = [_scalar(v, None, None) for v in values]
    ranged = [_scalar(v, low, high) for v in values]
    if None not in ranged:
        got = core._integers(values, "arg", low, high)
        assert got.dtype == np.int64 and got.tolist() == ranged
        return
    with pytest.raises(ValueError) as err:
        core._integers(values, "arg", low, high)
    if None in kinds:
        bad = values[kinds.index(None)]
        assert str(err.value) == "arg entry %r is not an integer" % (bad,)
    else:
        bad = values[ranged.index(None)]
        assert str(err.value) == "arg entry %r is not in [%d, %d]" % (bad, low, high)


@pytest.mark.parametrize("values", [[0, 3, 7], [0.0, 3.0, 7.0], [2.0, 2.5], [True, 1]])
def test_integer_array_form_reads_arrays_as_sequences(values):
    """An ndarray is read entry by entry like the list of its entries."""
    def outcome(vals):
        try:
            return core._integers(vals, "arg").tolist()
        except ValueError as exc:
            return str(exc)
    assert outcome(np.array(values)) == outcome(np.array(values).tolist())


def test_integer_array_form_refuses_past_int64():
    with pytest.raises(ValueError, match=r"supp entry %d is not in \[" % 2**63):
        core._integers([0, 2**63], "supp")
    # in an archive, a bound past int64 is a malformed archive naming the entry
    obj = {"knots": KNOTS.xi.tolist(), "order": 1,
           "splines": [{"supp": [[0, 2**64]], "der": [[[0.0, 0.0]] * 3]}]}
    with pytest.raises(ValueError, match=r"malformed archive: supp entry %d is not in" % 2**64):
        family_from_dict(obj)


# ---------------------------------------------------------------------------
# one knots rule


@pytest.mark.parametrize("entry", ["sample_grid", "SplineFamily", "empty_family",
                                   "bspline_basis", "construct", "refine", "project_splines",
                                   "project_data"])
def test_knots_arguments_take_an_array(entry):
    """Every function that takes knots takes an array of them as it takes
    their ``KnotSet``."""
    calls = {
        "sample_grid": lambda kn: sp.sample_grid(kn, 3, 2),
        "SplineFamily": lambda kn: sp.SplineFamily(kn, 3, BS.members, "bs"),
        "empty_family": lambda kn: sp.empty_family(kn, 2),
        "bspline_basis": lambda kn: sp.bspline_basis(kn, 3),
        "construct": lambda kn: sp.construct(kn, 3, np.arange(8.0), "CRLC"),
        "refine": lambda kn: sp.refine(BS, kn),
        "project_splines": lambda kn: sp.project_splines(MEAN, kn).sp,
        "project_data": lambda kn: sp.project_data(DATA, kn, 3).coeff,
    }
    xi = KNOTS.xi if entry != "refine" else np.union1d(KNOTS.xi, [0.05, 0.55])
    call = calls[entry]
    _assert_same(call(np.array(xi)), call(sp.KnotSet(xi)))
    _assert_same(call(list(xi)), call(sp.KnotSet(xi)))


# ---------------------------------------------------------------------------
# one reader for a family's fields

_ROWS = [[0.0, 0.0, 0.0]] * 3  # the block of support (0, 2) at order 2
# (field, value put there, the message both readers give)
_MALFORMED = {
    "supp_triple": ("supp", [[0, 1, 2]], "supp entry [0, 1, 2] is not a [lo, hi] pair"),
    "supp_scalar": ("supp", [5], "supp entry 5 is not a [lo, hi] pair"),
    "supp_string": ("supp", ["02"], "supp entry '02' is not a [lo, hi] pair"),
    "bound_fraction": ("supp", [[0, 2.5]], "supp entry 2.5 is not an integer"),
    "bound_bool": ("supp", [[True, 2]], "supp entry True is not an integer"),
    "block_count": ("der", [_ROWS, _ROWS], "support/derivative block count mismatch"),
    "block_ragged": ("der", [[[0.0] * 3, [0.0] * 2, [0.0] * 3]],
                     "derivative block shape does not match support"),
    "block_rows": ("der", [_ROWS[:2]], "derivative block shape does not match support"),
    "block_flat": ("der", [[0.0] * 3], "derivative block shape does not match support"),
    "block_number": ("der", [0.0], "derivative block shape does not match support"),
    "der_string": ("der", [[[0.0, "0.5", 0.0]] + _ROWS[1:]], "der entry '0.5' is not a number"),
    "der_bool": ("der", [[[0.0, True, 0.0]] + _ROWS[1:]], "der entry True is not a number"),
    "der_none": ("der", [[[0.0, None, 0.0]] + _ROWS[1:]], "der entry None is not a number"),
    "der_complex": ("der", [[[0.0, 1j, 0.0]] + _ROWS[1:]], "der entry 1j is not a number"),
    "knots_string": ("knots", [0.0, "0.5", 1.0], "knots entry '0.5' is not a number"),
    "knots_bool": ("knots", [0.0, True, 2.0], "knots entry True is not a number"),
    "knots_none": ("knots", [0.0, None, 1.0], "knots entry None is not a number"),
    "knots_complex": ("knots", [0.0, 0.5j, 1.0], "knots entry 0.5j is not a number"),
    "knots_past_float": ("knots", [0.0, 10**400], "knots entry %d is not a number" % 10**400),
    "der_past_float": ("der", [[[0.0, -(10**400), 0.0]] + _ROWS[1:]],
                       "der entry %d is not a number" % -(10**400)),
    "epsilon_bool": ("epsilon", True, "epsilon entry True is not a number"),
    "epsilon_string": ("epsilon", "1e-7", "epsilon entry '1e-7' is not a number"),
    "epsilon_nan": ("epsilon", math.nan, "epsilon must be finite and non-negative; got nan"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_fields_one_message_from_both_readers(case):
    """``SplineFamily``/``KnotSet`` and the archive loader read a family's
    fields by the same rules: each malformed field is a ``ValueError`` with
    the same message, the loader's behind its ``malformed archive: ``."""
    field, value, message = _MALFORMED[case]
    fields = {"knots": list(np.linspace(0.0, 1.0, 8)), "supp": [[0, 2]], "der": [_ROWS],
              "epsilon": 1e-7}
    fields[field] = value
    with pytest.raises(ValueError) as err:
        sp.SplineFamily(sp.KnotSet(fields["knots"]), 2, [(fields["supp"], fields["der"])], "sp",
                        fields["epsilon"])
    assert str(err.value) == message
    obj = {"knots": fields["knots"], "order": 2, "type": "sp", "epsilon": fields["epsilon"],
           "splines": [{"supp": fields["supp"], "der": fields["der"]}]}
    with pytest.raises(ValueError) as err:
        family_from_dict(obj)
    assert str(err.value) == "malformed archive: " + message


@pytest.mark.parametrize("dtype, ok", [(np.int64, True), (np.uint8, True), (np.float32, True),
                                       (float, True), (bool, False), (complex, False),
                                       (str, False)])
def test_real_rule_judges_arrays_by_dtype(dtype, ok):
    """An array is read by its dtype, as the list of its entries is read
    entry by entry, with the same message; so are a family's blocks."""
    values = np.array([0, 1, 1], dtype=dtype)
    blocks = [values.reshape(3, 1)]
    if ok:
        assert core._reals(values, "arg").tolist() == [0.0, 1.0, 1.0]
        fam = sp.SplineFamily(KNOTS, 0, [([[0, 2]], blocks)])
        assert fam.rows.dtype == float and fam.rows.ravel().tolist() == [0.0, 1.0, 1.0]
        return
    for form in (values, values.tolist()):
        with pytest.raises(ValueError) as err:
            core._reals(form, "arg")
        assert str(err.value) == "arg entry %r is not a number" % (values.tolist()[0],)
    with pytest.raises(ValueError) as err:
        sp.SplineFamily(KNOTS, 0, [([[0, 2]], blocks)])
    assert str(err.value) == "der entry %r is not a number" % (values.tolist()[0],)


# ---------------------------------------------------------------------------
# one real-number rule for every real argument


def _csv_bytes(coeff):
    """The bytes ``write_coeff_csv`` writes for ``coeff``."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "c.csv")
        sp.write_coeff_csv(path, coeff)
        with open(path, "rb") as fh:
            return fh.read()


def _matrix(rows, cols, seed):
    """A ``rows x cols`` nested list of integral floats in [-3, 3]."""
    return np.random.default_rng(seed).integers(-3, 4, (rows, cols)).astype(float).tolist()


_FIRST_COL = [0.0, 1.0, -1.0, 2.0, 0.0]  # one value per SEGMENT knot
_ARGS, _VALUES = [0.0, 1.0, 2.0, 4.0], _matrix(4, 2, 1)
_THETA = [[2.0, 1.0, 0.0, 0.0], [1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
_D = len(FP.basis)

# (argument name as messages give it, call on the value, a value of integral
# floats: a number, a list, or a list of rows where a matrix is taken)
REAL_ENTRY_POINTS = {
    "solve_frlc_first_row": ("first_row", lambda v: sp.solve_frlc(v, _FIRST_COL, SEGMENT),
                             [0.0, 0.0, 0.0, 6.0]),
    "solve_frlc_last_col": ("last_col", lambda v: sp.solve_frlc(FIRST, v, SEGMENT), _FIRST_COL),
    "solve_frfc_first_row_partial": ("first_row_partial",
                                     lambda v: sp.solve_frfc(v, _FIRST_COL, SEGMENT),
                                     [0.0, 2.0, -1.0]),
    "solve_frfc_first_col": ("first_col", lambda v: sp.solve_frfc([0.0, 2.0, -1.0], v, SEGMENT),
                             _FIRST_COL),
    "solve_frlr_first_row": ("first_row", lambda v: sp.solve_frlr(v, LAST, SEGMENT),
                             [0.0, 0.0, 0.0, 6.0]),
    "solve_frlr_last_row": ("last_row", lambda v: sp.solve_frlr(FIRST, v, SEGMENT),
                            [1.0, -1.0, 2.0, 0.0]),
    "construct_seed": ("seed", lambda v: sp.construct(KNOTS, 3, v, "CRLC"),
                       [3.0, -1.0, 0.0, 2.0, 1.0, -2.0, 4.0, 1.0]),
    "construct_seed_matrix": ("seed", lambda v: sp.construct(KNOTS, 3, v, "RRM"),
                              _matrix(12, 4, 2)),
    "lincomb": ("coeffs", lambda v: sp.lincomb(BS, v), _matrix(1, len(BS), 3)[0]),
    "lincomb_matrix": ("coeffs", lambda v: sp.lincomb(BS, v), _matrix(3, len(BS), 4)),
    "diagonalize_gram": ("gram matrix", lambda v: diagonalize_gram(v, "gsob").pt.toarray(),
                         [[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]),
    "NoiseSpec_sigma": ("Sigma", lambda v: sp.rspline(MEAN, sp.NoiseSpec(sigma=v, seed=2), 2),
                        [1.0, 2.0, 0.0, 1.0] * 3),
    "NoiseSpec_theta": ("Theta", lambda v: sp.rspline(MEAN, sp.NoiseSpec(theta=v, seed=2), 2),
                        _THETA),
    "FunctionalDataMatrix_args": ("args", lambda v: sp.FunctionalDataMatrix(v, _VALUES), _ARGS),
    "FunctionalDataMatrix_values": ("values", lambda v: sp.FunctionalDataMatrix(_ARGS, v),
                                    _VALUES),
    "project_data": ("values", lambda v: sp.project_data((DATA[0], v), KNOTS, 3).coeff,
                     _matrix(50, 2, 5)),
    "fpca": ("coeff", lambda v: sp.fpca(ProjectionResult(v, FP.basis, None)), _matrix(6, _D, 6)),
    "kl_reconstruct": ("coeff_row", lambda v: sp.kl_reconstruct(FP, v, 2), _matrix(1, _D, 7)[0]),
    "write_coeff_csv": ("coeff", _csv_bytes, _matrix(2, 3, 8)),
    "equidistant_knots": ("knots", lambda v: sp.equidistant_knots(v, 1.0, 3), -1.0),
    "sym2one": ("rows", lambda v: core.sym2one(v, [0], [3]), _matrix(4, 3, 9)),
    "evaluate": ("grid", lambda v: sp.evaluate(BS, v), [0.0, 1.0, 1.0]),
}


def _with_first(value, bad):
    """``value`` with its first number replaced by ``bad``."""
    return [_with_first(value[0], bad)] + value[1:] if isinstance(value, list) else bad


@pytest.mark.parametrize("entry", sorted(REAL_ENTRY_POINTS))
def test_real_arguments_follow_one_rule(entry):
    """A string, a bool, ``None`` or a complex number in a real argument, and
    rows of unequal length where a matrix is taken, are a ValueError naming
    the argument; ints, in a list or an array, give what the floats give, bit
    for bit."""
    name, call, good = REAL_ENTRY_POINTS[entry]
    for bad in ("0.5", True, None, 1j):
        with pytest.raises(ValueError) as err:
            call(_with_first(good, bad))
        assert str(err.value) == "%s entry %r is not a number" % (name, bad)
    if isinstance(good, list) and isinstance(good[0], list):
        with pytest.raises(ValueError) as err:
            call(good[:-1] + [good[-1][:-1]])
        assert str(err.value) == "%s rows must be lists of one length" % name
    if not isinstance(good, list):  # a number, as epsilon is
        want = call(good)
        for form in (int(good), np.int64(good), np.float64(good)):
            _assert_same(call(form), want)
        return
    want = call(np.array(good))
    _assert_same(call(good), want)
    ints = np.array(good, dtype=np.int64)
    for form in (ints, ints.tolist()):
        _assert_same(call(form), want)


def test_sparse_real_arguments_judged_by_dtype():
    """A ``scipy.sparse`` matrix is read by its data's dtype: int data give
    what float data give, bool and complex data are refused by entry."""
    sparse = pytest.importorskip("scipy.sparse")
    coeffs = np.array(_matrix(3, len(BS), 10), dtype=np.int64)
    want = sp.lincomb(BS, coeffs.astype(float))
    _assert_same(sp.lincomb(BS, sparse.csr_matrix(coeffs)), want)
    for dtype in (bool, complex):
        with pytest.raises(ValueError) as err:
            sp.lincomb(BS, sparse.csr_matrix(coeffs.astype(dtype)))
        bad = coeffs[coeffs != 0][0].astype(dtype).item()
        assert str(err.value) == "coeffs entry %r is not a number" % (bad,)
    gram = np.array(REAL_ENTRY_POINTS["diagonalize_gram"][2], dtype=np.int64)
    want = diagonalize_gram(gram.astype(float), "gsob").pt.toarray()
    _assert_same(diagonalize_gram(sparse.csr_matrix(gram), "gsob").pt.toarray(), want)


def test_real_rule_refuses_ints_past_the_float_range():
    """An int past the float range is refused by entry, not by an
    ``OverflowError``; the largest float's int passes."""
    big = int(np.finfo(float).max)
    assert core._reals([1, big], "x").tolist() == [1.0, float(big)]
    for value, named in (([1, 10**400], 10**400), ([1.0, -(10**400), 10**500], -(10**400)),
                         (np.array([10**400], dtype=object), 10**400)):
        with pytest.raises(ValueError) as err:
            core._reals(value, "x")
        assert str(err.value) == "x entry %d is not a number" % named
