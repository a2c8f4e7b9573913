"""One rule per argument kind: every integer argument is read by
``core._integer`` (sequences of them by its array form ``core._integers``),
every knots argument by ``core._knots``."""

import math
import numbers

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import splinet as sp
from splinet import core
from splinet.archive import family_from_dict
from splinet.bases import diagonalize_gram

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
