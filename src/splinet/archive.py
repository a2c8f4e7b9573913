"""JSON spline archives.

Top-level fields, in this order: ``knots`` (reals), ``order`` (int),
``type`` (family tag), ``epsilon`` (real), ``splines`` (list of members,
each with ``supp``, a list of 0-based ``[lo, hi]`` knot-index pairs, and
``der``, one row-major matrix per support component in the symmetric
convention), and optionally ``net`` (list of levels, each a list of
member-index tuples).

The file is byte-stable across versions: it is exactly
``json.dumps(fields, indent=1) + "\n"``.  Every list element sits on its
own line, indented one space per nesting level; empty lists are ``[]``;
``order``, ``supp`` and ``net`` entries are ints; reals are written by
``float.__repr__`` (shortest round-trip form, ``-0.0`` kept), except that
non-finite values take JSON's tokens ``NaN``, ``Infinity`` and
``-Infinity``; the file ends with a newline.  Write/read round-trips are
therefore bit-exact.  :func:`save_archive` renders this layout itself, one
member at a time, rather than through ``json``'s pure-Python indenting
encoder.
"""

from __future__ import annotations

import json

import numpy as np

from .bases import DyadicNet
from .core import DEFAULT_EPSILON, SYMMETRIC, KnotSet, _family, as_symmetric


def _integer(value, field):
    """``value`` as an int; ``3.0`` counts as 3, a non-integral value or a
    non-number is a malformed archive."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError("malformed archive: %s entry %r is not an integer" % (field, value))


def family_from_dict(obj):
    """Family and net from a parsed archive; a wrong structure or field type
    raises ``ValueError("malformed archive: ...")``, as do a non-integral
    ``order`` or ``supp`` entry and a ``net`` index outside ``0..d-1`` or
    repeated across the net."""
    try:
        knots = KnotSet(np.array(obj["knots"], dtype=float))
        k = _integer(obj["order"], "order")
        splines = obj["splines"]
        comps = [[(_integer(lo, "supp"), _integer(hi, "supp")) for lo, hi in item["supp"]]
                 for item in splines]
        ders = [item["der"] for item in splines]
        if [len(der) for der in ders] != [len(cs) for cs in comps]:
            raise ValueError("support/derivative block count mismatch")
        flat = [row for der in ders for blk in der for row in blk]
        rows = np.array(flat, dtype=float) if flat else np.empty((0, k + 1))
        sizes = [hi - lo + 1 for cs in comps for lo, hi in cs]
        if [len(blk) for der in ders for blk in der] != sizes or rows.shape != (len(flat), k + 1):
            raise ValueError("derivative block shape does not match support")
        lo, hi = np.array([c for cs in comps for c in cs], dtype=np.int64).reshape(-1, 2).T
        fam = _family(knots, k, rows, lo, hi, np.cumsum([0] + [len(c) for c in comps]),
                      SYMMETRIC, obj.get("type", "sp"),
                      float(obj.get("epsilon", DEFAULT_EPSILON)))
        net = None
        if "net" in obj:
            levels = tuple(tuple(tuple(_integer(i, "net") for i in t) for t in lv)
                           for lv in obj["net"])
            d = len(fam)
            indices = [i for lv in levels for t in lv for i in t]
            if any(not 0 <= i < d for i in indices):
                raise ValueError("malformed archive: net index outside 0..%d" % (d - 1))
            if len(set(indices)) != len(indices):
                raise ValueError("malformed archive: net index repeated")
            n_tuples = sum(len(lv) for lv in levels)
            complete = n_tuples == 2 ** len(levels) - 1 and all(
                len(t) == max(k, 1) for lv in levels for t in lv
            ) and n_tuples * max(k, 1) == d
            net = DyadicNet(levels, complete, k)
        return fam, net
    except KeyError as exc:
        raise ValueError("malformed archive: missing field %s" % exc) from exc
    except (TypeError, OverflowError) as exc:
        raise ValueError("malformed archive: %s" % exc) from exc


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _tokens(values):
    """JSON number tokens of a float array in row-major order."""
    toks = list(map(float.__repr__, values.ravel().tolist()))
    if not np.isfinite(values).all():
        toks = [_JSON_NONFINITE.get(t, t) for t in toks]
    return toks


def _list(items, depth):
    """Rendered ``items`` as a JSON list whose brackets sit at ``depth``."""
    if not items:
        return "[]"
    pad = "\n" + " " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * depth + "]"


def _member_text(comps, blocks, row):
    supp_text = _list([_list([str(lo), str(hi)], 4) for lo, hi in comps], 3)
    der_text = _list([_list([row] * blk.shape[0], 4) % tuple(_tokens(blk)) for blk in blocks], 3)
    return '{\n   "supp": %s,\n   "der": %s\n  }' % (supp_text, der_text)


def save_archive(path, fam, net=None):
    """Write ``fam`` (and ``net``) in the layout described in the module
    docstring, one member at a time from the stacked rows."""
    fam = as_symmetric(fam)
    row = _list(["%s"] * (fam.smorder + 1), 5)
    comps = list(zip(fam.lo.tolist(), fam.hi.tolist()))
    bounds = np.append(0, np.cumsum(fam.hi - fam.lo + 1)).tolist()  # component row offsets
    cut = fam.offsets.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n "knots": %s,\n "order": %d,\n "type": %s,\n "epsilon": %s,\n "splines": '
                 % (_list(_tokens(fam.knots.xi), 1), fam.smorder, json.dumps(fam.type),
                    float.__repr__(float(fam.epsilon))))
        fh.write("[" if len(fam) else "[]")
        for i, (a, b) in enumerate(zip(cut[:-1], cut[1:])):
            blocks = [fam.rows[bounds[c] : bounds[c + 1]] for c in range(a, b)]
            fh.write((",\n  " if i else "\n  ") + _member_text(comps[a:b], blocks, row))
        fh.write("\n ]" if len(fam) else "")
        if net is not None:
            levels = [_list([_list([str(int(i)) for i in t], 3) for t in level], 2)
                      for level in net.levels]
            fh.write(',\n "net": ' + _list(levels, 1))
        fh.write("\n}\n")


def load_archive(path):
    """Returns ``(family, net-or-None)``; the family is in the symmetric
    convention as stored."""
    with open(path, encoding="utf-8") as fh:
        return family_from_dict(json.load(fh))
