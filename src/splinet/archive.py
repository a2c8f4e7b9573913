"""JSON spline archives.

Top-level fields, in this order: ``knots`` (reals), ``order`` (int),
``type`` (family tag), ``epsilon`` (real), ``splines`` (list of members,
each with ``supp``, a list of 0-based ``[lo, hi]`` knot-index pairs, and
``der``, one row-major matrix per support component), and optionally
``net`` (list of levels, each a list of member-index tuples).

The stored k-th column is symmetric (:func:`splinet.core.sym2one`), the
one in memory one-sided; this module alone converts, the loader once, the
writer a chunk of components at a time.  The one stored entry per component
that one-sided rows have no place for is checked where it is loaded.

The file is byte-stable across versions: it is exactly
``json.dumps(fields, indent=1) + "\n"``.  Every list element sits on its
own line, indented one space per nesting level; empty lists are ``[]``;
``order``, ``supp`` and ``net`` entries are ints; reals are written by
``float.__repr__`` (shortest round-trip form, ``-0.0`` kept), except that
non-finite values take JSON's tokens ``NaN``, ``Infinity`` and
``-Infinity``; the file ends with a newline.  Write/read round-trips are
therefore bit-exact, bar each component's last one-sided k-th entry, which
the symmetric column has no place for and which reads back as 0 (as it is
in every spline).  :func:`save_archive` renders this layout itself, one
member at a time, rather than through ``json``'s pure-Python indenting
encoder, and renders each distinct derivative block once: a block whose
bits recur elsewhere in the family (on equidistant knots the members of a
level are translates, so of a d = 6141 splinet's 6,141 blocks about a
quarter or fewer are distinct) reuses the text of its first occurrence.

:func:`family_from_dict` takes only JSON numbers in the real fields, where
``float`` would also take ``"0.25"`` and ``true``.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import chain, islice

import numpy as np

from .bases import DyadicNet, _net_complete
from .calculus import _chunks
from .core import DEFAULT_EPSILON, KnotSet, _family, _integer, _tolerances, sym2one


def _reals(values, field):
    """The list ``values`` as a float array; a JSON string, boolean or null in
    it is an error (numpy would read ``"0.25"`` as 0.25, ``true`` as
    1.0 and ``null`` as NaN).  The check is one pass in C that collects the
    values' types; only the few distinct types are looked at in Python."""
    bad = {t for t in set(map(type, values))
           if not issubclass(t, (int, float)) or issubclass(t, bool)}
    if bad:
        value = next(v for v in values if type(v) in bad)
        raise ValueError("%s entry %r is not a number" % (field, value))
    return np.array(values, dtype=float)


def family_from_dict(obj):
    """Family and net from a parsed archive.  Every fault raises
    ``ValueError("malformed archive: ...")``: a wrong structure or field type,
    a non-integral ``order`` or ``supp`` entry, a ``knots``, ``epsilon`` or
    ``der`` entry that is not a JSON number, a ``net`` index outside
    ``0..d-1`` or repeated across the net, whatever the knot and layout
    checks refuse (knots not increasing, a support or block shape that does
    not fit, an unknown ``type``), and a repeated k-th entry that the
    conversion to one-sided rows would drop unchecked
    (:func:`_one_sided`)."""
    try:
        knots = KnotSet(_reals(obj["knots"], "knots"))
        k = _integer(obj["order"], "order")
        splines = obj["splines"]
        comps = [[(_integer(lo, "supp"), _integer(hi, "supp")) for lo, hi in item["supp"]]
                 for item in splines]
        ders = [item["der"] for item in splines]
        if [len(der) for der in ders] != [len(cs) for cs in comps]:
            raise ValueError("support/derivative block count mismatch")
        flat = [row for der in ders for blk in der for row in blk]
        sizes = [hi - lo + 1 for cs in comps for lo, hi in cs]
        if [len(blk) for der in ders for blk in der] != sizes or set(map(len, flat)) - {k + 1}:
            raise ValueError("derivative block shape does not match support")
        rows = _reals(list(chain.from_iterable(flat)), "der").reshape(len(flat), k + 1)
        lo, hi = np.array([c for cs in comps for c in cs], dtype=np.int64).reshape(-1, 2).T
        fam = _one_sided(_family(
            knots, k, rows, lo, hi, np.cumsum([0] + [len(c) for c in comps]),
            obj.get("type", "sp"),
            float(_reals([obj.get("epsilon", DEFAULT_EPSILON)], "epsilon")[0])))
        net = None
        if "net" in obj:
            levels = tuple(tuple(tuple(_integer(i, "net") for i in t) for t in lv)
                           for lv in obj["net"])
            d = len(fam)
            indices = [i for lv in levels for t in lv for i in t]
            if any(not 0 <= i < d for i in indices):
                raise ValueError("net index outside 0..%d" % (d - 1))
            if len(set(indices)) != len(indices):
                raise ValueError("net index repeated")
            # a complete net must also cover every member
            complete = _net_complete(levels, k) and len(indices) == d
            net = DyadicNet(levels, complete, k)
        return fam, net
    except KeyError as exc:
        raise ValueError("malformed archive: missing field %s" % exc) from exc
    except (TypeError, OverflowError, ValueError) as exc:
        raise ValueError("malformed archive: %s" % exc) from exc


def _one_sided(stored):
    """``stored``, a family of symmetric rows, made one-sided.  The entry per
    component that this drops must be, within the member's tolerance or as
    the same non-finite value, what :func:`save_archive` writes back there,
    or a value ``check`` never sees would be lost: the loader refuses it."""
    fam = _family(stored.knots, stored.smorder, sym2one(stored.rows, stored.lo, stored.hi),
                  stored.lo, stored.hi, stored.offsets, stored.type, stored.epsilon)
    got = stored.rows[:, fam.smorder]
    want = sym2one(fam.rows, fam.lo, fam.hi, inverse=True)[:, fam.smorder]
    off = np.flatnonzero((got != want) & ~(np.isnan(got) & np.isnan(want)))
    if off.size:  # never for what save_archive wrote
        comp = np.searchsorted(fam.start, off, side="right") - 1
        with np.errstate(invalid="ignore", over="ignore"):
            tol = _tolerances(fam)[fam.member[comp]]
            bad = ~(np.abs(got[off] - want[off]) <= tol) | ~np.isfinite(got[off])
        if bad.any():
            i = int(np.argmax(bad))
            r, c = off[i], comp[i]
            raise ValueError("member %d, knot %d: k-th derivative entry %r where the symmetric "
                             "convention stores %r (tolerance %r)"
                             % (fam.member[c], fam.lo[c] + r - fam.start[c], float(got[r]),
                                float(want[r]), float(tol[i])))
    return fam


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


#: stacked rows that the writer converts to the symmetric convention at a time
_CONVERT_ROWS = 1 << 10


def _block_texts(fam, row):
    """Rendered derivative blocks of ``fam``'s components, in order, their
    k-th column made symmetric about ``_CONVERT_ROWS`` rows at a time.

    Each distinct block is rendered once: a block whose bits recur (as the
    translates of one B-spline or splinet member do on equidistant knots)
    reuses the text of its first occurrence.  Blocks are counted by the hash
    of their stored rows first, so only the text of repeated blocks is held;
    the cache is keyed on those bytes themselves, of which the symmetric
    block is a function, so a hash collision costs one entry, never wrong
    text, and ``-0.0`` and ``0.0`` stay apart.
    """
    rows, size = fam.rows, fam.hi - fam.lo + 1
    bounds = np.append(fam.start, rows.shape[0]).tolist()
    repeats = Counter(hash(rows[a:b].tobytes()) for a, b in zip(bounds[:-1], bounds[1:]))
    texts = {}
    for c0, c1 in _chunks(np.arange(size.size), size, _CONVERT_ROWS):
        first = bounds[c0]
        sym = sym2one(rows[first : bounds[c1]], fam.lo[c0:c1], fam.hi[c0:c1], inverse=True)
        for a, b in zip(bounds[c0:c1], bounds[c0 + 1 : c1 + 1]):
            data = rows[a:b].tobytes()
            text = texts.get(data)
            if text is None:
                text = _list([row] * (b - a), 4) % tuple(_tokens(sym[a - first : b - first]))
                if repeats[hash(data)] > 1:
                    texts[data] = text
            yield text


def _member_text(comps, blocks):
    supp_text = _list([_list([str(lo), str(hi)], 4) for lo, hi in comps], 3)
    return '{\n   "supp": %s,\n   "der": %s\n  }' % (supp_text, _list(blocks, 3))


def save_archive(path, fam, net=None):
    """Write ``fam`` (and ``net``) in the layout described in the module
    docstring, one member at a time from the stacked rows."""
    comps = list(zip(fam.lo.tolist(), fam.hi.tolist()))
    blocks = _block_texts(fam, _list(["%s"] * (fam.smorder + 1), 5))
    cut = fam.offsets.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n "knots": %s,\n "order": %d,\n "type": %s,\n "epsilon": %s,\n "splines": '
                 % (_list(_tokens(fam.knots.xi), 1), fam.smorder, json.dumps(fam.type),
                    float.__repr__(float(fam.epsilon))))
        fh.write("[" if len(fam) else "[]")
        for i, (a, b) in enumerate(zip(cut[:-1], cut[1:])):
            fh.write((",\n  " if i else "\n  ")
                     + _member_text(comps[a:b], list(islice(blocks, b - a))))
        fh.write("\n ]" if len(fam) else "")
        if net is not None:
            levels = [_list([_list([str(int(i)) for i in t], 3) for t in level], 2)
                      for level in net.levels]
            fh.write(',\n "net": ' + _list(levels, 1))
        fh.write("\n}\n")


def load_archive(path):
    """Returns ``(family, net-or-None)``; the family is one-sided, as every
    family in memory is."""
    with open(path, encoding="utf-8") as fh:
        return family_from_dict(json.load(fh))
