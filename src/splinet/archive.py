"""JSON spline archives.

Top-level fields, in this order: ``knots`` (reals), ``order`` (int),
``type`` (family tag), ``epsilon`` (real), ``splines`` (list of members,
each with ``supp``, a list of 0-based ``[lo, hi]`` knot-index pairs, and
``der``, one row-major matrix per support component), and optionally
``net`` (list of levels, each a list of member-index tuples; in memory the
tuple of levels that :func:`splinet.bases.net_layout` returns).

The stored k-th column is symmetric (:func:`splinet.core.sym2one`), the
one in memory one-sided; this module alone converts, the loader once, in
place, the writer a chunk of members at a time.  The one stored entry per
component that one-sided rows have no place for is checked where it is
loaded, against what the writer would store there.

The file is byte-stable across versions: it is exactly
``json.dumps(fields, indent=1) + "\n"``.  Every list element sits on its
own line, indented one space per nesting level; empty lists are ``[]``;
``order``, ``supp`` and ``net`` entries are ints; reals are written by
``float.__repr__`` (shortest round-trip form, ``-0.0`` kept), except that
non-finite values take JSON's tokens ``NaN``, ``Infinity`` and
``-Infinity``; the file ends with a newline.  Write/read round-trips are
therefore bit-exact, bar each component's last one-sided k-th entry, which
the symmetric column has no place for and which reads back as 0 (as it is
in every spline).

:func:`save_archive` renders this layout itself, a chunk of about
``_CONVERT_ROWS`` stacked rows (whole members) at a time, rather than
through ``json``'s pure-Python indenting encoder, and renders each distinct
Taylor row once.  A first pass hashes every symmetric row (the row as
written) and keeps only the hashes that two or more rows share.  The second
renders a row whose hash is its own; a repeated row takes the text of a
row with its hash, from a cache of repeated rows only, when its bytes are
the same, so a hash collision costs one more render, never wrong
text, and ``-0.0`` and ``0.0`` stay apart.  On equidistant knots the members
of a level are translates and their rows recur bit for bit: of the 111,365
rows of a d = 6141 splinet a fifth or fewer are distinct.  Each chunk is one
join of its row texts and the separators between them (a separator after a
component's last row carries the brackets that close the block or member
and the next member's ``supp``), and one write.
"""

from __future__ import annotations

import gc
import json
import threading
from itertools import chain, islice

import numpy as np

from .calculus import _chunks
from .core import (DEFAULT_EPSILON, SplineFamily, _family, _integers, _sym_entry, _tolerances,
                   sym2one)


def family_from_dict(obj):
    """Family and net (its levels, or ``None``) from a parsed archive, its
    fields read by :class:`~splinet.core.SplineFamily`.  Every fault raises
    ``ValueError("malformed archive: ...")``: a missing field, what the
    constructor refuses, a non-integral ``order``, a ``net`` index outside
    ``0..d-1`` or repeated, and a k-th entry :func:`_one_sided` would drop."""
    try:
        k = int(_integers([obj["order"]], "order")[0])
        fam = _one_sided(SplineFamily(obj["knots"], k,
                                      [(m["supp"], m["der"]) for m in obj["splines"]],
                                      obj.get("type", "sp"), obj.get("epsilon", DEFAULT_EPSILON)))
        net = None
        if "net" in obj:
            levels = obj["net"]
            indices = _integers(chain.from_iterable(chain.from_iterable(levels)), "net")
            if np.any((indices < 0) | (indices >= len(fam))):
                raise ValueError("net index outside 0..%d" % (len(fam) - 1))
            if np.any(np.diff(np.sort(indices)) == 0):
                raise ValueError("net index repeated")
            it = iter(indices.tolist())
            net = tuple(tuple(tuple(islice(it, len(t))) for t in lv) for lv in levels)
        return fam, net
    except KeyError as exc:
        raise ValueError("malformed archive: missing field %s" % exc) from exc
    except (TypeError, OverflowError, ValueError) as exc:
        raise ValueError("malformed archive: %s" % exc) from exc


def _one_sided(stored):
    """``stored``, a family of an archive's symmetric rows, with one-sided rows.
    The k-th entry per component that this drops (:func:`~splinet.core._sym_entry`)
    must be, within the member's tolerance or as the same non-finite value,
    what :func:`save_archive` writes back there, or a value ``check`` never
    sees would be lost: the loader refuses it."""
    k, lo, hi = stored.smorder, stored.lo, stored.hi
    at, want = _sym_entry(stored.rows, lo, hi)
    got = stored.rows[at, k]
    fam = _family(stored.knots, k, sym2one(stored.rows, lo, hi), lo, hi, stored.offsets,
                  stored.type, stored.epsilon)
    off = np.flatnonzero((got != want) & ~(np.isnan(got) & np.isnan(want)))
    if off.size:  # never for what save_archive wrote
        with np.errstate(invalid="ignore", over="ignore"):
            tol = _tolerances(fam)[fam.member[off]]
            bad = ~(np.abs(got[off] - want[off]) <= tol) | ~np.isfinite(got[off])
        if bad.any():
            i = int(np.argmax(bad))
            c = off[i]
            raise ValueError("member %d, knot %d: k-th derivative entry %r where the symmetric "
                             "convention stores %r (tolerance %r)"
                             % (fam.member[c], fam.lo[c] + at[c] - fam.start[c], float(got[c]),
                                float(want[c]), float(tol[i])))
    return fam


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _tokens(values):
    """JSON number tokens of a float array in row-major order, made one at
    a time as they are taken."""
    toks = map(float.__repr__, values.ravel().tolist())
    if not np.isfinite(values).all():
        toks = map(lambda t: _JSON_NONFINITE.get(t, t), toks)
    return toks


def _list(items, depth):
    """Rendered ``items`` as a JSON list whose brackets sit at ``depth``."""
    if not items:
        return "[]"
    pad = "\n" + " " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * depth + "]"


#: stacked rows that the writer converts to the symmetric convention and
#: renders at a time; a chunk's row texts and its joined text are held at
#: once, so this bounds the writer's memory
_CONVERT_ROWS = 1 << 10
#: a stacked row's odd multiplier in :func:`_row_hashes`
_MIX = np.uint64(0x9E3779B97F4A7C15)
#: the text between two rows of a block, and between two blocks of a member
_ROW_SEP, _BLOCK_SEP = ",\n     ", "\n    ],\n    [\n     "
#: the text after a member's last row
_MEMBER_END = "\n    ]\n   ]\n  }"
#: a support component's ``[lo, hi]`` pair
_PAIR = "[\n     %d,\n     %d\n    ]"
#: a member's text before its first row, from its rendered pairs
_HEAD = ',\n  {\n   "supp": [\n    %s\n   ],\n   "der": [\n    [\n     '
#: a member with no support, whole
_EMPTY = ',\n  {\n   "supp": [],\n   "der": []\n  }'


def _row_texts(values):
    """The rows of a 2-d float array, each rendered as a JSON list at depth 5."""
    width = values.shape[1]
    row = "[" + ",".join(["\n      %s"] * width) + "\n     ]"
    return list(map(row.__mod__, zip(*[_tokens(values)] * width)))


def _row_hashes(bits):
    """One uint64 per row of a 2-d uint64 array, the same for rows of the
    same bits: per column a multiply and an xor-shift, so that a sign bit
    reaches the low bits (rows of flipped signs are common)."""
    h = np.zeros(bits.shape[0], dtype=np.uint64)
    for col in bits.T:
        h ^= col
        h *= _MIX
        h ^= h >> np.uint64(29)
    return h


def _sym_chunks(fam):
    """``(c0, c1, sym)`` per run of whole members holding about
    ``_CONVERT_ROWS`` stacked rows: the components ``c0..c1-1`` and their
    rows with the k-th column made symmetric."""
    size = fam.hi - fam.lo + 1
    bounds = np.append(fam.start, fam.rows.shape[0]).tolist()
    for c0, c1 in _chunks(fam.member, size, _CONVERT_ROWS):
        yield c0, c1, sym2one(fam.rows[bounds[c0] : bounds[c1]], fam.lo[c0:c1],
                              fam.hi[c0:c1], inverse=True)


def _repeated(fam):
    """Sorted hashes that two or more of ``fam``'s symmetric rows share."""
    h = np.empty(fam.rows.shape[0], dtype=np.uint64)
    at = 0
    for _, _, sym in _sym_chunks(fam):
        h[at : at + sym.shape[0]] = _row_hashes(sym.view(np.uint64))
        at += sym.shape[0]
    h.sort()
    return _runs(h[1:][h[1:] == h[:-1]])[0]


def _runs(a):
    """The distinct values of ``a`` in ascending order, and the index of one
    entry of each (``np.unique`` would import ``numpy.ma``)."""
    order = np.argsort(a)
    a = a[order]
    head = np.append(True, a[1:] != a[:-1])[: a.size]
    return a[head], order[head]


def _rendered(sym, repeated, texts, keys):
    """The rendered symmetric rows of one chunk, as an object array.

    A row whose hash no other row of the family has is rendered.  A row of
    a repeated hash takes the text of that hash's slot in ``texts`` (that of
    a row with the hash, rendered in the chunk where the hash is first met,
    whose bytes ``keys`` holds) when its bytes are the same; a hash
    collision only renders a row afresh, so ``-0.0`` and ``0.0`` stay apart."""
    out = np.empty(sym.shape[0], dtype=object)
    fresh = np.ones(sym.shape[0], dtype=bool)
    if repeated.size:
        h = _row_hashes(sym.view(np.uint64))
        row = sym.view(keys.dtype).ravel()  # each row's bytes as one scalar
        slot = np.minimum(np.searchsorted(repeated, h), repeated.size - 1)
        rep = np.flatnonzero(repeated[slot] == h)
        slot = slot[rep]
        new = np.flatnonzero(np.equal(texts[slot], None))
        if new.size:
            new_slot, first = _runs(slot[new])
            first = rep[new[first]]
            texts[new_slot] = _row_texts(sym[first])
            keys[new_slot] = row[first]
        same = keys[slot] == row[rep]
        out[rep[same]] = texts[slot[same]]
        fresh[rep[same]] = False
    fresh = np.flatnonzero(fresh)
    out[fresh] = _row_texts(sym[fresh])
    return out


def _chunk_text(fam, c0, c1, texts):
    """Components ``c0..c1-1`` (whole members) rendered from their row
    ``texts``: one interleave of separators and rows, joined once.  The
    separator before a member's first row closes the member before it,
    holds the empty members in between whole and opens the member: its
    ``supp`` and ``der``'s brackets.  Before the family's first row, where
    there is no member to close, the text starts with ``_MEMBER_END + ","``."""
    own = fam.member[c0:c1]
    pairs = list(map(_PAIR.__mod__, zip(fam.lo[c0:c1].tolist(), fam.hi[c0:c1].tolist())))
    first = np.flatnonzero(np.append(True, own[1:] != own[:-1]))
    if first.size < own.size:  # a member of two or more components
        cut = np.append(first, own.size).tolist()
        pairs = [",\n    ".join(pairs[a:b]) for a, b in zip(cut[:-1], cut[1:])]
    opens = list(map((_MEMBER_END + _HEAD).__mod__, pairs))
    gap = own[first] - np.append(fam.member[c0 - 1] if c0 else -1, own[first[:-1]]) - 1
    for i in np.flatnonzero(gap).tolist():
        opens[i] = _MEMBER_END + _EMPTY * int(gap[i]) + _HEAD % pairs[i]
    seps = np.full(own.size, _BLOCK_SEP, dtype=object)
    seps[first] = opens
    parts = np.empty(2 * texts.size, dtype=object)
    parts[0::2] = _ROW_SEP
    parts[2 * (fam.start[c0:c1] - fam.start[c0])] = seps
    parts[1::2] = texts
    return "".join(parts.tolist())


def save_archive(path, fam, net=None):
    """Write ``fam`` (and ``net``, its levels) in the layout described in the
    module docstring, a chunk of members at a time from the stacked rows."""
    repeated = _repeated(fam)
    texts = np.empty(repeated.size, dtype=object)
    keys = np.empty(repeated.size, dtype="V%d" % (8 * (fam.smorder + 1)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n "knots": %s,\n "order": %d,\n "type": %s,\n "epsilon": %s,\n "splines": '
                 % (_list(list(_tokens(fam.knots.xi)), 1), fam.smorder, json.dumps(fam.type),
                    float.__repr__(float(fam.epsilon))))
        fh.write("[" if len(fam) else "[]")
        first = len(_MEMBER_END) + 1  # no member to close before the first
        for c0, c1, sym in _sym_chunks(fam):
            fh.write(_chunk_text(fam, c0, c1, _rendered(sym, repeated, texts, keys))
                     [0 if c0 else first :])
        if len(fam):
            # the last member's closing brackets and the empty members after it
            tail = _EMPTY * (len(fam) - 1 - (int(fam.member[-1]) if fam.member.size else -1))
            fh.write((_MEMBER_END + tail if fam.member.size else tail[1:]) + "\n ]")
        if net is not None:
            levels = [_list([_list([str(int(i)) for i in t], 3) for t in level], 2)
                      for level in net]
            fh.write(',\n "net": ' + _list(levels, 1))
        fh.write("\n}\n")


#: held while a load reads or changes whether the cyclic collector runs
_GC_LOCK = threading.Lock()


def load_archive(path):
    """Returns ``(family, net-or-None)``, the net as its levels; the family is
    one-sided, as every family in memory is.

    The cyclic garbage collector is paused while ``json`` parses and the
    fields are read, and restored after: the parse makes a list per Taylor
    row, the reading a pair per member, neither makes cycles, and each
    collection they would trigger walks every row list (on a d = 6141
    splinet's archive about a fifth of the parse)."""
    with _GC_LOCK:
        paused = gc.isenabled()
        gc.disable()
    try:
        with open(path, encoding="utf-8") as fh:
            return family_from_dict(json.load(fh))
    finally:
        if paused:
            with _GC_LOCK:
                gc.enable()
