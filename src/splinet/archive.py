"""Every file splinet reads or writes: the only module that opens files and
parses or renders number text.

- Spline archives (JSON): :func:`save_archive`, :func:`load_archive`, and
  ``project -i``'s test for one, :func:`_is_archive`.
- Numeric text files, knot files and CSVs: one reader, :func:`_read_numbers`
  through ``np.loadtxt``, where a field is a number if numpy's parser reads
  it (:func:`_is_number`, which the CLI's flags share).
- CSVs, written as ``csv.writer`` writes unquoted fields, a bounded chunk of
  cells at a time (:func:`_write_csv`).
- ``random --noise`` files: a JSON object read by ``json`` itself, which
  keeps a 128-bit seed's digits (:func:`_noise_file`).

Archive fields, in this order: ``knots`` (reals), ``order`` (int),
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

Floats are rendered by :func:`_float_texts`, the package's one float
renderer, which CSVs share: ``orjson`` and three byte rewrites give each
token the text of ``float.__repr__``.  Archives are parsed by ``orjson``
too, and by ``json`` when orjson refuses one (:func:`_read_json`).

:func:`save_archive` renders this layout itself, a chunk of about
``_CONVERT_ROWS`` stacked rows (whole members) at a time, and each distinct
Taylor row once (:func:`_rendered`): on equidistant knots the members of a
level are translates whose rows recur bit for bit (of the 111,365 rows of a
d = 6141 splinet a fifth or fewer are distinct).  Each chunk is one join of
its row texts and the separators between them, which carry the rows'
brackets (:func:`_chunk_text`), and one write.
"""
from __future__ import annotations

import gc
import json
import re
import reprlib
import threading
from itertools import chain, islice

import numpy as np
import orjson

from .calculus import _chunks
from .core import (DEFAULT_EPSILON, SplineFamily, _family, _integers, _reals, _sym_entry,
                   _tolerances, sym2one)
from .random import NoiseSpec


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

#: the forms in which orjson's float text differs from ``float.__repr__``'s:
#: a positive exponent, which repr signs (``1e16``, ``1e+16``); a negative
#: exponent of one digit, which repr pads (``1e-9``, ``1e-09``); and a
#: decimal in [1e-5, 1e-4) at the start of a token (``0.000025``, ``2.5e-05``),
#: matched after its literal so that the search runs on the literal
_EXP_SIGN = re.compile(rb"e(?=\d)")
_EXP_PAD = re.compile(rb"e-(?=\d[],])")
_SMALL = re.compile(rb"0\.0000(?<=[\[,-]0\.0000)(\d)(\d*)")


def _small(match):
    """``float.__repr__`` of a decimal that :data:`_SMALL` matched."""
    return match[1] + (b"." + match[2] if match[2] else b"") + b"e-05"


def _float_texts(values, sep=",", names=None):
    """One string per row of a 2-d float array: the row's entries joined by
    ``sep``.  Every entry is written exactly as ``float.__repr__`` writes it
    (the shortest text that reads back to the same double, ``-0.0`` kept);
    a non-finite one is then replaced by its entry in ``names``, if given.

    This is the one renderer of floats in the package.  A finite array is
    rendered whole by ``orjson`` with Ryu (Adams, PLDI 2018), which finds
    the same shortest digits as ``float.__repr__`` in a fraction of its
    time.  Then the three
    forms in which orjson's text differs are rewritten (:data:`_EXP_SIGN`,
    :data:`_EXP_PAD`, :data:`_SMALL`), and the rows are split by bytes
    ``replace`` and ``str.split``.  orjson has no token for NaN or an
    infinity, so an array that holds one takes ``float.__repr__`` one entry
    at a time.  A lone scalar (an archive's ``epsilon``, a number the CLI
    prints) is written by ``float.__repr__`` directly: that is the text this
    renderer reproduces, and an array round it would buy nothing."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        toks = map(float.__repr__, values.ravel().tolist())
        if names:
            toks = map(lambda t: names.get(t, t), toks)
        return list(map(sep.join, zip(*[toks] * values.shape[1])))
    if not values.shape[0]:
        return []
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)
    if b"e" in text:
        text = _EXP_PAD.sub(b"e-0", _EXP_SIGN.sub(b"e+", text))
    if b"0.0000" in text:
        text = _SMALL.sub(_small, text)
    # "[[a,b],[c,d]]": no token holds a bracket, so "]" + sep + "[" ends a row;
    # orjson's buffer outsizes its text, and the first copy frees it
    text = text.replace(b",", sep.encode())
    rows = text.decode("ascii").split("]" + sep + "[")
    rows[0] = rows[0][2:]
    rows[-1] = rows[-1][:-2]
    return rows


def _tokens(values):
    """JSON number tokens of a float array in row-major order."""
    return _float_texts(values.reshape(-1, 1), names=_JSON_NONFINITE)


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
#: the text between the numbers of a row, and the row's brackets, which
#: the separators around a row's text carry
_NUM_SEP, _OPEN, _CLOSE = ",\n      ", "[\n      ", "\n     ]"
#: the text between two rows of a block, and between two blocks of a member
_ROW_SEP = _CLOSE + ",\n     " + _OPEN
_BLOCK_SEP = _CLOSE + "\n    ],\n    [\n     " + _OPEN
#: the text after a member's last row
_MEMBER_END = _CLOSE + "\n    ]\n   ]\n  }"
#: a support component's ``[lo, hi]`` pair
_PAIR = "[\n     %d,\n     %d\n    ]"
#: a member's text before its first row, from its rendered pairs
_HEAD = ',\n  {\n   "supp": [\n    %s\n   ],\n   "der": [\n    [\n     ' + _OPEN
#: a member with no support, whole
_EMPTY = ',\n  {\n   "supp": [],\n   "der": []\n  }'


def _row_texts(values):
    """The rows of a 2-d float array, each rendered as the numbers of a JSON
    list at depth 5, without its brackets."""
    return _float_texts(values, _NUM_SEP, _JSON_NONFINITE)


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
    separators carry the rows' brackets.  The separator before a member's
    first row closes the member before it,
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
                 % (_list(_tokens(fam.knots.xi), 1), fam.smorder, json.dumps(fam.type),
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


def _read_json(path):
    """The JSON value that the file at ``path`` holds, parsed by ``orjson``.

    A file that orjson refuses is parsed again by ``json`` from its UTF-8
    text, which keeps ``json``'s result or message for it: the tokens
    ``NaN``, ``Infinity`` and ``-Infinity``, a number past the double range
    (``json`` reads an integer one exactly), a lone surrogate, and every
    fault, bad UTF-8 included.  Decoding the text, not handing ``json`` the
    bytes, keeps a UTF-16 file refused.  orjson reads an integer past 64
    bits as a float, where ``json`` keeps its digits: an archive's integers
    are refused long before that width."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return orjson.loads(raw)
    except orjson.JSONDecodeError:
        return json.loads(raw.decode("utf-8"))


#: held while a load reads or changes whether the cyclic collector runs
_GC_LOCK = threading.Lock()


def load_archive(path):
    """Returns ``(family, net-or-None)``, the net as its levels; the family is
    one-sided, as every family in memory is.

    The file is parsed by :func:`_read_json`.  The cyclic garbage collector
    is paused while it parses and the fields are read, and restored after:
    the parse makes a list per Taylor row, the reading a pair per member,
    neither makes cycles, and each collection they would trigger walks every
    row list."""
    with _GC_LOCK:
        paused = gc.isenabled()
        gc.disable()
    try:
        return family_from_dict(_read_json(path))
    finally:
        if paused:
            with _GC_LOCK:
                gc.enable()


# ---------------------------------------------------------------------------
# numeric text files


def _is_number(field):
    """Whether numpy's parser reads ``field``: stripped, ASCII, no ``_``, a Python float."""
    text = field.strip()
    try:
        float(text)
    except ValueError:
        return False
    return text.isascii() and "_" not in text


def _read_numbers(path, csv):
    """The numbers of a text file as a 2-d array, read by ``np.loadtxt``.

    A CSV (``csv`` true) separates fields by commas, may quote them with
    ``"`` and has a header when no field of its first row is a number.  A
    knot file separates fields by whitespace, ``#`` starting a comment.
    Blank lines hold no row.  Only when ``np.loadtxt`` rejects the file are
    its lines read again, to name the first fault and its 1-based line: a row
    not as wide as the first data row, or a field that is not a number.  A
    file that is not UTF-8 is refused by name wherever the bad byte sits.
    """
    fmt = dict(delimiter=",", comments=None, quotechar='"') if csv else dict(comments="#")

    def rows(fh):  # (first line, fields) of each row, as np.loadtxt splits it
        start, text = 0, ""
        for line, part in enumerate(fh, 1):
            if not csv:
                if fields := part.partition("#")[0].split():
                    yield line, fields
                continue
            # a quoted field may span lines: a row ends where its quotes balance,
            # or at the end of the file
            start, text = start or line, text + part
            if text.count('"') % 2 == 0:
                if text != "\n":
                    yield start, split(text)
                start, text = 0, ""
        if text:
            yield start, split(text)

    def split(text):
        return np.loadtxt([text], dtype=object, ndmin=1, **fmt).tolist()

    try:
        with open(path, encoding="utf-8") as fh:
            head = list(islice(rows(fh), 2))
        if not head:
            raise ValueError("%s holds no CSV rows" % path if csv else
                             "%s: no knots in the file" % path)
        header = csv and not any(map(_is_number, head[0][1]))
        if header and len(head) == 1:
            raise ValueError("%s holds no CSV rows below its header" % path)
        try:
            return np.loadtxt(path, ndmin=2, skiprows=head[1][0] - 1 if header else 0,
                              encoding="utf-8", **fmt)
        except ValueError as exc:
            width = len(head[header][1])
            with open(path, encoding="utf-8") as fh:
                for line, fields in islice(rows(fh), header, None):
                    if len(fields) != width:
                        raise ValueError("%s: the row on line %d has %d fields, expected %d"
                                         % (path, line, len(fields), width)) from None
                    for j, x in enumerate(fields, 1):
                        if not _is_number(x):
                            raise ValueError("%s: field %d on line %d is not a number: %r"
                                             % (path, j, line, x)) from None
            # no fault found where numpy found one: its own message
            raise ValueError("%s: %s" % (path, exc)) from None
    except UnicodeDecodeError as exc:
        raise ValueError("%s: not UTF-8 text: %s" % (path, exc.reason)) from None


def read_csv_matrix(path):
    """Numeric CSV as a 2-d array (:func:`_read_numbers`)."""
    return _read_numbers(path, csv=True)


#: cells rendered, joined and written at a time by :func:`_write_csv`: 4096
#: rows of ``eval``'s three columns, one row of a wider table at least
_CSV_CHUNK_CELLS = 3 * 4096


def _cells(col):
    """One string per row of a column chunk: the entries of a float array
    exactly as ``float.__repr__`` writes them (shortest round trip, ``nan``
    and ``inf`` for non-finite ones), rendered by :func:`_float_texts`; of
    an integer array through ``str``; of an object array of strings as they
    are.  The fields of a row of a 2-d array are comma joined."""
    if col.dtype.kind == "f":
        return _float_texts(col[:, None] if col.ndim == 1 else col)
    toks = col.ravel().tolist()
    if col.dtype != object:
        toks = list(map(str, toks))
    if col.ndim == 1:
        return toks
    c = col.shape[1]
    return [",".join(toks[i * c:(i + 1) * c]) for i in range(col.shape[0])]


def _write_csv(path, header, nrows, columns):
    """Write ``header`` and ``nrows`` rows as ``csv.writer`` writes fields
    that need no quoting: comma separated, ``\\r\\n`` line ends.

    ``columns(rows)`` gives the table's columns at the row indices ``rows``
    (an integer array): number arrays or object arrays of strings, a 2-d
    one giving one field per column (see :func:`_cells`).  It is asked for
    ``_CSV_CHUNK_CELLS`` cells' worth of whole rows at a time, and each
    chunk is rendered, joined and written before the next, so neither the
    text of a long or wide CSV nor its tokens are ever held whole."""
    step = max(1, _CSV_CHUNK_CELLS // (len(header) or 1))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, nrows, step):
            rows = np.arange(lo, min(lo + step, nrows))
            lines = map(",".join, zip(*map(_cells, columns(rows))))
            fh.write("\r\n".join(lines) + "\r\n")


def _write_matrix_csv(path, prefix, matrix):
    """A 2-d float array under the header ``prefix1,prefix2,...``."""
    _write_csv(path, ["%s%d" % (prefix, j + 1) for j in range(matrix.shape[1])],
               matrix.shape[0], lambda rows: [matrix[rows]])


def write_coeff_csv(path, coeff):
    _write_matrix_csv(path, "c", np.atleast_2d(_reals(coeff, "coeff", 2)))


def _is_archive(path):
    """Whether ``{`` is the first byte past JSON's whitespace (``project -i``)."""
    with open(path, "rb") as fh:
        return next((c for c in iter(lambda: fh.read(1), b"") if c not in b" \t\n\r"), b"") == b"{"


def _noise_file(path, seed):
    """The :class:`~splinet.random.NoiseSpec` of a ``--noise`` file: a JSON
    object whose ``sigma`` and ``theta`` (1.0 when absent) are numbers, lists
    of numbers (diagonals) or lists of such lists (matrices), and whose
    ``seed``, if present, replaces ``seed`` and must be an integer in range.
    Anything else is an error naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except ValueError as exc:
            raise ValueError("%s: not JSON: %s" % (path, exc)) from None
    if not isinstance(spec, dict):
        raise ValueError("%s: must hold a JSON object; got %s" % (path, reprlib.repr(spec)))
    covs = []
    for field in ("sigma", "theta"):
        value = spec.get(field, 1.0)
        try:
            covs.append(_reals(value, field, 2))
        except ValueError:
            raise ValueError("%s: %s must be a number, a list of numbers or a list of such "
                             "lists; got %s" % (path, field, reprlib.repr(value))) from None
    if "seed" not in spec:
        return NoiseSpec(*covs, seed)
    try:
        return NoiseSpec(*covs, spec["seed"])
    except ValueError as exc:  # the file's seed, or a non-finite covariance
        raise ValueError("%s: %s" % (path, exc)) from None
