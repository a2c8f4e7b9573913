"""Spans around calls into splinet, kept in memory, and self-time arithmetic.

A traced pass replaces each function named in ``TRACED`` by a wrapper in
every ``splinet.*`` module namespace that binds it (calls inside a module
look the name up in that module's globals, so they are caught too), and puts
the originals back afterwards.  Each call records one span: name, start,
end, parent span and job id.  Counts come from the call's arguments and
return value only, never from the program's internals; the time spent
computing them is recorded as a ``bench.count`` span under the caller, so it
is subtracted from the caller's self time instead of inflating it.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager

import numpy as np
import scipy.sparse

#: splinet module -> public functions wrapped in a traced pass
TRACED = {
    "core": ("is_valid_spline", "evaluate", "sym2one"),
    "bases": ("bspline_basis", "splinet", "diagonalize_gram"),
    "calculus": ("gramian", "lincomb", "integra"),
    "construct": ("construct", "refine"),
    "project": ("project_data", "project_splines", "fpca",
                "read_fdata_csv", "write_coeff_csv"),
    "random": ("rspline",),
    "archive": ("save_archive", "load_archive"),
}

COUNT_SPAN = "bench.count"


def _interval_incidence(fam):
    """Sparse members x knot-intervals matrix: 1 where a member lives."""
    rows, cols = [], []
    for i, (supp, _) in enumerate(fam.members):
        for lo, hi in supp:
            cols.extend(range(lo, hi))
            rows.extend([i] * (hi - lo))
    shape = (len(fam), len(fam.knots) - 1)
    data = np.ones(len(rows))
    return scipy.sparse.csr_matrix((data, (rows, cols)), shape=shape)


def count_gram_pairs(args, kwargs, out):
    """Member pairs sharing at least one knot interval (i <= j when symmetric)."""
    fam_a = args[0]
    fam_b = args[1] if len(args) > 1 else kwargs.get("fam_b")
    inc_a = _interval_incidence(fam_a)
    if fam_b is None:
        shared = scipy.sparse.triu(inc_a @ inc_a.T)
    else:
        shared = inc_a @ _interval_incidence(fam_b).T
    return {"pairs": int(shared.count_nonzero())}


def count_coeff_nnz(args, kwargs, out):
    coeffs = args[1] if len(args) > 1 else kwargs["coeffs"]
    return {"coeff_nnz": int(np.count_nonzero(np.asarray(coeffs)))}


def count_transform(args, kwargs, out):
    """Nonzeros and storage of P, dense or compressed sparse (CSR/CSC)."""
    p = out.P
    if scipy.sparse.issparse(p):
        nbytes = p.data.nbytes + p.indices.nbytes + p.indptr.nbytes
        nnz = p.count_nonzero()
    else:
        nbytes = np.asarray(p).nbytes
        nnz = np.count_nonzero(p)
    return {"p_nnz": int(nnz), "p_bytes": int(nbytes)}


def count_points(args, kwargs, out):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    return {"points": int(np.size(grid))}


def count_file_bytes(args, kwargs, out):
    path = args[0] if args else kwargs["path"]
    return {"bytes": int(os.path.getsize(path))}


COUNTERS = {
    "calculus.gramian": count_gram_pairs,
    "calculus.lincomb": count_coeff_nnz,
    "bases.diagonalize_gram": count_transform,
    "core.evaluate": count_points,
    "archive.save_archive": count_file_bytes,
    "archive.load_archive": count_file_bytes,
}


class Tracer:
    """Collects spans of one process; not thread-safe (passes are serial)."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, job, counts]
        self.job = None
        self._stack = []

    @contextmanager
    def span(self, name):
        sid = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.job, None]
        self.spans.append(rec)
        self._stack.append(sid)
        rec[1] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if counter is not None:
                with self.span(COUNT_SPAN):
                    rec[5] = counter(args, kwargs, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced function wherever splinet binds it; always restore."""
        restore = []
        try:
            for mod, names in TRACED.items():
                home = sys.modules["splinet." + mod]
                for fname in names:
                    orig = getattr(home, fname)
                    wrapper = self.wrap(mod + "." + fname, orig,
                                        COUNTERS.get(mod + "." + fname))
                    for m in list(sys.modules.values()):
                        mname = getattr(m, "__name__", "")
                        if mname != "splinet" and not mname.startswith("splinet."):
                            continue
                        for attr, val in list(vars(m).items()):
                            if val is orig:
                                setattr(m, attr, wrapper)
                                restore.append((m, attr, orig))
            yield self
        finally:
            for m, attr, orig in reversed(restore):
                setattr(m, attr, orig)


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for sid, s in enumerate(spans):
        if s[3] is not None:
            children[s[3]].append(sid)
    out = []
    for sid, (_, start, end, *_rest) in enumerate(spans):
        ivs = sorted((max(spans[c][1], start), min(spans[c][2], end))
                     for c in children[sid])
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in ivs:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


def layer_totals(spans):
    """Per span name: summed self time, call count and summed counts."""
    totals = {}
    for s, self_s in zip(spans, self_times(spans)):
        name, counts = s[0], s[5]
        t = totals.setdefault(name, {"self_s": 0.0, "calls": 0})
        t["self_s"] += self_s
        t["calls"] += 1
        for key, val in (counts or {}).items():
            t[key] = t.get(key, 0) + val
    return totals
