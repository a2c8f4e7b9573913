"""Tests of the benchmark's own logic: self times, wrapper restore, failure counting."""

import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

import splinet  # noqa: E402
from splinet import cli  # noqa: E402


def test_self_times_on_synthetic_tree():
    # root [0, 10] with children a [1, 4] and b [3, 6] overlapping each other,
    # c [9, 12] running past the root's end; a has child g [2, 3]
    tree = [
        ["root", 0.0, 10.0, None, 0, None],
        ["a", 1.0, 4.0, 0, 0, {"pairs": 2}],
        ["g", 2.0, 3.0, 1, 0, None],
        ["b", 3.0, 6.0, 0, 0, None],
        ["c", 9.0, 12.0, 0, 0, None],
        ["a", 20.0, 21.5, None, 1, {"pairs": 3}],
    ]
    # root: 10 - |[1, 6] u [9, 10]| = 4; a: 3 - 1
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 1.0, 3.0, 3.0, 1.5])
    totals = spans.layer_totals(tree)
    assert totals["a"] == pytest.approx({"self_s": 3.5, "calls": 2, "pairs": 5})
    assert totals["root"]["calls"] == 1


def _bindings():
    return {(m.__name__, attr): val for m in list(sys.modules.values())
            if getattr(m, "__name__", "").startswith("splinet")
            for attr, val in vars(m).items() if callable(val)}


def test_wrappers_restored_after_traced_run(tmp_path):
    before = _bindings()
    tracer = spans.Tracer()
    out = str(tmp_path / "b")
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert splinet.gramian is not before[("splinet", "gramian")]
            assert cli.main(["basis", "--equid", "0", "1", "11", "-k", "3", "-o", out]) == 0
            assert cli.main(["check", "-i", out + ".os.json"]) == 0
            raise RuntimeError("restore must survive an exception")
    assert _bindings() == before
    names = {s[0] for s in tracer.spans}
    assert {"bases.splinet", "calculus.gramian", "calculus.lincomb", "archive.save_archive",
            "archive.load_archive", "core.is_valid_spline"} <= names
    # the intra-module call splinet -> gramian nests under the splinet span
    gram = next(s for s in tracer.spans if s[0] == "calculus.gramian")
    assert tracer.spans[gram[3]][0] == "bases.splinet"
    assert gram[5]["pairs"] > 0


def test_corrupted_output_counts_as_failure(tmp_path):
    out = str(tmp_path / "b")
    assert cli.main(["basis", "--equid", "0", "1", "23", "-k", "3", "-o", out]) == 0
    job = {"argv": ["basis"], "check": "basis", "out": out, "d": 21}
    ok, err, _ = checks.check_job(job, 0, np.random.default_rng(0))
    assert ok and err < checks.REL_TOL

    path = out + ".os.json"
    with open(path, encoding="utf-8") as fh:
        arch = json.load(fh)
    blocks = arch["splines"][5]["der"]
    arch["splines"][5]["der"] = [[[1.01 * x for x in row] for row in b] for b in blocks]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(arch, fh)
    bad, _, why = checks.check_job(job, 0, np.random.default_rng(0))
    assert not bad and why.startswith("relative error")
    assert checks.check_job(job, 1, np.random.default_rng(0))[:2] == (False, None)

    passes = [{"traced": False, "wall_s": 1.0, "peak_rss_mb": 50.0, "jobs": [
        {"argv": ["basis"], "wall_s": 1.0, "ok": ok, "err": err, "d": 21},
        {"argv": ["basis"], "wall_s": 1.0, "ok": bad, "err": None, "d": 21},
    ]}]
    metrics = run.end_to_end(passes, [0.5])
    assert metrics["fail_frac"][0] == pytest.approx(0.5)


def test_corrupted_csv_is_rejected(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("c1,c2\n1.0,2.0\n3.0,nan\n", encoding="utf-8")
    with pytest.raises(ValueError):
        checks.read_csv(str(path))
