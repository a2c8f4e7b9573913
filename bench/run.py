"""Benchmark of the splinet batch CLI.

Usage, from the root of a checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed makes every input before anything is timed.  Each workload pass
runs in a fresh worker process (``worker.py``): it imports ``splinet.cli``
from the checkout's ``src``, runs one warm-up job (set-up time) and then
the pass's CLI jobs one after another.  Passes repeat while another fits in
``--seconds``; at least one always runs.  Every job's outputs are checked
after its pass (``checks.py``).  With ``--trace 1`` untraced and traced
passes alternate, and the traced ones give the per-layer numbers
(``spans.py``).  The last line of standard output is one JSON object with
the metrics ``BENCHMARK.json`` lists for the mode; the lines before it
report every metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import checks
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: set-up samples per run: each pass gives one, set-up-only workers the rest
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150


def worker_env():
    """The environment users run with, minus thread pools: one process, one thread."""
    env = dict(os.environ)
    env.pop("SPLINET_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(out_dir, argvs, trace):
    """Run ``worker.py`` on the given CLI jobs (none: set-up only) and return its result."""
    os.makedirs(out_dir, exist_ok=True)
    spec = {
        "src": os.path.join(ROOT, "src"),
        "warmup": workloads.expand(workloads.WARMUP, "", out_dir),
        "jobs": argvs,
        "trace": trace,
        "out": os.path.join(out_dir, "result.json"),
    }
    spec_path = os.path.join(out_dir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                          env=worker_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("worker failed (exit %d):\n%s" % (proc.returncode, proc.stderr))
    with open(spec["out"], encoding="utf-8") as fh:
        res = json.load(fh)
    if res["warmup_rc"] != 0:
        raise RuntimeError("warm-up job failed:\n%s" % res["log"])
    return res


def run_pass(out_dir, in_dir, templates, trace, rng):
    """One pass in a fresh worker, then its outputs checked and deleted."""
    jobs = workloads.expand(templates, in_dir, out_dir)
    res = run_worker(out_dir, [j["argv"] for j in jobs], trace)
    for job, done in zip(jobs, res["jobs"]):
        done["ok"], done["err"], why = checks.check_job(job, done["rc"], rng)
        done["d"] = job.get("d")
        if not done["ok"]:
            print("FAILED %s: %s" % (" ".join(job["argv"]), why), file=sys.stderr)
    if any(done["rc"] != 0 for done in res["jobs"]):
        print(res["log"], file=sys.stderr)
    shutil.rmtree(out_dir)
    res["traced"] = trace
    return res


def scale_exponent(jobs):
    """Slope of log(basis time) against log(d), or None with fewer than two sizes."""
    pts = [(j["d"], j["wall_s"]) for j in jobs if j["argv"][0] == "basis"]
    if len({d for d, _ in pts}) < 2:
        return None
    x, y = np.log([d for d, _ in pts]), np.log([t for _, t in pts])
    return float(np.polyfit(x, y, 1)[0])


def end_to_end(passes, setups):
    """Every end-to-end metric as name -> (value, unit, samples)."""
    timed = [p for p in passes if not p["traced"]]
    jobs = [j for p in passes for j in p["jobs"]]
    out = {
        "wall_s": (statistics.median(p["wall_s"] for p in timed), "s", len(timed)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in timed), "MB", len(timed)),
        "fail_frac": (sum(not j["ok"] for j in jobs) / len(jobs), "ratio", len(jobs)),
        "max_rel_err": (max((j["err"] for j in jobs if j["err"] is not None), default=0.0),
                        "ratio", len(jobs)),
    }
    for cmd in dict.fromkeys(j["argv"][0] for j in timed[0]["jobs"]):
        per_pass = [sum(j["wall_s"] for j in p["jobs"] if j["argv"][0] == cmd) for p in timed]
        out[cmd + "_s"] = (statistics.median(per_pass), "s", len(timed))
    exps = [e for e in (scale_exponent(p["jobs"]) for p in timed) if e is not None]
    if exps:
        out["basis_scale_exp"] = (statistics.median(exps), "1", len(exps))
    return out


def layer_metrics(res):
    """Flat per-layer metrics of one traced pass: per function (``cli.<command>``
    for the command span) and per module, whose self time sums its functions'."""
    out = {}
    for name, t in spans.layer_totals(res["spans"]).items():
        for key, val in t.items():
            out[name + "." + key] = val
        if name != spans.COUNT_SPAN:  # the benchmark's own counting is no layer
            module = name.split(".")[0] + ".self_s"
            out[module] = out.get(module, 0.0) + t["self_s"]
    for name, count, ratio in (("calculus.gramian", "pairs", "s_per_pair"),
                               ("calculus.lincomb", "coeff_nnz", "s_per_nnz")):
        if out.get(name + "." + count):
            out[name + "." + ratio] = out[name + ".self_s"] / out[name + "." + count]
    return out


def unit_of(name):
    last = name.rsplit(".", 1)[-1]
    if last.startswith("s_per_"):
        return "s/" + last[len("s_per_"):]
    if last.endswith("_s"):
        return "s"
    return "B" if last.endswith("bytes") else "count"


def per_layer(passes):
    """Per-layer metrics (median over traced passes) plus the tracing overhead."""
    traced = [layer_metrics(p) for p in passes if p["traced"]]
    names = sorted({k for t in traced for k in t})
    out = {}
    for name in names:
        out[name] = (statistics.median(t.get(name, 0) for t in traced), unit_of(name),
                     len(traced))
    walls = {flag: statistics.median(p["wall_s"] for p in passes if p["traced"] == flag)
             for flag in (False, True)}
    out["trace.overhead_s"] = (walls[True] - walls[False], "s", len(traced))
    return out


def report(workload, seed, metrics):
    print("workload %s, seed %d" % (workload, seed))
    width = max(len(n) for n in metrics)
    for name, (value, unit, n) in metrics.items():
        print("  %-*s %14.6g %-6s (n=%d)" % (width, name, value, unit, n))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "splinet")):
        print("no splinet sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    scratch = os.path.join(ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=args.workload + "-", dir=scratch)
    try:
        in_dir = os.path.join(work, "in")
        os.makedirs(in_dir)
        rng = np.random.default_rng(args.seed)
        templates = workloads.WORKLOADS[args.workload](rng, in_dir)
        modes = (False, True) if args.trace else (False,)
        passes = []
        t0 = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            for traced in modes:
                i = len(passes)
                passes.append(run_pass(os.path.join(work, "pass%d" % i), in_dir, templates,
                                       traced, np.random.default_rng([args.seed, i])))
            now = time.perf_counter()
            if now - t0 + (now - r0) > args.seconds:
                break
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES:
            res = run_worker(os.path.join(work, "setup%d" % len(setups)), [], False)
            setups.append(res["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = end_to_end(passes, setups)
    if args.trace:
        metrics.update(per_layer(passes))
        spans_path = os.path.join(scratch, "spans-%s-seed%d.json" % (args.workload, args.seed))
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump([{"traced_pass": i, "spans": p["spans"]}
                       for i, p in enumerate(passes) if p["traced"]], fh)
    report(args.workload, args.seed, metrics)
    jobs = [j for p in passes for j in p["jobs"]]
    failed = sum(not j["ok"] for j in jobs)
    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {},
    }
    for m in declared:
        if m["name"] not in metrics:
            print("%s was not measured on this workload; reported as 0" % m["name"],
                  file=sys.stderr)
        value = metrics.get(m["name"], (0.0,))[0]
        result["metrics"][m["name"]] = {"value": float(value), "unit": m["unit"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps the
    # running worker and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        sys.exit(1)
