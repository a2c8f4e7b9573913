"""One workload pass in a fresh process.

Usage: ``python3 worker.py SPEC.json``.  The spec names the checkout's
``src`` directory, a warm-up job, the pass's CLI jobs (or none, for a
set-up-only sample), whether to trace, and the result file to write.

The worker imports ``splinet.cli``, runs the warm-up job (set-up time), then
runs the jobs one after another through ``splinet.cli.main`` (closed loop,
one client) and writes wall times, exit codes, peak RSS and, when traced,
the spans it kept in memory.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def run_job(cli, argv, log):
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        try:
            return int(cli.main(argv))
        except Exception:  # a crash is a failed job, not a dead pass
            traceback.print_exc(file=log)
            return -1


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    t0 = time.perf_counter()
    sys.path.insert(0, spec["src"])
    from splinet import cli

    origin = os.path.realpath(cli.__file__)
    if not origin.startswith(os.path.realpath(spec["src"]) + os.sep):
        raise ImportError("splinet imported from %s, not from %s" % (origin, spec["src"]))
    log = io.StringIO()
    warm_rc = run_job(cli, spec["warmup"], log)
    setup_s = time.perf_counter() - t0

    tracer = None
    if spec["trace"]:
        from spans import Tracer  # next to this script, so on sys.path

        tracer = Tracer()
    jobs = []
    scope = tracer.installed() if tracer else contextlib.nullcontext()
    with scope:
        p0 = time.perf_counter()
        for i, argv in enumerate(spec["jobs"]):
            j0 = time.perf_counter()
            if tracer:
                tracer.job = i
            with tracer.span("cli." + argv[0]) if tracer else contextlib.nullcontext():
                rc = run_job(cli, argv, log)
            jobs.append({"argv": argv, "rc": rc, "wall_s": time.perf_counter() - j0})
        wall_s = time.perf_counter() - p0
    result = {
        "setup_s": setup_s,
        "warmup_rc": warm_rc,
        "wall_s": wall_s,
        "jobs": jobs,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans if tracer else None,
        "log": log.getvalue()[-4000:],
    }
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
