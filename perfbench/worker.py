"""One round of a workload, in a fresh Python process.

    python3 perfbench/worker.py --workload W --seed S --spawned T [--trace]
    python3 perfbench/worker.py --catalogue --workload W

The first form imports ``bmwcenter``, loads the recorded expectations,
builds the seeded job list and runs it as a closed loop (one caller, no
think time); ``--spawned`` is the parent's ``time.monotonic()`` just before
it started this process, so set-up time counts interpreter start-up too.
The second form runs every catalogue entry of W once and reports its exit
status and stdout digest.  Either way the result is one JSON line on
stdout; the jobs' own output is captured.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTATIONS = os.path.join(HERE, "expectations.json")


def digest(data):
    return hashlib.sha256(data).hexdigest()[:24]


def run_job(run, argv):
    """(exit status, stdout bytes, seconds) of run(argv) with output captured.

    The status is an int, or "raised <Type>" when run raised.
    """
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = run(argv)
    except SystemExit as exc:  # argparse usage errors
        status = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a job that raises counts as failed, the loop goes on
        status = "raised %s" % type(exc).__name__
    seconds = time.perf_counter() - t0
    return status, out.getvalue().encode(), seconds


def check(expected, key, status, data):
    """Whether the job's status and stdout digest match the recorded ones."""
    return expected.get(key) == [status, digest(data)]


def load_expectations(path=EXPECTATIONS):
    with open(path) as fh:
        return json.load(fh)


def timed_round(workload, seed, spawned, trace):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import catalogue
    from bmwcenter import cli
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    expected = load_expectations()
    jobs = catalogue.job_list(workload, seed)
    setup_s = time.monotonic() - spawned

    if tracer is None:
        def one(job_id, argv):
            return run_job(cli.run, argv)
    else:
        def out_bytes(tr, args, result):
            tr.count("cli.out_bytes", len(result[1]))
        traced_job = tracer.wrap(lambda argv: run_job(cli.run, argv), "bench.job",
                                 out_bytes)

        def one(job_id, argv):
            return tracer.run_job(job_id, traced_job, argv)

    results = []
    failures = []
    t0 = time.perf_counter()
    for job_id, argv in enumerate(jobs):
        status, data, seconds = one(job_id, argv)
        key = catalogue.job_key(argv)
        if not check(expected, key, status, data):
            failures.append([key, status, digest(data)])
        results.append([key, seconds * 1e3])
    wall_s = time.perf_counter() - t0
    out = {"setup_s": setup_s, "wall_s": wall_s,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "jobs": results, "attempted": len(jobs), "failures": failures}
    if tracer is not None:
        out["trace"] = {"by_name": tracer.by_name(),
                        "counters": tracer.counter_totals(),
                        "peaks": tracer.peaks, "table": tracer.table()}
    return out


def catalogue_round(workload):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import catalogue
    from bmwcenter import cli
    entries = {}
    for argv in catalogue.catalogue(workload):
        status, data, _ = run_job(cli.run, argv)
        entries[catalogue.job_key(argv)] = [status, digest(data)]
    return {"entries": entries}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--spawned", type=float)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--catalogue", action="store_true")
    args = p.parse_args(argv)
    if args.catalogue:
        out = catalogue_round(args.workload)
    else:
        out = timed_round(args.workload, args.seed, args.spawned, args.trace)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
