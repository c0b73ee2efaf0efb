"""The bmwcenter benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --check      # every catalogue entry, once
    python3 perfbench/run.py --record     # rewrite expectations.json
    python3 perfbench/run.py --cliffs [--timeout T]

A timed run repeats the workload's seeded job list in fresh worker
processes (rounds) until ``--seconds`` is used up, at least MIN_ROUNDS
times, and reports medians over rounds.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
rounds and prints the per-layer metrics.  Every job's exit status and
stdout digest are checked against ``expectations.json``.  The last line of
stdout is one JSON object; the lines before it give context that no check
reads.  See README.md in this directory for the metric map.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "bmwcenter")
OUT_DIR = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import catalogue  # noqa: E402

MIN_ROUNDS = 3
DEADLINE_S = 170  # a run must end within 180 s
# the hash seed fixes set iteration order, so traced counts repeat exactly
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")

END_TO_END = [("wall_s", "s"), ("job_ms_p50", "ms"), ("job_ms_tail", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB")]
MODULES = ("cli", "partitions", "tableaux", "scalars", "wheelpoly", "contentfn",
           "center", "blocks", "idempotents")

# per-layer metric -> (unit, better, how it is read from a traced round):
# ("self", span) self seconds; ("module", m) self seconds of m's spans;
# ("calls", span); ("counter", name); ("peak", name); ("ratio", a, b) with
# a and b themselves such specs; ("overhead",) traced / untraced wall_s
LAYER = {
    "cli.out_bytes": ("bytes", "lower", ("counter", "cli.out_bytes")),
    "partitions.new": ("count", "lower", ("calls", "partitions.Partition.__init__")),
    "tableaux.enumerate_paths.self_s": ("s", "lower", ("self", "tableaux.enumerate_paths")),
    "tableaux.enumerate_paths.calls": ("count", "lower", ("calls", "tableaux.enumerate_paths")),
    "tableaux.paths_out": ("count", "lower", ("counter", "tableaux.paths_out")),
    "tableaux.tableau_new": ("count", "lower", ("calls", "tableaux.UpDownTableau.__init__")),
    "tableaux.path_counts.self_s": ("s", "lower", ("self", "tableaux.path_counts")),
    "tableaux.enumerate_lambda.self_s": ("s", "lower", ("self", "tableaux.enumerate_lambda")),
    "tableaux.enumerate_lambda.calls": ("count", "lower", ("calls", "tableaux.enumerate_lambda")),
    "tableaux.enumerate_lambda.repeat_ratio": (
        "ratio", "lower", ("ratio", ("counter", "tableaux.enumerate_lambda.repeat"),
                           ("calls", "tableaux.enumerate_lambda"))),
    "scalars.laurent_mul.calls": ("count", "lower", ("calls", "scalars.LaurentQT.__mul__")),
    "scalars.laurent_mul.term_pairs": ("count", "lower", ("counter", "scalars.laurent_mul.term_pairs")),
    "scalars.laurent_mul.max_terms": ("count", "lower", ("peak", "scalars.laurent_mul.max_terms")),
    "scalars.laurent_mul.self_s": ("s", "lower", ("self", "scalars.LaurentQT.__mul__")),
    "scalars.expand_W_series.self_s": ("s", "lower", ("self", "scalars.expand_W_series")),
    "scalars.content_value.calls": ("count", "lower", ("calls", "scalars.content_value")),
    "wheelpoly.multi_mul.calls": ("count", "lower", ("calls", "wheelpoly.MultiLaurent.__mul__")),
    "wheelpoly.multi_mul.term_pairs": ("count", "lower", ("counter", "wheelpoly.multi_mul.term_pairs")),
    "wheelpoly.elementary_wheel.self_s": ("s", "lower", ("self", "wheelpoly.elementary_wheel")),
    "wheelpoly.newton_check.self_s": ("s", "lower", ("self", "wheelpoly.newton_check")),
    "wheelpoly.evaluate.self_s": ("s", "lower", ("self", "wheelpoly.evaluate")),
    "contentfn.signature.calls": ("count", "lower", ("calls", "contentfn.signature")),
    "contentfn.signature.self_s": ("s", "lower", ("self", "contentfn.signature")),
    "contentfn.signature.repeat_ratio": (
        "ratio", "lower", ("ratio", ("counter", "contentfn.signature.repeat"),
                           ("calls", "contentfn.signature"))),
    "center.separation_classes.self_s": ("s", "lower", ("self", "center.separation_classes")),
    "center.adaptive_matrix.self_s": ("s", "lower", ("self", "center.adaptive_matrix")),
    "center.separating_family.self_s": ("s", "lower", ("self", "center.separating_family")),
    "center.matrix_rank.calls": ("count", "lower", ("calls", "center.matrix_rank")),
    "center.rank_fallback_ratio": (
        "ratio", "lower", ("ratio", ("counter", "center.rank_fallback"),
                           ("calls", "center.matrix_rank"))),
    "center.bareiss_rank.self_s": ("s", "lower", ("self", "center.bareiss_rank")),
    "center.divexact.calls": ("count", "lower", ("calls", "center.divexact")),
    "center.divexact.self_s": ("s", "lower", ("self", "center.divexact")),
    "center.divexact.failed": ("count", "lower", ("counter", "center.divexact.failed")),
    "blocks.block_partition.self_s": ("s", "lower", ("self", "blocks.block_partition")),
    "blocks.block_equivalent.calls": ("count", "lower", ("calls", "blocks.block_equivalent")),
    "blocks.is_admissible.calls": ("count", "lower", ("calls", "blocks.is_admissible")),
    "blocks.admissible_ratio": (
        "ratio", "higher", ("ratio", ("counter", "blocks.is_admissible.true"),
                            ("calls", "blocks.is_admissible"))),
    "idempotents.spectral_idempotent.self_s": (
        "s", "lower", ("self", "idempotents.spectral_idempotent")),
    "idempotents.paths_evaluated": ("count", "lower", ("counter", "idempotents.paths_evaluated")),
    "idempotents.selected_ratio": (
        "ratio", "higher", ("ratio", ("counter", "idempotents.paths_selected"),
                            ("counter", "idempotents.paths_evaluated"))),
    "bench.trace_overhead": ("ratio", "lower", ("overhead",)),
}
for _m in MODULES:
    LAYER["%s.self_s" % _m] = ("s", "lower", ("module", _m))
TIMES = ("self", "module")


# ---------------------------------------------------------------------------
# rounds


def fail(message):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(1)


def worker(args, timeout):
    """Run worker.py with args; its parsed JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=WORKER_ENV, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("worker %s ran past %.0f s" % (" ".join(args), timeout))
    if proc.returncode != 0:
        fail("worker %s exited %d:\n%s" % (" ".join(args), proc.returncode,
                                           proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def one_round(workload, seed, trace, start):
    args = ["--workload", workload, "--seed", str(seed)]
    if trace:
        args.append("--trace")
    timeout = DEADLINE_S - (time.monotonic() - start)
    if timeout < 5:
        fail("out of time before round")
    spawned = time.monotonic()
    return worker(args + ["--spawned", repr(spawned)], timeout)


def rounds(workload, seed, seconds, trace):
    """(untraced rounds, traced rounds) of one timed run."""
    start = time.monotonic()
    plain, traced, lengths = [], [], {False: [], True: []}
    while True:
        kind = bool(trace) and len(traced) < len(plain)
        need = (len(plain) < MIN_ROUNDS) if not trace else (not plain or not traced)
        elapsed = time.monotonic() - start
        estimate = statistics.median(lengths[kind]) if lengths[kind] else 0.0
        if not need and elapsed + estimate > seconds:
            return plain, traced
        t0 = time.monotonic()
        res = one_round(workload, seed, kind, start)
        lengths[kind].append(time.monotonic() - t0)
        (traced if kind else plain).append(res)


# ---------------------------------------------------------------------------
# metrics


def tail_percentile(n_jobs):
    """Highest of the usual percentiles with at least 10 job runs beyond it
    in MIN_ROUNDS rounds of n_jobs jobs."""
    for p in (99.9, 99, 95, 90, 75, 50):
        if (n_jobs - math.ceil(p / 100 * n_jobs)) * MIN_ROUNDS >= 10:
            return p
    return None


def nearest_rank(sorted_values, p):
    """(value at percentile p, number of values above it)."""
    idx = max(0, math.ceil(p / 100 * len(sorted_values)) - 1)
    return sorted_values[idx], len(sorted_values) - idx - 1


def end_to_end(plain):
    """End-to-end metrics and notes from the untraced rounds.

    Job latencies are first reduced to each job's median over the rounds,
    so a burst of machine noise in one round moves one sample, not the
    percentile; the percentiles are then taken over the jobs.
    """
    n_jobs = len(plain[0]["jobs"])
    per_job = sorted(statistics.median(r["jobs"][i][1] for r in plain)
                     for i in range(n_jobs))
    p = tail_percentile(n_jobs)
    tail, beyond = nearest_rank(per_job, p)
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "job_ms_p50": statistics.median(per_job),
        "job_ms_tail": tail,
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    notes = ["rounds: %d of %d jobs, wall_s %s" % (
                 len(plain), n_jobs, " ".join("%.3f" % r["wall_s"] for r in plain)),
             "job_ms_p50: over %d jobs x %d rounds" % (n_jobs, len(plain)),
             "job_ms_tail: p%g, %d jobs (x %d rounds) beyond it"
             % (p, beyond, len(plain))]
    return {name: (values[name], unit) for name, unit in END_TO_END}, notes


def _read(spec, rnd):
    kind = spec[0]
    by_name, counters = rnd["by_name"], rnd["counters"]
    if kind == "self":
        return by_name.get(spec[1], [0, 0.0, 0.0])[2]
    if kind == "module":
        return sum(v[2] for k, v in by_name.items() if k.split(".")[0] == spec[1])
    if kind == "calls":
        return by_name.get(spec[1], [0])[0]
    if kind == "counter":
        return counters.get(spec[1], 0)
    if kind == "peak":
        return rnd["peaks"].get(spec[1], 0)
    if kind == "ratio":
        den = _read(spec[2], rnd)
        return _read(spec[1], rnd) / den if den else 0.0
    raise ValueError(spec)


def per_layer(plain, traced):
    """Layer metrics: times are medians over traced rounds, counts the first
    round's; also whether the counts repeated exactly in every round."""
    trs = [r["trace"] for r in traced]
    metrics, repeat = {}, True
    overhead = (statistics.median(r["wall_s"] for r in traced)
                / statistics.median(r["wall_s"] for r in plain))
    for name, (unit, _, spec) in LAYER.items():
        if spec[0] == "overhead":
            value = overhead
        elif spec[0] in TIMES:
            value = statistics.median(_read(spec, t) for t in trs)
        else:
            values = [_read(spec, t) for t in trs]
            repeat = repeat and all(v == values[0] for v in values)
            value = values[0]
        metrics[name] = (value, unit)
    return metrics, repeat


def src_lines():
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f)) as fh:
                    total += sum(1 for _ in fh)
    return total


def timed_run(args):
    plain, traced = rounds(args.workload, args.seed, args.seconds, args.trace)
    attempted = sum(r["attempted"] for r in plain + traced)
    failures = [f for r in plain + traced for f in r["failures"]]
    for key, status, dig in failures[:20]:
        print("FAILED: %s (status %s, digest %s)" % (key, status, dig))
    if args.trace:
        metrics, repeat = per_layer(plain, traced)
        notes = ["traced rounds: %d, untraced rounds: %d" % (len(traced), len(plain))]
        if not repeat:
            print("FAILED: traced counts differ between rounds")
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, "trace-%s-%d.json" % (args.workload, args.seed))
        with open(path, "w") as fh:
            json.dump(traced[0]["trace"]["table"], fh)
        notes.append("span table: %s" % os.path.relpath(path, ROOT))
    else:
        metrics, notes = end_to_end(plain)
        repeat = True
        notes.append("trace_overhead: see --trace 1")
    per_job = {}
    for r in plain:
        for key, ms in r["jobs"]:
            per_job.setdefault(key, []).append(ms)
    for key, ms in per_job.items():
        print("job_ms %10.3f  %s" % (statistics.median(ms), key))
    context = notes + [
        "failed_frac: %d / %d = %g" % (len(failures), attempted,
                                        len(failures) / attempted),
        "src_lines: %d" % src_lines(),
        "python: %s" % platform.python_version(),
        "nproc: %d" % len(os.sched_getaffinity(0)),
        "workload: %s, seed: %d, seconds: %d" % (args.workload, args.seed, args.seconds),
    ]
    for line in context:
        print(line)
    for name, (value, unit) in metrics.items():
        print("%-42s %14.6g %s" % (name, value, unit))
    print(json.dumps({"correct": not failures and repeat, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


# ---------------------------------------------------------------------------
# one-shot modes


def catalogue_entries():
    entries = {}
    for w in catalogue.WORKLOADS:
        entries.update(worker(["--catalogue", "--workload", w], timeout=None)["entries"])
    return entries


def check_all():
    """Every catalogue entry once, against the recorded expectations."""
    from worker import load_expectations
    expected = load_expectations()
    got = catalogue_entries()
    bad = [k for k, v in got.items() if expected.get(k) != v]
    for k in bad:
        print("MISMATCH: %s: expected %s, got %s" % (k, expected.get(k), got[k]))
    print("checked %d catalogue entries, %d mismatches" % (len(got), len(bad)))
    return 1 if bad else 0


def write_expectations(entries):
    """One entry per line, sorted, so a re-record diffs line by line."""
    from worker import EXPECTATIONS
    lines = ["%s: %s" % (json.dumps(k), json.dumps(v)) for k, v in sorted(entries.items())]
    with open(EXPECTATIONS, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


def record():
    """Rewrite expectations.json from the current code."""
    got = catalogue_entries()
    nonzero = [k for k, (status, _) in got.items() if status != 0]
    for k in nonzero:
        print("NONZERO EXIT: %s: %s" % (k, got[k][0]))
    if nonzero:
        print("not recorded: the catalogue must hold only jobs that succeed")
        return 1
    write_expectations(got)
    print("recorded %d entries" % len(got))
    return 0


# the ROADMAP baseline grid, kept out of every workload because of its cost
CLIFFS = [["family", "--n", "4"], ["family", "--n", "5"],
          ["matrix", "--n", "5", "--t", "q^2"], ["selfcheck", "--n", "9"],
          ["idempotent", "--n", "9", "--shape", "1"],
          ["wheel", "--n", "4", "--order", "8"]]


def cliffs(timeout):
    """Time each cliff job once in its own process; ">T" when it runs over."""
    report = []
    for argv in CLIFFS:
        code = "import sys; from bmwcenter import cli; sys.exit(cli.run(sys.argv[1:]))"
        env = dict(WORKER_ENV, PYTHONPATH=os.path.join(ROOT, "src"))
        t0 = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, "-c", code] + argv, cwd=ROOT, env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                  timeout=timeout)
            wall = "%.2f" % (time.monotonic() - t0)
            status = proc.returncode
        except subprocess.TimeoutExpired:
            wall, status = ">%g" % timeout, None
        print("%-10s %s" % (wall, " ".join(argv)), flush=True)
        report.append({"job": " ".join(argv), "wall_s": wall, "status": status})
    print(json.dumps({"timeout_s": timeout, "python": platform.python_version(),
                      "nproc": len(os.sched_getaffinity(0)), "cliffs": report}))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description="The bmwcenter benchmark.")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=catalogue.WORKLOADS)
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--record", action="store_true")
    mode.add_argument("--cliffs", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--timeout", type=float, default=60.0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cli.py")):
        fail("no bmwcenter sources at %s" % SRC)
    if args.check:
        return check_all()
    if args.record:
        return record()
    if args.cliffs:
        return cliffs(args.timeout)
    return timed_run(args)


if __name__ == "__main__":
    sys.exit(main())
