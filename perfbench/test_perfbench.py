"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import os
import subprocess
import sys

import pytest

import catalogue
import run
import worker
from tracer import Tracer

SRC = os.path.join(run.ROOT, "src")


def test_self_time_of_nested_calls():
    now = [0.0]
    tr = Tracer(clock=lambda: now[0])

    def inner():
        now[0] += 5

    inner = tr.wrap(inner, "toy.inner")

    def outer():
        now[0] += 1
        inner()
        now[0] += 2
        inner()
        now[0] += 3

    outer = tr.wrap(outer, "toy.outer")
    tr.run_job(7, outer)
    assert tr.by_name() == {"toy.outer": [1, 16.0, 6.0], "toy.inner": [2, 10.0, 10.0]}
    assert tr.spans[(7, "toy.inner", "toy.outer")][0] == 2
    assert tr.spans[(7, "toy.outer", None)][3:] == [0.0, 16.0]


def test_generator_segments_count_one_call():
    now = [0.0]
    tr = Tracer(clock=lambda: now[0])

    def gen():
        for i in range(3):
            now[0] += 1
            yield i

    gen = tr.wrap(gen, "toy.gen")
    assert list(gen()) == [0, 1, 2]
    assert tr.by_name() == {"toy.gen": [1, 3.0, 3.0]}


def test_counters_go_to_the_innermost_span():
    tr = Tracer()

    def leaf():
        tr.count("leaf.work", 3)

    leaf = tr.wrap(leaf, "toy.leaf")
    tr.wrap(lambda: leaf(), "toy.root")()
    tr.count("loose")
    assert tr.counters == {("leaf.work", "toy.leaf"): 3, ("loose", None): 1}


TRACE_SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracer import Tracer
tr = Tracer()
tr.install()
import bmwcenter.center as center, bmwcenter.contentfn as contentfn
assert center.signature is contentfn.signature
from bmwcenter import cli
import worker
for i, argv in enumerate([["blocks", "--n", "6", "--t", "q^2"], ["family", "--n", "3"],
                          ["idempotent", "--n", "5", "--shape", "1"],
                          ["matrix", "--n", "4", "--t", "-q^1"]]):
    tr.run_job(i, worker.run_job, cli.run, argv)
calls = {k: v[0] for k, v in tr.by_name().items()}
print(json.dumps({"calls": calls, "counters": tr.counter_totals(), "peaks": tr.peaks}))
"""


def _traced_counts():
    proc = subprocess.run([sys.executable, "-c", TRACE_SCRIPT, run.HERE, SRC],
                          env=run.WORKER_ENV, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_traced_counts_repeat_exactly():
    first, second = _traced_counts(), _traced_counts()
    assert first == second
    calls, counters = first["calls"], first["counters"]
    assert calls["partitions.Partition.__init__"] > 0
    assert calls["scalars.LaurentQT.__mul__"] > 0
    assert calls["blocks.is_admissible"] > 0
    # family --n 3 certifies its rank by specialisation, matrix -q^1 cannot
    assert calls["center.matrix_rank"] == 2
    assert counters["center.rank_fallback"] == 1
    assert counters["idempotents.paths_evaluated"] > 0


@pytest.mark.parametrize("workload", catalogue.WORKLOADS)
def test_job_list_is_deterministic(workload):
    jobs = catalogue.job_list(workload, 5)
    assert jobs == catalogue.job_list(workload, 5)
    assert jobs != catalogue.job_list(workload, 6)
    keys = {catalogue.job_key(a) for a in catalogue.catalogue(workload)}
    assert {catalogue.job_key(a) for a in jobs} <= keys
    if workload != "sweep":
        assert len({catalogue.job_key(a) for a in jobs}) == len(jobs)


def test_catalogue_avoids_behaviour_the_roadmap_removes():
    expected = worker.load_expectations()
    for w in catalogue.WORKLOADS:
        for argv in catalogue.catalogue(w):
            assert not {"--parallel", "--shape2", "--defect"} & set(argv)
            assert int(argv[argv.index("--n") + 1]) >= 0
            if "dot" in argv:
                assert argv[0] == "graph"
            assert expected[catalogue.job_key(argv)][0] == 0


def test_corrupted_stdout_counts_as_failed():
    sys.path.insert(0, SRC)
    from bmwcenter import cli
    expected = worker.load_expectations()
    argv = ["lambda", "--n", "4"]
    key = catalogue.job_key(argv)
    status, data, _ = worker.run_job(cli.run, argv)
    assert worker.check(expected, key, status, data)
    assert not worker.check(expected, key, status, data + b"x")
    assert not worker.check(expected, key, 1, data)

    def raises(argv):
        raise RuntimeError("boom")

    status, data, _ = worker.run_job(raises, argv)
    assert status == "raised RuntimeError"
    assert not worker.check(expected, key, status, data)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(144) == 95
    assert run.tail_percentile(17) == 75
    assert run.tail_percentile(6) is None
    values = list(range(1, 101))
    assert run.nearest_rank(values, 90) == (90, 10)
    assert run.nearest_rank(values, 50) == (50, 50)


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(catalogue.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in run.LAYER.items()}
