"""The benchmark's own tests: its gates, its counters and BENCHMARK.json.

    python3 -m pytest perfbench -q

The gate tests feed tampered outputs to the correctness checks, which must
report them. The Spark tests calibrate the busy-time counter and show that
the retention self-check fires when the status store drops records.
"""
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gates  # noqa: E402
import sparkenv  # noqa: E402
from tracing import StatusStore, check_retention, group_counters  # noqa: E402

from repro.core.incidence import eid_py  # noqa: E402
from repro.core.reference import parallel_ne_reference  # noqa: E402
from repro.graphgen.rmat import rmat_edges_np  # noqa: E402


@pytest.fixture(scope="module")
def small_edges():
    return [(int(s), int(d)) for s, d in rmat_edges_np(6, 4, seed=1)]


# ---------- negative self-tests: tampered outputs count as failures ----------
def test_dne_gate_passes_reference_and_fails_moved_edge(small_edges):
    want, stats = parallel_ne_reference(small_edges, 4, lam=1.0, seed=1)
    ok = gates.check_dne(dict(want), stats["iterations"], stats["fallback_edges"], want, stats)
    assert ok == []
    moved = dict(want)
    e = eid_py(*small_edges[0])
    moved[e] = (moved[e] + 1) % 4
    failures = gates.check_dne(moved, stats["iterations"], stats["fallback_edges"], want, stats)
    assert failures and "1 edges differ" in failures[0]
    assert gates.check_dne(dict(want), stats["iterations"] + 1, 0, want, stats)


def test_quality_gate_fails_wrong_rf(small_edges):
    rows = [(s, d, (s + d) % 4) for s, d in small_edges]
    rf, eb = gates.quality_py(rows)
    assert gates.check_quality(rows, rf, eb) == []
    assert gates.check_quality(rows, rf * 1.001, eb)


def test_pagerank_gate_fails_perturbed_vector(small_edges):
    want = gates.pagerank_np(small_edges, 10)
    assert abs(sum(want.values()) - 1.0) < 1e-9
    assert gates.check_pagerank(dict(want), want) == []
    reordered = {v: r * (1 + 1e-14) for v, r in want.items()}  # summation-order noise
    assert gates.check_pagerank(reordered, want) == []
    perturbed = dict(want)
    v = next(iter(perturbed))
    perturbed[v] += 1e-6 * max(want.values())
    assert gates.check_pagerank(perturbed, want)


def test_sssp_and_wcc_gates_fail_wrong_labels(small_edges):
    adj = gates.adjacency(small_edges)
    dist = gates.bfs_levels(adj, 0)
    steps = max(dist.values()) + 1
    assert gates.check_sssp(dict(dist), adj, 0, steps) == []
    far = max(dist, key=dist.get)
    assert gates.check_sssp({**dist, far: dist[far] + 1}, adj, 0, steps)
    labels = gates.component_min_labels(adj)
    assert gates.check_wcc(dict(labels), adj) == []
    non_min = next(v for v, label in labels.items() if label != v)
    assert gates.check_wcc({**labels, non_min: non_min}, adj)


# ---------- counter self-checks ----------
def _job(i, group="g", stages=()):
    return {"jobId": i, "jobGroup": group, "stageIds": list(stages)}


def test_group_counters_rejects_gap_in_job_ids():
    assert group_counters([_job(3), _job(4), _job(5)], {})["jobs"] == 3
    with pytest.raises(RuntimeError, match="span 4 jobs"):
        group_counters([_job(3), _job(4), _job(6)], {})


def test_check_retention_rejects_dropped_records():
    check_retention([_job(0), _job(1)], [{"stageId": 0}])
    with pytest.raises(RuntimeError, match="dropped 1 jobs"):
        check_retention([_job(1), _job(2)], [])


def test_benchmark_json_names():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for k in ("end_to_end", "per_layer") for m in spec[k]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


# ---------- Spark: busy-time calibration and retention ----------
@pytest.fixture(scope="module")
def spark(tmp_path_factory):
    sparkenv.prepare(tmp_path_factory.mktemp("perfbench"))
    s = sparkenv.start()
    yield s
    sparkenv.stop(s)


def _sleep_tasks(spark, group, n, seconds):
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    sc.parallelize(range(n), n).foreach(lambda _: time.sleep(seconds))


def _counters(spark, group):
    store = StatusStore(spark)
    stages = {}
    for s in store.stages():
        stages.setdefault(s["stageId"], []).append(s)
    return group_counters([j for j in store.jobs() if j["jobGroup"] == group], stages)


def test_busy_time_is_task_run_time_not_executor_uptime(spark):
    _sleep_tasks(spark, "warm", 4, 0)  # start the Python workers first
    _sleep_tasks(spark, "busy", 4, 2)
    busy = _counters(spark, "busy")
    assert busy["jobs"] == 1 and busy["tasks"] == 4
    assert 8.0 <= busy["busy_s"] < 10.0  # four parallel 2 s tasks

    store = StatusStore(spark)

    def uptime_ms():
        return sum(e["totalDuration"] for e in store.executors())

    def run_time_ms():
        return sum(s["executorRunTime"] for s in store.stages())

    up0, run0 = uptime_ms(), run_time_ms()
    time.sleep(3)
    assert run_time_ms() == run0  # idle: no busy time
    assert uptime_ms() - up0 >= 2500  # but executor "duration" kept growing


def test_retention_raised_and_self_check_fires_when_capped(spark):
    conf = spark.sparkContext.getConf()
    assert conf.get("spark.ui.retainedJobs") == str(sparkenv.RETAINED)
    assert conf.get("spark.ui.retainedStages") == str(sparkenv.RETAINED)
    store = StatusStore(spark)
    check_retention(store.jobs(), store.stages())

    # The same reads on a context that keeps only 5 jobs must fail.
    from pyspark.sql import SparkSession

    spark.stop()
    capped = (
        SparkSession.builder.config("spark.ui.retainedJobs", "5")
        .config("spark.ui.retainedStages", "5")
        .getOrCreate()
    )
    for _ in range(12):
        capped.range(4).count()
    store = StatusStore(capped)
    try:
        with pytest.raises(RuntimeError, match="dropped"):
            check_retention(store.jobs(), store.stages())
    finally:
        capped.stop()
