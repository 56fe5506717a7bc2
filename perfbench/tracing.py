"""Spans around the calls into each layer, and the Spark counters behind them.

A span records name, start, end, parent span and run id. With counters on,
each span also runs its Spark jobs under a job group of its own; when the
run ends, one read of the driver's status store attributes every job and
stage to the span that launched it. Nothing is written until the run ends.

Busy time is the sum of per-stage ``executorRunTime``. The local executor's
``ExecutorSummary.totalDuration`` is not used: it is executor uptime and
grows while the executor is idle (see ``test_perfbench.py``).
"""
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

from pyspark.sql import SparkSession

#: Counter deltas recorded for every span, in the order they are reported.
COUNTERS = (
    "jobs",
    "stages",
    "tasks",
    "busy_s",
    "shuffle_write_bytes",
    "shuffle_read_bytes",
    "gc_s",
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run_id: str
    start: float
    end: float = 0.0
    counters: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class StatusStore:
    """Job and stage records of the driver's ``AppStatusStore``.

    Each read drains the listener bus first, so the records include every
    job that has finished, and returns the whole list in one py4j call by
    serialising it to JSON inside the JVM.
    """

    def __init__(self, spark: SparkSession):
        sc = spark.sparkContext
        jvm = sc._jvm
        self._sc = sc._jsc.sc()
        scala_module = getattr(jvm.com.fasterxml.jackson.module.scala, "DefaultScalaModule$")
        self._json = jvm.com.fasterxml.jackson.databind.ObjectMapper()
        self._json.registerModule(getattr(scala_module, "MODULE$"))
        self._no_quantiles = sc._gateway.new_array(jvm.double, 0)

    def _read(self, records) -> list[dict]:
        return json.loads(self._json.writeValueAsString(records))

    def jobs(self) -> list[dict]:
        self._sc.listenerBus().waitUntilEmpty()
        return self._read(self._sc.statusStore().jobsList(None))

    def stages(self) -> list[dict]:
        self._sc.listenerBus().waitUntilEmpty()
        store = self._sc.statusStore()
        return self._read(store.stageList(None, False, False, self._no_quantiles, None))

    def executors(self) -> list[dict]:
        """Executor summaries; only the busy-time calibration reads them."""
        self._sc.listenerBus().waitUntilEmpty()
        return self._read(self._sc.statusStore().executorList(True))


def check_retention(jobs: list[dict], stages: list[dict]) -> None:
    """Fail unless the store still holds every job and stage of the session."""
    for kind, ids in (
        ("job", {j["jobId"] for j in jobs}),
        ("stage", {s["stageId"] for s in stages}),
    ):
        if ids and len(ids) != max(ids) + 1:
            raise RuntimeError(
                f"status store dropped {max(ids) + 1 - len(ids)} {kind}s: "
                "raise spark.ui.retainedJobs / spark.ui.retainedStages"
            )


def group_counters(group_jobs: list[dict], stages_by_id: dict[int, list[dict]]) -> dict:
    """Counter totals over the jobs of one job group.

    Raises if the group's job count differs from the span of its job ids:
    in a closed loop with one client a call's jobs are consecutive, so a
    gap means records were dropped or attributed to the wrong call.
    """
    ids = sorted(j["jobId"] for j in group_jobs)
    if ids and len(ids) != ids[-1] - ids[0] + 1:
        raise RuntimeError(
            f"job ids {ids[0]}..{ids[-1]} span {ids[-1] - ids[0] + 1} jobs, "
            f"but the group has {len(ids)}"
        )
    ran = [
        s
        for sid in {sid for j in group_jobs for sid in j["stageIds"]}
        for s in stages_by_id.get(sid, ())
        if s["status"] != "SKIPPED"
    ]
    return {
        "jobs": len(ids),
        "stages": len(ran),
        "tasks": sum(s["numCompleteTasks"] + s["numFailedTasks"] for s in ran),
        "busy_s": sum(s["executorRunTime"] for s in ran) / 1e3,
        "shuffle_write_bytes": sum(s["shuffleWriteBytes"] for s in ran),
        "shuffle_read_bytes": sum(s["shuffleReadBytes"] for s in ran),
        "gc_s": sum(s["jvmGcTime"] for s in ran) / 1e3,
    }


class Tracer:
    """Records spans; with ``counters`` on, also the Spark work inside each."""

    def __init__(self, run_id: str, counters: bool):
        self.spark: SparkSession | None = None  # set once the session is up
        self.run_id = run_id
        self.counters = counters
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def _group(self, span: Span | None) -> str:
        return f"{self.run_id}/{span.id if span else '-'}"

    def _set_group(self, span: Span | None) -> None:
        if self.counters and self.spark is not None:
            label = span.name if span else "outside spans"
            self.spark.sparkContext.setJobGroup(self._group(span), label)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), name, parent.id if parent else None, self.run_id, 0.0)
        self.spans.append(sp)
        self._stack.append(sp)
        self._set_group(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            self._set_group(parent)

    def read_counters(self) -> None:
        """Attach each span's own counter deltas (jobs launched in its group)."""
        if not self.counters:
            return
        store = StatusStore(self.spark)
        jobs, stages = store.jobs(), store.stages()
        check_retention(jobs, stages)
        by_group: dict[str, list[dict]] = {}
        for j in jobs:
            by_group.setdefault(j.get("jobGroup"), []).append(j)
        stages_by_id: dict[int, list[dict]] = {}
        for s in stages:
            stages_by_id.setdefault(s["stageId"], []).append(s)
        for sp in self.spans:
            sp.counters = group_counters(by_group.get(self._group(sp), []), stages_by_id)

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def write(self, path, header: dict) -> None:
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for sp in self.spans:
                f.write(json.dumps(asdict(sp)) + "\n")
