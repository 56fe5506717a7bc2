"""Repository benchmark: Distributed NE and the apps path on local Spark.

    python3 perfbench/run.py --workload dne-road --seed 1 --seconds 10 --trace 0

Closed loop, one client: this process drives ``local[4]`` and starts each
timed pass after the previous one returns, until ``--seconds`` have passed
(at least one pass). Every run is a fresh process and JVM, with no discarded
warm-up call (see README.md). Set-up (session start, then input generation
with ``cache()``/``count()``, repeated and reported as a median) and the
correctness gate run outside the timed passes.

The last line of standard output is one JSON object: ``attempted`` counts
the timed passes, ``failed`` those failing the gate, and ``metrics`` holds
the end-to-end metrics of BENCHMARK.json (``--trace 0``) or its per-layer
metrics, from spans and Spark counters (``--trace 1``). The line before it
records the environment. The spans go to ``.perfbench/trace-*.jsonl``.
"""
import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # write nothing outside the checkout

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 3
CORES = 4  # local[4]
DNE = "core.distributed_ne"


def _median(values) -> float:
    return statistics.median(values) if values else 0


def per_layer_metrics(tracer, setup_spans, passes, read_s: float) -> dict:
    """Per-layer metrics from the spans; 0 for layers the workload skips.

    Each layer's wall time and counters are summed over its calls in a
    pass, then the median is taken over passes (over set-up repeats for
    ``graphgen``).
    """
    from tracing import COUNTERS

    per_pass = []
    for span, out in passes:
        totals = dict(out["layer"])
        for child in tracer.children(span):
            for key, value in (("wall_s", child.wall_s), *child.counters.items()):
                name = f"{child.name}.{key}"
                totals[name] = totals.get(name, 0) + value
        totals["trace.run_s"] = span.wall_s
        totals["trace.outside_s"] = span.wall_s - sum(
            c.wall_s for c in tracer.children(span)
        )
        per_pass.append(totals)
    names = {name for totals in per_pass for name in totals}
    m = {name: _median([t.get(name, 0) for t in per_pass]) for name in names}
    for key in ("wall_s", *COUNTERS):
        m[f"graphgen.{key}"] = _median(
            [s.wall_s if key == "wall_s" else s.counters[key] for s in setup_spans]
        )
    rounds, wall = m.get(f"{DNE}.rounds", 0), m.get(f"{DNE}.wall_s", 0)
    m[f"{DNE}.jobs_per_round"] = m.get(f"{DNE}.jobs", 0) / rounds if rounds else 0
    m[f"{DNE}.s_per_round"] = wall / rounds if rounds else 0
    m[f"{DNE}.busy_frac"] = m.get(f"{DNE}.busy_s", 0) / (wall * CORES) if wall else 0
    m["trace.read_s"] = read_s
    return m


def report(specs: list[dict], values: dict) -> dict:
    """The metrics named in ``specs``, with their units."""
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: program sources not found under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(src))

    import sparkenv

    sparkenv.prepare(WORK)
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    seed = args.seed
    tracer = Tracer(f"{wl.name}/{seed}/{args.trace}", counters=bool(args.trace))

    with tracer.span("session") as session:
        spark = sparkenv.start()
    tracer.spark = spark
    try:
        setup_spans, edges = [], None
        for _ in range(SETUP_REPEATS):
            if edges is not None:
                edges.unpersist(blocking=True)
            with tracer.span("graphgen") as sp:
                edges = wl.graph(spark, seed).cache()
                n_edges = edges.count()
            setup_spans.append(sp)
        setup_s = session.wall_s + _median([s.wall_s for s in setup_spans])

        with tracer.span("oracle"):
            edge_list = [(r["src"], r["dst"]) for r in edges.collect()]
            oracle = wl.oracle(edge_list, seed)

        passes = []
        t0 = time.perf_counter()
        while not passes or time.perf_counter() - t0 < args.seconds:
            with tracer.span("pass") as sp:
                out = wl.run(spark, tracer, edges, seed)
            passes.append((sp, out))
        peak_rss_mb = sparkenv.peak_rss_mb(spark)

        with tracer.span("check"):
            failures = [wl.check(out, edges, edge_list, oracle) for _, out in passes]
        t_read = time.perf_counter()
        tracer.read_counters()
        read_s = time.perf_counter() - t_read
        env = sparkenv.environment(spark, ROOT, seed)
    finally:
        sparkenv.stop(spark)

    env.update(workload=wl.name, edges=n_edges, passes=len(passes), trace=args.trace)
    tracer.write(WORK / f"trace-{wl.name}-{seed}-{args.trace}.jsonl", env)
    for i, f in enumerate(failures):
        for msg in f:
            print(f"perfbench: pass {i} failed: {msg}", file=sys.stderr)
    attempted, failed = len(passes), sum(1 for f in failures if f)
    if args.trace:
        values = {s["name"]: 0 for s in spec["per_layer"]}  # layers not called
        values.update(per_layer_metrics(tracer, setup_spans, passes, read_s))
        values["session.start_s"] = session.wall_s
        values["graphgen.edges"] = n_edges
        metrics = report(spec["per_layer"], values)
    else:
        first = passes[0][1]["quality"]  # deterministic: every pass is gated
        metrics = report(spec["end_to_end"], {
            "setup_s": setup_s,
            "run_s": _median([sp.wall_s for sp, _ in passes]),
            "rf": first.rf,
            "eb": first.eb,
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": (attempted - failed) / attempted,
        })
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
