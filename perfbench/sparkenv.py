"""The benchmark's Spark session: fixed settings, checkout-local files, clean exit.

The session comes from ``repro.session.build_session``, the builder the
``jobs/`` scripts use, driven through its environment variables. Two
settings it does not cover go into a ``spark-defaults.conf`` that only the
benchmark reads: status-store retention high enough that no job or stage
record is dropped, and a JVM temp dir inside the checkout.
"""
import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

MASTER = "local[4]"
DRIVER_MEM = "1g"
SHUFFLE_PARTITIONS = "16"  # build_session's default; the test session uses 64
RETAINED = 1_000_000  # spark.ui.retainedJobs / retainedStages (default 1000)


def prepare(work: Path) -> None:
    """Point every file Spark and Python write at ``work``; fix the settings.

    Must run before pyspark starts its JVM.
    """
    conf, tmp, local = work / "conf", work / "tmp", work / "spark-local"
    for d in (conf, tmp, local):
        d.mkdir(parents=True, exist_ok=True)
    (conf / "spark-defaults.conf").write_text(
        f"spark.ui.retainedJobs {RETAINED}\n"
        f"spark.ui.retainedStages {RETAINED}\n"
        f"spark.driver.extraJavaOptions -Djava.io.tmpdir={tmp} -XX:-UsePerfData\n"
        f"spark.sql.warehouse.dir {work / 'warehouse'}\n"
    )
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)  # let build_session set it
    os.environ.update(
        SPARK_CONF_DIR=str(conf),
        SPARK_LOCAL_DIRS=str(local),
        TMPDIR=str(tmp),
        SPARK_MASTER=MASTER,
        SPARK_DRIVER_MEM=DRIVER_MEM,
        SPARK_SHUFFLE_PARTITIONS=SHUFFLE_PARTITIONS,
        PYSPARK_PYTHON=sys.executable,
    )
    tempfile.tempdir = str(tmp)


def start():
    from repro.session import build_session

    return build_session("perfbench")


def stop(spark) -> None:
    """Stop the session, then the JVM it runs in, and wait for it to exit."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = gateway.proc
    gateway.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    proc.stdin.close()  # the gateway server exits on EOF
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def _vm_hwm_mb(pid) -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def peak_rss_mb(spark) -> float:
    """Peak resident memory of the driver JVM plus this Python process."""
    jvm_pid = spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid()
    return _vm_hwm_mb(jvm_pid) + _vm_hwm_mb("self")


def source_digest(src: Path) -> str:
    """sha256 over the program's sources: identifies the code in a checkout
    that is not a git repository."""
    h = hashlib.sha256()
    for p in sorted(src.rglob("*.py")):
        h.update(p.relative_to(src).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(spark, root: Path, seed: int) -> dict:
    import pyspark

    sc = spark.sparkContext
    return {
        "commit": git_commit(root),
        "src_sha256": source_digest(root / "src"),
        "nproc": os.cpu_count(),
        "master": sc.master,
        "default_parallelism": sc.defaultParallelism,
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "driver_memory": sc.getConf().get("spark.driver.memory"),
        "retained_jobs": sc.getConf().get("spark.ui.retainedJobs"),
        "pyspark": pyspark.__version__,
        "python": platform.python_version(),
        "jdk": sc._jvm.java.lang.System.getProperty("java.version"),
        "seed": seed,
    }
