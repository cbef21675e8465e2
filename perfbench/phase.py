"""One measured phase of a benchmark run, in its own process: one Spark
driver, its JVM and its Python workers, started and stopped here.

``python3 perfbench/phase.py <spec.json>`` reads the spec that
``run.py`` wrote, sets up (session, inputs, warm passes), runs timed
passes over the workload's queries as a closed loop with one client
until ``seconds`` have passed, and writes ``<spec>.out.json``.
The Spark configuration (master, driver memory, event log) arrives in
``PYSPARK_SUBMIT_ARGS``, set by ``run.py`` before the JVM starts.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up time counts from process start

import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

from layers import PLAN_NAMES, Trace, driver_metrics, event_log_metrics  # noqa: E402
from procs import descendants, wait_gone  # noqa: E402
from workloads import WORKLOADS, Clock  # noqa: E402

# The first pass runs cold (codegen, JIT) at ~1.7x the steady time and
# the next one is still ~8 % slow, so two untimed passes precede timing.
WARM_PASSES = 2
# Wall-clock budget of one query execution; steady executions take < 10 s.
QUERY_BUDGET_S = 60.0


class Bench:
    """The Spark session and loaded inputs of one phase, with per-query
    failure bounding: a wall-clock budget enforced through the query's
    job group, and a session rebuild when the JVM is lost."""

    def __init__(self, spec: dict) -> None:
        self.spec = spec
        self.wl = WORKLOADS[spec["workload"]]
        self.expected = {q: tuple(v) for q, v in spec["expected"].items()}
        self.budget_s = QUERY_BUDGET_S
        self.trace = Trace()
        self.rebuilds = 0
        self.spark = None
        self.data = None

    # -- session -------------------------------------------------------------

    def start(self) -> dict[str, float]:
        """Start Spark, load the inputs and warm up; return the times."""
        from repro.bench.session import get_spark
        from repro.bench.suites import warmup_spark

        clock = Clock()
        self.spark = clock.timed("session_s", get_spark, "perfbench")
        spec = self.spec
        self.data = clock.timed("load_s", self.wl.load, self.spark, spec["seed"], spec["scale"])
        clock.timed("warmup_s", warmup_spark, self.spark)
        return clock.split

    def jvm_alive(self) -> bool:
        from py4j.protocol import Py4JError

        try:
            self.spark.sparkContext._jvm.java.lang.System.currentTimeMillis()
            return True
        except (Py4JError, OSError):
            return False

    def stop(self) -> None:
        """Stop Spark, end the JVM and wait for every process it started."""
        from py4j.protocol import Py4JError
        from pyspark import SparkContext
        from pyspark.sql import SparkSession

        gateway = SparkContext._gateway
        pids = descendants(os.getpid())
        if self.spark is not None:
            try:
                self.spark.stop()
            except (Py4JError, OSError):
                pass  # the JVM is already gone
            self.spark = None
        if gateway is not None:
            try:
                gateway.shutdown()
            except (Py4JError, OSError):
                pass
            proc = getattr(gateway, "proc", None)
            if proc is not None:
                proc.stdin.close()  # the gateway JVM exits when its stdin closes
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        wait_gone(pids, timeout=20)
        SparkContext._gateway = None
        SparkContext._jvm = None
        SparkContext._active_spark_context = None
        SparkSession._instantiatedSession = None
        SparkSession._activeSession = None

    def rebuild(self) -> None:
        print("perfbench: JVM lost, rebuilding the session", flush=True)
        self.stop()
        self.start()
        self.rebuilds += 1

    # -- one query -------------------------------------------------------------

    def execute(self, qid: str, group: str) -> dict:
        from py4j.protocol import Py4JError
        from repro.core.compiler_spark import FixConfig

        sc = self.spark.sparkContext

        def cancel() -> None:
            try:
                sc.cancelJobGroup(group)
            except (Py4JError, OSError):
                pass

        budget = self.budget_s
        done = threading.Event()

        def watchdog() -> None:
            # Cancelling a group stops only its running jobs, and P_gld's
            # driver loop submits more, so keep cancelling until it ends.
            if done.wait(budget):
                return
            while not done.is_set():
                cancel()
                done.wait(0.2)

        guard = threading.Thread(target=watchdog, daemon=True)
        cfg = FixConfig(strategy="auto")
        clock = Clock()
        why = ""
        t = time.perf_counter()
        guard.start()
        try:
            sc.setJobGroup(group, qid, interruptOnCancel=True)
            got = self.wl.run(self.spark, self.data, qid, cfg, clock, self.trace)
        except Exception as e:  # noqa: BLE001 - a failed query is a data point
            got = None
            why = f"{type(e).__name__}: {(str(e).strip().splitlines() or [''])[0][:200]}"
        finally:
            done.set()
            guard.join()
        secs = time.perf_counter() - t
        if secs > budget:
            why = f"budget: {secs:.1f} s > {budget:g} s" + (f" ({why})" if why else "")
        elif not why and got != self.expected[qid]:
            why = f"mismatch: (rows, checksum) {got} != expected {self.expected[qid]}"
        if why and not self.jvm_alive():
            self.rebuild()
            why += " [session rebuilt]"
        else:
            sc.setLocalProperty("spark.jobGroup.id", None)
        for s in cfg.chosen:
            self.trace.add(PLAN_NAMES.get(s, f"plans.plan.{s}"))
        for name, v in clock.split.items():
            self.trace.add(name, v)
        return {"qid": qid, "s": secs, "ok": not why, "why": why}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    bench = Bench(spec)
    try:
        setup_split = bench.start()
        setup_s, warm, passes, env = measure(bench, spec, setup_split)
    finally:
        bench.stop()
    if spec["traced"]:
        windows = {p["prefix"]: tuple(p["window_ms"]) for p in passes}
        per_pass = event_log_metrics(Path(spec["event_log_dir"]), windows, env["cores"])
        for p in passes:
            p["layers"].update(per_pass[p["prefix"]])

    result = {
        "setup_s": setup_s,
        "warm": warm,
        "passes": passes,
        "setup_split": setup_split,
        "rebuilds": bench.rebuilds,
        "env": env,
    }
    Path(spec_path + ".out.json").write_text(json.dumps(result))
    return 0


def measure(bench: Bench, spec: dict, setup_split: dict) -> tuple[float, list, list, dict]:
    """Warm passes, then timed passes until ``seconds`` have passed."""
    t = time.perf_counter()
    warm = [bench.execute(q, f"warm{i}:{q}") for i in range(WARM_PASSES) for q in bench.wl.qids]
    setup_s = time.perf_counter() - T_START
    setup_split["warm_passes_s"] = time.perf_counter() - t
    bench.trace.take()

    passes = []
    with bench.trace.hooks() if spec["traced"] else nullcontext():
        t0 = time.perf_counter()
        while not passes or time.perf_counter() - t0 < spec["seconds"]:
            prefix = f"t{len(passes)}:"
            start_ms, a = time.time() * 1e3, time.perf_counter()
            runs = [bench.execute(q, prefix + q) for q in bench.wl.qids]
            wall = time.perf_counter() - a
            passes.append(
                {
                    "prefix": prefix,
                    "batch_s": wall,
                    "window_ms": [start_ms, start_ms + wall * 1e3],
                    "runs": runs,
                    "layers": driver_metrics(bench.trace.take()),
                }
            )
            print(
                f"  pass {len(passes)}: {wall:.3f} s  "
                + "  ".join(f"{r['qid']}={r['s']:.3f}{'' if r['ok'] else '!'}" for r in runs),
                flush=True,
            )

    return setup_s, warm, passes, _environment(bench.spark)


def _environment(spark) -> dict:
    import duckdb
    import pandas
    import pyspark

    sc = spark.sparkContext
    conf = dict(sc.getConf().getAll())
    jvm = sc._jvm.java.lang.System
    return {
        "cores": sc.defaultParallelism,
        "master": sc.master,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "spark": spark.version,
        "pyspark": pyspark.__version__,
        "jdk": jvm.getProperty("java.version"),
        "pandas": pandas.__version__,
        "duckdb": duckdb.__version__,
        "driver_memory": conf.get("spark.driver.memory", "1g (default)"),
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
    }


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1]))
    except Exception:  # noqa: BLE001 - report, then fail the phase
        traceback.print_exc()
        sys.exit(1)
