"""Per-layer measurement for the traced run, taken from outside the
program: driver-side wrappers around the layers' functions, and Spark's
own event log.

Layers, in pipeline order: ``rpq`` (parse), ``planner`` (Query2Mu,
``rewriter``, ``cost``), ``compiler_spark`` (μ-RA → DataFrame),
``plans`` (fixpoint dispatch, the P_gld driver loop, P_plw's
repartition + ``mapInPandas``), ``spark`` (the jobs those cause) and
``local`` (the per-partition semi-naive loops inside the Python
workers).
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from pathlib import Path

PLAN_NAMES = {
    "gld": "plans.plan.gld",
    "plw_s": "plans.plan.plw_s",
    "plw_pg": "plans.plan.plw_pg",
    "gld(broadcast-fallback)": "plans.plan.gld_fallback",
}

# Per-layer metric → unit. Driver-side counters come from the wrappers
# and the benchmark's own timers; a traced pass reports them also when
# they stay 0.
DRIVER_METRICS = {
    "rpq.parse_s": "s",
    "planner.plan_s": "s",
    "planner.candidates": "count",
    "rewriter.rewrite_s": "s",
    "rewriter.calls": "count",
    "cost.cost_s": "s",
    "cost.calls": "count",
    "compiler_spark.eval_s": "s",
    "result.action_s": "s",
    "plans.fixpoints": "count",
    **{name: "count" for name in PLAN_NAMES.values()},
    "plans.fix_s": "s",
    "plans.gld_iterations": "count",
    "plans.gld_iter_s": "s",
}

SPARK_METRICS = {
    "spark.jobs": "count",
    "spark.stages": "count",
    "spark.tasks": "count",
    "spark.executor_run_s": "s",
    "spark.executor_cpu_s": "s",
    "spark.gc_s": "s",
    "spark.shuffle_write_bytes": "bytes",
    "spark.shuffle_read_bytes": "bytes",
    "spark.busy_ratio": "ratio",
    "spark.no_job_s": "s",
}

# mapInPandas SQL metric name → (local metric, scale to its unit).
_PYTHON_SQL_METRICS = {
    "time to run Python workers": ("local.python_run_s", 1e-3),
    "time to start Python workers": ("local.python_start_s", 1e-3),
    "data sent to Python workers": ("local.bytes_to_python", 1.0),
    "data returned from Python workers": ("local.bytes_from_python", 1.0),
    "number of output rows": ("local.rows_out", 1.0),
}
LOCAL_METRICS = {
    "local.python_run_s": "s",
    "local.python_start_s": "s",
    "local.bytes_to_python": "bytes",
    "local.bytes_from_python": "bytes",
    "local.rows_out": "count",
    "local.partitions": "count",
    "local.max_task_s": "s",
    "local.skew": "ratio",
}

LAYER_UNITS = {
    **DRIVER_METRICS,
    **SPARK_METRICS,
    **LOCAL_METRICS,
    "trace.overhead_s": "s",  # traced batch_s − untraced batch_s
}


class Trace:
    """Named counters of one pass; :meth:`hooks` feeds them by wrapping
    the layers' functions for as long as the context is open."""

    def __init__(self) -> None:
        self.counts: dict[str, float] = defaultdict(float)

    def add(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    def take(self) -> dict[str, float]:
        out = dict(self.counts)
        self.counts.clear()
        return out

    def _wrap(self, fn, time_name: str | None, count_name: str | None):
        """Count every call; time only the outermost one, so recursion
        through nested fixpoints is not counted twice."""
        depth = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nonlocal depth
            if count_name:
                self.add(count_name)
            depth += 1
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                depth -= 1
                if time_name and depth == 0:
                    self.add(time_name, time.perf_counter() - t)

        return wrapper

    @contextmanager
    def hooks(self):
        """Wrap the driver-side layer functions.

        A hook whose target no longer exists is skipped, so its counter
        reads 0 instead of the benchmark failing.
        """
        from repro.core import cost, planner, plans

        targets = (
            (planner, "rewrite", "rewriter.rewrite_s", "rewriter.calls"),
            (cost.CostModel, "cost", "cost.cost_s", "cost.calls"),
            (plans, "execute_fixpoint", "plans.fix_s", "plans.fixpoints"),
            (plans, "_run_gld", "plans.gld_s", None),
            # P_gld evaluates φ once per iteration of its driver loop.
            (plans, "_eval_phi_distributed", None, "plans.gld_iterations"),
        )
        with ExitStack() as stack:
            for owner, attr, time_name, count_name in targets:
                orig = owner.__dict__.get(attr)
                if orig is None:
                    print(f"perfbench: no hook target {owner.__name__}.{attr}", flush=True)
                    continue
                setattr(owner, attr, self._wrap(orig, time_name, count_name))
                stack.callback(setattr, owner, attr, orig)
            yield


def driver_metrics(counts: dict[str, float]) -> dict[str, float]:
    """Complete one pass's driver counters with derived values."""
    out = {name: counts.get(name, 0.0) for name in DRIVER_METRICS}
    iters = counts.get("plans.gld_iterations", 0.0)
    out["plans.gld_iter_s"] = counts.get("plans.gld_s", 0.0) / iters if iters else 0.0
    return out


# ---------------------------------------------------------------------------
# Spark event log
# ---------------------------------------------------------------------------


def _plan_nodes(info: dict):
    yield info
    for child in info.get("children", ()):
        yield from _plan_nodes(child)


def _covered_ms(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def event_log_metrics(
    log_dir: Path, windows: dict[str, tuple[float, float]], cores: int
) -> dict[str, dict[str, float]]:
    """Spark and local metrics per pass, from an uncompressed event log.

    ``windows`` maps a pass's job-group prefix to its wall-clock window
    (epoch ms); a job belongs to the pass whose prefix its group has.
    """
    m = {p: defaultdict(float) for p in windows}
    mip_task_ms: dict[str, list[float]] = {p: [] for p in windows}
    spans: dict[str, list[tuple[float, float]]] = {p: [] for p in windows}

    def pass_of(props: dict) -> str | None:
        group = (props or {}).get("spark.jobGroup.id") or ""
        return next((p for p in windows if group.startswith(p)), None)

    # One log per application: a session rebuilt after a lost JVM adds
    # one, and its job, stage and accumulator ids start again from 0.
    for log in sorted(p for p in log_dir.iterdir() if p.is_file()):
        stage_pass: dict[int, str] = {}
        jobs: dict[int, list] = {}  # job id → [pass, submitted ms, completed ms]
        mip_accs: dict[int, str] = {}  # mapInPandas accumulator id → SQL metric name
        with open(log) as f:
            for line in f:
                try:
                    e = json.loads(line)
                except json.JSONDecodeError:
                    continue  # the last line of a log whose JVM was killed
                ev = e["Event"]
                if ev.endswith(("SQLExecutionStart", "SQLAdaptiveExecutionUpdate")):
                    for node in _plan_nodes(e["sparkPlanInfo"]):
                        if node["nodeName"] == "MapInPandas":
                            for metric in node["metrics"]:
                                mip_accs[metric["accumulatorId"]] = metric["name"]
                elif ev == "SparkListenerJobStart":
                    p = pass_of(e.get("Properties"))
                    if p is not None:
                        jobs[e["Job ID"]] = [p, e["Submission Time"], e["Submission Time"]]
                        m[p]["spark.jobs"] += 1
                elif ev == "SparkListenerJobEnd" and e["Job ID"] in jobs:
                    jobs[e["Job ID"]][2] = e["Completion Time"]
                elif ev == "SparkListenerStageSubmitted":
                    p = pass_of(e.get("Properties"))
                    if p is not None:
                        stage_pass[e["Stage Info"]["Stage ID"]] = p
                elif ev == "SparkListenerStageCompleted":
                    p = stage_pass.get(e["Stage Info"]["Stage ID"])
                    if p is not None:
                        m[p]["spark.stages"] += 1
                elif ev == "SparkListenerTaskEnd":
                    p = stage_pass.get(e["Stage ID"])
                    if p is None:
                        continue
                    tm = e.get("Task Metrics") or {}
                    run_ms = tm.get("Executor Run Time", 0)
                    mp = m[p]
                    mp["spark.tasks"] += 1
                    mp["spark.executor_run_s"] += run_ms / 1e3
                    mp["spark.executor_cpu_s"] += tm.get("Executor CPU Time", 0) / 1e9
                    mp["spark.gc_s"] += tm.get("JVM GC Time", 0) / 1e3
                    sw = tm.get("Shuffle Write Metrics") or {}
                    sr = tm.get("Shuffle Read Metrics") or {}
                    mp["spark.shuffle_write_bytes"] += sw.get("Shuffle Bytes Written", 0)
                    mp["spark.shuffle_read_bytes"] += sr.get("Remote Bytes Read", 0) + sr.get(
                        "Local Bytes Read", 0
                    )
                    is_mip = False
                    for acc in e["Task Info"].get("Accumulables", ()):
                        name = mip_accs.get(acc.get("ID"))
                        if name is None:
                            continue
                        is_mip = True
                        if name in _PYTHON_SQL_METRICS:
                            metric, scale = _PYTHON_SQL_METRICS[name]
                            mp[metric] += float(acc.get("Update") or 0) * scale
                    if is_mip:
                        mip_task_ms[p].append(run_ms)
        for jp, a, b in jobs.values():
            spans[jp].append((a, b))

    out = {}
    for p, (t0, t1) in windows.items():
        mp = m[p]
        wall_ms = max(t1 - t0, 1.0)
        clipped = [(max(a, t0), min(b, t1)) for a, b in spans[p]]
        tasks = mip_task_ms[p]
        row = {name: float(mp.get(name, 0.0)) for name in (*SPARK_METRICS, *LOCAL_METRICS)}
        row["spark.busy_ratio"] = mp["spark.executor_run_s"] * 1e3 / (wall_ms * cores)
        row["spark.no_job_s"] = (wall_ms - _covered_ms([c for c in clipped if c[1] > c[0]])) / 1e3
        row["local.partitions"] = float(len(tasks))
        row["local.max_task_s"] = max(tasks, default=0.0) / 1e3
        row["local.skew"] = max(tasks) * len(tasks) / sum(tasks) if tasks and sum(tasks) else 0.0
        out[p] = row
    return out
