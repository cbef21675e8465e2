"""Tiny-scale self-test of the benchmark.

    python3 perfbench/smoke_test.py

* Every workload, untraced and traced, checks all its results and emits
  exactly the metrics that BENCHMARK.json names, with their units.
* A query over its budget fails through ``cancelJobGroup`` and the next
  one still runs; a killed JVM is replaced by a rebuilt session.
* Without the program's sources the command fails without a result.
"""
from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]


def bench_command(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def check_metrics() -> None:
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in WORKLOADS:
        for trace, names in wanted.items():
            out = bench_command(
                "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--scale", "tiny",
            )
            assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
            res = json.loads(out.stdout.strip().splitlines()[-1])
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            assert got == names, (workload, trace, set(got) ^ set(names))
            print(f"ok  {workload} --trace {trace}: {len(got)} metrics", flush=True)


def check_failure_bounding() -> None:
    import run
    from layers import event_log_metrics
    from phase import QUERY_BUDGET_S, Bench
    from pyspark import SparkContext
    from workloads import WORKLOADS

    wl = WORKLOADS["samegen-gld"]
    work = ROOT / ".perfbench_out" / f"smoke-{os.getpid()}"
    os.environ.update(run.phase_env(work, traced=True))
    (work / "eventlog").mkdir()
    spec = {
        "workload": wl.name,
        "seed": 1,
        "scale": "tiny",
        "expected": wl.expected(1, "tiny"),
    }
    bench = Bench(spec)
    try:
        bench.start()
        assert bench.execute("same-gen", "ok")["ok"]
        bench.budget_s = 0.3
        late = bench.execute("same-gen", "late")
        assert not late["ok"] and late["s"] < 30, late
        bench.budget_s = QUERY_BUDGET_S
        assert bench.execute("same-gen", "after-late")["ok"]
        os.kill(SparkContext._gateway.proc.pid, signal.SIGKILL)
        lost = bench.execute("same-gen", "lost")
        assert not lost["ok"] and "session rebuilt" in lost["why"], lost
        assert bench.rebuilds == 1
        assert bench.execute("same-gen", "after-rebuild")["ok"]
        bench.stop()
        # The rebuilt session writes a second event log; both are read.
        always = (0.0, float("inf"))
        per = event_log_metrics(work / "eventlog", {"ok": always, "after-rebuild": always}, 1)
        assert per["ok"]["spark.jobs"] > 0 and per["after-rebuild"]["spark.jobs"] > 0, per
    finally:
        bench.stop()
        shutil.rmtree(work, ignore_errors=True)
    print(f"ok  budget overrun: {late['why']}", flush=True)
    print("ok  lost JVM: session rebuilt, both event logs read", flush=True)


def check_without_sources() -> None:
    bare = ROOT / ".perfbench_out" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        out = bench_command(
            "--workload", "samegen-gld", "--seed", "1", "--seconds", "1", "--trace", "0",
            cwd=bare,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0 and '"metrics"' not in out.stdout, out
    print("ok  without sources: exit", out.returncode, flush=True)


def main() -> int:
    check_without_sources()
    check_failure_bounding()
    check_metrics()
    out_dir = ROOT / ".perfbench_out"
    if out_dir.is_dir() and not any(out_dir.iterdir()):
        out_dir.rmdir()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
