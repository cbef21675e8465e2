"""Benchmark of the Dist-μ-RA pipeline: UCRPQ or μ-RA term → plan →
Spark fixpoint, on a ``local[nproc]`` Spark session.

Run from the repository root::

    python3 perfbench/run.py --workload yago-large --seed 1 --seconds 20 --trace 0

One client sends the workload's queries as a closed loop: each query
starts only after the previous one has returned its result. Every timed
execution is checked against a result computed by another engine (see
``workloads.py``); a mismatch fails the run. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` repeats the measurement with Spark's
event log and driver-side wrappers on and prints the per-layer metrics,
plus the tracing overhead. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. Metric
definitions and the layer → end-to-end predictions are in README.md.

Each phase runs in its own process (``phase.py``) with its own JVM, so
the sampled RSS is that of the Spark driver, the JVM and the Python
workers only. The command writes only under ``.perfbench_out/`` in the
checkout and removes it at the end.
"""
from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DRIVER_MEMORY = "1g"
RUN_LIMIT_S = 170  # a run must end within 180 s


class PhaseFailed(RuntimeError):
    pass


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--scale", choices=("full", "tiny"), default="full", help="tiny: smoke-test inputs"
    )
    return ap.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def phase_env(work: Path, traced: bool) -> dict[str, str]:
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # A fixed heap size (-Xms = driver memory) keeps the JVM's resident
    # size from depending on when the collector chose to grow the heap.
    java_opts = f"-Xms{DRIVER_MEMORY} -Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    submit = [
        "--master", f"local[{os.cpu_count()}]",
        "--driver-memory", DRIVER_MEMORY,
        "--driver-java-options", java_opts,
        "--conf", f"spark.local.dir={tmp}",
        "--conf", f"spark.sql.warehouse.dir={work / 'warehouse'}",
        "--conf", "spark.ui.showConsoleProgress=false",
    ]
    if traced:
        # Spark 4 writes zstd-compressed, rolling logs by default.
        submit += [
            "--conf", "spark.eventLog.enabled=true",
            "--conf", f"spark.eventLog.dir={(work / 'eventlog').as_uri()}",
            "--conf", "spark.eventLog.compress=false",
            "--conf", "spark.eventLog.rolling.enabled=false",
        ]
    return {
        **os.environ,
        # The Python workers import repro to run the mapInPandas loops.
        "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
        ),
        "PYSPARK_PYTHON": sys.executable,
        "PYSPARK_SUBMIT_ARGS": shlex.join(submit + ["pyspark-shell"]),
        "SPARK_LOCAL_DIRS": str(tmp),
        "TMPDIR": str(tmp),
    }


def run_phase(spec: dict, work: Path, deadline: float) -> dict:
    """Run phase.py in its own process tree; return its result plus the
    tree's peak RSS."""
    from procs import TreeSampler, wait_gone

    name = "traced" if spec["traced"] else "plain"
    spec_path = work / f"{name}.json"
    if spec["traced"]:
        spec["event_log_dir"] = str(work / "eventlog")
        (work / "eventlog").mkdir()
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "phase.py"), str(spec_path)],
        cwd=ROOT,
        env=phase_env(work, spec["traced"]),
    )
    with TreeSampler(proc.pid) as rss:
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            rc = "timeout"
    wait_gone(sorted(rss.seen - {proc.pid}), timeout=10)
    if rc != 0:
        raise PhaseFailed(f"{name} phase ended with {rc}")
    out = json.loads(Path(str(spec_path) + ".out.json").read_text())
    out["peak_rss_mb"] = rss.peak / 1e6
    return out


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def end_to_end(res: dict) -> dict[str, tuple[float, str]]:
    batch = [p["batch_s"] for p in res["passes"]]
    runs = [r for p in res["passes"] for r in p["runs"]]
    times = [r["s"] for r in runs if r["ok"]] or [r["s"] for r in runs]
    return {
        "batch_s": (statistics.median(batch), "s"),
        "query_s.p50": (statistics.median(times), "s"),
        "setup_s": (res["setup_s"], "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def per_layer(res: dict) -> dict[str, float]:
    """Mean over the traced passes of every per-pass layer metric."""
    passes = res["passes"]
    names = passes[0]["layers"].keys()
    return {n: sum(p["layers"][n] for p in passes) / len(passes) for n in names}


def print_phase(name: str, res: dict) -> None:
    passes = res["passes"]
    batch = [p["batch_s"] for p in passes]
    runs = [r for p in passes for r in p["runs"]]
    q1, q2, q3 = quartiles(batch)
    print(f"[{name}] batch_s median={q2:.4f} s q1={q1:.4f} q3={q3:.4f} n={len(batch)} passes")
    times = sorted(r["s"] for r in runs if r["ok"])
    if times:
        print(f"[{name}] query_s.p50={statistics.median(times):.4f} s n={len(times)} executions")
        if len(times) >= 100:  # p90 needs ≥ 10 executions beyond it
            print(f"[{name}] query_s.p90={statistics.quantiles(times, n=10)[8]:.4f} s")
        else:
            print(f"[{name}] query_s.p90 omitted: {len(times)} < 100 executions")
    failed = [r for r in runs if not r["ok"]]
    print(f"[{name}] fail_rate={len(failed) / len(runs):.4f} ratio ({len(failed)}/{len(runs)})")
    for qid in dict.fromkeys(r["qid"] for r in runs):
        mine = [r for r in runs if r["qid"] == qid]
        bad = [r for r in mine if not r["ok"]]
        ok_times = [r["s"] for r in mine if r["ok"]]
        med = f"{statistics.median(ok_times):.4f} s" if ok_times else "-"
        print(f"[{name}]   {qid:<9} n={len(mine)} median={med} failed={len(bad)}")
        for why in dict.fromkeys(r["why"] for r in bad):
            print(f"[{name}]     {why}")
    for r in res["warm"]:
        if not r["ok"]:
            print(f"[{name}]   warm-pass {r['qid']} failed: {r['why']}")
    split = "  ".join(f"{k}={v:.3f}" for k, v in res["setup_split"].items())
    print(f"[{name}] setup_s={res['setup_s']:.4f} s ({split})")
    print(f"[{name}] peak_rss_mb={res['peak_rss_mb']:.1f} MB")
    print(f"[{name}] session rebuilds after a lost JVM: {res['rebuilds']}")


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    args = parse_args(argv)
    from layers import LAYER_UNITS
    from workloads import WORKLOADS

    deadline = time.monotonic() + RUN_LIMIT_S
    wl = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_out" / f"{wl.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        t = time.perf_counter()
        expected = wl.expected(args.seed, args.scale)
        expected_s = time.perf_counter() - t
        spec = {
            "workload": wl.name,
            "seed": args.seed,
            "scale": args.scale,
            "seconds": args.seconds,
            "expected": expected,
            "traced": False,
        }
        phases = {"plain": run_phase(dict(spec), work, deadline)}
        if args.trace:
            phases["traced"] = run_phase(dict(spec, traced=True), work, deadline)
    except PhaseFailed as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there

    env = {
        **phases["plain"]["env"],
        "workload": wl.name,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "commit": git_commit(),
        "expected_s": round(expected_s, 3),
    }
    print("perfbench env " + json.dumps(env))
    for name, res in phases.items():
        print_phase(name, res)

    runs = [r for res in phases.values() for p in res["passes"] for r in p["runs"]]
    warm = [r for res in phases.values() for r in res["warm"]]
    mismatches = [r for r in runs + warm if r["why"].startswith("mismatch")]
    if args.trace:
        layers = per_layer(phases["traced"])
        traced, plain = (end_to_end(phases[k])["batch_s"][0] for k in ("traced", "plain"))
        layers["trace.overhead_s"] = traced - plain
        for n, v in layers.items():
            print(f"[traced] {n} = {v:.6g}")
        metrics = {n: {"value": v, "unit": LAYER_UNITS[n]} for n, v in layers.items()}
    else:
        metrics = {n: {"value": v, "unit": u} for n, (v, u) in end_to_end(phases["plain"]).items()}
        for n, m in metrics.items():
            print(f"{n} = {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": not mismatches,
                "attempted": len(runs),
                "failed": sum(not r["ok"] for r in runs),
                "metrics": metrics,
            }
        )
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
