"""Workloads of the benchmark: inputs made from a seed, the query list,
the expected result of every query, and the timed execution itself.

Every timed execution ends in one Spark action that returns the row
count and an order-independent checksum: the sum of Spark's
``xxhash64`` over the result columns. The expected pair comes from an
engine other than the one being timed:

* Yago queries: :func:`repro.core.reference.eval_crpq`, plain Python
  sets that share no code with the planner or the Spark backend;
* same-generation: depth and root of every node of the parent forest,
  computed with NumPy (two nodes are of the same generation exactly when
  they sit at the same depth ≥ 1 of the same tree).

:func:`xxhash64` reimplements Spark's ``XXH64.hashLong`` chaining for
int64 columns, so both sides hash the same way.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pandas as pd

# ---------------------------------------------------------------------------
# Checksum
# ---------------------------------------------------------------------------

_P1, _P2, _P3, _P4, _P5 = (
    np.uint64(p)
    for p in (
        0x9E3779B185EBCA87,
        0xC2B2AE3D27D4EB4F,
        0x165667B19E3779F9,
        0x85EBCA77C2B2AE63,
        0x27D4EB2F165667C5,
    )
)
SPARK_HASH_SEED = 42


def _rotl(x: np.ndarray, r: int) -> np.ndarray:
    return (x << np.uint64(r)) | (x >> np.uint64(64 - r))


def _hash_long(v: np.ndarray, seed: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        h = seed + _P5 + np.uint64(8)
        h ^= _rotl(v * _P2, 31) * _P1
        h = _rotl(h, 27) * _P1 + _P4
        h ^= h >> np.uint64(33)
        h *= _P2
        h ^= h >> np.uint64(29)
        h *= _P3
        h ^= h >> np.uint64(32)
    return h


def xxhash64(columns: list[np.ndarray]) -> np.ndarray:
    """Spark's ``xxhash64(c1, c2, …)`` over int64 columns, as int64."""
    h = np.full(len(columns[0]), SPARK_HASH_SEED, dtype=np.uint64)
    for c in columns:
        h = _hash_long(np.asarray(c, dtype=np.int64).view(np.uint64), h)
    return h.view(np.int64)


def checksum(columns: list[np.ndarray]) -> tuple[int, int]:
    """(rows, Σ xxhash64) of a relation given column-wise, exact."""
    n = len(columns[0])
    if n == 0:
        return 0, 0
    h = xxhash64(columns)
    # Split so the int64 sums cannot overflow for any realistic n.
    return n, int((h >> 32).sum()) * (1 << 32) + int((h & 0xFFFFFFFF).sum())


def spark_checksum(df, cols: list[str]) -> tuple[int, int]:
    """The one action of a timed execution: row count and Σ xxhash64."""
    from pyspark.sql import functions as F

    row = df.select(
        F.count(F.lit(1)), F.sum(F.xxhash64(*cols).cast("decimal(38,0)"))
    ).collect()[0]
    return int(row[0]), int(row[1] or 0)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class Loaded:
    """A workload's inputs as the Spark engine sees them."""

    env: dict  # relation name → cached DataFrame
    stats: object = None  # GraphStats, Yago only
    consts: dict | None = None


class Clock:
    """Accumulates named wall-clock intervals of one execution."""

    def __init__(self) -> None:
        self.split: dict[str, float] = {}

    def timed(self, name: str, fn: Callable, *args):
        t = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.split[name] = self.split.get(name, 0.0) + time.perf_counter() - t


@dataclass(frozen=True)
class YagoWorkload:
    """Paper Yago queries on ``yago_lite``, planned with ``strategy="auto"``."""

    name: str
    qids: tuple[str, ...]
    n_edges: dict[str, int]  # scale → graph size

    def expected(self, seed: int, scale: str) -> dict[str, tuple[int, int]]:
        from repro.core.paper_queries import YAGO_QUERIES
        from repro.core.reference import eval_crpq
        from repro.core.rpq import parse_query
        from repro.graphs.yago import yago_lite

        tri, consts = yago_lite(self.n_edges[scale], seed=seed)
        triples = list(zip(tri.src.tolist(), tri.label.tolist(), tri.dst.tolist()))
        out = {}
        for qid in self.qids:
            q = parse_query(YAGO_QUERIES[qid])
            rows = eval_crpq(q, triples, consts)
            arr = np.array(sorted(rows), dtype=np.int64).reshape(len(rows), len(q.head))
            out[qid] = checksum([arr[:, i] for i in range(len(q.head))])
        return out

    def load(self, spark, seed: int, scale: str) -> Loaded:
        from repro.bench.suites import yago_bundle
        from repro.core.query2mu import GRAPH

        _, consts, gdf, stats = yago_bundle(spark, self.n_edges[scale], seed=seed)
        return Loaded(env={GRAPH: gdf}, stats=stats, consts=consts)

    def run(self, spark, data: Loaded, qid: str, cfg, clock: Clock, trace) -> tuple[int, int]:
        from repro.core.compiler_spark import eval_spark
        from repro.core.paper_queries import YAGO_QUERIES
        from repro.core.planner import plan_crpq
        from repro.core.rpq import parse_query, var_col

        q = clock.timed("rpq.parse_s", parse_query, YAGO_QUERIES[qid])
        report = clock.timed("planner.plan_s", plan_crpq, q, data.stats, data.consts)
        trace.add("planner.candidates", len(report.candidates))
        df = clock.timed("compiler_spark.eval_s", eval_spark, report.term, data.env, spark, cfg)
        cols = [var_col(h) for h in q.head]
        return clock.timed("result.action_s", spark_checksum, df, cols)


@dataclass(frozen=True)
class SameGenWorkload:
    """The same-generation μ-RA term over a random tree's child → parent
    relation. No stable column, so ``auto`` runs P_gld.

    The tree's shape is fixed (``random_tree(n, seed=6)``); the run's
    seed relabels its nodes. The P_gld iteration count follows the tree's
    depth, which ranges from 11 to 19 over random 1,200-node trees, so a
    shape drawn per seed would swing the workload's cost with the seed.
    """

    name: str
    n_nodes: dict[str, int]  # scale → tree size
    qids: tuple[str, ...] = ("same-gen",)

    def relation(self, seed: int, scale: str) -> pd.DataFrame:
        from repro.graphs.generators import random_tree

        n = self.n_nodes[scale]
        tree = random_tree(n, seed=6)  # (parent, child)
        ids = np.random.default_rng(seed).permutation(n).astype(np.int64)
        return pd.DataFrame({"src": ids[tree.dst.to_numpy()], "dst": ids[tree.src.to_numpy()]})

    def expected(self, seed: int, scale: str) -> dict[str, tuple[int, int]]:
        rel = self.relation(seed, scale)
        child, parent = rel.src.to_numpy(), rel.dst.to_numpy()
        n = int(max(child.max(), parent.max())) + 1
        root = np.arange(n)
        root[child] = parent
        depth = (root != np.arange(n)).astype(np.int64)
        # Pointer jumping: depth and root of every node in O(n log n).
        while not np.array_equal(root[root], root):
            depth = depth + depth[root]
            root = root[root]
        nodes = np.flatnonzero(depth >= 1)
        key = root[nodes] * n + depth[nodes]
        order = np.argsort(key, kind="stable")
        nodes, key = nodes[order], key[order]
        groups = np.split(nodes, np.flatnonzero(np.diff(key)) + 1)
        xs = np.concatenate([np.repeat(g, len(g)) for g in groups])
        ys = np.concatenate([np.tile(g, len(g)) for g in groups])
        return {self.qids[0]: checksum([xs, ys])}

    def load(self, spark, seed: int, scale: str) -> Loaded:
        rdf = spark.createDataFrame(self.relation(seed, scale)).cache()
        rdf.count()
        return Loaded(env={"R": rdf})

    def run(self, spark, data: Loaded, qid: str, cfg, clock: Clock, trace) -> tuple[int, int]:
        from repro.core.compiler_spark import eval_spark
        from repro.core.queries import same_generation_term

        df = clock.timed(
            "compiler_spark.eval_s", eval_spark, same_generation_term("R"), data.env, spark, cfg
        )
        return clock.timed("result.action_s", spark_checksum, df, ["src", "dst"])


WORKLOADS = {
    w.name: w
    for w in (
        YagoWorkload(
            "yago-small", ("Q1", "Q8", "Q9", "Q19", "Q22", "Q24"), {"full": 30_000, "tiny": 1_500}
        ),
        YagoWorkload("yago-large", ("Q14", "Q15", "Q21"), {"full": 10_000, "tiny": 3_000}),
        SameGenWorkload("samegen-gld", {"full": 1_000, "tiny": 150}),
    )
}
