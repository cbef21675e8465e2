"""Distributed physical plans for the fixpoint operator (paper §IV).

Two plan families:

* **P_gld** — *global loop on the driver*: every iteration of Algorithm 1
  runs as distributed DataFrame operations; the distinct-union costs (at
  least) one shuffle per iteration.

* **P_plw** — *parallel local loops on the workers*: justified by
  Proposition 3, μ(X = R₁∪R₂∪φ) = μ(X = R₁∪φ) ∪ μ(X = R₂∪φ). The
  constant part is hash-repartitioned by a *stable column* (see
  :mod:`repro.core.stabilizer`), the non-recursive relations of φ are
  broadcast, and each partition runs its own semi-naive loop with **no
  data crossing the cluster during the recursion** and **no final
  distinct** (the stable-column partitioning makes partition results
  pairwise disjoint — proof in paper §IV-A2).

  Two implementations, matching the paper's Fig. 7 comparison:
  ``plw_s`` (partition-local loop in pandas, our SetRDD analogue) and
  ``plw_pg`` (partition-local loop in an embedded DuckDB instance — the
  per-worker PostgreSQL substitute, DESIGN.md §4).

Plan selection (``strategy="auto"``) is the paper's rule §IV-B-c:
stable column exists → repartition by it and run P_plw, else P_gld.
"""
from __future__ import annotations

import itertools
from typing import Iterator, Mapping

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from .compiler_pandas import seminaive_loop
from .compiler_spark import FixConfig, eval_spark
from .fcond import check_fcond, constant_variable_split, seminaive, union_branches, union_of
from .stabilizer import stable_columns
from .terms import Fix, Rel, Term, free_rels, is_constant_in, map_children

_CONST_PREFIX = "__bc_"

# Above this many broadcast rows, P_plw falls back to P_gld (a local[*]
# driver cannot collect/broadcast arbitrarily large step relations).
BROADCAST_ROW_LIMIT = 4_000_000


def extract_constants(phi: Term, var: str) -> tuple[Term, dict[str, Term]]:
    """Replace every maximal subterm of φ constant in ``var`` by a fresh
    relation name.

    The physical plans evaluate those subterms once (with Spark, so
    nested fixpoints recurse through the planner) and broadcast them to
    the partition-local loops — the paper's "all relations in the
    variable part of the fixpoint apart from the recursive relation are
    broadcasted".
    """
    counter = itertools.count()
    mapping: dict[str, Term] = {}

    def rec(t: Term) -> Term:
        if is_constant_in(t, var):
            # Keep bare Rel leaves as-is: they are already named inputs.
            if isinstance(t, Rel):
                return t
            name = f"{_CONST_PREFIX}{next(counter)}"
            mapping[name] = t
            return Rel(name)
        return map_children(t, rec)

    return rec(phi), mapping


def execute_fixpoint(
    fix: Fix,
    env: Mapping[str, DataFrame],
    spark: SparkSession,
    cfg: FixConfig,
) -> DataFrame:
    """Entry point used by the Spark compiler for μ(X = Ψ). φ's constant
    subterms are evaluated here, once, whichever plan runs."""
    if cfg.strategy not in ("auto", "gld", "plw_s", "plw_pg"):
        raise ValueError(f"unknown fixpoint strategy {cfg.strategy!r}")
    check_fcond(fix)
    const, phi = constant_variable_split(fix)
    seeds = eval_spark(const, env, spark, cfg).dropDuplicates()
    phi2, consts = extract_constants(phi, fix.var)
    cenv = dict(env)
    for name, t in consts.items():
        cenv[name] = eval_spark(t, env, spark, cfg).localCheckpoint()
    branches = union_branches(phi2)

    env_schemas = {k: frozenset(df.columns) for k, df in env.items()}
    x_schema = frozenset(seeds.columns)
    stable = stable_columns(phi, fix.var, env_schemas, x_schema)

    strategy = cfg.strategy
    if strategy == "auto":
        strategy = "plw_s" if stable else "gld"
    if strategy in ("plw_s", "plw_pg") and not stable:
        # Forced P_plw without a stable column would lose the
        # disjointness guarantee; the paper never does this — fall back.
        strategy = "gld"
    cfg.chosen.append(strategy)

    if strategy == "gld":
        return _run_gld(branches, fix.var, seeds, cenv, spark, cfg)
    return _run_plw(
        branches, fix.var, seeds, sorted(stable), cenv, spark, cfg, engine=strategy
    )


# ---------------------------------------------------------------------------
# P_gld
# ---------------------------------------------------------------------------


def _eval_phi_distributed(
    phi_branches: list[Term],
    var: str,
    delta: DataFrame,
    env: Mapping[str, DataFrame],
    spark: SparkSession,
    cfg: FixConfig,
) -> DataFrame:
    out: DataFrame | None = None
    bound = {**env, var: delta}
    for b in phi_branches:
        d = eval_spark(b, bound, spark, cfg)
        out = d if out is None else out.unionByName(d)
    assert out is not None
    return out


def _run_gld(
    branches: list[Term],
    var: str,
    seeds: DataFrame,
    cenv: Mapping[str, DataFrame],
    spark: SparkSession,
    cfg: FixConfig,
) -> DataFrame:
    """Driver loop; distributed ∪/∖ with a distinct per iteration.
    ``cenv`` binds φ's constant relations, materialized once."""
    cols = list(seeds.columns)

    def step(delta: DataFrame, x: DataFrame) -> DataFrame:
        return (
            _eval_phi_distributed(branches, var, delta, cenv, spark, cfg)
            .dropDuplicates()
            .join(x, on=cols, how="left_anti")
            .localCheckpoint()
        )

    def add(x: DataFrame, delta: DataFrame) -> DataFrame:
        # delta is distinct and disjoint from x, so the union stays a set
        # without a further distinct.
        return x.unionByName(delta).localCheckpoint()

    return seminaive(seeds.localCheckpoint(), step, DataFrame.count, add, cfg.row_cap)


# ---------------------------------------------------------------------------
# P_plw (both implementations)
# ---------------------------------------------------------------------------


def _run_plw(
    branches: list[Term],
    var: str,
    seeds: DataFrame,
    part_cols: list[str],
    cenv: Mapping[str, DataFrame],
    spark: SparkSession,
    cfg: FixConfig,
    engine: str,
) -> DataFrame:
    # Broadcast the relations φ' reads besides X. If the broadcast
    # volume is too large for the driver/workers, fall back to P_gld
    # (distributed shuffle joins) — the same family of decisions a join
    # planner makes between broadcast and shuffle joins.
    phi_term = union_of(branches)
    const_dfs = {name: cenv[name] for name in free_rels(phi_term)}
    limit = BROADCAST_ROW_LIMIT if cfg.row_cap is None else min(cfg.row_cap, BROADCAST_ROW_LIMIT)
    total_const_rows = sum(df.count() for df in const_dfs.values())
    if total_const_rows > limit:
        # Nested fixpoints in φ's constants ran before execute_fixpoint
        # appended this fixpoint's entry, so the last entry is its own.
        cfg.chosen[-1] = "gld(broadcast-fallback)"
        return _run_gld(branches, var, seeds, cenv, spark, cfg)
    const_pdfs: dict[str, pd.DataFrame] = {
        name: df.toPandas() for name, df in const_dfs.items()
    }
    bc = spark.sparkContext.broadcast(const_pdfs)

    n = cfg.num_partitions or spark.sparkContext.defaultParallelism
    # Hash-repartition the constant part by the stable column(s):
    # Proposition 3 + stability ⇒ partition-local fixpoints are disjoint.
    seeds = seeds.repartition(n, *part_cols)
    out_schema = seeds.schema
    out_cols = [f.name for f in out_schema.fields]
    row_cap = cfg.row_cap

    def run_local_loop(local_seeds: pd.DataFrame) -> pd.DataFrame:
        if engine == "plw_s":
            return seminaive_loop(phi_term, var, local_seeds, bc.value, row_cap)
        from .compiler_sql import DuckdbEvaluator

        ev = DuckdbEvaluator({**bc.value, "__seeds": local_seeds}, row_cap=row_cap)
        try:
            xt = ev.run_seminaive(phi_term, var, "__seeds")
            return ev.con.execute(f"SELECT * FROM {xt}").fetchdf()
        finally:
            ev.con.close()

    def run_partition(it: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        parts = list(it)
        if not parts:
            return
        local_seeds = pd.concat(parts, ignore_index=True)
        if local_seeds.empty:
            return
        yield run_local_loop(local_seeds)[out_cols]

    return seeds.mapInPandas(run_partition, schema=out_schema)

