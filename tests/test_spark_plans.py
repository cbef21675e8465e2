"""Spark physical plans for the fixpoint operator (paper §IV): P_gld,
P_plw^s (SetRDD-style pandas local loops), P_plw^pg (per-partition
DuckDB), the auto selection rule, and the P_plw disjointness guarantee."""
import pandas as pd
import pytest

import repro.core.plans as plans
from repro.core.compiler_pandas import CapacityError, eval_pandas
from repro.core.compiler_spark import FixConfig, eval_spark
from repro.core.compiler_sql import eval_duckdb
from repro.core.plans import extract_constants
from repro.core.terms import (
    AntiProject,
    EqConst,
    Filter,
    Fix,
    Rel,
    Union_,
    Var,
    compose,
    free_rels,
)
from repro.graphs.generators import erdos_renyi
from tests.conftest import FIG2_FIXPOINT


def right_tc(seed="S", step="E"):
    return Fix("X", Union_(Rel(seed), compose(Var("X"), Rel(step))))


def pairs(df):
    return sorted(map(tuple, df[["src", "dst"]].values.tolist()))


@pytest.mark.parametrize("strategy", ["gld", "plw_s", "plw_pg", "auto"])
def test_fig2_fixpoint_all_strategies(spark, fig2_e, fig2_s, strategy):
    env = {"S": spark.createDataFrame(fig2_s), "E": spark.createDataFrame(fig2_e)}
    cfg = FixConfig(strategy=strategy)
    out = eval_spark(right_tc(), env, spark, cfg).toPandas()
    assert pairs(out) == FIG2_FIXPOINT


def test_auto_selects_plw_on_stable_column(spark, fig2_e, fig2_s):
    env = {"S": spark.createDataFrame(fig2_s), "E": spark.createDataFrame(fig2_e)}
    cfg = FixConfig(strategy="auto")
    eval_spark(right_tc(), env, spark, cfg).collect()
    assert cfg.chosen == ["plw_s"]


def test_auto_falls_back_to_gld_without_stable_column(spark, fig2_e):
    # merged-style fixpoint: both columns change → P_gld (paper §IV-B-c)
    e = spark.createDataFrame(fig2_e)
    fix = Fix(
        "Z",
        Union_(
            compose(Rel("E"), Rel("E")),
            Union_(
                compose(Rel("E"), Var("Z"), "m1"), compose(Var("Z"), Rel("E"), "m2")
            ),
        ),
    )
    cfg = FixConfig(strategy="auto")
    got = eval_spark(fix, {"E": e}, spark, cfg).toPandas()
    assert cfg.chosen == ["gld"]
    want = eval_pandas(fix, {"E": fig2_e.copy()})
    assert pairs(got) == pairs(want)


def test_forced_plw_without_stable_column_falls_back(spark, fig2_e):
    e = spark.createDataFrame(fig2_e)
    fix = Fix(
        "Z",
        Union_(
            compose(Rel("E"), Rel("E")),
            Union_(
                compose(Rel("E"), Var("Z"), "m1"), compose(Var("Z"), Rel("E"), "m2")
            ),
        ),
    )
    cfg = FixConfig(strategy="plw_s")
    eval_spark(fix, {"E": e}, spark, cfg).collect()
    assert cfg.chosen == ["gld"]


@pytest.mark.parametrize("strategy", ["gld", "plw_s", "plw_pg"])
@pytest.mark.parametrize("seed", [0, 1])
def test_random_graph_strategies_agree_with_pandas(spark, strategy, seed):
    e = erdos_renyi(60, 0.04, seed=seed)
    s = e.head(10)
    env = {"S": spark.createDataFrame(s), "E": spark.createDataFrame(e)}
    cfg = FixConfig(strategy=strategy, num_partitions=5)
    got = eval_spark(right_tc(), env, spark, cfg).toPandas()
    want = eval_pandas(right_tc(), {"S": s, "E": e})
    assert pairs(got) == pairs(want)


def test_plw_results_are_globally_distinct_without_final_distinct(spark):
    """The stable-column repartition guarantees disjoint partition
    fixpoints (paper §IV-A2 proof): the mapInPandas output union must
    already be duplicate-free."""
    e = erdos_renyi(80, 0.05, seed=3)
    s = e.head(30)
    env = {"S": spark.createDataFrame(s), "E": spark.createDataFrame(e)}
    cfg = FixConfig(strategy="plw_s", num_partitions=8)
    out = eval_spark(right_tc(), env, spark, cfg)
    assert out.count() == out.dropDuplicates().count()
    assert cfg.chosen == ["plw_s"]


def test_left_linear_plw_partitions_by_dst(spark, fig2_e, fig2_s):
    fix = Fix("X", Union_(Rel("S"), compose(Rel("E"), Var("X"))))
    env = {"S": spark.createDataFrame(fig2_s), "E": spark.createDataFrame(fig2_e)}
    cfg = FixConfig(strategy="auto")
    got = eval_spark(fix, env, spark, cfg).toPandas()
    assert cfg.chosen == ["plw_s"]
    want = eval_pandas(fix, {"S": fig2_s.copy(), "E": fig2_e.copy()})
    assert pairs(got) == pairs(want)


def test_filtered_seed_fixpoint_on_spark(spark, fig2_e):
    fix = Fix(
        "X",
        Union_(Filter(EqConst("src", 1), Rel("E")), compose(Var("X"), Rel("E"))),
    )
    env = {"E": spark.createDataFrame(fig2_e)}
    got = eval_spark(fix, env, spark, FixConfig()).toPandas()
    want = eval_pandas(fix, {"E": fig2_e.copy()})
    assert pairs(got) == pairs(want)


def test_nested_fixpoint_on_spark(spark, fig2_e, fig2_s):
    inner = Fix("Y", Union_(Rel("S"), compose(Var("Y"), Rel("E"))))
    outer = Fix("X", Union_(Rel("S"), compose(Var("X"), inner)))
    env = {"S": spark.createDataFrame(fig2_s), "E": spark.createDataFrame(fig2_e)}
    cfg = FixConfig()
    got = eval_spark(outer, env, spark, cfg).toPandas()
    want = eval_pandas(outer, {"S": fig2_s.copy(), "E": fig2_e.copy()})
    assert pairs(got) == pairs(want)
    assert len(cfg.chosen) == 2  # inner evaluated once as a constant


def test_unary_fixpoint_plw(spark, fig2_e):
    # reach-style: fixpoint over {dst} only, seeds filtered to src=1
    seed = AntiProject(("src",), Filter(EqConst("src", 1), Rel("E")))
    fix = Fix("X", Union_(seed, compose(Var("X"), Rel("E"))))
    got = eval_spark(fix, {"E": spark.createDataFrame(fig2_e)}, spark, FixConfig())
    want = eval_pandas(fix, {"E": fig2_e.copy()})
    assert sorted(got.toPandas()["dst"]) == sorted(want["dst"])


class TestRowCap:
    """FixConfig.row_cap turns runaway closures into CapacityError — the
    reproduction's stand-in for the paper's crash markers."""

    def test_gld_cap(self, spark, fig2_e, fig2_s):
        from repro.core.compiler_pandas import CapacityError

        env = {"S": spark.createDataFrame(fig2_s), "E": spark.createDataFrame(fig2_e)}
        with pytest.raises(CapacityError):
            eval_spark(
                right_tc(), env, spark, FixConfig(strategy="gld", row_cap=3)
            ).collect()

    def test_plw_cap(self, spark, fig2_e, fig2_s):
        # A tiny row_cap also shrinks the broadcast budget, so P_plw
        # falls back to P_gld, whose cap then fires.
        env = {"S": spark.createDataFrame(fig2_s), "E": spark.createDataFrame(fig2_e)}
        with pytest.raises(Exception) as exc:
            eval_spark(
                right_tc(), env, spark, FixConfig(strategy="plw_s", row_cap=2)
            ).collect()
        msg = str(exc.value).lower()
        assert "row_cap" in msg or "capacityerror" in msg

    @pytest.mark.parametrize("engine", ["plw_s", "plw_pg"])
    def test_plw_cap_fires_in_worker(self, spark, engine):
        # Chain 0→1→…→20: 20 broadcast rows stay under the cap, so P_plw
        # runs; the one partition's closure has 210 rows, above it.
        chain = pd.DataFrame({"src": range(20), "dst": range(1, 21)})
        env = {"S": spark.createDataFrame(chain), "E": spark.createDataFrame(chain)}
        cfg = FixConfig(strategy=engine, num_partitions=1, row_cap=50)
        with pytest.raises(Exception) as exc:
            eval_spark(right_tc(), env, spark, cfg).collect()
        assert cfg.chosen == [engine]
        # Spark wraps the worker's exception; its text survives.
        assert "CapacityError" in str(exc.value)
        assert "row_cap=50" in str(exc.value)

    def test_plw_broadcast_fallback_records_choice(self, spark, fig2_e, fig2_s):
        env = {"S": spark.createDataFrame(fig2_s), "E": spark.createDataFrame(fig2_e)}
        cfg = FixConfig(strategy="plw_s", row_cap=10_000)
        import repro.core.plans as plans

        old = plans.BROADCAST_ROW_LIMIT
        plans.BROADCAST_ROW_LIMIT = 1  # force the fallback
        try:
            out = eval_spark(right_tc(), env, spark, cfg).toPandas()
        finally:
            plans.BROADCAST_ROW_LIMIT = old
        assert cfg.chosen == ["gld(broadcast-fallback)"]
        assert pairs(out) == FIG2_FIXPOINT

    def test_cap_not_triggered_when_large_enough(self, spark, fig2_e, fig2_s):
        env = {"S": spark.createDataFrame(fig2_s), "E": spark.createDataFrame(fig2_e)}
        out = eval_spark(right_tc(), env, spark, FixConfig(row_cap=1000)).toPandas()
        assert pairs(out) == FIG2_FIXPOINT


@pytest.mark.parametrize("engine", ["pandas", "duckdb", "gld", "plw_s"])
def test_every_engine_has_the_same_cap_boundary(spark, fig2_e, fig2_s, engine):
    """The Fig. 2 fixpoint has 10 rows: a cap of 10 holds, 9 raises, on
    every engine that runs the shared semi-naive loop."""

    def run(row_cap):
        if engine == "pandas":
            return eval_pandas(right_tc(), {"S": fig2_s, "E": fig2_e}, row_cap=row_cap)
        if engine == "duckdb":
            return eval_duckdb(right_tc(), {"S": fig2_s, "E": fig2_e}, row_cap=row_cap)
        env = {"S": spark.createDataFrame(fig2_s), "E": spark.createDataFrame(fig2_e)}
        cfg = FixConfig(strategy=engine, num_partitions=1, row_cap=row_cap)
        out = eval_spark(right_tc(), env, spark, cfg).toPandas()
        assert cfg.chosen == [engine]
        return out

    assert pairs(run(10)) == FIG2_FIXPOINT
    # For plw_s the cap also bounds the broadcast, so at 9 the 10 rows of
    # E send it to P_gld; the worker's loop is the pandas case above.
    with pytest.raises(CapacityError, match="row_cap=9"):
        run(9)


def test_nested_fixpoint_broadcast_fallback(spark, fig2_e, fig2_s, monkeypatch):
    """Both fixpoints fall back to P_gld; each is evaluated once and
    records its own plan."""
    inner = Fix("Y", Union_(Rel("S"), compose(Var("Y"), Rel("E"))))
    outer = Fix("X", Union_(Rel("S"), compose(Var("X"), inner)))
    env = {"S": spark.createDataFrame(fig2_s), "E": spark.createDataFrame(fig2_e)}
    monkeypatch.setattr(plans, "BROADCAST_ROW_LIMIT", 1)
    evaluated = []
    execute_fixpoint = plans.execute_fixpoint

    def counting(fix, *args, **kwargs):
        evaluated.append(fix.var)
        return execute_fixpoint(fix, *args, **kwargs)

    monkeypatch.setattr(plans, "execute_fixpoint", counting)
    cfg = FixConfig(strategy="plw_s")
    got = eval_spark(outer, env, spark, cfg).toPandas()
    assert sorted(evaluated) == ["X", "Y"]
    assert cfg.chosen == ["gld(broadcast-fallback)"] * 2
    want = eval_pandas(outer, {"S": fig2_s.copy(), "E": fig2_e.copy()})
    assert pairs(got) == pairs(want)


def test_gld_evaluates_phi_once_per_iteration(spark, fig2_e, fig2_s, monkeypatch):
    """perfbench counts P_gld iterations by wrapping
    plans._eval_phi_distributed; Example 2 takes 3 steps."""
    calls = []
    eval_phi = plans._eval_phi_distributed

    def counting(*args, **kwargs):
        calls.append(1)
        return eval_phi(*args, **kwargs)

    monkeypatch.setattr(plans, "_eval_phi_distributed", counting)
    env = {"S": spark.createDataFrame(fig2_s), "E": spark.createDataFrame(fig2_e)}
    out = eval_spark(right_tc(), env, spark, FixConfig(strategy="gld")).toPandas()
    assert pairs(out) == FIG2_FIXPOINT
    assert len(calls) == 3


def test_unknown_strategy_fails_before_spark_work(spark, fig2_s, monkeypatch):
    def no_spark(*args, **kwargs):
        raise AssertionError("evaluated before the strategy was checked")

    monkeypatch.setattr(plans, "eval_spark", no_spark)
    env = {"S": spark.createDataFrame(fig2_s), "E": spark.createDataFrame(fig2_s)}
    with pytest.raises(ValueError, match="unknown fixpoint strategy 'plw_x'"):
        eval_spark(right_tc(), env, spark, FixConfig(strategy="plw_x"))


class TestExtractConstants:
    def test_extracts_maximal_constant_subterms(self):
        phi = compose(Var("X"), Filter(EqConst("src", 1), Rel("E")))
        phi2, consts = extract_constants(phi, "X")
        # The maximal constant subterm is the rename-wrapped filtered E
        # (the whole compose right arm), broadcast pre-renamed.
        assert len(consts) == 1
        name = next(iter(consts))
        assert name in free_rels(phi2)
        extracted = consts[name]
        assert "X" not in str(extracted)
        assert "E" in free_rels(extracted)

    def test_substitution_preserves_semantics(self, fig2_e, fig2_s):
        phi = compose(Var("X"), Filter(EqConst("src", 2), Rel("E")))
        phi2, consts = extract_constants(phi, "X")
        env = {"E": fig2_e.copy(), "X": fig2_s.copy()}
        for name, t in consts.items():
            env[name] = eval_pandas(t, {"E": fig2_e.copy()})
        a = eval_pandas(phi, {"E": fig2_e.copy(), "X": fig2_s.copy()})
        b = eval_pandas(phi2, env)
        assert pairs(a) == pairs(b)

    def test_nested_fix_inside_extracted_term(self):
        inner = Fix("Y", Union_(Rel("S"), compose(Var("Y"), Rel("E"))))
        phi = compose(Var("X"), inner)
        _, consts = extract_constants(phi, "X")
        from repro.core.terms import walk

        assert any(
            isinstance(s, Fix) for t in consts.values() for s in walk(t)
        )
