"""Pandas backend: evaluate μ-RA terms over in-memory pandas relations.

This backend plays three roles:

* the partition-local engine inside the P_plw^s physical plan (our
  SetRDD analogue — each Spark partition runs its own semi-naive loop
  here, see :mod:`repro.core.plans`);
* the engine of the Myria-like single-machine baseline;
* a fast reference implementation for cross-backend agreement tests.

Relations are pandas DataFrames under *set* semantics: deduplication is
applied at union and antiprojection, exactly where μ-RA requires it.
"""
from __future__ import annotations

from typing import Mapping

import pandas as pd

from .fcond import CapacityError  # noqa: F401  (re-exported for callers)
from .fcond import check_fcond, constant_variable_split, seminaive, union_branches
from .terms import (
    AntiJoin,
    AntiProject,
    EqCol,
    EqConst,
    Filter,
    Fix,
    Join,
    Rel,
    Rename,
    Term,
    Union_,
    Var,
)

def dedup(df: pd.DataFrame) -> pd.DataFrame:
    return df.drop_duplicates(ignore_index=True)


def set_union(a: pd.DataFrame, b: pd.DataFrame) -> pd.DataFrame:
    """Distinct union of two same-schema frames (columns may be ordered
    differently)."""
    cols = sorted(a.columns)
    return dedup(pd.concat([a[cols], b[cols]], ignore_index=True))


def set_difference(a: pd.DataFrame, b: pd.DataFrame) -> pd.DataFrame:
    """Tuples of ``a`` not in ``b`` (same schema), deduplicated."""
    a = dedup(a)
    if b.empty or a.empty:
        return a
    cols = list(a.columns)
    merged = a.merge(dedup(b)[cols], on=cols, how="left", indicator=True)
    return merged.loc[merged["_merge"] == "left_only", cols].reset_index(drop=True)


def natural_join(a: pd.DataFrame, b: pd.DataFrame) -> pd.DataFrame:
    shared = sorted(set(a.columns) & set(b.columns))
    if not shared:
        return a.merge(b, how="cross")
    return a.merge(b, on=shared, how="inner")


def anti_join(a: pd.DataFrame, b: pd.DataFrame) -> pd.DataFrame:
    shared = sorted(set(a.columns) & set(b.columns))
    if not shared:
        return a if b.empty else a.iloc[0:0]
    merged = a.merge(b[shared].drop_duplicates(), on=shared, how="left", indicator=True)
    return merged.loc[merged["_merge"] == "left_only", list(a.columns)].reset_index(
        drop=True
    )


def eval_pandas(
    term: Term, env: Mapping[str, pd.DataFrame], row_cap: int | None = None
) -> pd.DataFrame:
    """Evaluate ``term``; ``env`` binds relation names *and* any free
    recursion variables to frames. The result is deduplicated.

    A fixpoint whose result grows beyond ``row_cap`` rows (None =
    unlimited) raises :class:`CapacityError`; baselines use it to model
    the paper's crashes on exploding closures (e.g. Myria on
    rnd_10k_0.001 same-generation).
    """
    return dedup(_eval(term, dict(env), row_cap))


def _eval(t: Term, env: dict[str, pd.DataFrame], row_cap: int | None) -> pd.DataFrame:
    if isinstance(t, Rel):
        return env[t.name]
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Union_):
        return set_union(_eval(t.left, env, row_cap), _eval(t.right, env, row_cap))
    if isinstance(t, Join):
        return natural_join(_eval(t.left, env, row_cap), _eval(t.right, env, row_cap))
    if isinstance(t, AntiJoin):
        return anti_join(_eval(t.left, env, row_cap), _eval(t.right, env, row_cap))
    if isinstance(t, Filter):
        df = _eval(t.child, env, row_cap)
        if isinstance(t.cond, EqConst):
            return df[df[t.cond.col] == t.cond.value]
        if isinstance(t.cond, EqCol):
            return df[df[t.cond.col1] == df[t.cond.col2]]
        raise TypeError(f"unknown condition {t.cond!r}")
    if isinstance(t, AntiProject):
        return dedup(_eval(t.child, env, row_cap).drop(columns=list(t.cols)))
    if isinstance(t, Rename):
        return _eval(t.child, env, row_cap).rename(columns={t.old: t.new})
    if isinstance(t, Fix):
        check_fcond(t)
        const, phi = constant_variable_split(t)
        return seminaive_loop(phi, t.var, _eval(const, env, row_cap), env, row_cap)
    raise TypeError(f"not a μ-RA term: {t!r}")


def seminaive_loop(
    phi: Term,
    var: str,
    seeds: pd.DataFrame,
    env: Mapping[str, pd.DataFrame],
    row_cap: int | None = None,
) -> pd.DataFrame:
    """Run Algorithm 1 (:func:`repro.core.fcond.seminaive`) on pandas
    frames.

    Exposed separately so the P_plw^s physical plan can run it inside a
    ``mapInPandas`` partition with broadcast constant relations.
    """
    branches = union_branches(phi)
    base_env = dict(env)
    cols = sorted(seeds.columns)

    def step(delta: pd.DataFrame, x: pd.DataFrame) -> pd.DataFrame:
        base_env[var] = delta
        parts = [_eval(b, base_env, row_cap)[cols] for b in branches]
        return set_difference(pd.concat(parts, ignore_index=True), x)

    def add(x: pd.DataFrame, delta: pd.DataFrame) -> pd.DataFrame:
        return pd.concat([x, delta], ignore_index=True)

    return seminaive(dedup(seeds), step, len, add, row_cap)
