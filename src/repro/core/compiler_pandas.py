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

from .fcond import check_fcond, constant_variable_split, union_branches
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

# Iteration bound shared by every fixpoint loop (pandas, DuckDB, P_gld).
MAX_ITERATIONS = 100_000


class CapacityError(RuntimeError):
    """A fixpoint or message volume exceeded its ``row_cap`` (≙ the
    paper's crash markers). The one capacity error of every engine and
    baseline."""


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
        return _eval_fix(t, env, row_cap)
    raise TypeError(f"not a μ-RA term: {t!r}")


def _eval_fix(
    fix: Fix, env: dict[str, pd.DataFrame], row_cap: int | None
) -> pd.DataFrame:
    """Semi-naive fixpoint (paper Algorithm 1) over pandas frames."""
    check_fcond(fix)
    const, phi = constant_variable_split(fix)
    r = dedup(_eval(const, env, row_cap))
    return seminaive_loop(phi, fix.var, r, env, row_cap)


def seminaive_loop(
    phi: Term,
    var: str,
    seeds: pd.DataFrame,
    env: Mapping[str, pd.DataFrame],
    row_cap: int | None = None,
) -> pd.DataFrame:
    """Run Algorithm 1 locally: X=R; new=R; while new: new=φ(new)∖X; X∪=new.

    Exposed separately so the P_plw^s physical plan can run it inside a
    ``mapInPandas`` partition with broadcast constant relations.
    """
    branches = union_branches(phi)
    base_env = dict(env)
    x = dedup(seeds)
    new = x
    for _ in range(MAX_ITERATIONS):
        if new.empty:
            return x.reset_index(drop=True)
        base_env[var] = new
        delta_parts = [_eval(b, base_env, row_cap) for b in branches]
        delta = dedup(pd.concat([p[sorted(x.columns)] for p in delta_parts], ignore_index=True)) if delta_parts else new.iloc[0:0]
        new = set_difference(delta, x)
        if not new.empty:
            x = pd.concat([x, new], ignore_index=True)
            if row_cap is not None and len(x) > row_cap:
                raise CapacityError(f"fixpoint exceeded row_cap={row_cap}")
    raise RuntimeError(f"fixpoint did not converge in {MAX_ITERATIONS} iterations")
