"""BigDatalog-like baseline (paper §V-C, §VI).

BigDatalog is a distributed semi-naive Datalog engine on Spark. Its
*optimization capability envelope*, as characterized by the paper:

* programs are written/evaluated **left-to-right** (left-linear rules);
* Magic Sets / Demand Transformation push selections and propagate
  bindings *in that direction only* — a leading constant seeds the
  recursion, bindings flow into subsequent closures;
* **no fixpoint reversal** — a filter to the *right* of a recursion
  (class C2) cannot be pushed: the full closure is computed, then
  filtered;
* **no fixpoint merging** (impossible in the Datalog framework) —
  concatenated closures a⁺/b⁺ compute the full first closure and chain;
* it *does* have decomposable-plan distribution (GPS + SetRDD), so its
  fixpoints run with the same communication-efficient physical plan as
  Dist-μ-RA's P_plw when a stable column exists.

We reproduce exactly that: the LTR-only skeleton, a restricted
MuRewriter with reversal and merging disabled, and the shared physical
fixpoint machinery.
"""
from __future__ import annotations

from typing import Mapping, Optional

from pyspark.sql import DataFrame, SparkSession

from ..core.compiler_spark import FixConfig, eval_spark
from ..core.fcond import union_of
from ..core.planner import chain
from ..core.query2mu import (
    DST,
    GRAPH,
    GRAPH_SCHEMA,
    _Fresh,
    join_project_head,
    name_columns,
    pin,
    resolve_endpoints,
)
from ..core.rewriter import (
    match_compose,
    match_linear_closure,
    rewrite,
    seeded_closure,
    try_filter_descend,
    try_push_filter,
)
from ..core.rpq import CRPQ, distribute_alts, parse_query, seq_items
from ..core.terms import AntiProject, Fix, Term, compose, fresh_mid


def _try_push_join_noreverse(t: Term) -> Optional[Term]:
    """push-join restricted to matching orientations (no reversal)."""
    c = match_compose(t)
    if c is None:
        return None
    if isinstance(c.right, Fix):
        lc = match_linear_closure(c.right)
        if lc is not None and lc.orientation == "right":
            seed = compose(c.left, lc.const, fresh_mid(c.left, lc.const, lc.step))
            return seeded_closure(seed, lc.step, "right")
    if isinstance(c.left, Fix):
        lc = match_linear_closure(c.left)
        if lc is not None and lc.orientation == "left":
            seed = compose(lc.const, c.right, fresh_mid(c.right, lc.const, lc.step))
            return seeded_closure(seed, lc.step, "left")
    return None


_PHASE1 = (try_push_filter, try_filter_descend)
_PHASE2 = (_try_push_join_noreverse,)


def plan_crpq_bigdatalog(q: CRPQ | str, consts: Mapping[str, int] | None = None) -> Term:
    """Left-to-right Datalog-style logical plan (no reversal/merging)."""
    if isinstance(q, str):
        q = parse_query(q)
    consts = consts or {}
    atom_terms = []
    for atom in q.atoms:
        subj_v, obj_v, drops = resolve_endpoints(atom, consts)
        branches = []
        for rx in distribute_alts(atom.rx):
            skel = pin(DST, obj_v, chain(seq_items(rx), _Fresh(), end_v=subj_v))
            branches.append(
                rewrite(skel, GRAPH_SCHEMA, phase1=_PHASE1, phase2=_PHASE2)
            )
        t = union_of(branches)
        if drops:
            t = AntiProject(drops, t)
        atom_terms.append(name_columns(t, atom, drops, obj_v))
    return join_project_head(atom_terms, q)


def eval_crpq_bigdatalog(
    spark: SparkSession,
    graph: DataFrame,
    q: CRPQ | str,
    consts: Mapping[str, int] | None = None,
    cfg: FixConfig | None = None,
) -> DataFrame:
    """Evaluate with BigDatalog's plan; physical fixpoints use the same
    decomposable machinery (auto = SetRDD-style local loops when a
    stable column exists, as BigDatalog's GPS technique provides)."""
    term = plan_crpq_bigdatalog(q, consts)
    return eval_spark(term, {GRAPH: graph}, spark, cfg or FixConfig())
