"""Logical plan enumeration + cost-based selection + physical dispatch.

End-to-end pipeline (paper Fig. 3):

    UCRPQ text ──parse──▶ CRPQ ──Query2Mu──▶ naive μ-RA
        ──MuRewriter+candidates──▶ logical plans ──CostEstimator──▶ best
        ──PhysicalPlanGenerator──▶ Spark execution (plans.py)

Candidate generation works per atom branch (after alternation
distribution). For a branch ``t1/t2/…/tk`` with optional endpoint
constants, four skeletons are built, all using the constructive forms
from :mod:`repro.core.rewriter`:

* **ltr** — left-to-right: closures are right-oriented; the subject
  filter is applied at construction start (so the MuRewriter pass can
  seed everything from the left); the object filter lands outside.
* **rtl** — the mirror image (fixpoint-reversal made constructive).
* **merged-first / merged-last** — the first/last adjacent pure-closure
  pair becomes one merged fixpoint (merge-fixpoints rule), remaining
  items are seeded around it.

:func:`chain` builds every one of them; the BigDatalog baseline reuses
its ltr form.

Each skeleton then goes through :func:`repro.core.rewriter.rewrite`
(pushes filters/antiprojections into fixpoints, seeds closures) and the
cheapest per the :class:`repro.core.cost.CostModel` wins — the paper's
MuRewriter + CostEstimator in miniature.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from pyspark.sql import DataFrame, SparkSession

from .compiler_spark import FixConfig, eval_spark
from .cost import CostModel, GraphStats
from .fcond import union_of
from .query2mu import (
    DST,
    GRAPH,
    GRAPH_SCHEMA,
    SRC,
    _Fresh,
    join_project_head,
    name_columns,
    pin,
    resolve_endpoints,
    rx_to_term,
)
from .rewriter import closure, merged_closure, rewrite, seeded_closure
from .rpq import CRPQ, Atom, Plus, Rx, distribute_alts, is_var, parse_query, seq_items
from .terms import AntiProject, Term, compose, fresh_mid


@dataclass
class PlanReport:
    """Chosen logical plan plus what the optimizer considered."""

    term: Term
    cost: float
    candidates: list[tuple[str, float]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Branch skeletons
# ---------------------------------------------------------------------------


def chain(
    items: list[Rx],
    fresh: _Fresh,
    ltr: bool = True,
    end_v: Optional[int] = None,
    acc: Optional[Term] = None,
) -> Term:
    """A path skeleton for ``items``, built one item at a time from the
    left end (``ltr``) or from the right end.

    Each closure is oriented to grow away from the start and is seeded
    with the path built so far, so the MuRewriter pass can seed
    everything from that end. ``end_v`` pins the starting endpoint
    (src for ltr, dst otherwise) right after the first item; ``acc`` is
    an already-built start to extend.
    """
    start, orientation = (SRC, "right") if ltr else (DST, "left")
    for it in items if ltr else reversed(items):
        new = rx_to_term(it.child if isinstance(it, Plus) else it, fresh)
        if acc is None:
            acc = closure(new, orientation) if isinstance(it, Plus) else new
            acc, end_v = pin(start, end_v, acc), None
            continue
        mid = fresh_mid(acc, new)
        path = compose(acc, new, mid) if ltr else compose(new, acc, mid)
        acc = seeded_closure(path, new, orientation) if isinstance(it, Plus) else path
    assert acc is not None
    return acc


def _merged_skeletons(
    items: list[Rx], subj_v: Optional[int], obj_v: Optional[int], fresh: _Fresh
) -> list[tuple[str, Term]]:
    """Merge an adjacent pure-closure pair, then chain the rest."""
    out: list[tuple[str, Term]] = []
    pairs = [
        i
        for i in range(len(items) - 1)
        if isinstance(items[i], Plus) and isinstance(items[i + 1], Plus)
    ]
    if not pairs:
        return out
    for name, i in (("merged-first", pairs[0]), ("merged-last", pairs[-1])):
        a = rx_to_term(items[i].child, fresh)
        b = rx_to_term(items[i + 1].child, fresh)
        acc: Term = merged_closure(a, b)
        # Items before i chain LTR into the merged fix's left; items
        # after i+1 are appended on the right.
        if i > 0:
            left = chain(items[:i], fresh, end_v=subj_v)
            acc = compose(left, acc, fresh_mid(left, acc))
        else:
            acc = pin(SRC, subj_v, acc)
        out.append((name, pin(DST, obj_v, chain(items[i + 2 :], fresh, acc=acc))))
        if pairs[0] == pairs[-1]:
            break
    return out


def plan_branch(
    items: list[Rx],
    subj_v: Optional[int],
    obj_v: Optional[int],
    cm: CostModel,
    drops: tuple[str, ...] = (),
) -> tuple[Term, float, list[tuple[str, float]]]:
    """Enumerate skeletons for one alternation-free branch, rewrite each
    with MuRewriter, cost them, return the cheapest.

    ``drops``: the endpoint columns not needed downstream (see
    :func:`repro.core.query2mu.resolve_endpoints`). The antiprojection
    is applied *before* costing so the push-antiprojection rewrite
    influences plan choice (e.g. reach-style queries prefer the
    orientation whose fixpoint carries one column).
    """
    fresh = _Fresh()
    cands: list[tuple[str, Term]] = [
        ("ltr", pin(DST, obj_v, chain(items, fresh, end_v=subj_v))),
        ("rtl", pin(SRC, subj_v, chain(items, fresh, ltr=False, end_v=obj_v))),
    ]
    cands.extend(_merged_skeletons(items, subj_v, obj_v, fresh))

    best: tuple[Term, float] | None = None
    scored: list[tuple[str, float]] = []
    for name, skel in cands:
        if drops:
            skel = AntiProject(drops, skel)
        t = rewrite(skel, GRAPH_SCHEMA)
        c = cm.cost(t)
        scored.append((name, c))
        if best is None or c < best[1]:
            best = (t, c)
    assert best is not None
    return best[0], best[1], scored


# ---------------------------------------------------------------------------
# Atom / query level
# ---------------------------------------------------------------------------


def plan_atom(
    atom: Atom,
    consts: Mapping[str, int],
    cm: CostModel,
    droppable: frozenset[str] = frozenset(),
) -> tuple[Term, float, list]:
    """Plan one atom. ``droppable`` lists this atom's endpoint variables
    that no other atom and no head position needs."""
    subj_v, obj_v, drops = resolve_endpoints(atom, consts, droppable)
    terms: list[Term] = []
    total = 0.0
    scored_all: list[tuple[str, float]] = []
    for rx in distribute_alts(atom.rx):
        t, c, scored = plan_branch(seq_items(rx), subj_v, obj_v, cm, drops)
        terms.append(t)
        total += c
        scored_all.extend(scored)
    return name_columns(union_of(terms), atom, drops, obj_v), total, scored_all


def plan_crpq(
    q: CRPQ | str,
    stats: GraphStats,
    consts: Mapping[str, int] | None = None,
) -> PlanReport:
    """Optimize a CRPQ into the best logical μ-RA term."""
    if isinstance(q, str):
        q = parse_query(q)
    consts = consts or {}
    cm = CostModel(stats)
    # A variable is droppable inside its atom when the head does not ask
    # for it and no other endpoint occurrence needs it for a join.
    occurrences: dict[str, int] = {}
    for a in q.atoms:
        for e in (a.subj, a.obj):
            if is_var(e):
                occurrences[e] = occurrences.get(e, 0) + 1
    droppable = frozenset(
        v for v, n in occurrences.items() if n == 1 and v not in q.head
    )
    atom_terms = []
    total = 0.0
    scored: list[tuple[str, float]] = []
    for a in q.atoms:
        t, c, s = plan_atom(a, consts, cm, droppable)
        atom_terms.append(t)
        total += c
        scored.extend(s)
    term = join_project_head(atom_terms, q)
    # Final pass: the head antiprojection may push into a top fixpoint
    # (e.g. reach-style queries keeping only destinations).
    term = rewrite(term, GRAPH_SCHEMA)
    return PlanReport(term=term, cost=total, candidates=scored)


# ---------------------------------------------------------------------------
# Execution front door
# ---------------------------------------------------------------------------


def evaluate_ucrpq(
    spark: SparkSession,
    query: CRPQ | str,
    graph: DataFrame,
    consts: Mapping[str, int] | None = None,
    stats: GraphStats | None = None,
    cfg: FixConfig | None = None,
) -> DataFrame:
    """Plan and run a UCRPQ against a (src,label,dst) triples DataFrame."""
    if stats is None:
        stats = GraphStats.from_pandas(graph.toPandas())
    report = plan_crpq(query, stats, consts)
    cfg = cfg or FixConfig()
    return eval_spark(report.term, {GRAPH: graph}, spark, cfg)
