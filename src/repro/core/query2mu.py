"""Query2Mu: translate UCRPQs into μ-RA terms (paper §III).

The graph is one relation ``G(src, label, dst)`` (the paper's Yago
facts table of triples). A regex compiles to a binary (src,dst) term:

* label ``a``        → π̃_label(σ_label=a(G))
* inverse ``-a``     → src/dst swap of the above
* concatenation      → compose (Example 1 shape)
* alternation        → union
* ``e+``             → μ(X = T_e ∪ T_e∘X … ) — orientation chosen here is
                       the *naive* right-linear form; the planner
                       (:mod:`repro.core.planner`) explores better
                       seeded/merged/reversed forms.

An atom ``subj rx obj`` filters/renames endpoints
(:func:`resolve_endpoints` and :func:`name_columns`, shared with the
planner and the baselines); a CRPQ joins its atoms on shared variables
and antiprojects to the head.
"""
from __future__ import annotations

import itertools
from typing import Mapping, Optional

from .rpq import CRPQ, Alt, Atom, Label, Plus, Rx, Seq, is_var, var_col
from .terms import (
    AntiProject,
    EqCol,
    EqConst,
    Filter,
    Fix,
    Rel,
    Rename,
    Term,
    Union_,
    Var,
    compose,
    fresh_mid,
    inverse,
    schema,
)

GRAPH = "G"
LABEL_COL = "label"
SRC, DST = "src", "dst"

GRAPH_SCHEMA: dict[str, frozenset[str]] = {GRAPH: frozenset({SRC, LABEL_COL, DST})}


class _Fresh:
    def __init__(self) -> None:
        self._vars = itertools.count()

    def var(self) -> str:
        return f"X{next(self._vars)}"


def label_term(name: str, inv: bool = False, graph: str = GRAPH) -> Term:
    t: Term = AntiProject((LABEL_COL,), Filter(EqConst(LABEL_COL, name), Rel(graph)))
    return inverse(t) if inv else t


def rx_to_term(rx: Rx, fresh: _Fresh | None = None) -> Term:
    """Naive translation of a regex to a binary μ-RA term."""
    fresh = fresh or _Fresh()
    if isinstance(rx, Label):
        return label_term(rx.name, rx.inverse)
    if isinstance(rx, Seq):
        out = rx_to_term(rx.parts[0], fresh)
        for p in rx.parts[1:]:
            nxt = rx_to_term(p, fresh)
            out = compose(out, nxt, fresh_mid(out, nxt))
        return out
    if isinstance(rx, Alt):
        parts = [rx_to_term(p, fresh) for p in rx.parts]
        out = parts[0]
        for p in parts[1:]:
            out = Union_(out, p)
        return out
    if isinstance(rx, Plus):
        base = rx_to_term(rx.child, fresh)
        x = fresh.var()
        step = compose(Var(x), base, fresh_mid(base))
        return Fix(x, Union_(base, step))
    raise TypeError(f"not a regex: {rx!r}")


def atom_to_term(atom: Atom, consts: Mapping[str, int], fresh: _Fresh | None = None) -> Term:
    """Translate an atom; the endpoint filters and drops wrap the path
    term from outside."""
    subj_v, obj_v, drops = resolve_endpoints(atom, consts)
    t = pin(DST, obj_v, pin(SRC, subj_v, rx_to_term(atom.rx, fresh)))
    if drops:
        t = AntiProject(drops, t)
    return name_columns(t, atom, drops, obj_v)


def resolve_endpoints(
    atom: Atom, consts: Mapping[str, int], droppable: frozenset[str] = frozenset()
) -> tuple[Optional[int], Optional[int], tuple[str, ...]]:
    """The one endpoint decision shared by every translator.

    Returns ``(subj_v, obj_v, drops)``: the resolved constants (``None``
    for a variable endpoint) and the endpoint columns nothing downstream
    needs. A column is dropped when its endpoint is a constant or a
    ``droppable`` variable (one no other atom and no head position
    uses); src is dropped first and one column always stays, since
    0-ary relations are unsupported.
    """
    subj_v = None if is_var(atom.subj) else _resolve(atom.subj, consts)
    obj_v = None if is_var(atom.obj) else _resolve(atom.obj, consts)
    if atom.subj == atom.obj and is_var(atom.subj):
        return subj_v, obj_v, ()
    for col, end, v in ((SRC, atom.subj, subj_v), (DST, atom.obj, obj_v)):
        if v is not None or end in droppable:
            return subj_v, obj_v, (col,)
    return subj_v, obj_v, ()


def pin(col: str, v: Optional[int], t: Term) -> Term:
    """σ_col=v(t) for a constant endpoint ``v``; ``t`` for a variable."""
    return t if v is None else Filter(EqConst(col, v), t)


def name_columns(t: Term, atom: Atom, drops: tuple[str, ...], obj_v: Optional[int]) -> Term:
    """Name the columns of ``atom``'s binary term ``t`` that survive
    ``drops``: a variable endpoint becomes ``v_<var>`` (``?x r ?x`` keeps
    the src = dst rows), a constant object that had to stay becomes
    ``c_<value>``, so two atoms join on it only when they fix the same
    value (a cross product either way)."""
    if atom.subj == atom.obj and is_var(atom.subj):
        return Rename(SRC, var_col(atom.subj), AntiProject((DST,), Filter(EqCol(SRC, DST), t)))
    if SRC not in drops:  # a constant subject is always dropped
        t = Rename(SRC, var_col(atom.subj), t)
    if DST not in drops:
        t = Rename(DST, var_col(atom.obj) if obj_v is None else f"c_{obj_v}", t)
    return t


def _resolve(c: str, consts: Mapping[str, int]) -> int:
    if c.isdigit():
        return int(c)
    if c not in consts:
        raise KeyError(f"unknown constant {c!r}; provide it in `consts`")
    return consts[c]


def crpq_to_term(q: CRPQ, consts: Mapping[str, int] | None = None) -> Term:
    """Naive translation of a full CRPQ: join atoms, project the head."""
    consts = consts or {}
    fresh = _Fresh()
    atom_terms = [atom_to_term(a, consts, fresh) for a in q.atoms]
    return join_project_head(atom_terms, q)


def join_project_head(atom_terms: list[Term], q: CRPQ) -> Term:
    """Join translated atoms on shared variable columns, antiproject to
    the head variables."""
    out = atom_terms[0]
    for t in atom_terms[1:]:
        out = out.join(t)
    head_cols = {var_col(h) for h in q.head}
    all_cols = schema(out, GRAPH_SCHEMA)
    drop = tuple(sorted(all_cols - head_cols))
    missing = head_cols - all_cols
    if missing:
        raise ValueError(f"head variables {sorted(missing)} not bound by the body")
    return AntiProject(drop, out) if drop else out
