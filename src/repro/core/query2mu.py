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

An atom ``subj rx obj`` filters/renames endpoints; a CRPQ joins its
atoms on shared variables and antiprojects to the head.
"""
from __future__ import annotations

import itertools
from typing import Mapping

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
    """Translate an atom; output columns are variable columns (v_*)."""
    t = rx_to_term(atom.rx, fresh)
    return bind_endpoints(t, atom, consts)


def bind_endpoints(t: Term, atom: Atom, consts: Mapping[str, int]) -> Term:
    """Apply endpoint constants/variable renames to a binary term for
    ``atom``. Shared by the naive translation and the planner (which
    pushes the filters itself but reuses the renaming logic)."""
    subj, obj = atom.subj, atom.obj
    if not is_var(subj):
        t = AntiProject((SRC,), Filter(EqConst(SRC, _resolve(subj, consts)), t))
    if not is_var(obj):
        t = AntiProject((DST,), Filter(EqConst(DST, _resolve(obj, consts)), t))
    if is_var(subj) and is_var(obj) and subj == obj:
        t = Rename(SRC, var_col(subj), AntiProject((DST,), Filter(EqCol(SRC, DST), t)))
        return t
    if is_var(subj):
        t = Rename(SRC, var_col(subj), t)
    if is_var(obj):
        t = Rename(DST, var_col(obj), t)
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
