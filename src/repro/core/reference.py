"""Independent pure-Python reference semantics for UCRPQs.

Used only by tests: it shares no code with the μ-RA term machinery or
the backends (plain Python sets and dicts), so agreement between this
module and the Spark/pandas/DuckDB engines is strong evidence of
correctness. Intended for small graphs.
"""
from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Mapping, Sequence

from .rpq import CRPQ, Alt, Label, Plus, Rx, Seq, is_var

Triple = tuple[int, str, int]
Pair = tuple[int, int]


def eval_rx_pairs(rx: Rx, triples: Sequence[Triple]) -> set[Pair]:
    """All (u, v) node pairs connected by a path matching ``rx``."""
    if isinstance(rx, Label):
        if rx.inverse:
            return {(d, s) for s, l, d in triples if l == rx.name}
        return {(s, d) for s, l, d in triples if l == rx.name}
    if isinstance(rx, Seq):
        out = eval_rx_pairs(rx.parts[0], triples)
        for p in rx.parts[1:]:
            out = _compose(out, eval_rx_pairs(p, triples))
        return out
    if isinstance(rx, Alt):
        out: set[Pair] = set()
        for p in rx.parts:
            out |= eval_rx_pairs(p, triples)
        return out
    if isinstance(rx, Plus):
        return _closure(eval_rx_pairs(rx.child, triples))
    raise TypeError(f"not a regex: {rx!r}")


def _compose(a: set[Pair], b: set[Pair]) -> set[Pair]:
    by_src: dict[int, list[int]] = defaultdict(list)
    for s, d in b:
        by_src[s].append(d)
    return {(s, d2) for s, d in a for d2 in by_src.get(d, ())}


def _closure(r: set[Pair]) -> set[Pair]:
    """Transitive closure by semi-naive iteration over Python sets."""
    total = set(r)
    new = set(r)
    while new:
        new = _compose(new, r) - total
        total |= new
    return total


def eval_crpq(
    q: CRPQ,
    triples: Sequence[Triple],
    consts: Mapping[str, int] | None = None,
) -> set[tuple[int, ...]]:
    """Evaluate a CRPQ; returns the set of head-variable tuples (in head
    order)."""
    consts = consts or {}

    def resolve(c: str) -> int:
        return int(c) if c.isdigit() else consts[c]

    # Each atom → list of bindings {var: value}.
    relations: list[list[dict[str, int]]] = []
    for atom in q.atoms:
        pairs = eval_rx_pairs(atom.rx, triples)
        rows: list[dict[str, int]] = []
        for u, v in pairs:
            if not is_var(atom.subj) and u != resolve(atom.subj):
                continue
            if not is_var(atom.obj) and v != resolve(atom.obj):
                continue
            b: dict[str, int] = {}
            if is_var(atom.subj):
                b[atom.subj] = u
            if is_var(atom.obj):
                if is_var(atom.subj) and atom.subj == atom.obj:
                    if u != v:
                        continue
                else:
                    b[atom.obj] = v
            rows.append(b)
        relations.append(_dedup_bindings(rows))

    # Fold natural joins over bindings.
    acc = relations[0]
    for rel in relations[1:]:
        acc = _join_bindings(acc, rel)
    out = {tuple(b[h] for h in q.head) for b in acc if all(h in b for h in q.head)}
    missing = [h for h in q.head if acc and h not in acc[0] and all(h not in b for b in acc)]
    if missing and acc:
        raise ValueError(f"head variables {missing} not bound")
    return out


def _dedup_bindings(rows: Iterable[dict[str, int]]) -> list[dict[str, int]]:
    seen = set()
    out = []
    for b in rows:
        key = tuple(sorted(b.items()))
        if key not in seen:
            seen.add(key)
            out.append(b)
    return out


def _join_bindings(
    a: list[dict[str, int]], b: list[dict[str, int]]
) -> list[dict[str, int]]:
    if not a or not b:
        return []
    shared = sorted(set(a[0]) & set(b[0]))
    index: dict[tuple, list[dict[str, int]]] = defaultdict(list)
    for rb in b:
        index[tuple(rb[c] for c in shared)].append(rb)
    out = []
    for ra in a:
        for rb in index.get(tuple(ra[c] for c in shared), ()):
            out.append({**ra, **rb})
    return _dedup_bindings(out)
