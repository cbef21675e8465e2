"""UCRPQ frontend: parser and AST (paper §III, queries of Figs. 5–6).

Grammar (covers every query in the paper's evaluation):

    query  := head '<-' atom (',' atom)*
    head   := var (',' var)*
    atom   := endpoint rx endpoint
    endpoint := var | constant            (?x vs Japan)
    rx     := seq
    seq    := post ('/' post)*
    post   := prim '+'?
    prim   := '-'? LABEL | '(' alt ')'
    alt    := seq (('|' | ' ') seq)*      (paper writes both '|' and
                                           space-separated alternatives)

Regex AST: :class:`Label` (with optional inverse), :class:`Seq`,
:class:`Alt`, :class:`Plus`. Query AST: :class:`Atom`, :class:`CRPQ`.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union as TyUnion


# ---------------------------------------------------------------------------
# Regex AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Label:
    name: str
    inverse: bool = False

    def __str__(self) -> str:
        return ("-" if self.inverse else "") + self.name


@dataclass(frozen=True)
class Seq:
    parts: tuple["Rx", ...]

    def __str__(self) -> str:
        return "/".join(_paren(p, Alt) for p in self.parts)


@dataclass(frozen=True)
class Alt:
    parts: tuple["Rx", ...]

    def __str__(self) -> str:
        return "(" + "|".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class Plus:
    child: "Rx"

    def __str__(self) -> str:
        return _paren(self.child, (Seq, Alt)) + "+"


Rx = TyUnion[Label, Seq, Alt, Plus]


def _paren(p: Rx, wrap_types) -> str:
    s = str(p)
    return f"({s})" if isinstance(p, wrap_types) and not s.startswith("(") else s


# ---------------------------------------------------------------------------
# Query AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    """``subj rx obj`` where endpoints are ``?var`` or constants."""

    subj: str
    rx: Rx
    obj: str

    def __str__(self) -> str:
        return f"{self.subj} {self.rx} {self.obj}"


@dataclass(frozen=True)
class CRPQ:
    """Conjunctive RPQ: head variables ← conjunction of atoms."""

    head: tuple[str, ...]
    atoms: tuple[Atom, ...]

    def __str__(self) -> str:
        return ", ".join(self.head) + " <- " + ", ".join(map(str, self.atoms))


def is_var(endpoint: str) -> bool:
    return endpoint.startswith("?")


def var_col(endpoint: str) -> str:
    """Column name for a query variable (?x → v_x)."""
    assert is_var(endpoint)
    return "v_" + endpoint[1:]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class ParseError(ValueError):
    pass


class _Tokens:
    def __init__(self, s: str):
        self.toks: list[str] = []
        # Keep raw spaces visible to the alt-parser: tokenize manually.
        i = 0
        while i < len(s):
            if s[i].isspace():
                self.toks.append(" ")
                while i < len(s) and s[i].isspace():
                    i += 1
                continue
            if s.startswith("<-", i):
                self.toks.append("<-")
                i += 2
                continue
            if s[i] in "-/+()|,":
                self.toks.append(s[i])
                i += 1
                continue
            m = re.match(r"(\?[A-Za-z_]\w*|[A-Za-z_][\w:.']*|\d+)", s[i:])
            if not m:
                raise ParseError(f"bad character at …{s[i:i+20]!r}")
            self.toks.append(m.group(0))
            i += m.end()
        self.pos = 0

    def peek(self, skip_space: bool = True) -> str | None:
        p = self.pos
        while skip_space and p < len(self.toks) and self.toks[p] == " ":
            p += 1
        return self.toks[p] if p < len(self.toks) else None

    def next(self, skip_space: bool = True) -> str:
        while skip_space and self.pos < len(self.toks) and self.toks[self.pos] == " ":
            self.pos += 1
        if self.pos >= len(self.toks):
            raise ParseError("unexpected end of input")
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, tok: str) -> None:
        t = self.next()
        if t != tok:
            raise ParseError(f"expected {tok!r}, got {t!r}")

    def at_space(self) -> bool:
        return self.pos < len(self.toks) and self.toks[self.pos] == " "


def _flatten_seq(parts: list[Rx]) -> Rx:
    return parts[0] if len(parts) == 1 else Seq(tuple(parts))


def _parse_prim(ts: _Tokens) -> Rx:
    t = ts.peek()
    if t == "(":
        ts.expect("(")
        rx = _parse_alt(ts)
        ts.expect(")")
        return rx
    if t == "-":
        ts.expect("-")
        name = ts.next(skip_space=False)
        if not re.fullmatch(r"[A-Za-z_][\w:.']*", name or ""):
            raise ParseError(f"expected label after '-', got {name!r}")
        return Label(name, inverse=True)
    name = ts.next()
    if not re.fullmatch(r"[A-Za-z_][\w:.']*", name or ""):
        raise ParseError(f"expected label, got {name!r}")
    return Label(name)


def _parse_post(ts: _Tokens) -> Rx:
    rx = _parse_prim(ts)
    while ts.peek(skip_space=False) == "+":
        ts.expect("+")
        rx = Plus(rx)
    return rx


def _parse_seq(ts: _Tokens) -> Rx:
    parts = [_parse_post(ts)]
    while ts.peek(skip_space=False) == "/":
        ts.expect("/")
        parts.append(_parse_post(ts))
    return _flatten_seq(parts)


def _parse_alt(ts: _Tokens) -> Rx:
    parts = [_parse_seq(ts)]
    while True:
        nxt = ts.peek()
        if nxt == "|":
            ts.expect("|")
            parts.append(_parse_seq(ts))
        elif ts.at_space() and nxt not in (None, ")", ",", "+"):
            # space-separated alternative inside parentheses (paper Fig. 5)
            parts.append(_parse_seq(ts))
        else:
            break
    return parts[0] if len(parts) == 1 else Alt(tuple(parts))


def parse_rx(s: str) -> Rx:
    ts = _Tokens(s)
    rx = _parse_seq(ts)
    if ts.peek() is not None:
        raise ParseError(f"trailing tokens after regex: {ts.toks[ts.pos:]}")
    return rx


def _parse_endpoint(ts: _Tokens) -> str:
    t = ts.next()
    if t.startswith("?") or re.fullmatch(r"[A-Za-z_][\w:.']*|\d+", t):
        return t
    raise ParseError(f"expected variable or constant, got {t!r}")


def parse_query(s: str) -> CRPQ:
    """Parse ``?x, ?y <- ?x a+/b ?y, ?y c+ Japan``."""
    ts = _Tokens(s)
    head = [_parse_endpoint(ts)]
    while ts.peek() == ",":
        ts.expect(",")
        head.append(_parse_endpoint(ts))
    ts.expect("<-")
    atoms = []
    while True:
        subj = _parse_endpoint(ts)
        rx = _parse_seq(ts)
        obj = _parse_endpoint(ts)
        atoms.append(Atom(subj, rx, obj))
        if ts.peek() == ",":
            ts.expect(",")
            continue
        break
    if ts.peek() is not None:
        raise ParseError(f"trailing tokens after query: {ts.toks[ts.pos:]}")
    for h in head:
        if not is_var(h):
            raise ParseError(f"head term {h!r} is not a variable")
    return CRPQ(tuple(head), tuple(atoms))


# ---------------------------------------------------------------------------
# Normalization: distribute alternations not under Plus
# ---------------------------------------------------------------------------


def distribute_alts(rx: Rx) -> list[Rx]:
    """Rewrite rx into a union (list) of alternation-free-at-top regexes.

    Alternations remaining under a ``+`` are kept (the closure of a
    union is a single fixpoint over the unioned base relation); any
    other Alt is distributed, turning the CRPQ into a union of CRPQs
    the planner handles independently.
    """
    if isinstance(rx, Label):
        return [rx]
    if isinstance(rx, Plus):
        # (x|y)+ ≠ x+ ∪ y+ — unions under a closure stay inside the one
        # fixpoint (translated as a μ-RA Union in the step relation).
        return [rx]
    if isinstance(rx, Alt):
        out: list[Rx] = []
        for p in rx.parts:
            out.extend(distribute_alts(p))
        return _dedupe(out)
    if isinstance(rx, Seq):
        out = [[]]
        for p in rx.parts:
            branches = distribute_alts(p)
            out = [prefix + [b] for prefix in out for b in branches]
        return _dedupe([_flatten_seq(parts) for parts in out])
    raise TypeError(f"not a regex: {rx!r}")


def seq_items(rx: Rx) -> list[Rx]:
    """The concatenated items of ``rx`` (one item unless it is a Seq)."""
    return list(rx.parts) if isinstance(rx, Seq) else [rx]


def _dedupe(xs: list[Rx]) -> list[Rx]:
    seen: set[Rx] = set()
    out = []
    for x in xs:
        if x not in seen:
            seen.add(x)
            out.append(x)
    return out
