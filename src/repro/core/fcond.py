"""F_cond checks and constant/variable decomposition (paper §II-B).

A fixpoint μ(X = Ψ) is admissible when it is *positive* (X never on the
right of an antijoin), *linear* (no join/antijoin with X free on both
sides) and *non mutually recursive* (X does not occur free inside an
inner fixpoint on another variable). Under F_cond, Proposition 1 gives
Ψ(S) = Ψ(∅) ∪ ⋃_{x∈S} Ψ({x}), which justifies both semi-naive
evaluation (Algorithm 1) and the P_plw fixpoint-splitting plan
(Proposition 3).

Proposition 2: every admissible fixpoint can be written μ(X = R ∪ φ)
with R constant in X and φ(∅) = ∅. :func:`constant_variable_split`
computes that decomposition by flattening the top-level union.

:func:`seminaive` is Algorithm 1 itself, the one loop every engine runs.
"""
from __future__ import annotations

from typing import Callable, TypeVar

from .terms import (
    AntiJoin,
    Fix,
    Join,
    Term,
    Union_,
    free_vars,
    is_constant_in,
    walk,
)


MAX_ITERATIONS = 100_000  # bound of the semi-naive loop, on every engine
Rows = TypeVar("Rows")


class FCondError(ValueError):
    """The fixpoint violates one of the F_cond conditions."""


class CapacityError(RuntimeError):
    """A fixpoint or message volume exceeded its ``row_cap`` (≙ the
    paper's crash markers). The one capacity error of every engine and
    baseline."""


def union_branches(t: Term) -> list[Term]:
    """Flatten nested top-level unions into a list of branches."""
    if isinstance(t, Union_):
        return union_branches(t.left) + union_branches(t.right)
    return [t]


def union_of(branches: list[Term]) -> Term:
    """Right-fold a non-empty branch list back into a Union_ tree."""
    if not branches:
        raise ValueError("empty union")
    out = branches[-1]
    for b in reversed(branches[:-1]):
        out = Union_(b, out)
    return out


def check_fcond(fix: Fix) -> None:
    """Raise :class:`FCondError` unless ``fix`` satisfies F_cond."""
    x = fix.var
    for sub in walk(fix.body):
        if isinstance(sub, AntiJoin) and x in free_vars(sub.right):
            raise FCondError(f"not positive: {x} free on the right of ▷ in {sub}")
        if isinstance(sub, (Join, AntiJoin)):
            if x in free_vars(sub.left) and x in free_vars(sub.right):
                raise FCondError(f"not linear: {x} free on both sides of {sub}")
        if isinstance(sub, Fix) and sub is not fix and sub.var != x:
            if x in free_vars(sub):
                raise FCondError(
                    f"mutually recursive: {x} free inside inner fixpoint μ({sub.var}=…)"
                )


def constant_variable_split(fix: Fix) -> tuple[Term, Term]:
    """Decompose μ(X = Ψ) into (R, φ) with Ψ ≡ R ∪ φ (Proposition 2).

    Branches of the flattened top-level union are sorted into constant
    branches (no free X) forming R, and variable branches forming φ.
    Under F_cond every variable branch v satisfies v(∅)=∅ because X is
    joined/renamed/filtered, never unioned with a constant below the
    top level of that branch — verified structurally here.
    """
    x = fix.var
    const: list[Term] = []
    var: list[Term] = []
    for b in union_branches(fix.body):
        (const if is_constant_in(b, x) else var).append(b)
    if not var:
        raise FCondError(f"fixpoint body has no recursive branch: {fix}")
    if not const:
        raise FCondError(f"fixpoint body has no constant branch (empty fixpoint): {fix}")
    for v in var:
        _check_vanishes_at_empty(v, x)
    return union_of(const), union_of(var)


def _check_vanishes_at_empty(t: Term, x: str) -> None:
    """Structurally verify t(∅) = ∅ for a branch with X free.

    Sufficient conditions: every union *on the X path* (i.e. with X
    free in it) must have X free on both sides, else a constant
    sub-branch would survive X=∅. Unions fully constant in X are plain
    constant relations and are fine. All other operators (join,
    antijoin-left, filter, rename, antiproj) map empty input to empty
    output along the X path.
    """
    for sub in walk(t):
        if isinstance(sub, Union_) and x in free_vars(sub):
            if not (x in free_vars(sub.left) and x in free_vars(sub.right)):
                raise FCondError(
                    f"variable branch {t} does not vanish at ∅: "
                    f"union {sub} has a constant side"
                )


def seminaive(
    seeds: Rows,
    step: Callable[[Rows, Rows], Rows],
    size: Callable[[Rows], int],
    add: Callable[[Rows, Rows], Rows],
    row_cap: int | None = None,
) -> Rows:
    """Algorithm 1: X = R; Δ = R; while Δ ≠ ∅: Δ = φ(Δ) ∖ X; X = X ∪ Δ.

    The engine supplies the set operations: ``seeds`` is R, distinct;
    ``step(Δ, X)`` returns φ(Δ) ∖ X, distinct; ``add(X, Δ)`` returns
    X ∪ Δ; ``size`` counts rows. Δ is disjoint from X, so |X| = |R| + Σ|Δ|
    and X is counted once, only when a ``row_cap`` is set; a fixpoint above
    it raises :class:`CapacityError`.
    """
    x = delta = seeds
    total: int | None = None
    for _ in range(MAX_ITERATIONS):
        delta = step(delta, x)
        n = size(delta)
        if n == 0:
            return x
        if row_cap is not None:
            total = (size(x) if total is None else total) + n
            if total > row_cap:
                raise CapacityError(f"fixpoint exceeded row_cap={row_cap}")
        x = add(x, delta)
    raise RuntimeError(f"fixpoint did not converge in {MAX_ITERATIONS} iterations")
