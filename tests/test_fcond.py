"""F_cond admissibility checks and the R ∪ φ decomposition (paper §II-B,
Propositions 1–2)."""
import pytest

from repro.core import fcond
from repro.core.fcond import (
    CapacityError,
    FCondError,
    check_fcond,
    constant_variable_split,
    seminaive,
    union_branches,
    union_of,
)
from repro.core.terms import (
    AntiJoin,
    Fix,
    Join,
    Rel,
    Union_,
    Var,
    compose,
)
from tests.conftest import FIG2_E, FIG2_FIXPOINT, FIG2_S


def tc_fix():
    return Fix("X", Union_(Rel("S"), compose(Var("X"), Rel("E"))))


class TestCheckFcond:
    def test_valid_tc(self):
        check_fcond(tc_fix())  # no raise

    def test_not_positive(self):
        # μ(X = S ∪ (E ▷ X)): X on the right of an antijoin.
        bad = Fix("X", Union_(Rel("S"), AntiJoin(Rel("E"), Var("X"))))
        with pytest.raises(FCondError, match="positive"):
            check_fcond(bad)

    def test_not_linear_join(self):
        bad = Fix("X", Union_(Rel("S"), Join(Var("X"), Var("X"))))
        with pytest.raises(FCondError, match="linear"):
            check_fcond(bad)

    def test_not_linear_compose_of_x_x(self):
        bad = Fix("X", Union_(Rel("S"), compose(Var("X"), Var("X"))))
        with pytest.raises(FCondError, match="linear"):
            check_fcond(bad)

    def test_mutually_recursive(self):
        inner = Fix("Y", Union_(Rel("S"), compose(Var("X"), Var("Y") if False else Rel("E"))))
        # inner references X while binding Y → mutual recursion
        inner = Fix("Y", Union_(Rel("S"), compose(Var("Y"), Var("X"))))
        bad = Fix("X", Union_(Rel("S"), inner))
        with pytest.raises(FCondError, match="mutually recursive"):
            check_fcond(bad)

    def test_inner_fix_constant_in_x_ok(self):
        # μ(X = R ∪ X ⋈ μ(Y = S ∪ Y∘E)) satisfies F_cond (paper example).
        inner = Fix("Y", Union_(Rel("S"), compose(Var("Y"), Rel("E"))))
        ok = Fix("X", Union_(Rel("R"), compose(Var("X"), inner)))
        check_fcond(ok)

    def test_positive_antijoin_left_ok(self):
        ok = Fix("X", Union_(Rel("S"), AntiJoin(compose(Var("X"), Rel("E")), Rel("R"))))
        check_fcond(ok)


class TestSplit:
    def test_basic_split(self):
        const, phi = constant_variable_split(tc_fix())
        assert const == Rel("S")
        assert "X" in str(phi)

    def test_multi_constant_branches(self):
        fix = Fix(
            "X",
            Union_(Union_(Rel("S"), Rel("R")), compose(Var("X"), Rel("E"))),
        )
        const, phi = constant_variable_split(fix)
        assert set(union_branches(const)) == {Rel("S"), Rel("R")}

    def test_multi_variable_branches(self):
        fix = Fix(
            "X",
            Union_(
                Rel("S"),
                Union_(compose(Var("X"), Rel("E")), compose(Rel("E"), Var("X"), "m1")),
            ),
        )
        const, phi = constant_variable_split(fix)
        assert len(union_branches(phi)) == 2

    def test_no_recursive_branch(self):
        with pytest.raises(FCondError, match="no recursive branch"):
            constant_variable_split(Fix("X", Union_(Rel("S"), Rel("E"))))

    def test_no_constant_branch(self):
        with pytest.raises(FCondError, match="no constant branch"):
            constant_variable_split(Fix("X", compose(Var("X"), Rel("E"))))

    def test_variable_branch_with_constant_union_side(self):
        # φ = (X∘E) ∪ S does not vanish at ∅ → rejected.
        bad = Fix(
            "X",
            Union_(Rel("S"), Join(Var("X"), Union_(compose(Var("X"), Rel("E")), Rel("S")))),
        )
        with pytest.raises(FCondError):
            constant_variable_split(bad)

    def test_constant_union_below_join_ok(self):
        # X ⋈ (E1 ∪ E2): the union is constant in X — allowed.
        fix = Fix(
            "X",
            Union_(Rel("S"), compose(Var("X"), Union_(Rel("E"), Rel("R")))),
        )
        const, phi = constant_variable_split(fix)
        assert const == Rel("S")

    def test_union_branches_flatten(self):
        t = Union_(Union_(Rel("A"), Rel("B")), Rel("C"))
        assert union_branches(t) == [Rel("A"), Rel("B"), Rel("C")]

    def test_union_of_roundtrip(self):
        branches = [Rel("A"), Rel("B"), Rel("C")]
        assert union_branches(union_of(branches)) == branches

    def test_union_of_empty_raises(self):
        with pytest.raises(ValueError):
            union_of([])


class TestSeminaive:
    """Algorithm 1 on Python sets of (src, dst) pairs."""

    E = set(FIG2_E.itertuples(index=False, name=None))
    S = set(FIG2_S.itertuples(index=False, name=None))

    def run(self, row_cap=None):
        """Example 2: X = S ∪ X∘E. Returns (result, step calls, size calls)."""
        calls = {"step": 0, "size": 0}

        def step(delta, x):
            calls["step"] += 1
            return {(a, d) for a, b in delta for c, d in self.E if b == c} - x

        def size(rows):
            calls["size"] += 1
            return len(rows)

        out = seminaive(frozenset(self.S), step, size, lambda x, d: x | d, row_cap)
        return out, calls

    def test_paper_example_2(self):
        out, calls = self.run()
        assert sorted(out) == FIG2_FIXPOINT
        # X2 adds 4 rows to X1 = S, X3 adds 2, the third step adds none.
        assert calls["step"] == 3
        assert calls["size"] == 3  # one |Δ| per step; no cap, so X is never counted

    def test_row_cap_boundary(self):
        out, calls = self.run(row_cap=10)
        assert len(out) == len(FIG2_FIXPOINT)
        assert calls["size"] == 4  # X is counted once, then a running total
        with pytest.raises(CapacityError, match="row_cap=9"):
            self.run(row_cap=9)

    def test_no_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(fcond, "MAX_ITERATIONS", 5)

        def fresh_row(delta, x):
            return {max(x) + 1}

        with pytest.raises(RuntimeError, match="did not converge in 5"):
            seminaive({0}, fresh_row, len, lambda x, d: x | d)
