"""Unit tests for the μ-RA term language: schema inference, structural
helpers, substitution, and the binary-relation constructors."""
import dataclasses
import typing

import pytest

from repro.core.terms import (
    AntiJoin,
    AntiProject,
    EqCol,
    EqConst,
    Filter,
    Fix,
    Join,
    Rel,
    Rename,
    SchemaError,
    Term,
    Union_,
    Var,
    children,
    compose,
    free_rels,
    free_vars,
    fresh_mid,
    inverse,
    is_constant_in,
    map_children,
    schema,
    subst,
    walk,
)

SD = frozenset({"src", "dst"})
ENV = {"R": SD, "S": SD, "G": frozenset({"src", "label", "dst"})}


class TestSchema:
    def test_rel(self):
        assert schema(Rel("R"), ENV) == SD

    def test_unknown_rel(self):
        with pytest.raises(SchemaError):
            schema(Rel("nope"), ENV)

    def test_unbound_var(self):
        with pytest.raises(SchemaError):
            schema(Var("X"), ENV)

    def test_bound_var(self):
        assert schema(Var("X"), ENV, {"X": SD}) == SD

    def test_union_ok(self):
        assert schema(Union_(Rel("R"), Rel("S")), ENV) == SD

    def test_union_mismatch(self):
        with pytest.raises(SchemaError):
            schema(Union_(Rel("R"), Rel("G")), ENV)

    def test_join_widens(self):
        assert schema(Join(Rel("R"), Rel("G")), ENV) == frozenset({"src", "label", "dst"})

    def test_antijoin_keeps_left(self):
        assert schema(AntiJoin(Rel("G"), Rel("R")), ENV) == frozenset({"src", "label", "dst"})

    def test_filter_ok(self):
        assert schema(Filter(EqConst("src", 1), Rel("R")), ENV) == SD

    def test_filter_missing_col(self):
        with pytest.raises(SchemaError):
            schema(Filter(EqConst("nope", 1), Rel("R")), ENV)

    def test_filter_eqcol(self):
        assert schema(Filter(EqCol("src", "dst"), Rel("R")), ENV) == SD

    def test_antiproject(self):
        assert schema(AntiProject(("src",), Rel("R")), ENV) == frozenset({"dst"})

    def test_antiproject_missing(self):
        with pytest.raises(SchemaError):
            schema(AntiProject(("nope",), Rel("R")), ENV)

    def test_rename(self):
        assert schema(Rename("src", "x", Rel("R")), ENV) == frozenset({"x", "dst"})

    def test_rename_missing(self):
        with pytest.raises(SchemaError):
            schema(Rename("nope", "x", Rel("R")), ENV)

    def test_rename_collision(self):
        with pytest.raises(SchemaError):
            schema(Rename("src", "dst", Rel("R")), ENV)

    def test_compose_schema(self):
        assert schema(compose(Rel("R"), Rel("S")), ENV) == SD

    def test_fixpoint_schema(self):
        fix = Fix("X", Union_(Rel("S"), compose(Var("X"), Rel("R"))))
        assert schema(fix, ENV) == SD

    def test_fixpoint_schema_mismatch(self):
        # Variable branch produces a different schema than the seeds.
        bad = Fix("X", Union_(Rel("S"), Rename("dst", "other", compose(Var("X"), Rel("R")))))
        with pytest.raises(SchemaError):
            schema(bad, ENV)

    def test_inverse_schema(self):
        assert schema(inverse(Rel("R")), ENV) == SD


class TestStructure:
    def test_free_vars_basic(self):
        assert free_vars(compose(Var("X"), Rel("R"))) == {"X"}

    def test_free_vars_shadowed(self):
        fix = Fix("X", Union_(Rel("S"), compose(Var("X"), Rel("R"))))
        assert free_vars(fix) == frozenset()

    def test_free_vars_inner_other(self):
        fix = Fix("X", Union_(Rel("S"), compose(Var("Y"), Rel("R"))))
        assert free_vars(fix) == {"Y"}

    def test_free_rels(self):
        fix = Fix("X", Union_(Rel("S"), compose(Var("X"), Rel("R"))))
        assert free_rels(fix) == {"S", "R"}

    def test_is_constant_in(self):
        assert is_constant_in(Rel("R"), "X")
        assert not is_constant_in(compose(Var("X"), Rel("R")), "X")

    def test_walk_counts(self):
        t = compose(Rel("R"), Rel("S"))
        kinds = [type(s).__name__ for s in walk(t)]
        assert kinds.count("Rel") == 2
        assert kinds.count("Rename") == 2
        assert kinds.count("Join") == 1

    def test_subst_replaces(self):
        t = compose(Var("X"), Rel("R"))
        t2 = subst(t, "X", Rel("S"))
        assert free_vars(t2) == frozenset()
        assert "S" in free_rels(t2)

    def test_subst_shadowing(self):
        inner = Fix("X", Union_(Rel("S"), compose(Var("X"), Rel("R"))))
        t = Join(Var("X"), inner)
        t2 = subst(t, "X", Rel("Q"))
        # Outer occurrence replaced, inner binder untouched.
        assert isinstance(t2, Join)
        assert t2.left == Rel("Q")
        assert t2.right == inner

    def test_fresh_mid_avoids_used(self):
        t = compose(Rel("R"), Rel("S"), "m0")
        assert fresh_mid(t) != "m0"

    def test_fresh_mid_nested(self):
        t1 = compose(Rel("R"), Rel("S"), "m0")
        t2 = compose(t1, Rel("R"), "m1")
        m = fresh_mid(t2)
        assert m not in ("m0", "m1")

    def test_union_operator_sugar(self):
        assert Rel("R").union(Rel("S")) == Union_(Rel("R"), Rel("S"))
        assert Rel("R").join(Rel("S")) == Join(Rel("R"), Rel("S"))


# One instance of each of the 9 term constructors (paper Fig. 1).
ONE_OF_EACH = [
    Rel("R"),
    Var("X"),
    Union_(Rel("R"), Rel("S")),
    Join(Rel("R"), Var("X")),
    AntiJoin(Rel("R"), Rel("S")),
    Filter(EqConst("src", 1), Rel("R")),
    AntiProject(("src",), Rel("R")),
    Rename("src", "m0", Rel("R")),
    Fix("X", Union_(Rel("S"), compose(Var("X"), Rel("R")))),
]


def _instance(cls: type) -> Term:
    """An instance of ``cls`` built from its field types alone, so a new
    term type needs no hand-written sample here."""
    value = {Term: Rel("R"), str: "src", tuple[str, ...]: ("src",)}
    hints = typing.get_type_hints(cls)
    return cls(
        *(
            value.get(hints[f.name], EqConst("src", 1))
            for f in dataclasses.fields(cls)
        )
    )


class TestMapChildren:
    @pytest.mark.parametrize("t", ONE_OF_EACH, ids=lambda t: type(t).__name__)
    def test_identity(self, t):
        assert map_children(t, lambda c: c) == t

    @pytest.mark.parametrize("t", ONE_OF_EACH, ids=lambda t: type(t).__name__)
    def test_applies_f_once_per_child(self, t):
        seen = []

        def f(c):
            seen.append(c)
            return Rel(f"Z{len(seen)}")

        out = map_children(t, f)
        assert seen == list(children(t))
        assert type(out) is type(t)
        assert children(out) == tuple(Rel(f"Z{i + 1}") for i in range(len(seen)))
        for fld in dataclasses.fields(t):
            if not isinstance(getattr(t, fld.name), Term):
                assert getattr(out, fld.name) == getattr(t, fld.name)

    def test_every_term_type_is_handled(self):
        types = Term.__subclasses__()
        assert {type(t) for t in ONE_OF_EACH} == set(types)
        for cls in types:
            t = _instance(cls)
            term_fields = tuple(
                getattr(t, f.name)
                for f in dataclasses.fields(cls)
                if isinstance(getattr(t, f.name), Term)
            )
            assert children(t) == term_fields, cls.__name__
            assert map_children(t, lambda c: c) == t, cls.__name__
