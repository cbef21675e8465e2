"""Endpoint binding: one decision (``resolve_endpoints``) and one naming
step (``name_columns``) behind Query2Mu, the planner and the BigDatalog
baseline. An atom whose constant object column has to stay must not
natural-join another such atom on it unless both fix the same value."""
import pandas as pd
import pytest

from repro.baselines.bigdatalog import plan_crpq_bigdatalog
from repro.baselines.pregel import eval_atom_pregel
from repro.core.compiler_pandas import eval_pandas
from repro.core.compiler_sql import eval_duckdb
from repro.core.cost import GraphStats
from repro.core.planner import plan_crpq
from repro.core.query2mu import DST, GRAPH, SRC, crpq_to_term, resolve_endpoints
from repro.core.reference import eval_crpq
from repro.core.rpq import parse_query

TRIPLES = [(1, "a", 2), (2, "a", 3), (3, "a", 4), (1, "b", 5)]
G = pd.DataFrame(TRIPLES, columns=["src", "label", "dst"])

TRANSLATIONS = {
    "query2mu": crpq_to_term,
    "planner": lambda q: plan_crpq(q, GraphStats.from_pandas(G)).term,
    "bigdatalog": plan_crpq_bigdatalog,
}

# Atoms that leave a constant column behind, cross-joined with ?x b ?y.
CROSS_QUERIES = [
    ("?y <- ?a a 4, ?b a 3, ?x b ?y", {(5,)}),
    ("?y <- ?a a+ 4, ?b a+ 3, ?x b ?y", {(5,)}),
    ("?y <- 1 a+ 4, 2 a+ 3, ?x b ?y", {(5,)}),
    ("?y <- 1 a+ 4, 3 a+ 2, ?x b ?y", set()),
]


@pytest.mark.parametrize("evaluate", [eval_pandas, eval_duckdb], ids=["pandas", "duckdb"])
@pytest.mark.parametrize("translate", TRANSLATIONS.values(), ids=TRANSLATIONS.keys())
@pytest.mark.parametrize("query, want", CROSS_QUERIES, ids=[q for q, _ in CROSS_QUERIES])
def test_constant_columns_cross_join(query, want, translate, evaluate):
    q = parse_query(query)
    out = evaluate(translate(q), {GRAPH: G})
    got = set(map(tuple, out[["v_y"]].values.tolist()))
    assert got == eval_crpq(q, TRIPLES) == want


@pytest.mark.parametrize(
    "atom, droppable, want",
    [
        ("?x a ?y", frozenset(), (None, None, ())),
        ("?x a ?y", frozenset({"?x", "?y"}), (None, None, (SRC,))),
        ("?x a ?y", frozenset({"?y"}), (None, None, (DST,))),
        ("?x a ?x", frozenset({"?x"}), (None, None, ())),
        ("7 a ?y", frozenset({"?y"}), (7, None, (SRC,))),
        ("?x a Paris", frozenset(), (None, 9, (DST,))),
        ("7 a Paris", frozenset(), (7, 9, (SRC,))),
    ],
)
def test_resolve_endpoints(atom, droppable, want):
    a = parse_query(f"?z <- {atom}").atoms[0]
    assert resolve_endpoints(a, {"Paris": 9}, droppable) == want


def test_unknown_constant_same_error_everywhere():
    q = parse_query("?y <- Nowhere a ?y")
    calls = [
        lambda: crpq_to_term(q),
        lambda: plan_crpq(q, GraphStats.from_pandas(G)),
        lambda: plan_crpq_bigdatalog(q),
        # resolves before touching Spark, so no session is needed
        lambda: eval_atom_pregel(None, None, q.atoms[0], {}),
    ]
    for call in calls:
        with pytest.raises(KeyError, match="unknown constant 'Nowhere'"):
            call()
