import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    FixedProvider,
    admitted_join_columns,
    engineer_cosine_pair,
    engineer_similarity_cosine,
    load_perfbench_spans,
)

from joinscaffold import costs
from joinscaffold.costs import (
    CostWeights,
    DEFAULT_WEIGHTS,
    SchemaGraph,
    build_schema_graph,
    candidate_join_pairs,
    column_pair_similarity,
    connection_cost,
    semantic_cost,
    statistical_cost,
    table_embedding,
    table_similarity,
    type_match,
    graph_document,
    load_graph_document,
)
from joinscaffold.embedding import TrigramEmbeddingProvider, cosine01
from joinscaffold.profiling import PairStats, StatsProfile
from joinscaffold.schema import ColumnDef, ForeignKey, Schema, TableDef


def make_schema(tables, fks=()):
    return Schema(tuple(tables), tuple(fks))


def col(name, typ="integer", pk=False):
    return ColumnDef(name, typ, pk)


def test_weight_validation():
    CostWeights()  # defaults valid
    with pytest.raises(ValueError):
        CostWeights(alpha=0.5, beta=0.5, gamma=0.5)
    with pytest.raises(ValueError):
        CostWeights(w4=0.9, w5=0.9)
    with pytest.raises(ValueError):
        CostWeights(tau=1.5)


def test_identical_columns_similarity_one():
    c = col("customer_id", "integer")
    assert column_pair_similarity(c, c) == pytest.approx(1.0)


def test_similarity_formula_cos_08_types_differ():
    a, b = engineer_cosine_pair(0.8)
    provider = FixedProvider({"left_col": a, "right_col": b})
    s = column_pair_similarity(
        col("left_col", "integer"), col("right_col", "text"), DEFAULT_WEIGHTS, provider
    )
    assert s == pytest.approx(0.68, abs=1e-12)


def test_similarity_formula_cos_zero_types_match():
    provider = FixedProvider(
        {"left_col": np.array([1.0, 0.0]), "right_col": np.array([0.0, 1.0])}
    )
    s = column_pair_similarity(
        col("left_col", "integer"), col("right_col", "integer"), DEFAULT_WEIGHTS, provider
    )
    assert s == pytest.approx(0.15, abs=1e-12)


def test_table_similarity_matches_bruteforce():
    provider = TrigramEmbeddingProvider()
    ti = TableDef("t1", (col("alpha", "integer"), col("beta", "text")))
    tj = TableDef("t2", (col("alpha_ref", "integer"), col("gamma", "real")))
    expected = max(
        column_pair_similarity(ci, cj, DEFAULT_WEIGHTS, provider)
        for ci in ti.columns
        for cj in tj.columns
    )
    s, pair = table_similarity(ti, tj, DEFAULT_WEIGHTS, provider)
    assert s == expected
    assert pair == ("alpha", "alpha_ref")


def test_table_similarity_shared_column_is_one():
    ti = TableDef("a", (col("customer_id", "integer"),))
    tj = TableDef("b", (col("customer_id", "integer"),))
    s, pair = table_similarity(ti, tj)
    assert s == pytest.approx(1.0)
    assert pair == ("customer_id", "customer_id")


def test_connection_cost_direct_fk_identical():
    ti = TableDef("a", (col("id", "integer", True),))
    tj = TableDef("b", (col("id", "integer"),))
    schema = make_schema([ti, tj], [ForeignKey("b", "id", "a", "id")])
    assert connection_cost(ti, tj, schema) == pytest.approx(0.0, abs=1e-12)


def test_connection_cost_all_terms_maximal():
    provider = FixedProvider(
        {"xx": np.array([1.0, 0.0]), "yy": np.array([0.0, 1.0])}
    )
    ti = TableDef("a", (col("xx", "integer"),))
    tj = TableDef("b", (col("yy", "text"),))
    schema = make_schema([ti, tj])
    assert connection_cost(ti, tj, schema, DEFAULT_WEIGHTS, provider) == pytest.approx(1.0)


def test_connection_cost_fk_simname_07():
    a, b = engineer_cosine_pair(0.7)
    provider = FixedProvider({"pa": a, "pb": b})
    ti = TableDef("a", (col("pa", "integer"),))
    tj = TableDef("b", (col("pb", "integer"),))
    schema = make_schema([ti, tj], [ForeignKey("b", "pb", "a", "pa")])
    cost = connection_cost(ti, tj, schema, DEFAULT_WEIGHTS, provider)
    assert cost == pytest.approx(0.1, abs=1e-9)


def test_semantic_cost_identical_tables_zero():
    t = TableDef("orders", (col("id", "integer"), col("total", "real")))
    assert semantic_cost(t, t) == pytest.approx(0.0, abs=1e-12)


def test_semantic_cost_symmetric():
    ta = TableDef("orders", (col("id", "integer"), col("total", "real")))
    tb = TableDef("customers", (col("id", "integer"), col("name", "text")))
    assert semantic_cost(ta, tb) == semantic_cost(tb, ta)


def test_semantic_cost_matches_mean_then_cosine_oracle():
    provider = TrigramEmbeddingProvider()
    ta = TableDef("orders", (col("order_id", "integer"), col("total", "real")))
    tb = TableDef("payments", (col("payment_id", "integer"), col("amount", "real")))
    # Independent recomputation: average the vectors by hand, then cosine.
    mean_a = (
        provider.embed("orders") + provider.embed("order_id") + provider.embed("total")
    ) / 3.0
    mean_b = (
        provider.embed("payments") + provider.embed("payment_id") + provider.embed("amount")
    ) / 3.0
    expected = 1.0 - cosine01(mean_a, mean_b)
    assert semantic_cost(ta, tb, provider) == pytest.approx(expected, abs=1e-12)
    assert np.allclose(table_embedding(ta, provider), mean_a)


def _stats(sel, corr):
    return StatsProfile(
        sample_limit=10,
        pairs={("a", "x", "b", "y"): PairStats(sel, corr)},
    )


def test_statistical_cost_values():
    ta = TableDef("a", (col("x", "integer"),))
    tb = TableDef("b", (col("y", "integer"),))
    assert statistical_cost(ta, tb, _stats(1.0, 1.0)) == pytest.approx(0.0)
    assert statistical_cost(ta, tb, _stats(0.0, 0.0)) == pytest.approx(1.0)
    assert statistical_cost(ta, tb, _stats(0.6, 0.2)) == pytest.approx(0.6)
    assert statistical_cost(ta, tb, None) == pytest.approx(0.5)


def test_build_graph_with_overrides_matches_pinned_costs(analytics_schema):
    overrides = {
        ("ga_sessions", "totals"): 0.08,
        ("ga_sessions", "hits"): 0.09,
        ("hits", "totals"): 0.58,
    }
    graph = build_schema_graph(analytics_schema, cost_overrides=overrides)
    assert graph.weight("ga_sessions", "totals") == 0.08
    assert graph.weight("ga_sessions", "hits") == 0.09
    assert graph.weight("totals", "hits") == 0.58
    # override keeps the blend identity: all components equal the pinned total
    e = graph.edge("totals", "hits")
    assert e.connect == e.semantic == e.statistical == e.total == 0.58


def test_single_table_graph():
    schema = make_schema([TableDef("only", (col("id", "integer"),))])
    graph = build_schema_graph(schema)
    assert graph.vertices == ("only",)
    assert graph.edges == {}


def test_fk_edge_exists_despite_dissimilarity():
    provider = FixedProvider(
        {"xx": np.array([1.0, 0.0]), "yy": np.array([0.0, 1.0])}
    )
    ti = TableDef("a", (col("xx", "integer"),))
    tj = TableDef("b", (col("yy", "text"),))
    schema = make_schema([ti, tj], [ForeignKey("b", "yy", "a", "xx")])
    graph = build_schema_graph(schema, provider=provider)
    assert graph.has_edge("a", "b")
    assert graph.edge("a", "b").has_fk


def test_threshold_admission_074_075_076():
    # Engineer exact similarity values via the type-mismatch path:
    # s = sim_alpha * cos with cos constructed so the product is exact.
    for target, admitted in ((0.74, False), (0.75, True), (0.76, True)):
        c = engineer_similarity_cosine(target)
        a, b = engineer_cosine_pair(c)
        provider = FixedProvider({"pa": a, "pb": b})
        ti = TableDef("ta", (col("pa", "integer"),))
        tj = TableDef("tb", (col("pb", "text"),))
        schema = make_schema([ti, tj])
        s, _pair = table_similarity(ti, tj, DEFAULT_WEIGHTS, provider)
        assert s == target
        graph = build_schema_graph(schema, provider=provider)
        assert graph.has_edge("ta", "tb") == admitted


def test_excluded_edges_are_dropped(analytics_schema):
    overrides = {
        ("ga_sessions", "totals"): 0.08,
        ("ga_sessions", "hits"): 0.09,
        ("hits", "totals"): 0.58,
    }
    graph = build_schema_graph(analytics_schema, cost_overrides=overrides)
    filtered = graph.without([("totals", "ga_sessions")])
    assert not filtered.has_edge("ga_sessions", "totals")
    assert filtered.has_edge("ga_sessions", "hits")
    assert filtered.vertices == graph.vertices
    assert graph.has_edge("ga_sessions", "totals")  # the source graph is unchanged


def test_candidate_join_pairs_are_admitted_edges_join_columns(company_schema):
    similarity_edges = 0
    for tau in (0.5, 0.6, 0.75, 0.9):
        weights = CostWeights(tau=tau)
        graph = build_schema_graph(company_schema, weights=weights)
        similarity_edges += sum(not c.has_fk for c in graph.edges.values())
        assert candidate_join_pairs(company_schema, weights) == admitted_join_columns(
            company_schema, graph
        )
    assert similarity_edges  # both the FK and the best-pair branch are covered


def _reference_connection_cost(ti, tj, schema, weights, provider):
    """Connection cost as first written: the types of the max-name-cosine pair
    (lexicographic ties), falling back to any same-typed pair."""
    best = -1.0
    pair = None
    for ci in sorted(ti.columns, key=lambda c: c.name):
        for cj in sorted(tj.columns, key=lambda c: c.name):
            cos = cosine01(provider.embed(ci.name), provider.embed(cj.name))
            if cos > best:
                best = cos
                pair = (ci, cj)
    if type_match(*pair) == 1.0:
        sim_type = 1.0
    else:
        sim_type = (
            1.0
            if any(type_match(a, b) == 1.0 for a in ti.columns for b in tj.columns)
            else 0.0
        )
    not_fk = 0.0 if schema.has_fk(ti.name, tj.name) else 1.0
    return weights.w1 * not_fk + weights.w2 * (1.0 - best) + weights.w3 * (1.0 - sim_type)


_columns = st.lists(
    st.tuples(
        st.text(alphabet="abc_", min_size=1, max_size=5),
        st.sampled_from(["integer", "text", "real"]),
    ),
    min_size=1,
    max_size=4,
    unique_by=lambda c: c[0],
)


@settings(max_examples=200, deadline=None)
@given(_columns, _columns, st.booleans())
def test_connection_cost_matches_argmax_reference(cols_a, cols_b, fk):
    provider = TrigramEmbeddingProvider()
    ti = TableDef("ta", tuple(col(n, t) for n, t in cols_a))
    tj = TableDef("tb", tuple(col(n, t) for n, t in cols_b))
    fks = [ForeignKey("tb", cols_b[0][0], "ta", cols_a[0][0])] if fk else []
    schema = make_schema([ti, tj], fks)
    assert connection_cost(ti, tj, schema, DEFAULT_WEIGHTS, provider) == (
        _reference_connection_cost(ti, tj, schema, DEFAULT_WEIGHTS, provider)
    )


def test_traced_run_scores_every_table_pair_once(company_schema):
    # The traced benchmark run counts costs.table_pairs_scored by wrapping
    # costs.table_similarity; a graph build that bypassed it would read 0.
    spans = load_perfbench_spans()
    rec = spans.Recorder()
    spans.instrument(rec)
    try:
        costs.build_schema_graph(company_schema)
    finally:
        rec.unpatch()
    n = len(company_schema.table_names)
    assert rec.counters["setup"]["costs.table_pairs_scored"] == n * (n - 1) // 2
    assert rec.counters["setup"]["costs.build_graph_calls"] == 1


def test_total_is_convex_combination(analytics_schema):
    graph = build_schema_graph(analytics_schema)
    w = DEFAULT_WEIGHTS
    for _a, _b, cost in graph.sorted_edges():
        expected = w.alpha * cost.connect + w.beta * cost.semantic + w.gamma * cost.statistical
        assert abs(cost.total - expected) <= 1e-9
        for v in (cost.connect, cost.semantic, cost.statistical, cost.total):
            assert 0.0 <= v <= 1.0


def test_cost_symmetry(analytics_schema):
    schema = analytics_schema
    provider = TrigramEmbeddingProvider()
    for a in schema.tables:
        for b in schema.tables:
            if a.name >= b.name:
                continue
            assert connection_cost(a, b, schema, provider=provider) == pytest.approx(
                connection_cost(b, a, schema, provider=provider), abs=1e-12
            )
            assert semantic_cost(a, b, provider) == pytest.approx(
                semantic_cost(b, a, provider), abs=1e-12
            )


def test_graph_document_round_trip(analytics_schema):
    graph = build_schema_graph(analytics_schema)
    doc = graph_document(graph)
    loaded = load_graph_document(doc)
    assert loaded.vertices == graph.vertices
    assert set(loaded.edges) == set(graph.edges)
    assert graph_document(loaded) == doc


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError):
        SchemaGraph.from_weights(["a"], {("a", "a"): 0.5})
