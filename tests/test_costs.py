import math

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
    EdgeCost,
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
    edge_key,
    graph_document,
    load_graph_document,
)
from joinscaffold.embedding import TrigramEmbeddingProvider, cosine01, default_provider
from joinscaffold.profiling import NEUTRAL, PairStats, StatsProfile
from joinscaffold.schema import DECLARED_TYPES, ColumnDef, ForeignKey, Schema, TableDef


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


# ---------------------------------------------------------------------------
# The per-pair scalar walk the graph build used before the similarity screen:
# every table pair scored column pair by column pair, with no cached norms,
# vectors or indexes. The screened build must reproduce it bit for bit.
# ---------------------------------------------------------------------------


def reference_table_similarity(ti, tj, weights, provider):
    best, best_pair = -1.0, ("", "")
    for ci in sorted(ti.columns, key=lambda c: c.name):
        for cj in sorted(tj.columns, key=lambda c: c.name):
            cos = cosine01(provider.embed(ci.name), provider.embed(cj.name))
            s = weights.sim_alpha * cos + (1.0 - weights.sim_alpha) * type_match(ci, cj)
            if s > best:
                best, best_pair = s, (ci.name, cj.name)
    return best, best_pair


def reference_table_pair_stats(stats, ta, tb):
    found = [
        pair for (a, _ca, b, _cb), pair in sorted(stats.pairs.items()) if {a, b} == {ta, tb}
    ]
    return max(found, key=lambda pair: pair.selectivity) if found else None


def _reference_mean_embedding(t, provider):
    vectors = [provider.embed(t.name)] + [provider.embed(c.name) for c in t.columns]
    return np.mean(np.stack(vectors), axis=0)


def reference_graph(schema, stats, weights, provider, cost_overrides=None):
    w = weights
    overrides = {edge_key(a, b): c for (a, b), c in (cost_overrides or {}).items()}
    names = sorted(schema.table_names)
    edges = {}
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            ti, tj = schema.table(a), schema.table(b)
            has_fk = schema.has_fk(a, b)
            s, best_pair = reference_table_similarity(ti, tj, w, provider)
            if not (has_fk or s >= w.tau or (a, b) in overrides):
                continue
            if (a, b) in overrides:
                c = overrides[(a, b)]
                edges[(a, b)] = EdgeCost(c, c, c, c, has_fk, best_pair)
                continue
            sim_name = max(
                cosine01(provider.embed(ci.name), provider.embed(cj.name))
                for ci in ti.columns
                for cj in tj.columns
            )
            shared = {c.declared_type for c in ti.columns} & {c.declared_type for c in tj.columns}
            connect = (
                w.w1 * (0.0 if has_fk else 1.0)
                + w.w2 * (1.0 - sim_name)
                + w.w3 * (1.0 - (1.0 if shared else 0.0))
            )
            sem = 1.0 - cosine01(
                _reference_mean_embedding(ti, provider), _reference_mean_embedding(tj, provider)
            )
            pair = reference_table_pair_stats(stats, a, b) if stats is not None else None
            sel = pair.selectivity if pair is not None else NEUTRAL
            corr = pair.correlation if pair is not None else NEUTRAL
            stat = w.w4 * (1.0 - sel) + w.w5 * (1.0 - corr)
            total = w.alpha * connect + w.beta * sem + w.gamma * stat
            edges[(a, b)] = EdgeCost(connect, sem, stat, total, has_fk, best_pair)
    return SchemaGraph(tuple(names), edges)


_NAMES = (
    "id", "customer_id", "cust_id", "order_id", "order_no", "name", "names",
    "amount", "amt", "region", "region_code", "created_at", "date",
)
# Similarity paths that can land exactly on each tau (0.9 exceeds sim_alpha,
# so only a type match reaches it; no float cosine gives 0.6 with a match).
_ENGINEERED_PATHS = {0.6: (0.0,), 0.75: (0.0, 1.0), 0.9: (1.0,)}


@st.composite
def _screen_cases(draw):
    n_tables = draw(st.integers(2, 7))
    tables = []
    for t in range(n_tables):
        names = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=4, unique=True))
        tables.append(TableDef(f"t{t}", tuple(
            col(n, draw(st.sampled_from(DECLARED_TYPES[:3]))) for n in names
        )))
    tau = draw(st.sampled_from(sorted(_ENGINEERED_PATHS)))
    pinned = {}
    vectors = {}
    target = None
    offset = draw(st.sampled_from([None, -1, 0, 1]))  # ulps from tau, or no engineered pair
    if offset is not None:
        target = tau if offset == 0 else math.nextafter(tau, 2.0 * offset)
        match = draw(st.sampled_from(_ENGINEERED_PATHS[tau]))
        a, b = engineer_cosine_pair(engineer_similarity_cosine(target, type_match=match))
        vectors = {"eng_left": a, "eng_right": b}
        tables.append(TableDef("zz_left", (col("eng_left", "integer"),)))
        tables.append(TableDef("zz_right", (col("eng_right", "integer" if match else "text"),)))
    fks = []
    for _ in range(draw(st.integers(0, 3))):
        ta, tb = draw(st.sampled_from(tables)), draw(st.sampled_from(tables))
        fks.append(ForeignKey(
            ta.name, draw(st.sampled_from(ta.columns)).name,
            tb.name, draw(st.sampled_from(tb.columns)).name,
        ))
    names = [t.name for t in tables]
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        if a != b:
            pinned[(a, b)] = draw(st.sampled_from([0.0, 0.25, 0.9]))
    pairs = {}
    for _ in range(draw(st.integers(0, 6))):
        ta, tb = draw(st.sampled_from(tables)), draw(st.sampled_from(tables))
        key = (ta.name, draw(st.sampled_from(ta.columns)).name,
               tb.name, draw(st.sampled_from(tb.columns)).name)
        pairs[key] = PairStats(
            draw(st.sampled_from([0.2, 0.5, 0.8])), draw(st.sampled_from([0.1, 0.6]))
        )
    schema = make_schema(draw(st.permutations(tables)), fks)
    stats = StatsProfile(sample_limit=10, pairs=pairs)
    return schema, stats, CostWeights(tau=tau), pinned, vectors, target


@settings(max_examples=300, deadline=None)
@given(_screen_cases())
def test_screened_build_equals_the_scalar_reference_walk(case):
    schema, stats, weights, pinned, vectors, target = case
    provider = FixedProvider(vectors)
    built = build_schema_graph(schema, stats, weights, provider, pinned)
    expected = reference_graph(schema, stats, weights, provider, pinned)
    assert graph_document(built) == graph_document(expected)
    assert {k: e.best_column_pair for k, e in built.edges.items()} == {
        k: e.best_column_pair for k, e in expected.edges.items()
    }
    assert candidate_join_pairs(schema, weights, provider) == admitted_join_columns(
        schema, reference_graph(schema, None, weights, provider)
    )
    if target is not None:  # the pair at tau +- 1 ulp is admitted iff it reaches tau
        s, _pair = table_similarity(
            schema.table("zz_left"), schema.table("zz_right"), weights, provider
        )
        assert s == target
        assert built.has_edge("zz_left", "zz_right") == (
            target >= weights.tau
            or schema.has_fk("zz_left", "zz_right")
            or edge_key("zz_left", "zz_right") in {edge_key(*k) for k in pinned}
        )


@pytest.mark.parametrize("tau", [0.6, 0.75])
def test_traced_build_rescores_exactly_the_pairs_the_screen_passes(company_schema, tau):
    # The traced benchmark run counts costs.table_pairs_scored by wrapping
    # costs.table_similarity. The build must rescore through it each pair
    # with an FK or an override and each pair whose similarity comes within
    # the screen margin of tau, and no other pair.
    weights = CostWeights(tau=tau)
    pinned = {("departments", "assignments"): 0.5}
    provider = default_provider()
    names = sorted(company_schema.table_names)
    expected = 0
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            s, _pair = reference_table_similarity(
                company_schema.table(a), company_schema.table(b), weights, provider
            )
            expected += (
                company_schema.has_fk(a, b)
                or edge_key(a, b) in {edge_key(*k) for k in pinned}
                or s >= tau - costs.SCREEN_MARGIN
            )
    spans = load_perfbench_spans()
    rec = spans.Recorder()
    spans.instrument(rec)
    try:
        costs.build_schema_graph(company_schema, weights=weights, cost_overrides=pinned)
    finally:
        rec.unpatch()
    scored = rec.counters["setup"]["costs.table_pairs_scored"]
    assert scored == expected
    assert 0 < scored < len(names) * (len(names) - 1) // 2  # counted, and some skipped
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


def test_semantic_cost_tells_apart_tables_that_share_a_name():
    provider = TrigramEmbeddingProvider()
    ta = TableDef("orders", (col("order_id", "integer"),))
    tb = TableDef("orders", (col("shipment_date", "date"), col("carrier", "text")))
    expected = 1.0 - cosine01(
        _reference_mean_embedding(ta, provider), _reference_mean_embedding(tb, provider)
    )
    assert semantic_cost(ta, tb, provider) == expected > 0.0


# -- the admission and graph memo -------------------------------------------


def _count_calls(monkeypatch, module, name):
    """Wrap ``module.<name>``; returns a one-item list holding the call count."""
    calls = [0]
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _cold_document(*args, **kwargs):
    """``graph_document`` of a build that starts from an empty memo."""
    costs._memo = None
    return graph_document(build_schema_graph(*args, **kwargs))


def test_memoized_graph_is_returned_again_without_rescoring(company_schema, monkeypatch):
    cold = build_schema_graph(company_schema)
    scored = _count_calls(monkeypatch, costs, "table_similarity")
    costed = _count_calls(monkeypatch, costs, "connection_cost")
    assert build_schema_graph(company_schema) is cold
    assert candidate_join_pairs(company_schema) == admitted_join_columns(company_schema, cold)
    # an equal schema that is another object reuses the graph too
    copy = Schema(tuple(company_schema.tables), tuple(company_schema.foreign_keys))
    assert build_schema_graph(copy) is cold
    assert scored[0] == 0 and costed[0] == 0
    assert graph_document(cold) == _cold_document(company_schema)


def _stats_for(schema, selectivity):
    """Statistics for one column pair of the FK edge assignments -- employees."""
    (fk,) = schema.fk_between("assignments", "employees")
    return StatsProfile(10, pairs={
        (fk.from_table, fk.from_column, fk.to_table, fk.to_column): PairStats(selectivity, 0.5)
    })


@pytest.mark.parametrize(
    "change, rewalks",
    [
        ("weights", True),
        ("provider", True),
        ("override_key", False),
        ("stats", False),
        ("override_value", False),
    ],
)
def test_memo_rebuilds_when_an_input_changes(company_schema, monkeypatch, change, rewalks):
    # The admission walk is keyed by schema, weights and provider; the graph
    # also by the statistics and the override costs.
    provider = TrigramEmbeddingProvider()
    names = sorted(company_schema.table_names)
    pinned = {(names[0], names[-1]): 0.25}
    base = dict(
        stats=_stats_for(company_schema, 0.9), weights=DEFAULT_WEIGHTS,
        provider=provider, cost_overrides=pinned,
    )
    changed = dict(base)
    if change == "weights":
        changed["weights"] = CostWeights(tau=0.6)
    elif change == "provider":
        # another provider object, which embeds one table name differently
        changed["provider"] = FixedProvider({"assignments": np.array([1.0])})
    elif change == "override_key":
        changed["cost_overrides"] = {**pinned, (names[0], names[1]): 0.25}
    elif change == "stats":
        changed["stats"] = _stats_for(company_schema, 0.1)
    else:
        changed["cost_overrides"] = {(names[0], names[-1]): 0.5}
    first = build_schema_graph(company_schema, **base)
    walks = _count_calls(monkeypatch, costs, "_admitted_pairs")
    second = build_schema_graph(company_schema, **changed)
    assert second is not first
    assert (walks[0] > 0) == rewalks
    assert graph_document(second) != graph_document(first)
    assert graph_document(second) == _cold_document(company_schema, **changed)


def test_override_costs_that_export_differently_do_not_share_a_graph(analytics_schema):
    as_float = build_schema_graph(analytics_schema, cost_overrides={("hits", "totals"): 1.0})
    as_int = build_schema_graph(analytics_schema, cost_overrides={("hits", "totals"): 1})
    assert as_int is not as_float
    assert graph_document(as_int) == _cold_document(
        analytics_schema, cost_overrides={("hits", "totals"): 1}
    )


def test_profiling_then_build_walks_admission_once(company_schema, company_db, monkeypatch):
    from joinscaffold.profiling import profile_statistics

    walks = _count_calls(monkeypatch, costs, "_admitted_pairs")
    stats = profile_statistics(company_schema, company_db)  # pairs=None derives them
    graph = build_schema_graph(company_schema, stats)
    assert walks[0] == 1
    assert graph_document(graph) == _cold_document(company_schema, stats)


def test_memoized_graph_edges_are_read_only(analytics_schema):
    graph = build_schema_graph(analytics_schema)
    key, cost = next(iter(graph.edges.items()))
    with pytest.raises(TypeError):
        graph.edges[key] = cost
    with pytest.raises(TypeError):
        del graph.edges[key]
    assert build_schema_graph(analytics_schema).edges[key] is cost


def test_without_returns_the_same_graph_when_no_pair_is_an_edge(analytics_schema):
    graph = build_schema_graph(analytics_schema)
    assert graph.without(()) is graph
    assert graph.without([("ga_sessions", "no_such_table")]) is graph
    some_edge = next(iter(graph.edges))
    assert graph.without([some_edge]) is not graph


def test_threads_sharing_the_memo_get_the_graph_of_their_own_inputs(company_schema):
    import sys
    import threading

    inputs = [dict(weights=CostWeights(tau=tau)) for tau in (0.5, 0.6, 0.75, 0.9)]
    expected = [_cold_document(company_schema, **kw) for kw in inputs]
    errors = []

    def worker(offset):
        try:
            for i in range(40):
                k = (i + offset) % len(inputs)
                got = graph_document(build_schema_graph(company_schema, **inputs[k]))
                if got != expected[k]:
                    errors.append((offset, i))
        except Exception as exc:  # reported below; a thread cannot fail the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
