import datetime
import json
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

import golden
from helpers import FixedProvider, engineer_cosine_pair, engineer_similarity_cosine

from joinscaffold.costs import DEFAULT_WEIGHTS, build_schema_graph
from joinscaffold.decompose import (
    AttributeMatches,
    MathEntity,
    TerminalSet,
    _name_key,
    decompose_question,
    decomposition_document,
    extract_entities,
    find_containing_tables,
    matching_names,
)
from joinscaffold.embedding import cosine01
from joinscaffold.schema import (
    ColumnDef,
    Schema,
    TableDef,
    fold_name,
    load_schema_from_document,
)


def entity_index(entities):
    return {(e.kind, e.operation): e for e in entities}


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------


def test_extract_average_groupings():
    q = "compare the average pageviews per visitor for each group by month"
    entities = extract_entities(q)
    idx = entity_index(entities)
    avg = idx[("aggregation", "AVG")]
    assert avg.target_attributes == ("pageviews",)
    grouping_targets = {
        e.target_attributes[0] for e in entities if e.kind == "grouping"
    }
    assert {"month", "group"} <= grouping_targets


def test_extract_no_math_entities():
    assert extract_entities("list all customers") == []


def test_extract_comparison_and_null_check():
    entities = extract_entities("transactions >= 1 and productRevenue not null")
    assert [(e.kind, e.operation) for e in entities] == [
        ("comparison", ">="),
        ("comparison", "IS NOT NULL"),
    ]
    ge = entities[0]
    assert ge.target_attributes == ("transactions",)
    assert ge.literals == (1,)
    nn = entities[1]
    assert nn.target_attributes == ("productRevenue",)


def test_extract_date_range_with_trailing_year():
    entities = extract_entities("Between April 1 and July 31 of 2017, show totals")
    assert entities[0].kind == "temporal"
    assert entities[0].operation == "BETWEEN"
    assert entities[0].literals == (
        datetime.date(2017, 4, 1),
        datetime.date(2017, 7, 31),
    )


@pytest.mark.parametrize("impossible", ["2024-02-30", "20240230"])
def test_extract_impossible_numeric_date_yields_no_range(impossible):
    for lo, hi in [(impossible, "2024-03-05"), ("2024-01-05", impossible)]:
        entities = extract_entities(f"How many orders between {lo} and {hi}, by day?")
        assert not [e for e in entities if e.kind in ("temporal", "range")]
    entities = extract_entities("How many orders between 20240201 and 2024-03-05, by day?")
    (temporal,) = [e for e in entities if e.kind == "temporal"]
    assert temporal.literals == (datetime.date(2024, 2, 1), datetime.date(2024, 3, 5))


def test_extract_numeric_range():
    entities = extract_entities("orders with totals between 5 and 10")
    ranges = [e for e in entities if e.kind == "range"]
    assert ranges and ranges[0].literals == (5, 10)


def test_extract_worded_comparisons():
    entities = extract_entities("show customers with at least 5 orders")
    comps = [e for e in entities if e.kind == "comparison"]
    assert comps[0].operation == ">="
    assert comps[0].target_attributes == ("orders",)
    assert comps[0].literals == (5,)


def test_extract_count_phrases():
    entities = extract_entities("how many employees are in each department")
    idx = entity_index(entities)
    assert ("aggregation", "COUNT") in idx
    assert idx[("aggregation", "COUNT")].target_attributes == ("employees",)


def test_extractor_is_deterministic():
    q = golden.ANALYTICS_QUESTION
    assert extract_entities(q) == extract_entities(q)


def test_extract_requires_text():
    with pytest.raises(ValueError):
        extract_entities("   ")


def test_entity_kind_validated():
    with pytest.raises(ValueError):
        MathEntity("nonsense", "OP")


# ---------------------------------------------------------------------------
# attribute matching
# ---------------------------------------------------------------------------


def test_find_containing_tables_exact(analytics_schema):
    found = find_containing_tables(["productRevenue"], analytics_schema)
    assert found.tables == ("hits",)
    assert found.matches["productRevenue"] == (("hits", "productRevenue"),)


def test_find_containing_tables_normalized_spacing(analytics_schema):
    found = find_containing_tables(["product revenue"], analytics_schema)
    assert found.tables == ("hits",)


def test_find_containing_tables_similarity(collectors_schema):
    found = find_containing_tables(["installation altitude"], collectors_schema)
    assert found.tables == ("collectors",)


def test_find_containing_tables_unmatched(analytics_schema):
    found = find_containing_tables(["zzqx flux"], analytics_schema)
    assert found.tables == ()
    assert found.unmatched == ("zzqx flux",)


def test_find_pageviews(analytics_schema):
    assert find_containing_tables(["pageviews"], analytics_schema).tables == ("totals",)


def test_phrase_matching_threshold():
    assert matching_names("temperature", ["temperature_c"]) == ["temperature_c"]
    assert matching_names("visitor", ["pageviews"]) == []
    # similarities engineered to tau and one ulp to either side of it
    tau, sim_alpha = DEFAULT_WEIGHTS.tau, DEFAULT_WEIGHTS.sim_alpha
    vectors = {}
    for name, target in [("below", math.nextafter(tau, 0.0)), ("at", tau),
                         ("above", math.nextafter(tau, 2.0))]:
        vectors["phrase"], vectors[name] = engineer_cosine_pair(
            engineer_similarity_cosine(target, sim_alpha, type_match=1.0)
        )
    provider = FixedProvider(vectors)
    found = matching_names("phrase", ["below", "at", "above"], provider=provider)
    assert found == ["at", "above"]


# The scalar matcher that ``matching_names`` replaced, kept as the reference:
# an ASCII-only key and one name at a time.


def _reference_key(text):
    return re.sub(r"[^a-z0-9]+", "", text.lower())


def reference_phrase_matches_name(phrase, name, weights, provider):
    if _reference_key(phrase) and _reference_key(phrase) == _reference_key(name):
        return True
    cos = cosine01(provider.embed(phrase), provider.embed(name))
    sim = weights.sim_alpha * cos + (1.0 - weights.sim_alpha)
    return sim >= weights.tau


def reference_find_containing_tables(attributes, schema, weights, provider):
    matches, tables, unmatched = {}, set(), []
    for phrase in attributes:
        if not phrase.strip():
            continue
        norm = _reference_key(phrase)
        exact = [
            (t.name, c.name)
            for t in schema.tables
            for c in t.columns
            if _reference_key(c.name) == norm
        ]
        if exact:
            found = tuple(sorted(exact))
        else:
            found = tuple(sorted(
                (t.name, c.name)
                for t in schema.tables
                for c in t.columns
                if reference_phrase_matches_name(phrase, c.name, weights, provider)
            ))
        if found:
            matches[phrase] = found
            tables.update(t for t, _c in found)
        elif phrase not in unmatched:
            unmatched.append(phrase)
    return AttributeMatches(matches, tuple(sorted(tables)), tuple(unmatched))


# A small alphabet, so that names often share a key with the phrase.
_ascii_names = st.text(alphabet="aAbB_ 1", min_size=1, max_size=6)


@st.composite
def _phrase_cases(draw):
    """A phrase and names, some of whose similarity to the phrase is engineered
    to land on tau or one ulp to either side of it."""
    phrase = draw(_ascii_names)
    names = draw(st.lists(_ascii_names, max_size=6))
    tau, sim_alpha = DEFAULT_WEIGHTS.tau, DEFAULT_WEIGHTS.sim_alpha
    targets = draw(st.lists(
        st.sampled_from([math.nextafter(tau, 0.0), tau, math.nextafter(tau, 2.0)]),
        max_size=3,
    ))
    vectors = {}
    for i, target in enumerate(targets):
        # the type term counts as a match, so type_match is 1
        phrase_vec, name_vec = engineer_cosine_pair(
            engineer_similarity_cosine(target, sim_alpha, type_match=1.0)
        )
        vectors[phrase], vectors[f"zz{i}"] = phrase_vec, name_vec
        names.insert(draw(st.integers(0, len(names))), f"zz{i}")
    return phrase, names, FixedProvider(vectors)


def in_each_memo_state(check):
    """Run ``check`` with a cold name-key memo, a warm one, and after a clear."""
    _name_key.cache_clear()
    check()
    check()
    _name_key.cache_clear()
    check()


@settings(max_examples=300, deadline=None)
@given(_phrase_cases())
def test_matching_names_agrees_with_the_scalar_reference(case):
    phrase, names, provider = case
    weights = DEFAULT_WEIGHTS
    referenced = [
        n for n in names if reference_phrase_matches_name(phrase, n, weights, provider)
    ]
    exact = [n for n in names if _reference_key(phrase) == _reference_key(n)]

    def check():
        found = matching_names(phrase, names, weights, provider)
        assert bool(found) == bool(referenced)
        # One name at a time, the matcher is the reference predicate itself:
        # the rule a caller relies on when it asks which of several columns a
        # phrase names, each on its own.
        assert [
            n for n in names if matching_names(phrase, [n], weights, provider)
        ] == referenced
        assert found == (exact if _reference_key(phrase) and exact else referenced)

    in_each_memo_state(check)


@settings(max_examples=150, deadline=None)
@given(_phrase_cases(), st.lists(_ascii_names, max_size=3), st.data())
def test_find_containing_tables_agrees_with_the_scalar_reference(case, phrases, data):
    phrase, names, provider = case
    tables = []
    for i in range(3):
        # each table owns a subset of the names, so a name can have many
        # owners; no two of one table's names differ only in ASCII case,
        # which SQLite would read as one column
        own = data.draw(st.lists(st.sampled_from(names), unique_by=fold_name)) if names else []
        tables.append(TableDef(f"t{i}", tuple(ColumnDef(n, "text") for n in own) or (
            ColumnDef("other", "text"),
        )))
    schema = Schema(tuple(tables))
    attributes = [phrase, *phrases]
    keyed = [p for p in attributes if _reference_key(p)]
    expected = reference_find_containing_tables(keyed, schema, DEFAULT_WEIGHTS, provider)

    def check():
        assert find_containing_tables(keyed, schema, DEFAULT_WEIGHTS, provider) == expected
        # A phrase with no letter or digit no longer names, exactly, every
        # column whose name has none either; it is matched by similarity alone.
        found = find_containing_tables(attributes, schema, DEFAULT_WEIGHTS, provider)
        for p in attributes:
            if p.strip() and not _reference_key(p):
                assert found.matches.get(p, ()) == tuple(sorted(
                    (t.name, c.name)
                    for t in schema.tables
                    for c in t.columns
                    if reference_phrase_matches_name(p, c.name, DEFAULT_WEIGHTS, provider)
                ))

    in_each_memo_state(check)


def test_each_name_is_normalised_once_across_many_questions(analytics_schema):
    # Twenty questions on one schema: the name-key memo misses once per
    # distinct column name and once per distinct phrase, never once per
    # comparison.
    columns = sorted(analytics_schema.column_owners)
    questions = [
        f"what is the {agg} {a} per {b}"
        for agg in ("total", "average", "maximum", "minimum", "count of")
        for a, b in zip(columns, ["month", "visitor", columns[0], columns[-1]])
    ]
    assert len(questions) == 20
    _name_key.cache_clear()
    phrases = set()
    for question in questions:
        result = decompose_question(question, analytics_schema)
        phrases.update(p for e in result.entities for p in e.target_attributes)
        assert result.terminals.entries
    assert _name_key.cache_info().misses <= len(columns) + len(phrases)


def test_matching_names_embeds_nothing_when_an_exact_match_decides():
    class Refusing:
        dimension = 64

        def embed(self, text):
            raise AssertionError(f"embedded {text!r}")

    names = ["hits", "page_views", "pageViews"]
    assert matching_names("Page Views", names, provider=Refusing()) == names[1:]
    assert matching_names("pageviews", [], provider=Refusing()) == []


_UNICODE_SCHEMA_DOC = json.dumps({
    "tables": [
        {"name": "people", "columns": [{"name": "名前", "type": "TEXT"}]},
        {"name": "cities", "columns": [{"name": "都市", "type": "TEXT"}]},
    ],
    "foreign_keys": [],
})


def test_names_without_ascii_letters_stay_distinct():
    # Non-ASCII letters are kept by the name key and the trigram embedding,
    # so two unrelated names no longer collapse into one.
    schema = load_schema_from_document(_UNICODE_SCHEMA_DOC)
    assert build_schema_graph(schema).edges == {}
    assert find_containing_tables(["年齢"], schema).unmatched == ("年齢",)
    assert find_containing_tables(["名前"], schema).matches == {"名前": (("people", "名前"),)}
    assert find_containing_tables(["_"], schema).unmatched == ("_",)


# ---------------------------------------------------------------------------
# dependency analysis and terminals
# ---------------------------------------------------------------------------


def test_collector_question_terminals(collectors_schema):
    result = decompose_question(golden.COLLECTOR_QUESTION, collectors_schema)
    assert result.terminals.tables == ("collectors", "readings")


def test_analytics_question_terminals(analytics_schema):
    result = decompose_question(golden.ANALYTICS_QUESTION, analytics_schema)
    assert result.terminals.tables == ("ga_sessions", "hits", "totals")


def test_direct_fk_pair_adds_no_intermediates(collectors_schema):
    result = decompose_question(
        "average temperature_c per status", collectors_schema
    )
    assert result.terminals.tables == ("collectors", "readings")
    reasons = dict(result.terminals.entries)
    assert "join-path" not in reasons.values()


JOIN_PATH_DOC = """
{"tables": [
    {"name": "customers", "columns": [
        {"name": "customer_id", "type": "INTEGER", "pk": true},
        {"name": "name", "type": "TEXT"}]},
    {"name": "orders", "columns": [
        {"name": "order_id", "type": "INTEGER", "pk": true},
        {"name": "customer_id", "type": "INTEGER"}]},
    {"name": "order_items", "columns": [
        {"name": "item_id", "type": "INTEGER", "pk": true},
        {"name": "order_id", "type": "INTEGER"},
        {"name": "amount", "type": "REAL"}]}],
 "foreign_keys": [
    {"from_table": "orders", "from_column": "customer_id",
     "to_table": "customers", "to_column": "customer_id"},
    {"from_table": "order_items", "from_column": "order_id",
     "to_table": "orders", "to_column": "order_id"}]}
"""


def test_join_path_inserts_bridge_table():
    schema = load_schema_from_document(JOIN_PATH_DOC)
    result = decompose_question("average amount for each name", schema)
    assert result.terminals.tables == ("customers", "order_items", "orders")
    assert result.terminals.reason_of("orders") == "join-path"


def test_locality_unrelated_table_changes_nothing(analytics_schema):
    import json

    doc = json.loads(golden.ANALYTICS_SCHEMA_DOC)
    doc["tables"].append(
        {
            "name": "warehouses",
            "columns": [
                {"name": "warehouse_id", "type": "INTEGER", "pk": True},
                {"name": "shelf_label", "type": "TEXT"},
            ],
        }
    )
    bigger = load_schema_from_document(json.dumps(doc))
    base = decompose_question(golden.ANALYTICS_QUESTION, analytics_schema)
    extended = decompose_question(golden.ANALYTICS_QUESTION, bigger)
    assert base.terminals.tables == extended.terminals.tables


def test_every_terminal_reachable_from_an_entity(analytics_schema):
    result = decompose_question(golden.ANALYTICS_QUESTION, analytics_schema)
    edge_targets = {dst for _kind, _src, dst in result.graph.edges}
    for table in result.terminals.tables:
        assert table in edge_targets


def test_terminal_reasons_unique(analytics_schema):
    result = decompose_question(golden.ANALYTICS_QUESTION, analytics_schema)
    for table, reason in result.terminals.entries:
        assert reason in ("direct-reference", "join-path", "constraint")
    assert len({t for t, _ in result.terminals.entries}) == len(result.terminals.entries)


def test_fk_only_adjacency(analytics_schema):
    adj = analytics_schema.fk_neighbors
    assert adj["ga_sessions"] == ("hits", "totals")
    assert adj["hits"] == ("ga_sessions",)


def test_terminal_set_api():
    ts = TerminalSet.from_pairs([("b", "constraint"), ("a", "direct-reference"), ("b", "join-path")])
    assert ts.tables == ("a", "b")
    assert ts.reason_of("b") == "constraint"  # first reason wins
    grown = ts.union(["c"], "join-path")
    assert grown.tables == ("a", "b", "c")
    assert "c" in grown and "z" not in grown


def test_decomposition_document_is_canonical(analytics_schema):
    result = decompose_question(golden.ANALYTICS_QUESTION, analytics_schema)
    doc = decomposition_document(result)
    assert doc == decomposition_document(
        decompose_question(golden.ANALYTICS_QUESTION, analytics_schema)
    )
    assert '"terminals"' in doc and '"unmatched"' in doc


def test_empty_terminals_warns():
    schema = load_schema_from_document(JOIN_PATH_DOC)
    result = decompose_question("average zzqx for each wwfp", schema)
    assert result.terminals.tables == ()
    assert result.warnings


# ---------------------------------------------------------------------------
# optional LLM-backed extractor
# ---------------------------------------------------------------------------


def test_llm_extractor_validates_and_builds():
    from joinscaffold.decompose import extract_entities_llm
    from joinscaffold.pipeline import StubGenerator

    reply = (
        '[{"kind": "aggregation", "operation": "AVG", "targets": ["pageviews"]},'
        ' {"kind": "comparison", "operation": ">=", "targets": ["transactions"],'
        '  "literals": [1]}]'
    )
    client = StubGenerator(default=reply)
    entities = extract_entities_llm("some question", client)
    assert [(e.kind, e.operation) for e in entities] == [
        ("aggregation", "AVG"),
        ("comparison", ">="),
    ]
    assert entities[1].literals == (1,)


@pytest.mark.parametrize(
    "reply",
    [
        "not json at all",
        '{"kind": "aggregation"}',
        '[{"operation": "AVG"}]',
        '[{"kind": "nonsense", "operation": "AVG"}]',
        '[{"kind": "aggregation", "operation": "AVG", "targets": [1]}]',
        '[{"kind": "aggregation", "operation": "SUM", "targets": [""]}]',
    ],
)
def test_llm_extractor_rejects_malformed(reply):
    from joinscaffold.decompose import extract_entities_llm
    from joinscaffold.pipeline import StubGenerator

    with pytest.raises(ValueError):
        extract_entities_llm("q", StubGenerator(default=reply))
