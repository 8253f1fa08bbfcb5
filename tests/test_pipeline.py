import json
import shutil
from importlib import resources

import pytest

import golden
from helpers import Reply, json_server

from joinscaffold import costs, pipeline
from joinscaffold.costs import CostWeights, build_schema_graph, graph_document
from joinscaffold.decompose import (
    DecompositionResult,
    MathEntity,
    TerminalSet,
    decompose_question,
)
from joinscaffold.pipeline import (
    GeneratorError,
    HttpGenerator,
    PipelineConfig,
    PipelineError,
    ReplanUpdate,
    StubGenerator,
    build_prompt,
    pipeline_document,
    run_pipeline,
    update_terminals,
)
from joinscaffold.profiling import profile_statistics
from joinscaffold.schema import load_schema_from_document
from joinscaffold.sqlcheck import ValidationReport, Violation, parse_sql, validate_semantic
from joinscaffold.steiner import solve_steiner

NO_PROFILE = PipelineConfig(profile_stats=False)


@pytest.fixture()
def analytics_scaffold(analytics_schema):
    graph = build_schema_graph(
        analytics_schema, cost_overrides=golden.ANALYTICS_COST_OVERRIDES
    )
    return solve_steiner(graph, ["ga_sessions", "totals", "hits"])


# ---------------------------------------------------------------------------
# prompt assembly
# ---------------------------------------------------------------------------


def test_prompt_plan_lists_scaffold_chain(analytics_schema, analytics_scaffold):
    bundle = build_prompt(
        analytics_scaffold, analytics_schema, golden.ANALYTICS_QUESTION
    )
    plan = bundle.optimal_query_plan
    assert "ga_sessions -- hits" in plan
    assert "ga_sessions -- totals" in plan
    for table in ("ga_sessions", "totals", "hits"):
        assert table in plan
    assert "totals -- hits" not in plan  # only scaffold edges appear


def test_prompt_deterministic(analytics_schema, analytics_scaffold):
    a = build_prompt(analytics_scaffold, analytics_schema, golden.ANALYTICS_QUESTION)
    b = build_prompt(analytics_scaffold, analytics_schema, golden.ANALYTICS_QUESTION)
    assert a.text() == b.text()


def test_prompt_rejects_empty_question(analytics_schema, analytics_scaffold):
    with pytest.raises(ValueError):
        build_prompt(analytics_scaffold, analytics_schema, "   ")


def test_prompt_missing_template_file(tmp_path, analytics_schema, analytics_scaffold):
    config = PipelineConfig(template_dir=tmp_path)
    with pytest.raises(PipelineError, match="missing template"):
        build_prompt(
            analytics_scaffold, analytics_schema, golden.ANALYTICS_QUESTION, config
        )


def test_package_templates_are_read_once_per_process(
    analytics_schema, analytics_scaffold, monkeypatch
):
    pipeline._package_template.cache_clear()
    reads = []
    files = resources.files

    def counting_files(package):
        reads.append(package)
        return files(package)

    monkeypatch.setattr(resources, "files", counting_files)
    first = build_prompt(analytics_scaffold, analytics_schema, golden.ANALYTICS_QUESTION)
    second = build_prompt(analytics_scaffold, analytics_schema, golden.ANALYTICS_QUESTION)
    assert len(reads) == len(pipeline.TEMPLATE_NAMES)
    assert first == second


def test_user_template_dir_is_read_on_every_call(
    tmp_path, analytics_schema, analytics_scaffold
):
    for name in pipeline.TEMPLATE_NAMES:
        source = resources.files("joinscaffold").joinpath(f"templates/{name}.txt")
        (tmp_path / f"{name}.txt").write_text(source.read_text(encoding="utf-8"))
    config = PipelineConfig(template_dir=tmp_path)
    question = golden.ANALYTICS_QUESTION
    before = build_prompt(analytics_scaffold, analytics_schema, question, config)
    (tmp_path / "role_play.txt").write_text("You are an edited role.\n")
    after = build_prompt(analytics_scaffold, analytics_schema, question, config)
    assert before.role_play != after.role_play == "You are an edited role.\n"
    shutil.rmtree(tmp_path)
    with pytest.raises(PipelineError, match="missing template"):
        build_prompt(analytics_scaffold, analytics_schema, question, config)


def test_prompt_includes_feedback_sections(analytics_schema, analytics_scaffold):
    bundle = build_prompt(
        analytics_scaffold,
        analytics_schema,
        golden.ANALYTICS_QUESTION,
        must_include=["hits"],
        extra_requirements=["translate the >= 1 constraint exactly"],
    )
    assert "'hits' is required" in bundle.critical_requirements
    assert "translate the >= 1 constraint exactly" in bundle.critical_requirements


def test_prompt_has_all_five_sections(analytics_schema, analytics_scaffold):
    bundle = build_prompt(
        analytics_scaffold, analytics_schema, golden.ANALYTICS_QUESTION
    )
    text = bundle.text()
    for section in (
        bundle.role_play,
        bundle.critical_requirements,
        bundle.build_relation,
        bundle.optimal_query_plan,
        bundle.behavioral_guidelines,
    ):
        assert section.strip() in text
    excerpt = pipeline._schema_excerpt(analytics_schema, analytics_scaffold.vertices)
    assert excerpt in bundle.build_relation


# ---------------------------------------------------------------------------
# stub generator
# ---------------------------------------------------------------------------


def test_stub_is_deterministic_per_input():
    stub = StubGenerator(responses=["one", "two"])
    first = stub.generate("p1", "q")
    assert stub.generate("p1", "q") == first == "one"
    assert stub.generate("p2", "q") == "two"
    assert stub.generate("p2", "q") == "two"


def test_stub_keyed_and_default():
    stub = StubGenerator(keyed={"q": "keyed"}, default="fallback")
    assert stub.generate("p", "q") == "keyed"
    assert stub.generate("p", "other") == "fallback"


def test_stub_exhaustion():
    stub = StubGenerator(responses=["only"])
    stub.generate("a", "q")
    with pytest.raises(GeneratorError):
        stub.generate("b", "q")


# ---------------------------------------------------------------------------
# update rules
# ---------------------------------------------------------------------------


def _failing_report(*violations):
    level2 = not any(v.level == 2 for v in violations)
    level3 = not any(v.level == 3 for v in violations)
    return ValidationReport(
        level1=True, level2=level2, level3=level3, violations=tuple(violations)
    )


@pytest.fixture()
def analytics_decomposition(analytics_schema):
    return decompose_question(golden.ANALYTICS_QUESTION, analytics_schema)


def test_update_missing_terminal_marks_must_include(analytics_decomposition):
    plan = ReplanUpdate(analytics_decomposition.terminals)
    report = _failing_report(
        Violation(2, "MISSING_TERMINAL", "terminal 'hits' absent", "hits", ("hits",))
    )
    update = update_terminals(plan, report)
    assert update.terminals.tables == plan.terminals.tables
    assert update.must_include == ("hits",)
    # The next plan keeps each mark once.
    assert update_terminals(update, report) == update


def test_update_unmapped_attribute_grows_terminals(analytics_schema):
    terminals = TerminalSet.from_pairs(
        [("ga_sessions", "direct-reference"), ("totals", "direct-reference")]
    )
    ast = parse_sql(
        "SELECT t.pageviews FROM ga_sessions g JOIN totals t ON g.session_id = t.session_id"
    )
    entity = MathEntity("aggregation", "SUM", ("productRevenue",))
    ok, violations = validate_semantic(ast, terminals, None, (entity,), analytics_schema)
    assert not ok
    assert [(v.code, v.subject, v.tables) for v in violations] == [
        ("UNMAPPED_ATTRIBUTE", "productRevenue", ("hits",))
    ]
    update = update_terminals(ReplanUpdate(terminals), _failing_report(*violations))
    assert update.terminals.entries == (
        ("ga_sessions", "direct-reference"),
        ("hits", "direct-reference"),
        ("totals", "direct-reference"),
    )


def test_update_irrelevant_join_excludes_edge(analytics_decomposition):
    report = _failing_report(
        Violation(2, "IRRELEVANT_JOIN", "bad join", "totals~hits", ("totals", "hits"))
    )
    plan = ReplanUpdate(analytics_decomposition.terminals)
    update = update_terminals(plan, report)
    assert update.excluded_edges == (("hits", "totals"),)
    assert update_terminals(update, report).excluded_edges == (("hits", "totals"),)


def test_update_irrelevant_join_splits_between_two_schema_tables():
    terminals = TerminalSet.from_pairs([("a~b", "direct-reference"), ("c", "direct-reference")])
    for names, sql in [
        (("a", "a~b", "c"), 'SELECT * FROM "a~b" JOIN c ON "a~b".id = c.id'),
        # The subject "a~b~c" also splits into two schema tables, "a" and "b~c".
        (("a", "b~c", "a~b", "c"), 'SELECT x.id FROM "a~b" x JOIN c ON x.id = c.id'),
    ]:
        schema = load_schema_from_document(
            json.dumps(
                {
                    "tables": [
                        {"name": name, "columns": [{"name": "id", "type": "integer", "pk": True}]}
                        for name in names
                    ]
                }
            )
        )
        ok, violations = validate_semantic(parse_sql(sql), terminals, None, (), schema)
        assert not ok
        assert [(v.code, v.subject) for v in violations] == [("IRRELEVANT_JOIN", "a~b~c")]
        update = update_terminals(ReplanUpdate(terminals), _failing_report(*violations))
        assert update.excluded_edges == (("a~b", "c"),), names


def test_update_math_codes_append_requirements(analytics_decomposition):
    report = _failing_report(
        Violation(3, "AGG_MISMATCH", "no aggregate implements AVG(pageviews)", "AVG(pageviews)")
    )
    plan = ReplanUpdate(analytics_decomposition.terminals)
    update = update_terminals(plan, report)
    assert update.terminals.tables == analytics_decomposition.terminals.tables
    assert update.extra_requirements == ("no aggregate implements AVG(pageviews)",)
    assert update_terminals(update, report) == update


def test_update_rejects_passing_report(analytics_decomposition):
    passing = ValidationReport(level1=True, level2=True, level3=True)
    with pytest.raises(ValueError):
        update_terminals(ReplanUpdate(analytics_decomposition.terminals), passing)


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------


def test_run_first_iteration_success(analytics_schema, analytics_db):
    client = StubGenerator(default=golden.ANALYTICS_GOLDEN_SQL)
    result = run_pipeline(
        golden.ANALYTICS_QUESTION, analytics_schema, analytics_db, NO_PROFILE, client
    )
    assert result.outcome == "sql"
    assert result.iterations_used == 1
    assert result.sql == golden.ANALYTICS_GOLDEN_SQL
    assert len(result.trace) == 1
    assert result.trace[0].report.ok


def test_run_syntax_error_returns_immediately(analytics_schema, analytics_db):
    client = StubGenerator(default="SELEC broken FROM nowhere")
    result = run_pipeline(
        golden.ANALYTICS_QUESTION, analytics_schema, analytics_db, NO_PROFILE, client
    )
    assert result.outcome == "syntax_error"
    assert result.sql is None
    assert result.iterations_used == 1
    assert result.trace[0].report.level1 is False


def test_run_max_iterations_after_three_failures(analytics_schema, analytics_db):
    client = StubGenerator(default="SELECT g.date FROM ga_sessions g")
    result = run_pipeline(
        golden.ANALYTICS_QUESTION, analytics_schema, analytics_db, NO_PROFILE, client
    )
    assert result.outcome == "max_iterations"
    assert result.iterations_used == 3
    assert len(result.trace) == 3
    for t in result.trace:
        assert t.report.level2 is False
        assert t.report.by_code("MISSING_TERMINAL")


def test_run_terminal_growth_then_success(analytics_schema, analytics_db, monkeypatch):
    # Scripted stage-1 state: `hits` initially missed, its attribute still
    # extracted; the UNMAPPED_ATTRIBUTE update rule must recover it.
    real = decompose_question(golden.ANALYTICS_QUESTION, analytics_schema)
    trimmed = DecompositionResult(
        entities=real.entities,
        graph=real.graph,
        terminals=TerminalSet.from_pairs(
            [(t, r) for t, r in real.terminals.entries if t != "hits"]
        ),
        unmatched=real.unmatched,
        warnings=real.warnings,
    )
    monkeypatch.setattr(
        "joinscaffold.pipeline.decompose_question", lambda *a, **k: trimmed
    )
    first_sql = (
        "SELECT g.date, t.pageviews FROM ga_sessions g "
        "JOIN totals t ON g.session_id = t.session_id"
    )
    client = StubGenerator(responses=[first_sql, golden.ANALYTICS_GOLDEN_SQL])
    result = run_pipeline(
        golden.ANALYTICS_QUESTION, analytics_schema, analytics_db, NO_PROFILE, client
    )
    assert result.outcome == "sql"
    assert result.iterations_used == 2
    assert "hits" not in result.trace[0].terminals.tables
    assert "hits" in result.trace[1].terminals.tables
    codes = {v.code for v in result.trace[0].report.violations}
    assert "UNMAPPED_ATTRIBUTE" in codes


def test_run_irrelevant_join_excludes_edge_next_iteration(
    analytics_schema, analytics_db
):
    # iteration 1 joins totals to hits directly (no FK, no scaffold edge);
    # iteration 2's graph must lack that edge.
    bad_sql = (
        "SELECT g.date, t.pageviews FROM ga_sessions g "
        "JOIN totals t ON g.session_id = t.session_id "
        "JOIN hits h ON t.session_id = h.session_id"
    )
    client = StubGenerator(responses=[bad_sql, golden.ANALYTICS_GOLDEN_SQL])
    result = run_pipeline(
        golden.ANALYTICS_QUESTION, analytics_schema, analytics_db, NO_PROFILE, client
    )
    assert result.outcome == "sql"
    assert result.iterations_used == 2
    assert result.trace[0].report.by_code("IRRELEVANT_JOIN")
    assert ("hits", "totals") in result.trace[1].excluded_edges


def test_second_question_on_a_schema_reuses_its_graph(
    analytics_schema, analytics_db, monkeypatch
):
    client = StubGenerator(default=golden.ANALYTICS_GOLDEN_SQL)
    first = run_pipeline(
        golden.ANALYTICS_QUESTION, analytics_schema, analytics_db, PipelineConfig(), client
    )
    builds = _record_calls(monkeypatch, "build_schema_graph")
    calls = []
    for name in ("table_similarity", "connection_cost", "semantic_cost"):
        original = getattr(costs, name)
        monkeypatch.setattr(
            costs, name, lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k)
        )
    second = run_pipeline(
        golden.ANALYTICS_QUESTION, analytics_schema, analytics_db, PipelineConfig(), client
    )
    assert calls == []
    assert pipeline_document(second) == pipeline_document(first)
    # the reused graph is the one a build from an empty memo gives
    monkeypatch.setattr(costs, "_memo", None)
    pairs = costs.candidate_join_pairs(analytics_schema)
    stats = profile_statistics(analytics_schema, analytics_db, 10_000, pairs)
    assert graph_document(builds[0]) == graph_document(
        costs.build_schema_graph(analytics_schema, stats)
    )


def _record_calls(monkeypatch, name):
    """Wrap ``pipeline.<name>``; returns the list of results, one per call."""
    results = []
    original = getattr(pipeline, name)

    def wrapper(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(pipeline, name, wrapper)
    return results


def test_run_builds_graph_once_and_filters_exclusions(
    analytics_schema, analytics_db, monkeypatch
):
    builds = _record_calls(monkeypatch, "build_schema_graph")
    solved_on = []
    original_solve = pipeline.solve_steiner

    def solve(graph, terminals):
        solved_on.append(graph)
        return original_solve(graph, terminals)

    monkeypatch.setattr(pipeline, "solve_steiner", solve)
    bad_sql = (
        "SELECT g.date, t.pageviews FROM ga_sessions g "
        "JOIN totals t ON g.session_id = t.session_id "
        "JOIN hits h ON t.session_id = h.session_id"
    )
    client = StubGenerator(responses=[bad_sql, golden.ANALYTICS_GOLDEN_SQL])
    result = run_pipeline(
        golden.ANALYTICS_QUESTION, analytics_schema, analytics_db, NO_PROFILE, client
    )
    assert result.iterations_used == 2
    assert len(builds) == 1
    first, second = solved_on
    assert first == builds[0]
    assert first.has_edge("hits", "totals")
    expected = {k: c for k, c in first.edges.items() if k != ("hits", "totals")}
    assert second.vertices == first.vertices
    assert second.edges == expected


def test_run_profiles_edges_admitted_under_configured_tau(
    company_schema, company_db, monkeypatch
):
    # At tau 0.6 employees~projects is admitted by similarity alone; profiling
    # the default-tau candidates would leave it at the neutral 0.5.
    profiles = _record_calls(monkeypatch, "profile_statistics")
    builds = _record_calls(monkeypatch, "build_schema_graph")
    config = PipelineConfig(weights=CostWeights(tau=0.6))
    client = StubGenerator(default="SELECT p.budget FROM projects p")
    run_pipeline(
        "What is the total budget of projects per department?",
        company_schema,
        company_db,
        config,
        client,
    )
    (stats,), (graph,) = profiles, builds
    assert not graph.edge("employees", "projects").has_fk
    for a, b, _cost in graph.sorted_edges():
        assert stats.table_pair_stats(a, b) is not None, (a, b)


def test_run_requires_database_before_planning(analytics_schema, monkeypatch):
    class MustNotGenerate:
        def generate(self, prompt, question):
            raise AssertionError("generator called without a database")

    def must_not_decompose(*args, **kwargs):
        raise AssertionError("planning started without a database")

    monkeypatch.setattr(pipeline, "decompose_question", must_not_decompose)
    with pytest.raises(PipelineError, match="database path is required"):
        run_pipeline(
            golden.ANALYTICS_QUESTION, analytics_schema, None, NO_PROFILE, MustNotGenerate()
        )


def test_run_is_byte_reproducible(analytics_schema, analytics_db):
    def run_once():
        client = StubGenerator(default=golden.ANALYTICS_GOLDEN_SQL)
        return pipeline_document(
            run_pipeline(
                golden.ANALYTICS_QUESTION, analytics_schema, analytics_db, NO_PROFILE, client
            )
        )

    assert run_once() == run_once()


def test_run_requires_terminals(analytics_schema, analytics_db):
    client = StubGenerator(default="SELECT 1")
    with pytest.raises(PipelineError, match="no terminal tables"):
        run_pipeline(
            "list all database things please",
            analytics_schema,
            analytics_db,
            NO_PROFILE,
            client,
        )


def test_run_with_profiling(analytics_schema, analytics_db):
    client = StubGenerator(default=golden.ANALYTICS_GOLDEN_SQL)
    config = PipelineConfig(profile_stats=True)
    result = run_pipeline(
        golden.ANALYTICS_QUESTION, analytics_schema, analytics_db, config, client
    )
    assert result.outcome == "sql"


def test_trace_invariants(analytics_schema, analytics_db):
    client = StubGenerator(default="SELECT g.date FROM ga_sessions g")
    result = run_pipeline(
        golden.ANALYTICS_QUESTION, analytics_schema, analytics_db, NO_PROFILE, client
    )
    assert result.iterations_used == len(result.trace)
    previous = set()
    for t in result.trace:
        # every iteration's scaffold spans that iteration's terminals
        assert set(t.terminals.tables) <= set(t.scaffold.vertices)
        # terminal sets never shrink
        assert previous <= set(t.terminals.tables)
        previous = set(t.terminals.tables)


# ---------------------------------------------------------------------------
# HTTP generator
# ---------------------------------------------------------------------------


def test_http_generator_success():
    received = []
    reply = {"choices": [{"message": {"content": "SELECT 1 -- test-model"}}]}
    with json_server(reply, received=received) as url:
        config = PipelineConfig(
            generator_endpoint=url, generator_model="test-model", backoff=0.01
        )
        client = HttpGenerator(config)
        assert client.generate("prompt", "question") == "SELECT 1 -- test-model"
    assert [body["model"] for _headers, body in received] == ["test-model"]


def test_http_generator_retries_then_succeeds():
    good = {"choices": [{"message": {"content": "SELECT 1 -- m"}}]}
    unavailable = Reply(status=503)
    with json_server(unavailable, unavailable, good) as url:
        config = PipelineConfig(
            generator_endpoint=url, generator_model="m", retries=3, backoff=0.01
        )
        client = HttpGenerator(config)
        assert client.generate("p", "q").startswith("SELECT 1")


def test_http_generator_fails_after_retries():
    with json_server(Reply(status=503)) as url:
        config = PipelineConfig(
            generator_endpoint=url, generator_model="m", retries=3, backoff=0.01
        )
        client = HttpGenerator(config)
        with pytest.raises(GeneratorError, match="after 3 attempts"):
            client.generate("p", "q")


@pytest.mark.parametrize(
    "body",
    [
        {"choices": []},
        {"choices": None},
        {"choices": [{"message": {"content": None}}]},
        [],
    ],
)
def test_http_generator_malformed_reply_is_generator_error(body):
    with json_server(body) as url:
        client = HttpGenerator(
            PipelineConfig(generator_endpoint=url, retries=2, backoff=0.01)
        )
        with pytest.raises(GeneratorError, match="after 2 attempts"):
            client.generate("p", "q")


def test_http_generator_retries_after_malformed_reply():
    good = {"choices": [{"message": {"content": "SELECT 1"}}]}
    with json_server({"choices": []}, good) as url:
        client = HttpGenerator(
            PipelineConfig(generator_endpoint=url, retries=2, backoff=0.01)
        )
        assert client.generate("p", "q") == "SELECT 1"


@pytest.mark.parametrize(
    "field, value",
    [("max_iterations", 0), ("max_iterations", -2), ("retries", 0), ("retries", -1)],
)
def test_pipeline_config_rejects_counts_below_one(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer of at least 1"):
        PipelineConfig(**{field: value})


def test_http_generator_times_out_into_generator_error():
    good = {"choices": [{"message": {"content": "SELECT 1"}}]}
    with json_server(Reply(good, delay=0.5)) as url:
        client = HttpGenerator(
            PipelineConfig(generator_endpoint=url, retries=2, backoff=0.01, timeout=0.1)
        )
        with pytest.raises(GeneratorError, match="after 2 attempts.*timed out"):
            client.generate("p", "q")


def test_http_generator_sends_the_api_key_and_payload():
    good = {"choices": [{"message": {"content": "SELECT 1"}}]}
    received = []
    with json_server(good, received=received) as url:
        client = HttpGenerator(PipelineConfig(
            generator_endpoint=url, generator_model="m", generator_api_key="k1"
        ))
        assert client.generate("the prompt", "the question") == "SELECT 1"
    ((headers, body),) = received
    assert headers["Authorization"] == "Bearer k1"
    assert headers["Content-Type"] == "application/json"
    assert body["model"] == "m"
    assert body["messages"] == [
        {"role": "system", "content": "the prompt"},
        {"role": "user", "content": "the question"},
    ]


def test_http_generator_rejects_a_non_http_endpoint(tmp_path):
    client = HttpGenerator(PipelineConfig(
        generator_endpoint=(tmp_path / "reply.json").as_uri(), retries=1
    ))
    with pytest.raises(GeneratorError, match="not an http"):
        client.generate("p", "q")


def test_http_generator_requires_endpoint(monkeypatch):
    monkeypatch.delenv("JOINSCAFFOLD_GENERATOR_ENDPOINT", raising=False)
    with pytest.raises(PipelineError, match="endpoint"):
        HttpGenerator(PipelineConfig())
