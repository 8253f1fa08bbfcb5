import sqlite3

import pytest

import golden
import validator_corpus as corpus

from joinscaffold.costs import DEFAULT_WEIGHTS, build_schema_graph, edge_key
from joinscaffold.decompose import (
    MathEntity,
    TerminalSet,
    decompose_question,
    find_containing_tables,
)
from joinscaffold.schema import load_schema_from_database
from joinscaffold.sqlcheck import (
    InfrastructureError,
    parse_sql,
    report_document,
    validate_all,
    validate_execution,
    validate_math,
    validate_semantic,
)
from joinscaffold.sqlcheck import validate
from joinscaffold.sqlcheck.validate import FETCH_BATCH_ROWS
from joinscaffold.steiner import solve_steiner


# ---------------------------------------------------------------------------
# level 1
# ---------------------------------------------------------------------------


def test_execution_pass_records_rows(company_db):
    report = validate_execution("SELECT name FROM employees", company_db)
    assert report.level1 is True
    assert report.row_count == 5


def test_execution_counts_rows_beyond_one_fetch_batch(company_db):
    n = 2 * FETCH_BATCH_ROWS + 3
    report = validate_execution(
        "WITH RECURSIVE seq(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM seq "
        f"WHERE x < {n}) SELECT x FROM seq",
        company_db,
    )
    assert report.level1 is True
    assert report.row_count == n


def test_execution_missing_column(company_db):
    report = validate_execution("SELECT ghost FROM employees", company_db)
    assert report.level1 is False
    v = report.violations[0]
    assert v.code == "EXECUTION"
    assert "ghost" in v.message


def test_execution_engine_specific_function(company_db):
    report = validate_execution(
        "SELECT DATE_TRUNC('month', name) FROM employees", company_db
    )
    assert report.level1 is False
    assert "DATE_TRUNC" in report.violations[0].message


def test_execution_infrastructure_error(tmp_path):
    with pytest.raises(InfrastructureError):
        validate_execution("SELECT 1", tmp_path / "absent.db")


@pytest.mark.parametrize(
    "level1_test",
    [
        test_execution_pass_records_rows,
        test_execution_counts_rows_beyond_one_fetch_batch,
        test_execution_missing_column,
        test_execution_engine_specific_function,
    ],
    ids=lambda t: t.__name__,
)
def test_level1_with_one_row_fetch_batches(level1_test, company_db, monkeypatch):
    # Every result with a row is then counted by the engine, to the same report.
    monkeypatch.setattr(validate, "FETCH_BATCH_ROWS", 1)
    level1_test(company_db)


@pytest.mark.parametrize(
    "case", [c for c in corpus.CASES if c.name.startswith("l1_")], ids=lambda c: c.name
)
def test_level1_corpus_with_one_row_fetch_batches(case, company_db, monkeypatch):
    expected = validate_execution(case.sql, company_db)
    monkeypatch.setattr(validate, "FETCH_BATCH_ROWS", 1)
    assert validate_execution(case.sql, company_db) == expected


# ---------------------------------------------------------------------------
# level 2 / level 3 units
# ---------------------------------------------------------------------------


def test_missing_terminal_detected(company_schema):
    ast = parse_sql("SELECT name FROM employees")
    ok, violations = validate_semantic(
        ast, corpus.TERMINALS, corpus.SCAFFOLD, (), company_schema
    )
    assert not ok
    assert violations[0].code == "MISSING_TERMINAL"
    assert violations[0].subject == "departments"


def test_irrelevant_join_detected(company_schema):
    ast = parse_sql(
        "SELECT e.name FROM employees e "
        "JOIN departments d ON e.dept_id = d.dept_id "
        "JOIN projects p ON e.emp_id = p.proj_id"
    )
    terminals = TerminalSet.from_pairs([("employees", "direct-reference")])
    ok, violations = validate_semantic(
        ast, terminals, corpus.SCAFFOLD, (), company_schema
    )
    codes = {v.code for v in violations}
    assert "IRRELEVANT_JOIN" in codes
    subjects = {v.subject for v in violations if v.code == "IRRELEVANT_JOIN"}
    assert subjects == {"employees~projects"}


# The SQL candidates the pipeline tests feed the analytics question.
PIPELINE_FIXTURE_SQL = (
    "SELECT g.date FROM ga_sessions g",
    "SELECT g.date, t.pageviews FROM ga_sessions g "
    "JOIN totals t ON g.session_id = t.session_id",
    "SELECT g.date, t.pageviews FROM ga_sessions g "
    "JOIN totals t ON g.session_id = t.session_id "
    "JOIN hits h ON t.session_id = h.session_id",
    golden.ANALYTICS_GOLDEN_SQL,
)


def test_violation_tables_agree_with_a_fresh_lookup(
    company_db, company_schema, analytics_db, analytics_schema
):
    """Level 2 names the tables re-planning reads: an unmapped phrase's tables
    are those ``find_containing_tables`` finds for it, and an irrelevant
    join's are the two tables it joins."""
    runs = [
        (case.name, company_schema, validate_all(
            case.sql, company_db, case.terminals, case.scaffold, case.entities, company_schema
        ))
        for case in corpus.CASES
    ]
    decomposition = decompose_question(golden.ANALYTICS_QUESTION, analytics_schema)
    without_hits = TerminalSet.from_pairs(
        [(t, r) for t, r in decomposition.terminals.entries if t != "hits"]
    )
    graph = build_schema_graph(analytics_schema, cost_overrides=golden.ANALYTICS_COST_OVERRIDES)
    for terminals in (decomposition.terminals, without_hits):
        scaffold = solve_steiner(graph, terminals.tables)
        for i, sql in enumerate(PIPELINE_FIXTURE_SQL):
            report = validate_all(
                sql, analytics_db, terminals, scaffold, decomposition.entities, analytics_schema
            )
            runs.append((f"analytics-{i}", analytics_schema, report))

    unmapped, joins = set(), set()
    for name, schema, report in runs:
        for v in report.violations:
            if v.code == "UNMAPPED_ATTRIBUTE":
                found = find_containing_tables([v.subject], schema, DEFAULT_WEIGHTS)
                assert v.tables == found.tables, (name, v)
                unmapped.add((name, v.subject))
            elif v.code == "IRRELEVANT_JOIN":
                assert v.subject == "~".join(edge_key(*v.tables)), (name, v)
                joins.add((name, edge_key(*v.tables)))
            elif v.code == "MISSING_TERMINAL":
                assert v.tables == (v.subject,), (name, v)
            else:
                assert v.tables == (), (name, v)
    assert joins == {
        ("l2_irrelevant_join", ("employees", "projects")),
        ("analytics-2", ("hits", "totals")),
    }
    assert unmapped >= {
        ("l2_unmapped_attribute", "budget"),
        ("l2_missing_terminal_and_unmapped", "dept_name"),
        ("analytics-1", "productRevenue"),
    }


def test_fk_join_is_relevant_without_scaffold(company_schema):
    ast = parse_sql(
        "SELECT e.name FROM employees e JOIN departments d ON e.dept_id = d.dept_id"
    )
    terminals = TerminalSet.from_pairs([("employees", "direct-reference")])
    ok, violations = validate_semantic(ast, terminals, None, (), company_schema)
    assert ok


def test_groupby_rule_star(company_schema):
    ast = parse_sql("SELECT *, COUNT(*) FROM employees GROUP BY dept_id")
    ok, violations = validate_math(ast, ())
    assert not ok
    assert violations[0].code == "GROUPBY_RULE"
    assert violations[0].subject == "*"


def test_groupby_alias_satisfies_rule():
    ast = parse_sql(
        "SELECT substr(name, 1, 1) AS initial, COUNT(*) FROM employees GROUP BY initial"
    )
    ok, violations = validate_math(ast, ())
    assert ok


def test_no_aggregates_no_groupby_rule():
    ast = parse_sql("SELECT name, salary FROM employees")
    ok, violations = validate_math(ast, ())
    assert ok


def test_count_star_satisfies_count_entity():
    ast = parse_sql("SELECT dept_id, COUNT(*) FROM employees GROUP BY dept_id")
    ok, _ = validate_math(ast, (MathEntity("aggregation", "COUNT", ()),))
    assert ok


def test_null_check_entities(company_db, company_schema):
    sql = (
        "SELECT e.name, d.dept_name FROM employees e "
        "JOIN departments d ON e.dept_id = d.dept_id WHERE e.salary IS NOT NULL"
    )
    entities = (MathEntity("comparison", "IS NOT NULL", ("salary",)),)
    report = validate_all(
        sql, company_db, corpus.TERMINALS, corpus.SCAFFOLD, entities, company_schema
    )
    assert report.level3 is True
    missing = (MathEntity("comparison", "IS NULL", ("salary",)),)
    report = validate_all(
        sql, company_db, corpus.TERMINALS, corpus.SCAFFOLD, missing, company_schema
    )
    assert report.level3 is False
    assert report.by_code("CONSTRAINT_MISMATCH")


def test_constraint_on_similar_column_beside_exact_one():
    # The target names `revenue` exactly and `revenues` only by similarity;
    # the constraint sits on the second and still satisfies the entity.
    ast = parse_sql("SELECT id FROM sales WHERE revenue IS NOT NULL AND revenues > 100")
    entity = MathEntity("comparison", ">", ("revenue",), (100,))
    ok, violations = validate_math(ast, (entity,))
    assert ok, violations
    ok, violations = validate_math(ast, (MathEntity("comparison", ">", ("revenue",), (200,)),))
    assert not ok
    assert [v.code for v in violations] == ["CONSTRAINT_MISMATCH"]


def test_between_entity_matches_inequality_pair(company_db, company_schema):
    entity = MathEntity(
        "range", "BETWEEN", ("salary",), (40000, 80000)
    )
    sql_between = corpus.JOINED + " WHERE e.salary BETWEEN 40000 AND 80000"
    sql_pair = corpus.JOINED + " WHERE e.salary >= 40000 AND e.salary <= 80000"
    for sql in (sql_between, sql_pair):
        report = validate_all(
            sql, company_db, corpus.TERMINALS, corpus.SCAFFOLD, (entity,), company_schema
        )
        assert report.level3 is True, sql


def test_report_suppression_on_level1_failure(company_db, company_schema):
    report = validate_all(
        "SELECT ghost FROM employees",
        company_db,
        corpus.TERMINALS,
        corpus.SCAFFOLD,
        (),
        company_schema,
    )
    assert report.level1 is False
    assert report.level2 is None and report.level3 is None
    assert not report.ok


def test_levels_2_and_3_both_reported(company_db, company_schema):
    # level 2 fails (missing terminal), level 3 fails (groupby) — both present
    report = validate_all(
        "SELECT dept_id, salary, COUNT(*) FROM employees GROUP BY dept_id",
        company_db,
        corpus.TERMINALS,
        corpus.SCAFFOLD,
        (),
        company_schema,
    )
    assert report.level2 is False and report.level3 is False
    assert report.by_code("MISSING_TERMINAL") and report.by_code("GROUPBY_RULE")


def test_unsupported_construct_fallback(company_db, company_schema):
    report = validate_all(
        "SELECT name FROM employees WHERE dept_id IN (SELECT dept_id FROM departments)",
        company_db,
        corpus.TERMINALS,
        corpus.SCAFFOLD,
        (),
        company_schema,
    )
    assert report.level1 is True
    assert report.level2 is None and report.level3 is None
    assert report.notes and "execution-only" in report.notes[0]
    assert report.ok  # execution-only fallback passes on level-1 success


def test_long_operator_chains_end_in_a_report(company_db, company_schema):
    # A 900-term chain runs in SQLite but is deeper than the parser bound, so
    # validation falls back to execution only (the GROUP BY check used to
    # exhaust the stack on it); SQLite itself rejects 3,000 terms as too deep.
    grouped = ("SELECT dept_id, " + " + ".join(["salary"] * 900)
               + " FROM employees GROUP BY dept_id")
    report = validate_all(grouped, company_db, corpus.TERMINALS, None, (), company_schema)
    assert report.level1 is True and report.level2 is None and report.ok
    assert "execution-only" in report.notes[0] and "deeper than" in report.notes[0]
    longest = "SELECT " + " + ".join(["salary"] * 3000) + " FROM employees"
    report = validate_all(longest, company_db, corpus.TERMINALS, None, (), company_schema)
    assert report.level1 is False or report.level2 is None
    assert report_document(report)


def test_report_reproducible(company_db, company_schema):
    sql = "SELECT dept_id, salary, COUNT(*) FROM employees GROUP BY dept_id"
    a = validate_all(sql, company_db, corpus.TERMINALS, corpus.SCAFFOLD, (), company_schema)
    b = validate_all(sql, company_db, corpus.TERMINALS, corpus.SCAFFOLD, (), company_schema)
    assert report_document(a) == report_document(b)


def test_passthrough_column_monotonicity(company_db, company_schema):
    base = (
        "SELECT d.dept_name, COUNT(*) FROM employees e "
        "JOIN departments d ON e.dept_id = d.dept_id GROUP BY d.dept_name"
    )
    widened = base.replace("COUNT(*)", "COUNT(*), e.salary")
    r1 = validate_all(base, company_db, corpus.TERMINALS, corpus.SCAFFOLD, (), company_schema)
    r2 = validate_all(widened, company_db, corpus.TERMINALS, corpus.SCAFFOLD, (), company_schema)
    assert r1.level2 == r2.level2 == True  # noqa: E712
    assert r1.level3 is True
    assert r2.level3 is False
    assert r2.by_code("GROUPBY_RULE")[0].subject == "e.salary"


# ---------------------------------------------------------------------------
# hand-labeled corpus
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", corpus.CASES, ids=lambda c: c.name)
def test_corpus_case(case, company_db, company_schema):
    report = validate_all(
        case.sql,
        company_db,
        case.terminals,
        case.scaffold,
        case.entities,
        company_schema,
    )
    assert report.level1 == case.level1, report
    if case.level1:
        assert report.level2 == case.level2, report
        assert report.level3 == case.level3, report
    got_codes = {v.code for v in report.violations}
    assert got_codes == set(case.codes), report


def test_corpus_shape():
    by_level = {1: [], 2: [], 3: []}
    for case in corpus.CASES:
        level = int(case.name[1])
        by_level[level].append(case)
    assert all(len(v) >= 8 for v in by_level.values())
    assert sum(1 for c in by_level[1] if c.level1) == 4
    assert sum(1 for c in by_level[2] if c.level2) == 4
    assert sum(1 for c in by_level[3] if c.level3) == 4


# ---------------------------------------------------------------------------
# the analytics golden query end to end
# ---------------------------------------------------------------------------


def test_golden_query_passes_all_levels(analytics_schema, analytics_db):
    decomposition = decompose_question(golden.ANALYTICS_QUESTION, analytics_schema)
    graph = build_schema_graph(
        analytics_schema, cost_overrides=golden.ANALYTICS_COST_OVERRIDES
    )
    scaffold = solve_steiner(graph, decomposition.terminals.tables)
    report = validate_all(
        golden.ANALYTICS_GOLDEN_SQL,
        analytics_db,
        decomposition.terminals,
        scaffold,
        decomposition.entities,
        analytics_schema,
    )
    assert report.level1 is True
    assert report.level2 is True, report
    assert report.level3 is True, report
    assert report.ok


# ---------------------------------------------------------------------------
# names as SQLite reads them
# ---------------------------------------------------------------------------


@pytest.fixture()
def apfel_db(tmp_path):
    # SQLite folds the case of ASCII letters only, so these are two tables.
    path = tmp_path / "apfel.db"
    conn = sqlite3.connect(path)
    conn.executescript(
        """
        CREATE TABLE "Äpfel" (m INTEGER, größe REAL);
        CREATE TABLE "äpfel" (m INTEGER, größe REAL);
        INSERT INTO "äpfel" VALUES (1, 2.5);
        """
    )
    conn.commit()
    conn.close()
    return path


def test_tables_equal_beyond_ascii_case_are_told_apart(apfel_db):
    schema = load_schema_from_database(apfel_db)
    assert schema.table_names == ("Äpfel", "äpfel")
    terminals = TerminalSet.from_pairs([("Äpfel", "direct-reference")])
    report = validate_all('SELECT m FROM "äpfel"', apfel_db, terminals, None, (), schema)
    assert report.level1 is True and report.level2 is False
    assert [v.subject for v in report.by_code("MISSING_TERMINAL")] == ["Äpfel"]
    # "ÄPFEL" differs from "Äpfel" in ASCII case only, so it names that table.
    report = validate_all('SELECT m FROM "ÄPFEL"', apfel_db, terminals, None, (), schema)
    assert report.ok and not report.violations


def test_bare_non_ascii_identifiers_reach_levels_2_and_3(apfel_db):
    schema = load_schema_from_database(apfel_db)
    terminals = TerminalSet.from_pairs([("äpfel", "direct-reference")])
    sql = "SELECT m, SUM(größe) FROM äpfel GROUP BY M"
    report = validate_all(sql, apfel_db, terminals, None, (), schema)
    assert (report.level1, report.level2, report.level3) == (True, True, True)
    assert report.notes == () and report.row_count == 1
