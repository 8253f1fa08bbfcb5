"""Level 1's reused, allowlisted and time-bounded query connection.

Each thread keeps one read-only connection per database file. It admits
queries only, so no candidate can leave state (a transaction, a TEMP object,
a PRAGMA setting) for the next one; a query past the execution budget is
interrupted and the connection stays usable; no read lock outlives a call;
and a file that changes is opened afresh, with the errors of a first open.
"""

import os
import random
import sqlite3
import threading
import time

import pytest

import golden

from joinscaffold.decompose import TerminalSet
from joinscaffold.pipeline import PipelineConfig, StubGenerator, run_pipeline
from joinscaffold.schema import connect_read_only, load_schema_from_database
from joinscaffold.sqlcheck import InfrastructureError, validate_all, validate_execution
from joinscaffold.sqlcheck import validate

GENERATED_ROWS = 2000  # three copies cross-joined are 8e9 rows


def write_generated_db(path, seed=18):
    rng = random.Random(seed)
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE g (n INTEGER, label TEXT)")
    conn.executemany(
        "INSERT INTO g VALUES (?, ?)",
        [(rng.randrange(10**6), f"row{i}") for i in range(GENERATED_ROWS)],
    )
    conn.commit()
    conn.close()
    return path


@pytest.fixture()
def db(tmp_path):
    return write_generated_db(tmp_path / "generated.db")


def cached_connection():
    return validate._local.conn


def spy_engine_count(monkeypatch):
    """The list each engine count's result is appended to, ``None`` for a failed one."""
    results = []
    count = validate._engine_count

    def spy(*args):
        results.append(count(*args))
        return results[-1]

    monkeypatch.setattr(validate, "_engine_count", spy)
    return results


def assert_reusable(db_path):
    """No transaction, no TEMP object, no read lock: the next candidate starts clean."""
    conn = cached_connection()
    assert not conn.in_transaction
    assert conn.execute("SELECT count(*) FROM temp.sqlite_master").fetchone() == (0,)
    writer = sqlite3.connect(db_path, timeout=0)
    try:
        writer.execute("INSERT INTO g VALUES (-1, 'written')")
        writer.commit()
    finally:
        writer.close()


# ---------------------------------------------------------------------------
# the allowlist
# ---------------------------------------------------------------------------

NON_QUERIES = [
    "CREATE TEMP TABLE z(a)",
    "CREATE TEMP VIEW v AS SELECT 1",
    "BEGIN",
    "SAVEPOINT s",
    "PRAGMA table_info(g)",
    "PRAGMA cache_size = 5",
    "SELECT * FROM pragma_table_info('g')",
    "ANALYZE",
]


@pytest.mark.parametrize("statement", NON_QUERIES)
def test_non_query_statement_fails_level1(db, statement):
    report = validate_execution(statement, db)
    assert report.level1 is False
    (violation,) = report.violations
    assert (violation.level, violation.code) == (1, "EXECUTION")
    assert violation.message == "not authorized"
    assert_reusable(db)
    terminals = TerminalSet.from_pairs([("g", "direct-reference")])
    assert validate_all(statement, db, terminals, None, (), load_schema_from_database(db)) == report


# Statements the authorizer lets through that still answer no question: one
# with no result columns, and EXPLAIN in both forms, also after comments.
EXPLAIN_MESSAGE = "not a query: EXPLAIN returns the statement's plan, not its result"
NO_ANSWER = {
    "REINDEX nocase": "not a query: the statement returns no result columns",
    "EXPLAIN SELECT n FROM g": EXPLAIN_MESSAGE,
    "EXPLAIN QUERY PLAN SELECT n FROM g": EXPLAIN_MESSAGE,
    "-- why\n/* plan */ explain SELECT n FROM g": EXPLAIN_MESSAGE,
}


@pytest.mark.parametrize("statement", sorted(NO_ANSWER))
def test_statement_that_is_not_a_query_fails_level1(db, statement):
    # An index no NOCASE collation orders: REINDEX nocase fires no authorizer action.
    writer = sqlite3.connect(db)
    writer.execute("CREATE INDEX g_n ON g (n)")
    writer.close()
    report = validate_execution(statement, db)
    assert report.level1 is False
    (violation,) = report.violations
    assert (violation.level, violation.code) == (1, "EXECUTION")
    assert violation.message == NO_ANSWER[statement]
    assert_reusable(db)
    terminals = TerminalSet.from_pairs([("g", "direct-reference")])
    assert validate_all(statement, db, terminals, None, (), load_schema_from_database(db)) == report


# Each of these fires only the allowed actions (SELECT, READ, FUNCTION, RECURSIVE).
QUERIES = {
    "join_using": ("SELECT a.n FROM g a JOIN g b USING (n) WHERE a.label = 'row1'", 1),
    "recursive_cte": ("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c "
                      "WHERE x < 7) SELECT x FROM c", 7),
    "window": ("SELECT n, row_number() OVER (ORDER BY n) FROM g LIMIT 3", 3),
    "union": ("SELECT 1 UNION SELECT 2", 2),
    "scalar_subquery": ("SELECT (SELECT max(n) FROM g)", 1),
    "strftime_cast": ("SELECT strftime('%Y', '2017-04-05'), CAST(n AS TEXT) FROM g LIMIT 2", 2),
    "in_subquery": ("SELECT count(*) FROM g WHERE label IN (SELECT label FROM g LIMIT 5)", 1),
    "having": ("SELECT label, count(*) FROM g GROUP BY label HAVING count(*) > 1", 0),
    "schema_table": ("SELECT name FROM sqlite_master", 1),
}


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_queries_pass_the_allowlist(db, name):
    sql, rows = QUERIES[name]
    report = validate_execution(sql, db)
    assert (report.level1, report.row_count, report.violations) == (True, rows, ())


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_queries_pass_the_allowlist_counted_by_the_engine(db, monkeypatch, name):
    # One-row batches: every result with a row is counted by the engine.
    monkeypatch.setattr(validate, "FETCH_BATCH_ROWS", 1)
    counted = spy_engine_count(monkeypatch)
    sql, rows = QUERIES[name]
    report = validate_execution(sql, db)
    assert (report.level1, report.row_count, report.violations) == (True, rows, ())
    assert counted == ([rows] if rows else [])
    assert_reusable(db)


def test_pragma_candidate_ends_the_loop_as_syntax_error(analytics_schema, analytics_db):
    client = StubGenerator(default="PRAGMA table_info(ga_sessions)")
    result = run_pipeline(
        golden.ANALYTICS_QUESTION,
        analytics_schema,
        analytics_db,
        PipelineConfig(profile_stats=False),
        client,
    )
    assert (result.outcome, result.sql, result.iterations_used) == ("syntax_error", None, 1)
    assert result.trace[0].report.violations[0].message == "not authorized"


# ---------------------------------------------------------------------------
# the execution budget
# ---------------------------------------------------------------------------

RUNAWAY_QUERIES = [
    "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c) SELECT count(*) FROM c",
    "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c) SELECT x FROM c",
    "SELECT count(*) FROM g a, g b, g c",
    "SELECT a.n, b.label FROM g a JOIN g b ON 1 = 1 JOIN g c ON 1 = 1",
    "SELECT sum(a.n * b.n) FROM g a JOIN g b ON a.n <> b.n JOIN g c ON c.label <> a.label",
]
BUDGET_S = 0.25
SLACK_S = 2.0


@pytest.mark.parametrize("sql", RUNAWAY_QUERIES)
def test_runaway_query_ends_within_the_budget(db, monkeypatch, sql):
    monkeypatch.setattr(validate, "EXECUTION_BUDGET_S", BUDGET_S)
    start = time.monotonic()
    report = validate_execution(sql, db)
    elapsed = time.monotonic() - start
    assert BUDGET_S <= elapsed < BUDGET_S + SLACK_S
    assert report.level1 is False
    (violation,) = report.violations
    assert violation.code == "EXECUTION"
    assert violation.message == (
        f"interrupted: query ran past the {BUDGET_S:g} s execution budget"
    )
    assert_reusable(db)


def test_connection_is_usable_after_an_interrupt(db, monkeypatch):
    monkeypatch.setattr(validate, "EXECUTION_BUDGET_S", BUDGET_S)
    assert validate_execution(RUNAWAY_QUERIES[0], db).level1 is False
    conn = cached_connection()
    report = validate_execution("SELECT count(*) FROM g", db)
    assert (report.level1, report.row_count) == (True, 1)
    assert cached_connection() is conn


def test_default_budget_leaves_ordinary_queries_alone(db):
    report = validate_execution("SELECT count(*) FROM g a, g b WHERE a.n < b.n", db)
    assert (report.level1, report.row_count) == (True, 1)


# ---------------------------------------------------------------------------
# reuse
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "sql",
    ["SELECT * FROM g", "SELECT ghost FROM g", "SELEC broken"],
    ids=["pass", "fail", "syntax"],
)
def test_no_state_or_lock_outlives_a_call(db, sql):
    validate_execution(sql, db)
    assert_reusable(db)


def test_unchanged_file_reuses_the_connection(db):
    validate_execution("SELECT 1", db)
    conn = cached_connection()
    assert validate_execution("SELECT * FROM g", db).row_count == GENERATED_ROWS
    assert cached_connection() is conn


def test_replaced_file_is_reopened(db, tmp_path):
    validate_execution("SELECT * FROM g", db)
    old = cached_connection()
    other = sqlite3.connect(tmp_path / "other.db")
    other.execute("CREATE TABLE g (n INTEGER)")
    other.commit()
    other.close()
    os.replace(tmp_path / "other.db", db)
    report = validate_execution("SELECT * FROM g", db)
    assert (report.level1, report.row_count) == (True, 0)
    assert cached_connection() is not old
    with pytest.raises(sqlite3.ProgrammingError, match="closed"):
        old.execute("SELECT 1")


def test_rewritten_file_is_reopened(db):
    validate_execution("SELECT * FROM g", db)
    old = cached_connection()
    writer = sqlite3.connect(db)
    writer.executemany("INSERT INTO g VALUES (?, 'more')", [(i,) for i in range(5000)])
    writer.commit()
    writer.close()
    report = validate_execution("SELECT * FROM g", db)
    assert report.row_count == GENERATED_ROWS + 5000
    assert cached_connection() is not old


@pytest.mark.parametrize(
    "spoil, message",
    [
        (
            lambda p: p.write_text("not a database\n" * 300, encoding="utf-8"),
            "cannot open database",
        ),
        (lambda p: p.unlink(), "database file not readable"),
    ],
    ids=["not_a_database", "removed"],
)
def test_spoilt_file_raises_as_on_first_open(db, spoil, message):
    assert validate_execution("SELECT 1", db).level1 is True
    spoil(db)
    with pytest.raises(InfrastructureError, match=message):
        validate_execution("SELECT 1", db)


def test_new_process_id_opens_a_new_connection(db, monkeypatch):
    validate_execution("SELECT 1", db)
    old = cached_connection()
    monkeypatch.setattr(validate.os, "getpid", lambda: -1)
    validate_execution("SELECT 1", db)
    assert cached_connection() is not old


def test_each_thread_has_its_own_connection(db):
    both_open = threading.Barrier(2)
    seen = {}

    def work(name):
        validate_execution("SELECT 1", db)
        conn = cached_connection()
        validate_execution("SELECT * FROM g", db)
        seen[name] = (conn, cached_connection() is conn)
        both_open.wait(timeout=10)
        conn.close()

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    (c0, reused0), (c1, reused1) = seen[0], seen[1]
    assert reused0 and reused1
    assert c0 is not c1


# ---------------------------------------------------------------------------
# counting a long result
# ---------------------------------------------------------------------------

LONG_ROWS = 10_000
OVERFLOW = "abs(-9223372036854775807 - (x > 9000))"  # fails on rows 9001 and later


@pytest.fixture()
def long_db(db):
    """The generated database plus ``big``, whose row 9000 holds malformed JSON,
    and a real table named and with a column named like the engine count's
    common table expression and its first column."""
    writer = sqlite3.connect(db)
    writer.executescript(f"""
        CREATE TABLE big (x INTEGER, s TEXT, j TEXT);
        INSERT INTO big
        WITH RECURSIVE k(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM k WHERE x < {LONG_ROWS})
        SELECT x, 'r' || x, CASE WHEN x = 9000 THEN '{{' ELSE json_object('a', x) END FROM k;
        CREATE TABLE {validate._COUNT_CTE} AS SELECT x AS c0 FROM big;
        CREATE VIEW through_view AS SELECT c0 FROM {validate._COUNT_CTE};
    """)
    writer.close()
    return db


def reference_level1(sql, db_path):
    """(level1, row_count, messages) of a plain fetch loop on a fresh connection."""
    budget = validate.EXECUTION_BUDGET_S
    conn = connect_read_only(db_path)
    deadline = time.monotonic() + budget
    conn.set_progress_handler(lambda: time.monotonic() > deadline, validate.PROGRESS_STEPS)
    try:
        cur = conn.execute(sql)
        rows = 0
        while batch := cur.fetchmany(1000):
            rows += len(batch)
        return (True, rows, ())
    except sqlite3.Error as exc:
        message = str(exc)
        if message == "interrupted":
            message = f"interrupted: query ran past the {budget:g} s execution budget"
        return (False, None, (message,))
    finally:
        conn.close()


# Every query returns more than FETCH_BATCH_ROWS rows or fails past the first
# batch. "engine": the engine count gives row_count; "fetch": the count is
# skipped or fails and the fetch loop counts; "error": the fetch loop fails.
PARITY = {
    "select_overflow": (f"SELECT x, {OVERFLOW} FROM big", "error"),
    "select_malformed_json": ("SELECT x, json_extract(j, '$.a') FROM big", "error"),
    "order_by_error": (f"SELECT x FROM big ORDER BY {OVERFLOW}", "error"),
    "where_error": (f"SELECT x FROM big WHERE {OVERFLOW} > 0", "error"),
    "trailing_semicolon": ("SELECT x, s FROM big;", "engine"),
    "trailing_semicolon_and_blanks": ("SELECT x FROM big ;\n  ", "engine"),
    "semicolon_then_comment": ("SELECT x FROM big; -- every row", "engine"),
    "semicolon_then_block_comment": ("SELECT x FROM big; /* c */", "engine"),
    "semicolon_then_comment_line": ("SELECT x FROM big;\n-- c", "engine"),
    "comment_marker_in_a_string": ("SELECT x, '--' FROM big;", "engine"),
    "trailing_line_comment": ("SELECT x FROM big -- every row", "engine"),
    "unterminated_block_comment": ("SELECT x FROM big /* every row", "fetch"),
    "table_named_like_the_cte": (f"SELECT c0 FROM {validate._COUNT_CTE}", "fetch"),
    # Wrapped, this compound would be a recursive CTE of 25,000 rows, not 20,000.
    "compound_over_that_table": (f"SELECT x FROM big UNION SELECT c0 + 10000 FROM "
                                 f"{validate._COUNT_CTE.upper()} WHERE c0 <= 15000", "fetch"),
    "view_over_that_table": ("SELECT c0 FROM through_view", "engine"),
    "duplicate_column_names": ("SELECT x, x, s AS x FROM big", "engine"),
    "union_all": ("SELECT x FROM big UNION ALL SELECT n FROM g", "engine"),
    "limit_offset": ("SELECT x, s FROM big LIMIT 5000 OFFSET 3000", "engine"),
    "values": ("VALUES " + ", ".join(f"({i}, 'v{i}')" for i in range(5000)), "engine"),
    "window": ("SELECT x, row_number() OVER (ORDER BY s), sum(x) OVER () FROM big", "engine"),
    "recursive_cte": ("WITH RECURSIVE c(k) AS (SELECT 1 UNION ALL SELECT k + 1 FROM c "
                      "WHERE k < 6000) SELECT k, k * k FROM c", "engine"),
}


@pytest.mark.parametrize("name", sorted(PARITY))
def test_long_result_agrees_with_a_plain_fetch_loop(long_db, monkeypatch, name):
    sql, path = PARITY[name]
    counted = spy_engine_count(monkeypatch)
    report = validate_execution(sql, long_db)
    got = (report.level1, report.row_count, tuple(v.message for v in report.violations))
    assert got == reference_level1(sql, long_db)
    assert_reusable(long_db)
    if path == "error":
        assert report.level1 is False and report.violations[0].level == 1
    else:
        assert report.row_count > validate.FETCH_BATCH_ROWS
        assert counted == [report.row_count if path == "engine" else None]


def test_runaway_long_result_ends_within_the_budget(long_db, monkeypatch):
    # The first batch comes at once; the budget interrupts the engine count,
    # then the fetch loop, which reports it.
    monkeypatch.setattr(validate, "EXECUTION_BUDGET_S", BUDGET_S)
    sql = "SELECT a.n, b.label FROM g a, g b, g c"
    counted = spy_engine_count(monkeypatch)
    start = time.monotonic()
    report = validate_execution(sql, long_db)
    assert BUDGET_S <= time.monotonic() - start < BUDGET_S + SLACK_S
    got = (report.level1, report.row_count, tuple(v.message for v in report.violations))
    assert got == reference_level1(sql, long_db)
    assert got[2] == (f"interrupted: query ran past the {BUDGET_S:g} s execution budget",)
    assert counted == [None]
    assert_reusable(long_db)


@pytest.mark.parametrize(
    "sql, rows",
    [
        ("SELECT x, s FROM bad_text", LONG_ROWS),
        ("SELECT x, s FROM bad_text WHERE x < 5", 4),
        ("SELECT s FROM bad_text WHERE x = 9000", 1),
    ],
    ids=["long", "first_batch_row_1", "first_batch_row_9000"],
)
def test_result_text_is_not_decoded(db, sql, rows):
    # Rows 1 and 9000 hold TEXT that is not UTF-8. Level 1 reads no value and
    # re-planning cannot repair the data's encoding, so level 1 passes
    # wherever the value falls; a decoding fetch fails.
    writer = sqlite3.connect(db)
    writer.executescript(f"""
        CREATE TABLE bad_text (x INTEGER, s TEXT);
        INSERT INTO bad_text
        WITH RECURSIVE k(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM k WHERE x < {LONG_ROWS})
        SELECT x, CASE WHEN x IN (1, 9000) THEN CAST(x'ff' AS TEXT) ELSE 'r' || x END FROM k;
    """)
    writer.close()
    report = validate_execution(sql, db)
    assert (report.level1, report.row_count, report.violations) == (True, rows, ())
    assert_reusable(db)
    level1, _rows, (message,) = reference_level1(sql, db)
    assert level1 is False and message.startswith("Could not decode to UTF-8 column 's'")


# ---------------------------------------------------------------------------
# double-quoted strings
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "sql",
    ['SELECT amt FROM orders WHERE name = "bob"', 'SELECT "ghost" FROM orders'],
    ids=["literal_meant", "column_meant"],
)
def test_double_quoted_name_of_no_column_is_a_string(tmp_path, sql):
    # SQLite reads a double-quoted name that matches no column as a string
    # literal, and level 1 follows it. Telling a misspelt column from a meant
    # literal waits for the engine's read set in level 2.
    path = tmp_path / "orders.db"
    writer = sqlite3.connect(path)
    writer.execute("CREATE TABLE orders (name TEXT, amt REAL)")
    writer.execute("INSERT INTO orders VALUES ('bob', 9.5)")
    writer.commit()
    writer.close()
    report = validate_execution(sql, path)
    assert (report.level1, report.row_count, report.violations) == (True, 1, ())
