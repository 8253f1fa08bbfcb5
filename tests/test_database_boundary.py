"""The read-only database boundary: every path that opens SQLite.

Schema load, statistics profiling and execution validation all open the
database through ``schema.connect_read_only``. A hostile file name must name
that file and nothing else, a fault must be a defined error (exit 1 from the
CLI, never a traceback), and no statement may write a file.
"""

import json
import sqlite3
from pathlib import Path

import pytest

import golden

from joinscaffold.cli import main
from joinscaffold.profiling import profile_statistics
from joinscaffold.schema import (
    SchemaError,
    connect_read_only,
    load_schema_from_database,
    user_tables,
)
from joinscaffold.sqlcheck import InfrastructureError, validate_execution

# Names SQLite would read as URI syntax (query, fragment, percent escape) or
# that need encoding in a URI (space, non-ASCII letter).
HOSTILE_NAMES = ["shop?v2.db", "shop#1.db", "shop%41.db", "my shop.db", "café.db"]

ANALYTICS_TABLES = ["ga_sessions", "hits", "totals"]
SESSION_ROWS = 4


def files_under(root: Path) -> list[Path]:
    return sorted(root.rglob("*"))


@pytest.fixture()
def workdir(tmp_path):
    """A schema document and a stub script; the database goes next to them."""
    (tmp_path / "analytics.json").write_text(golden.ANALYTICS_SCHEMA_DOC, encoding="utf-8")
    (tmp_path / "stub.json").write_text(
        json.dumps({"default": golden.ANALYTICS_GOLDEN_SQL}), encoding="utf-8"
    )
    return tmp_path


@pytest.fixture(params=HOSTILE_NAMES)
def hostile_db(request, workdir):
    return golden.build_analytics_db(workdir / request.param)


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_unchanged(workdir, before):
    assert files_under(workdir) == before


# ---------------------------------------------------------------------------
# hostile paths name the file itself
# ---------------------------------------------------------------------------


def test_schema_load_reads_the_named_file(hostile_db, workdir):
    before = files_under(workdir)
    schema = load_schema_from_database(hostile_db)
    assert list(schema.table_names) == ANALYTICS_TABLES
    assert schema.table("ga_sessions").row_count == SESSION_ROWS
    assert_unchanged(workdir, before)


def test_profiling_reads_the_named_file(hostile_db, workdir, analytics_schema):
    before = files_under(workdir)
    profile = profile_statistics(
        analytics_schema, hostile_db, pairs=[("ga_sessions", "session_id", "totals", "session_id")]
    )
    stats = profile.pair_stats("ga_sessions", "session_id", "totals", "session_id")
    assert stats.selectivity == 1.0  # session ids 1-4 on both sides
    assert_unchanged(workdir, before)


def test_execution_reads_the_named_file(hostile_db, workdir):
    before = files_under(workdir)
    report = validate_execution("SELECT * FROM ga_sessions", hostile_db)
    assert report.level1 is True
    assert report.row_count == SESSION_ROWS
    assert_unchanged(workdir, before)


def test_cli_graph_profile_reads_the_named_file(capsys, hostile_db, workdir):
    before = files_under(workdir)
    code, out, err = run_cli(capsys, "graph", hostile_db, "--db", hostile_db, "--profile")
    assert (code, err) == (0, "")
    assert json.loads(out)["vertices"] == ANALYTICS_TABLES
    assert_unchanged(workdir, before)


def test_cli_validate_reads_the_named_file(capsys, hostile_db, workdir):
    before = files_under(workdir)
    code, out, err = run_cli(
        capsys,
        "validate", workdir / "analytics.json",
        "--sql", "SELECT * FROM ga_sessions",
        "--db", hostile_db,
        "--terminals", "ga_sessions",
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["row_count"] == SESSION_ROWS
    assert_unchanged(workdir, before)


def test_cli_run_reads_the_named_file(capsys, hostile_db, workdir):
    before = files_under(workdir)
    code, out, err = run_cli(
        capsys,
        "run", golden.ANALYTICS_QUESTION, hostile_db,
        "--stub-responses", workdir / "stub.json",
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["outcome"] == "sql"
    assert_unchanged(workdir, before)


# ---------------------------------------------------------------------------
# files that are not databases, and an empty one that is
# ---------------------------------------------------------------------------


def make_not_a_database(workdir: Path) -> Path:
    path = workdir / "junk.db"
    path.write_text("this is not an SQLite database, only text\n" * 40, encoding="utf-8")
    return path


def make_directory(workdir: Path) -> Path:
    path = workdir / "folder.db"
    path.mkdir()
    return path


def make_missing(workdir: Path) -> Path:
    return workdir / "absent.db"


FAULTS = {
    "not_a_database": (make_not_a_database, "cannot open database"),
    "directory": (make_directory, "database file not readable"),
    "missing": (make_missing, "database file not readable"),
}


@pytest.fixture(params=sorted(FAULTS))
def faulty_db(request, workdir):
    make, message = FAULTS[request.param]
    return make(workdir), message


def test_schema_load_fault_is_schema_error(faulty_db, workdir):
    path, message = faulty_db
    before = files_under(workdir)
    with pytest.raises(SchemaError, match=message):
        load_schema_from_database(path)
    assert_unchanged(workdir, before)


def test_profiling_fault_is_schema_error(faulty_db, workdir, analytics_schema):
    path, message = faulty_db
    before = files_under(workdir)
    with pytest.raises(SchemaError, match=message):
        profile_statistics(analytics_schema, path)
    assert_unchanged(workdir, before)


def test_execution_fault_is_infrastructure_error(faulty_db, workdir):
    path, message = faulty_db
    before = files_under(workdir)
    with pytest.raises(InfrastructureError, match=message):
        validate_execution("SELECT 1", path)
    assert_unchanged(workdir, before)


CLI_COMMANDS = {
    "graph_schema": lambda w, db: ["graph", db],
    "graph_profile": lambda w, db: ["graph", w / "analytics.json", "--db", db, "--profile"],
    "validate": lambda w, db: [
        "validate", w / "analytics.json", "--sql", "SELECT 1", "--db", db,
        "--terminals", "ga_sessions",
    ],
    "run": lambda w, db: [
        "run", golden.ANALYTICS_QUESTION, w / "analytics.json", "--db", db,
        "--stub-responses", w / "stub.json",
    ],
}


@pytest.mark.parametrize("command", sorted(CLI_COMMANDS))
def test_cli_database_fault_exits_1(capsys, faulty_db, workdir, command):
    path, _message = faulty_db
    before = files_under(workdir)
    code, out, err = run_cli(capsys, *CLI_COMMANDS[command](workdir, path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and str(path) in err
    assert "Traceback" not in err
    assert_unchanged(workdir, before)


@pytest.mark.parametrize(
    "command, message",
    [
        ("graph_schema", "no user tables"),
        ("graph_profile", "schema/database mismatch"),
        ("run", "schema/database mismatch"),
    ],
)
def test_cli_empty_database_exits_1(capsys, workdir, command, message):
    path = workdir / "empty.db"
    path.touch()
    before = files_under(workdir)
    code, out, err = run_cli(capsys, *CLI_COMMANDS[command](workdir, path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and message in err
    assert_unchanged(workdir, before)


def test_empty_file_is_an_empty_database(workdir, analytics_schema):
    path = workdir / "empty.db"
    path.touch()
    before = files_under(workdir)
    with pytest.raises(SchemaError, match="no user tables"):
        load_schema_from_database(path)
    with pytest.raises(SchemaError, match="schema/database mismatch"):
        profile_statistics(analytics_schema, path)
    report = validate_execution("SELECT 1", path)
    assert (report.level1, report.row_count) == (True, 1)
    missing_table = validate_execution("SELECT * FROM ga_sessions", path)
    assert missing_table.violations[0].code == "EXECUTION"
    assert path.stat().st_size == 0
    assert_unchanged(workdir, before)


# ---------------------------------------------------------------------------
# statements that write files on a read-only connection
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "statement, message",
    [
        ("ATTACH DATABASE '{target}' AS x", "not authorized"),
        ("VACUUM INTO '{target}'", "authorization denied"),
    ],
)
def test_file_writing_statement_is_level1_violation(workdir, statement, message):
    db = golden.build_analytics_db(workdir / "analytics.db")
    before = files_under(workdir)
    report = validate_execution(statement.format(target=workdir / "written.db"), db)
    assert report.level1 is False
    (violation,) = report.violations
    assert (violation.level, violation.code, violation.message) == (1, "EXECUTION", message)
    assert_unchanged(workdir, before)


def test_connection_is_read_only(workdir):
    db = golden.build_analytics_db(workdir / "analytics.db")
    conn = connect_read_only(db)
    try:
        assert user_tables(conn) == ANALYTICS_TABLES
        with pytest.raises(sqlite3.OperationalError, match="readonly"):
            conn.execute("DELETE FROM ga_sessions")
    finally:
        conn.close()


def test_user_tables_keeps_names_that_only_start_like_sqlite(workdir):
    # SQLite reserves the prefix "sqlite_" only; "_" is not a wildcard here.
    db = workdir / "names.db"
    conn = sqlite3.connect(db)
    conn.executescript(
        "CREATE TABLE sqliteusers (id INTEGER PRIMARY KEY);"
        "CREATE TABLE SQLite1 (id INTEGER PRIMARY KEY AUTOINCREMENT);"
        "INSERT INTO SQLite1 DEFAULT VALUES;"
        "ANALYZE;"
    )
    conn.close()
    assert load_schema_from_database(db).table_names == ("SQLite1", "sqliteusers")
