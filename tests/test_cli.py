import json
import sqlite3

import pytest

import golden
from helpers import admitted_join_columns, json_server

from joinscaffold.cli import main
from joinscaffold.costs import CostWeights, build_schema_graph, statistical_cost
from joinscaffold.profiling import profile_statistics
from joinscaffold.schema import serialize_schema_document


@pytest.fixture()
def analytics_schema_file(tmp_path):
    path = tmp_path / "analytics.json"
    path.write_text(golden.ANALYTICS_SCHEMA_DOC, encoding="utf-8")
    return path


@pytest.fixture()
def collectors_schema_file(tmp_path):
    path = tmp_path / "collectors.json"
    path.write_text(golden.COLLECTOR_SCHEMA_DOC, encoding="utf-8")
    return path


@pytest.fixture()
def override_file(tmp_path):
    path = tmp_path / "overrides.json"
    path.write_text(
        json.dumps(
            {
                "edges": [
                    {"a": "ga_sessions", "b": "totals", "cost": 0.08},
                    {"a": "ga_sessions", "b": "hits", "cost": 0.09},
                    {"a": "totals", "b": "hits", "cost": 0.58},
                ]
            }
        ),
        encoding="utf-8",
    )
    return path


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_graph_command(capsys, analytics_schema_file, override_file):
    code, out, _err = run_cli(
        capsys, "graph", analytics_schema_file, "--override-costs", override_file
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"] == ["ga_sessions", "hits", "totals"]
    totals = {(e["a"], e["b"]): e["total"] for e in doc["edges"]}
    assert totals[("ga_sessions", "totals")] == 0.08
    assert totals[("ga_sessions", "hits")] == 0.09
    assert totals[("hits", "totals")] == 0.58


def test_graph_reads_fk_ends_spelt_in_another_ascii_case(capsys, tmp_path):
    db = tmp_path / "fkcase.db"
    conn = sqlite3.connect(db)
    conn.executescript(
        "CREATE TABLE a(id INTEGER PRIMARY KEY); CREATE TABLE b(x INTEGER REFERENCES A(ID));"
    )
    conn.close()
    code, out, err = run_cli(capsys, "graph", db)
    assert (code, err) == (0, "")
    assert [(e["a"], e["b"], e["has_fk"]) for e in json.loads(out)["edges"]] == [("a", "b", True)]


def test_graph_profile_uses_configured_tau(capsys, company_db, company_schema):
    code, out, _err = run_cli(
        capsys, "graph", company_db, "--db", company_db, "--profile", "--tau", "0.6"
    )
    assert code == 0
    weights = CostWeights(tau=0.6)
    graph = build_schema_graph(company_schema, weights=weights)
    assert not graph.edge("employees", "projects").has_fk  # admitted only at tau 0.6
    stats = profile_statistics(
        company_schema, company_db, pairs=admitted_join_columns(company_schema, graph)
    )
    expected = {
        (a, b): statistical_cost(
            company_schema.table(a), company_schema.table(b), stats, weights
        )
        for a, b, _cost in graph.sorted_edges()
    }
    got = {(e["a"], e["b"]): e["statistical"] for e in json.loads(out)["edges"]}
    assert got == expected


def test_graph_profile_with_override_costs_walks_admission_once(
    capsys, company_db, tmp_path, monkeypatch
):
    from joinscaffold import costs

    overrides = tmp_path / "overrides.json"
    overrides.write_text(
        json.dumps({"edges": [{"a": "departments", "b": "assignments", "cost": 0.25}]}),
        encoding="utf-8",
    )
    walks = []
    walk = costs._admitted_pairs
    monkeypatch.setattr(costs, "_admitted_pairs", lambda *a: walks.append(a) or walk(*a))
    code, out, _err = run_cli(
        capsys, "graph", company_db, "--db", company_db, "--profile",
        "--override-costs", overrides,
    )
    assert code == 0
    assert len(walks) == 1
    edges = {(e["a"], e["b"]): e for e in json.loads(out)["edges"]}
    pinned = edges[("assignments", "departments")]
    assert not pinned["has_fk"]
    assert {pinned[k] for k in ("connect", "semantic", "statistical", "total")} == {0.25}


def test_graph_costs_table(capsys, analytics_schema_file, override_file):
    code, out, _err = run_cli(
        capsys, "graph", analytics_schema_file, "--override-costs", override_file, "--costs"
    )
    assert code == 0
    assert "connect" in out and "ga_sessions -- totals" in out


def test_graph_missing_schema_exits_1(capsys, tmp_path):
    code, _out, err = run_cli(capsys, "graph", tmp_path / "missing.json")
    assert code == 1
    assert "missing.json" in err


def test_solve_appendix_case(capsys, analytics_schema_file, override_file):
    code, out, _err = run_cli(
        capsys,
        "solve", analytics_schema_file,
        "--override-costs", override_file,
        "--terminals", "ga_sessions,totals,hits",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["total_cost"] == 0.17
    assert [(e["a"], e["b"]) for e in doc["edges"]] == [
        ["ga_sessions", "hits"],
        ["ga_sessions", "totals"],
    ] or [(e["a"], e["b"]) for e in doc["edges"]] == [
        ("ga_sessions", "hits"),
        ("ga_sessions", "totals"),
    ]


def test_solve_single_terminal(capsys, analytics_schema_file, override_file):
    code, out, _err = run_cli(
        capsys,
        "solve", analytics_schema_file,
        "--override-costs", override_file,
        "--terminals", "totals",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["edges"] == []
    assert doc["total_cost"] == 0.0


def test_solve_exact_ratio(capsys, analytics_schema_file, override_file):
    code, out, _err = run_cli(
        capsys,
        "solve", analytics_schema_file,
        "--override-costs", override_file,
        "--terminals", "ga_sessions,totals,hits",
        "--exact",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kmb_cost"] == doc["oracle_cost"] == 0.17
    assert doc["ratio"] == 1.0


def test_solve_disconnected_exits_2(capsys, tmp_path):
    doc = {
        "vertices": ["a", "b", "c", "d"],
        "edges": [
            {"a": "a", "b": "b", "connect": 0.1, "semantic": 0.1, "statistical": 0.1,
             "total": 0.1, "has_fk": False},
            {"a": "c", "b": "d", "connect": 0.1, "semantic": 0.1, "statistical": 0.1,
             "total": 0.1, "has_fk": False},
        ],
    }
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(json.dumps(doc), encoding="utf-8")
    code, _out, err = run_cli(
        capsys, "solve", graph_file, "--terminals", "a,c"
    )
    assert code == 2
    assert "disconnected terminals" in err
    assert "group: a" in err


def test_solve_accepts_graph_document(capsys, analytics_schema_file, override_file, tmp_path):
    code, out, _err = run_cli(
        capsys, "graph", analytics_schema_file, "--override-costs", override_file
    )
    graph_file = tmp_path / "exported.json"
    graph_file.write_text(out, encoding="utf-8")
    code, out2, _err = run_cli(
        capsys, "solve", graph_file, "--terminals", "ga_sessions,totals,hits"
    )
    assert code == 0
    assert json.loads(out2)["total_cost"] == 0.17


def test_plan_collectors_golden(capsys, collectors_schema_file):
    code, out, _err = run_cli(
        capsys, "plan", golden.COLLECTOR_QUESTION, collectors_schema_file
    )
    assert code == 0
    doc = json.loads(out)
    assert [t["table"] for t in doc["terminals"]] == ["collectors", "readings"]


def test_plan_analytics_golden(capsys, analytics_schema_file):
    code, out, _err = run_cli(
        capsys, "plan", golden.ANALYTICS_QUESTION, analytics_schema_file
    )
    assert code == 0
    doc = json.loads(out)
    assert [t["table"] for t in doc["terminals"]] == ["ga_sessions", "hits", "totals"]


def test_plan_question_with_an_impossible_date(capsys, analytics_schema_file):
    question = "How many hits between 2024-02-30 and 2024-03-05?"
    code, out, err = run_cli(capsys, "plan", question, analytics_schema_file)
    assert (code, err) == (0, "")
    assert [e["kind"] for e in json.loads(out)["entities"]] == ["aggregation"]


def test_validate_passing_fixture(capsys, analytics_schema_file, analytics_db, tmp_path, override_file):
    _code, scaffold_out, _err = run_cli(
        capsys,
        "solve", analytics_schema_file,
        "--override-costs", override_file,
        "--terminals", "ga_sessions,totals,hits",
    )
    scaffold_file = tmp_path / "scaffold.json"
    scaffold_file.write_text(scaffold_out, encoding="utf-8")
    sql_file = tmp_path / "query.sql"
    sql_file.write_text(golden.ANALYTICS_GOLDEN_SQL, encoding="utf-8")
    code, out, _err = run_cli(
        capsys,
        "validate", analytics_schema_file,
        "--sql-file", sql_file,
        "--db", analytics_db,
        "--terminals", "ga_sessions,totals,hits",
        "--scaffold", scaffold_file,
        "--question", golden.ANALYTICS_QUESTION,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True


def test_validate_failing_exits_2(capsys, analytics_schema_file, analytics_db):
    code, out, _err = run_cli(
        capsys,
        "validate", analytics_schema_file,
        "--sql", "SELECT date FROM ga_sessions",
        "--db", analytics_db,
        "--terminals", "ga_sessions,totals,hits",
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["level2"] is False


@pytest.mark.parametrize("terms, group_by", [(900, True), (3000, False)])
def test_validate_long_operator_chain_exits_with_a_report(
    capsys, analytics_schema_file, analytics_db, terms, group_by
):
    sql = "SELECT date, " + " + ".join(["session_id"] * terms) + " FROM ga_sessions"
    code, out, _err = run_cli(
        capsys,
        "validate", analytics_schema_file,
        "--sql", sql + (" GROUP BY date" if group_by else ""),
        "--db", analytics_db,
        "--terminals", "ga_sessions",
    )
    doc = json.loads(out)
    assert code == (0 if doc["ok"] else 2)
    assert doc["level2"] is None  # execution only, or failed in SQLite
    if group_by:  # runs in SQLite, too deep for the parser
        assert code == 0 and "execution-only" in doc["notes"][0]


def test_run_with_stub(capsys, analytics_schema_file, analytics_db, tmp_path):
    stub_file = tmp_path / "stub.json"
    stub_file.write_text(
        json.dumps({"default": golden.ANALYTICS_GOLDEN_SQL}), encoding="utf-8"
    )
    code, out, _err = run_cli(
        capsys,
        "run", golden.ANALYTICS_QUESTION, analytics_schema_file,
        "--db", analytics_db,
        "--stub-responses", stub_file,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "sql"
    assert doc["iterations_used"] == 1


def test_run_failing_stub_exits_2(capsys, analytics_schema_file, analytics_db, tmp_path):
    stub_file = tmp_path / "stub.json"
    stub_file.write_text(
        json.dumps({"default": "SELECT date FROM ga_sessions"}), encoding="utf-8"
    )
    code, out, _err = run_cli(
        capsys,
        "run", golden.ANALYTICS_QUESTION, analytics_schema_file,
        "--db", analytics_db,
        "--stub-responses", stub_file,
    )
    assert code == 2
    assert json.loads(out)["outcome"] == "max_iterations"


def test_run_malformed_generator_reply_exits_1(
    capsys, analytics_schema_file, analytics_db, tmp_path, monkeypatch
):
    monkeypatch.delenv("JOINSCAFFOLD_GENERATOR_ENDPOINT", raising=False)
    config_file = tmp_path / "config.json"
    with json_server({"choices": []}) as url:
        config_file.write_text(
            json.dumps({"generator_endpoint": url, "retries": 2, "backoff": 0.01}),
            encoding="utf-8",
        )
        code, out, err = run_cli(
            capsys,
            "run", golden.ANALYTICS_QUESTION, analytics_schema_file,
            "--db", analytics_db,
            "--config", config_file,
        )
    assert code == 1
    assert out == ""
    assert "generator failed after 2 attempts" in err


@pytest.mark.parametrize("field", ["max_iterations", "retries"])
def test_run_config_file_rejects_zero_counts(
    capsys, analytics_schema_file, analytics_db, tmp_path, field
):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({field: 0}), encoding="utf-8")
    stub_file = tmp_path / "stub.json"
    stub_file.write_text(
        json.dumps({"default": golden.ANALYTICS_GOLDEN_SQL}), encoding="utf-8"
    )
    code, out, err = run_cli(
        capsys,
        "run", golden.ANALYTICS_QUESTION, analytics_schema_file,
        "--db", analytics_db,
        "--config", config_file,
        "--stub-responses", stub_file,
    )
    assert code == 1
    assert out == ""
    assert f"config file {config_file}: {field} must be an integer of at least 1" in err


def test_graph_profile_missing_database_exits_1(capsys, analytics_schema_file, tmp_path):
    code, out, err = run_cli(
        capsys,
        "graph", analytics_schema_file, "--db", tmp_path / "missing.db", "--profile",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: database file not readable:")


def test_run_schema_database_mismatch_exits_1(
    capsys, analytics_schema_file, company_db, tmp_path
):
    stub_file = tmp_path / "stub.json"
    stub_file.write_text(
        json.dumps({"default": golden.ANALYTICS_GOLDEN_SQL}), encoding="utf-8"
    )
    code, out, err = run_cli(
        capsys,
        "run", golden.ANALYTICS_QUESTION, analytics_schema_file,
        "--db", company_db,
        "--stub-responses", stub_file,
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: schema/database mismatch: missing tables")


MALFORMED_JSON_COMMANDS = {
    "config": lambda schema, bad: ["graph", schema, "--config", bad],
    "override-costs": lambda schema, bad: ["graph", schema, "--override-costs", bad],
    "stub-responses": lambda schema, bad: [
        "run", golden.ANALYTICS_QUESTION, schema, "--stub-responses", bad,
    ],
    "solve-input": lambda schema, bad: ["solve", bad, "--terminals", "hits"],
}


@pytest.mark.parametrize("source", sorted(MALFORMED_JSON_COMMANDS))
def test_malformed_json_file_exits_1_naming_it(capsys, analytics_schema_file, tmp_path, source):
    bad = tmp_path / "bad.json"
    bad.write_text("{bad", encoding="utf-8")
    code, out, err = run_cli(capsys, *MALFORMED_JSON_COMMANDS[source](analytics_schema_file, bad))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and str(bad) in err.splitlines()[0]
    assert "Traceback" not in err


WRONG_SHAPE_JSON = {
    "override-costs-edges-not-a-list": ("override-costs", {"edges": 1}),
    "override-costs-without-edges": ("override-costs", {}),
    "override-costs-edge-without-cost": (
        "override-costs", {"edges": [{"a": "hits", "b": "totals"}]},
    ),
    "config-list": ("config", [1]),
    "config-weights-list": ("config", {"weights": [1]}),
    "stub-responses-number": ("stub-responses", 5),
    "stub-responses-non-string-reply": ("stub-responses", {"responses": [5]}),
}


@pytest.mark.parametrize("case", sorted(WRONG_SHAPE_JSON))
def test_wrong_shape_json_file_exits_1_naming_it(capsys, analytics_schema_file, tmp_path, case):
    source, content = WRONG_SHAPE_JSON[case]
    bad = tmp_path / "shape.json"
    bad.write_text(json.dumps(content), encoding="utf-8")
    code, out, err = run_cli(capsys, *MALFORMED_JSON_COMMANDS[source](analytics_schema_file, bad))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {source} file {bad}: expected ")
    assert "Traceback" not in err


@pytest.mark.parametrize("tables", [
    [{"name": n, "columns": [{"name": "id", "type": "INTEGER"}]} for n in ("Orders", "orders")],
    [{"name": "t", "columns": [{"name": n, "type": "INTEGER"} for n in ("id", "ID")]}],
], ids=["tables", "columns"])
def test_names_equal_under_sqlite_case_fold_exit_1(capsys, tmp_path, tables):
    schema_file = tmp_path / "s.json"
    schema_file.write_text(json.dumps({"tables": tables}), encoding="utf-8")
    code, out, err = run_cli(capsys, "graph", schema_file)
    assert (code, out) == (1, "")
    assert err.startswith("error: duplicate ")


@pytest.mark.parametrize("command", ["graph", "solve"])
@pytest.mark.parametrize("pair", [("hits", "nope"), ("hits", "HITS")], ids=["unknown", "self"])
def test_override_costs_pairing_no_two_schema_tables_exit_1(
    capsys, analytics_schema_file, tmp_path, command, pair
):
    bad = tmp_path / "o.json"
    bad.write_text(json.dumps({"edges": [{"a": pair[0], "b": pair[1], "cost": 0.5}]}))
    terminals = ["--terminals", "hits"] if command == "solve" else []
    code, out, err = run_cli(
        capsys, command, analytics_schema_file, "--override-costs", bad, *terminals
    )
    assert (code, out) == (1, "")
    assert err.startswith(f"error: override-costs file {bad}: ")


def test_override_costs_name_tables_as_sqlite_reads_them(capsys, analytics_schema_file, tmp_path):
    pins = tmp_path / "o.json"
    pins.write_text(json.dumps({"edges": [{"a": "GA_Sessions", "b": "HITS", "cost": 0.5}]}))
    code, out, _err = run_cli(capsys, "graph", analytics_schema_file, "--override-costs", pins)
    assert code == 0
    totals = {(e["a"], e["b"]): e["total"] for e in json.loads(out)["edges"]}
    assert totals[("ga_sessions", "hits")] == 0.5


@pytest.mark.parametrize("field, value", [("max_iterations", "x"), ("template_dir", 5)])
def test_config_value_of_a_wrong_type_exits_1_naming_the_file(
    capsys, analytics_schema_file, tmp_path, field, value
):
    config_file = tmp_path / "c.json"
    config_file.write_text(json.dumps({field: value}), encoding="utf-8")
    code, out, err = run_cli(capsys, "graph", analytics_schema_file, "--config", config_file)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: config file {config_file}: ")


def test_config_key_naming_no_setting_exits_1_naming_the_file(
    capsys, analytics_schema_file, analytics_db, tmp_path
):
    config_file = tmp_path / "c.json"
    config_file.write_text(json.dumps({"max_iteration": 1, "tau": 0.7}), encoding="utf-8")
    stub_file = tmp_path / "stub.json"
    stub_file.write_text(json.dumps({"default": "SELECT g.date FROM ga_sessions g"}))
    code, out, err = run_cli(
        capsys,
        "run", golden.ANALYTICS_QUESTION, analytics_schema_file,
        "--db", analytics_db,
        "--config", config_file,
        "--stub-responses", stub_file,
    )
    assert (code, out) == (1, "")
    assert err == f"error: config file {config_file}: unknown keys ['max_iteration']\n"


def test_graph_profile_schema_column_missing_from_database_exits_1(
    capsys, company_db, company_schema, tmp_path
):
    doc = json.loads(serialize_schema_document(company_schema))
    doc["tables"][0]["columns"].append({"name": "ghost", "type": "TEXT"})
    schema_file = tmp_path / "cm.json"
    schema_file.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "graph", schema_file, "--db", company_db, "--profile")
    assert (code, out) == (1, "")
    table = doc["tables"][0]["name"]
    assert err == f"error: schema/database mismatch: missing columns ['{table}.ghost']\n"


def test_bench_command(capsys):
    code, out, _err = run_cli(
        capsys, "bench", "--seeds", "5", "--nodes", "6"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["instances"] == 5
    assert doc["summary"]["planners"]["kmb"]["max_optimality_ratio"] <= 2.0


def test_bench_rejects_oversized_nodes(capsys):
    code, _out, err = run_cli(capsys, "bench", "--seeds", "2", "--nodes", "20")
    assert code == 1
    assert "14" in err


def test_show_config_merges_flags(capsys, analytics_schema_file, tmp_path, monkeypatch):
    config_file = tmp_path / "config.json"
    config_file.write_text(
        json.dumps({"tau": 0.6, "max_iterations": 2, "generator_model": "from-file"}),
        encoding="utf-8",
    )
    monkeypatch.setenv("JOINSCAFFOLD_GENERATOR_MODEL", "from-env")
    code, out, _err = run_cli(
        capsys,
        "graph", analytics_schema_file,
        "--config", config_file,
        "--tau", "0.8",
        "--show-config",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["weights"]["tau"] == 0.8  # flag beats file
    assert doc["max_iterations"] == 2  # file beats default
    assert doc["generator_model"] == "from-env"  # env beats file


def test_output_file_flag(capsys, analytics_schema_file, override_file, tmp_path):
    out_file = tmp_path / "graph_doc.json"
    code, out, _err = run_cli(
        capsys,
        "graph", analytics_schema_file,
        "--override-costs", override_file,
        "-o", out_file,
    )
    assert code == 0
    assert out == ""
    assert json.loads(out_file.read_text())["vertices"]


def test_cli_determinism_solve(capsys, analytics_schema_file, override_file):
    outputs = set()
    for _ in range(2):
        _code, out, _err = run_cli(
            capsys,
            "solve", analytics_schema_file,
            "--override-costs", override_file,
            "--terminals", "ga_sessions,totals,hits",
        )
        outputs.add(out)
    assert len(outputs) == 1
