import json
import sqlite3

import pytest

from joinscaffold.profiling import (
    NEUTRAL,
    PairStats,
    StatsProfile,
    cramers_v,
    jaccard,
    profile_statistics,
    quantile_aligned_pearson,
)
from joinscaffold.schema import (
    SchemaError,
    load_schema_from_database,
    load_schema_from_document,
    serialize_schema_document,
)


@pytest.fixture()
def stats_db(tmp_path):
    path = tmp_path / "stats.db"
    conn = sqlite3.connect(path)
    conn.executescript(
        """
        CREATE TABLE parents (id INTEGER PRIMARY KEY, label TEXT, score REAL);
        CREATE TABLE children (
            child_id INTEGER PRIMARY KEY,
            parent_id INTEGER REFERENCES parents(id),
            tag TEXT,
            score REAL
        );
        CREATE TABLE hollow (id INTEGER PRIMARY KEY, note TEXT);
        """
    )
    conn.executemany(
        "INSERT INTO parents VALUES (?, ?, ?)",
        [(1, "x", 1.0), (2, "y", 2.0), (3, "x", 3.0)],
    )
    # Every child hits exactly one parent row and every parent is referenced,
    # so the distinct join-column sets coincide.
    conn.executemany(
        "INSERT INTO children VALUES (?, ?, ?, ?)",
        [(10, 1, "x", 5.0), (11, 2, "y", 6.0), (12, 3, "x", 7.0), (13, 1, "x", 8.0)],
    )
    conn.commit()
    conn.close()
    return path


def test_perfect_containment_selectivity(stats_db):
    schema = load_schema_from_database(stats_db)
    profile = profile_statistics(
        schema, stats_db, pairs=[("children", "parent_id", "parents", "id")]
    )
    stats = profile.pair_stats("children", "parent_id", "parents", "id")
    assert stats.selectivity == 1.0


def test_disjoint_values_selectivity_zero(stats_db):
    schema = load_schema_from_database(stats_db)
    profile = profile_statistics(
        schema, stats_db, pairs=[("children", "child_id", "parents", "id")]
    )
    stats = profile.pair_stats("children", "child_id", "parents", "id")
    assert stats.selectivity == 0.0


def test_empty_table_neutral(stats_db):
    schema = load_schema_from_database(stats_db)
    profile = profile_statistics(
        schema, stats_db, pairs=[("hollow", "id", "parents", "id")]
    )
    stats = profile.pair_stats("hollow", "id", "parents", "id")
    assert stats.selectivity == NEUTRAL
    assert stats.correlation == NEUTRAL


def test_all_statistics_bounded(stats_db):
    schema = load_schema_from_database(stats_db)
    pairs = [
        ("children", "parent_id", "parents", "id"),
        ("children", "score", "parents", "score"),
        ("children", "tag", "parents", "label"),
    ]
    profile = profile_statistics(schema, stats_db, pairs=pairs)
    for stats in profile.pairs.values():
        assert 0.0 <= stats.selectivity <= 1.0
        assert 0.0 <= stats.correlation <= 1.0


def test_schema_database_mismatch(stats_db, tmp_path):
    other = tmp_path / "other.db"
    conn = sqlite3.connect(other)
    conn.execute("CREATE TABLE lonely (id INTEGER PRIMARY KEY)")
    conn.commit()
    conn.close()
    schema = load_schema_from_database(stats_db)
    with pytest.raises(SchemaError, match="mismatch"):
        profile_statistics(schema, other, pairs=[])


def redeclared(schema, table, edit):
    """``schema`` with ``edit`` applied to the column list of ``table``."""
    doc = json.loads(serialize_schema_document(schema))
    for t in doc["tables"]:
        if t["name"] == table:
            edit(t["columns"])
    return load_schema_from_document(json.dumps(doc))


def test_schema_column_missing_from_the_database(stats_db):
    schema = load_schema_from_database(stats_db)
    # SQLite would read the unknown "ghost" as a string literal and sample it.
    ghost = redeclared(schema, "parents", lambda cols: cols.append(
        {"name": "ghost", "type": "TEXT"}
    ))
    with pytest.raises(SchemaError, match=r"missing columns \['parents\.ghost'\]"):
        profile_statistics(ghost, stats_db, pairs=[])
    # SQLite resolves a name that differs only in ASCII case, so it passes.
    upper = redeclared(schema, "parents", lambda cols: [
        c.update(name=c["name"].upper()) for c in cols if c["name"] == "label"
    ])
    profile = profile_statistics(upper, stats_db, pairs=[("children", "tag", "parents", "LABEL")])
    assert profile.pair_stats("children", "tag", "parents", "LABEL").selectivity == 1.0


def test_table_named_in_another_ascii_case_profiles(stats_db):
    # SQLite reads "PARENTS" as the table parents, so profiling does too.
    doc = serialize_schema_document(load_schema_from_database(stats_db))
    schema = load_schema_from_document(doc.replace('"parents"', '"PARENTS"'))
    assert "PARENTS" in schema.table_names
    pair = ("PARENTS", "id", "children", "parent_id")
    profile = profile_statistics(schema, stats_db, pairs=[pair])
    assert profile.pair_stats(*pair).selectivity == 1.0


def test_sample_limit_positive(stats_db):
    schema = load_schema_from_database(stats_db)
    with pytest.raises(ValueError):
        profile_statistics(schema, stats_db, sample_limit=0, pairs=[])


def test_jaccard_basics():
    assert jaccard([1, 2, 3], [1, 2, 3]) == 1.0
    assert jaccard([1, 2], [3, 4]) == 0.0
    assert jaccard([1, 2, 2], [2, 3]) == pytest.approx(1 / 3)
    assert jaccard([], [1]) is None


def test_quantile_pearson_identical_distribution():
    assert quantile_aligned_pearson([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(1.0)


def test_quantile_pearson_degenerate():
    assert quantile_aligned_pearson([1, 1, 1], [2, 3, 4]) is None
    assert quantile_aligned_pearson(["a"], [1, 2]) is None


def test_cramers_v_perfect_association():
    a = ["x", "x", "y", "y"] * 5
    b = ["u", "u", "v", "v"] * 5
    assert cramers_v(a, b) == pytest.approx(1.0)


def test_cramers_v_degenerate():
    assert cramers_v(["x", "x"], ["u", "v"]) is None


def test_double_quote_in_table_and_column_names_loads_and_profiles(tmp_path):
    path = tmp_path / "quoted.db"
    conn = sqlite3.connect(path)
    conn.executescript(
        """
        CREATE TABLE "par""ents" ("i""d" INTEGER PRIMARY KEY, label TEXT);
        CREATE TABLE "od""d" (
            id INTEGER PRIMARY KEY,
            "pa""rent" INTEGER REFERENCES "par""ents"
        );
        INSERT INTO "par""ents" VALUES (1, 'x'), (2, 'y');
        INSERT INTO "od""d" VALUES (10, 1), (11, 2), (12, 1);
        """
    )
    conn.commit()
    conn.close()
    schema = load_schema_from_database(path)
    assert schema.table_names == ('od"d', 'par"ents')
    assert [t.row_count for t in schema.tables] == [3, 2]
    fk = schema.foreign_keys[0]
    # The FK names no column, so the referenced primary key is looked up.
    assert (fk.from_table, fk.from_column, fk.to_table, fk.to_column) == (
        'od"d', 'pa"rent', 'par"ents', 'i"d',
    )
    pair = ('od"d', 'pa"rent', 'par"ents', 'i"d')
    stats = profile_statistics(schema, path, pairs=[pair]).pair_stats(*pair)
    assert stats.selectivity == 1.0


def test_table_pair_stats_ties_go_to_the_first_column_pair_in_sorted_order():
    first, second, lower = PairStats(0.4, 0.9), PairStats(0.4, 0.1), PairStats(0.3, 0.5)
    profile = StatsProfile(
        sample_limit=10,
        pairs={
            ("a", "y", "b", "k"): second,
            ("a", "x", "b", "k"): first,
            ("a", "w", "b", "k"): lower,
            ("a", "x", "c", "k"): PairStats(0.9, 0.9),
        },
    )
    assert profile.table_pair_stats("a", "b") is first
    assert profile.table_pair_stats("b", "a") is first
    assert profile.table_pair_stats("a", "c").selectivity == 0.9
    assert profile.table_pair_stats("b", "c") is None
