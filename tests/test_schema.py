import json
import sqlite3

import pytest

from joinscaffold.schema import (
    ColumnDef,
    ForeignKey,
    Schema,
    SchemaError,
    TableDef,
    load_schema_from_database,
    load_schema_from_document,
    map_declared_type,
    serialize_schema_document,
)


@pytest.fixture()
def two_table_db(tmp_path):
    path = tmp_path / "shop.db"
    conn = sqlite3.connect(path)
    conn.executescript(
        """
        CREATE TABLE customers (id INTEGER PRIMARY KEY, name VARCHAR(40));
        CREATE TABLE orders (
            order_id INTEGER PRIMARY KEY,
            customer_id INTEGER REFERENCES customers(id),
            total REAL
        );
        """
    )
    conn.commit()
    conn.close()
    return path


def test_load_database_reads_tables_and_fk(two_table_db):
    schema = load_schema_from_database(two_table_db)
    assert schema.table_names == ("customers", "orders")
    assert len(schema.foreign_keys) == 1
    fk = schema.foreign_keys[0]
    assert (fk.from_table, fk.from_column, fk.to_table, fk.to_column) == (
        "orders", "customer_id", "customers", "id",
    )


def test_fk_ends_in_another_ascii_case_name_the_declared_table_and_column(tmp_path):
    path = tmp_path / "fkcase.db"
    conn = sqlite3.connect(path)
    conn.executescript(
        """
        CREATE TABLE a (id INTEGER PRIMARY KEY);
        CREATE TABLE b (x INTEGER REFERENCES A(ID));
        CREATE TABLE c (y INTEGER, FOREIGN KEY (Y) REFERENCES A);
        """
    )
    conn.close()
    schema = load_schema_from_database(path)
    assert schema.foreign_keys == (
        ForeignKey("b", "x", "a", "id"),
        ForeignKey("c", "y", "a", "id"),
    )
    assert schema.fk_neighbors["a"] == ("b", "c")


@pytest.mark.parametrize(
    "key, mapped",
    [
        ("x, y", {"px": "x", "py": "y"}),
        ("y, x", {"px": "y", "py": "x"}),
    ],
)
def test_composite_fk_without_parent_columns_follows_the_key_order(tmp_path, key, mapped):
    # FOREIGN KEY(px, py) REFERENCES p pairs px with the key's first column
    # and py with its second, in key order, not in column order.
    path = tmp_path / "composite.db"
    conn = sqlite3.connect(path)
    conn.executescript(
        f"""
        CREATE TABLE p (x INTEGER, y INTEGER, PRIMARY KEY ({key}));
        CREATE TABLE c (px INTEGER, py INTEGER, FOREIGN KEY (px, py) REFERENCES p);
        """
    )
    conn.close()
    schema = load_schema_from_database(path)
    assert schema.foreign_keys == tuple(
        ForeignKey("c", child, "p", parent) for child, parent in sorted(mapped.items())
    )


def test_fk_with_more_columns_than_the_parent_key_is_refused(tmp_path):
    path = tmp_path / "longfk.db"
    conn = sqlite3.connect(path)
    conn.executescript(
        """
        CREATE TABLE p (x INTEGER PRIMARY KEY, y INTEGER);
        CREATE TABLE c (px INTEGER, py INTEGER, FOREIGN KEY (px, py) REFERENCES p);
        """
    )
    conn.close()
    with pytest.raises(SchemaError, match="more columns than the primary key of table 'p'"):
        load_schema_from_database(path)


def test_load_database_is_deterministic(two_table_db):
    assert load_schema_from_database(two_table_db) == load_schema_from_database(two_table_db)


def test_varchar_maps_to_text(two_table_db):
    schema = load_schema_from_database(two_table_db)
    assert schema.table("customers").column("name").declared_type == "text"


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("INTEGER", "integer"),
        ("bigint", "integer"),
        ("VARCHAR(40)", "text"),
        ("NVARCHAR(255)", "text"),
        ("CLOB", "text"),
        ("BLOB", "blob"),
        ("", "blob"),
        ("DOUBLE PRECISION", "real"),
        ("DECIMAL(10,2)", "real"),
        ("NUMERIC", "real"),
        ("BOOLEAN", "boolean"),
        ("DATE", "date"),
        ("DATETIME", "timestamp"),
        ("TIMESTAMP", "timestamp"),
        ("TIME", "timestamp"),
        ("GEOMETRY", "other"),
    ],
)
def test_type_mapping_table(raw, expected):
    assert map_declared_type(raw) == expected


def test_empty_database_rejected(tmp_path):
    path = tmp_path / "empty.db"
    sqlite3.connect(path).close()
    with pytest.raises(SchemaError, match="no user tables"):
        load_schema_from_database(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(SchemaError, match="not readable"):
        load_schema_from_database(tmp_path / "nope.db")


def test_row_counts_recorded(two_table_db):
    conn = sqlite3.connect(two_table_db)
    conn.execute("INSERT INTO customers VALUES (1, 'a')")
    conn.commit()
    conn.close()
    schema = load_schema_from_database(two_table_db)
    assert schema.table("customers").row_count == 1
    assert schema.table("orders").row_count == 0


def test_document_round_trip_is_canonical():
    doc = """
    {"tables": [
        {"name": "readings", "columns": [
            {"name": "temperature_c", "type": "REAL"},
            {"name": "collector_id", "type": "TEXT"}]},
        {"name": "collectors", "columns": [
            {"name": "collector_id", "type": "TEXT", "pk": true},
            {"name": "status", "type": "TEXT"}]}],
     "foreign_keys": [
        {"from_table": "readings", "from_column": "collector_id",
         "to_table": "collectors", "to_column": "collector_id"}]}
    """
    schema = load_schema_from_document(doc)
    assert schema.table_names == ("collectors", "readings")
    canonical = serialize_schema_document(schema)
    # A canonical document survives load + serialize byte-identically.
    assert serialize_schema_document(load_schema_from_document(canonical)) == canonical
    # load . serialize . load == load
    assert load_schema_from_document(canonical) == schema


def test_column_owners_is_derived_and_takes_no_part_in_identity():
    doc = """
    {"tables": [
        {"name": "readings", "columns": [
            {"name": "collector_id", "type": "TEXT"},
            {"name": "status", "type": "TEXT"}]},
        {"name": "collectors", "columns": [
            {"name": "status", "type": "TEXT"},
            {"name": "collector_id", "type": "TEXT", "pk": true}]}]}
    """
    schema = load_schema_from_document(doc)
    rebuilt = {}
    for t in schema.tables:
        for c in t.columns:
            rebuilt.setdefault(c.name, []).append((t.name, c.name))
    assert schema.column_owners == {name: tuple(pairs) for name, pairs in rebuilt.items()}
    assert schema.column_owners["status"] == (("collectors", "status"), ("readings", "status"))
    # Built directly rather than through a document, the schema is the same value.
    direct = Schema(schema.tables, schema.foreign_keys)
    assert direct == schema and hash(direct) == hash(schema)
    assert direct.column_owners == schema.column_owners
    assert repr(schema) == repr(direct) == (
        f"Schema(tables={schema.tables!r}, foreign_keys={schema.foreign_keys!r})"
    )
    assert serialize_schema_document(direct) == serialize_schema_document(schema)
    assert "column_owners" not in serialize_schema_document(schema)


def test_document_dangling_fk_rejected():
    doc = """
    {"tables": [{"name": "a", "columns": [{"name": "x", "type": "INT"}]}],
     "foreign_keys": [{"from_table": "a", "from_column": "x",
                       "to_table": "missing", "to_column": "y"}]}
    """
    with pytest.raises(SchemaError, match="dangling foreign key"):
        load_schema_from_document(doc)


def test_document_malformed_rejected():
    with pytest.raises(SchemaError, match="malformed"):
        load_schema_from_document("{not json")
    with pytest.raises(SchemaError, match="malformed"):
        load_schema_from_document('{"no_tables": []}')


def test_duplicate_table_names_rejected():
    cols = (ColumnDef("x", "integer"),)
    with pytest.raises(SchemaError, match="duplicate table"):
        Schema((TableDef("a", cols), TableDef("a", cols)))
    # SQLite folds ASCII case, so no database holds both of these...
    with pytest.raises(SchemaError, match="duplicate table"):
        load_schema_from_document(json.dumps({"tables": [
            {"name": name, "columns": [{"name": "x", "type": "INTEGER"}]}
            for name in ("Orders", "orders")
        ]}))
    # ...and it folds no other letter, so one database can hold both of these.
    schema = Schema((TableDef("Äpfel", cols), TableDef("äpfel", cols)))
    assert schema.resolve_table("ÄPFEL") == "Äpfel"
    assert schema.resolve_table("äpfel") == "äpfel"
    assert schema.resolve_table("apfel") is None


def test_duplicate_column_names_rejected():
    with pytest.raises(SchemaError, match="duplicate column"):
        TableDef("t", (ColumnDef("x", "integer"), ColumnDef("x", "text")))
    with pytest.raises(SchemaError, match="duplicate column"):
        load_schema_from_document(json.dumps({"tables": [{"name": "t", "columns": [
            {"name": "id", "type": "INTEGER"}, {"name": "ID", "type": "TEXT"},
        ]}]}))
    TableDef("t", (ColumnDef("größe", "real"), ColumnDef("GRÖßE", "real")))


def test_table_requires_columns():
    with pytest.raises(SchemaError, match="no columns"):
        TableDef("t", ())


def test_fk_lookup_is_direction_agnostic():
    schema = Schema(
        (
            TableDef("a", (ColumnDef("id", "integer", True),)),
            TableDef("b", (ColumnDef("a_id", "integer"),)),
        ),
        (ForeignKey("b", "a_id", "a", "id"),),
    )
    assert schema.has_fk("a", "b") and schema.has_fk("b", "a")
    assert not schema.has_fk("a", "a")


SELF_AND_PARALLEL_FKS = Schema(
    (
        TableDef("a", (ColumnDef("id", "integer", True), ColumnDef("up", "integer"))),
        TableDef("b", (ColumnDef("a1", "integer"), ColumnDef("a2", "integer"))),
        TableDef("c", (ColumnDef("x", "integer"),)),
    ),
    (
        ForeignKey("a", "up", "a", "id"),
        ForeignKey("b", "a2", "a", "id"),
        ForeignKey("b", "a1", "a", "id"),
    ),
)


@pytest.mark.parametrize(
    "fixture", ["analytics_schema", "collectors_schema", "company_schema", "self_and_parallel"]
)
def test_fk_lookups_match_a_linear_scan(request, fixture):
    if fixture == "self_and_parallel":
        schema = SELF_AND_PARALLEL_FKS
    else:
        schema = request.getfixturevalue(fixture)
    fks = schema.foreign_keys
    for a in schema.table_names:
        for b in schema.table_names:
            expected = tuple(fk for fk in fks if {fk.from_table, fk.to_table} == {a, b})
            assert schema.fk_between(a, b) == expected
            assert schema.has_fk(a, b) == bool(expected)
        linked = {t for fk in fks if a in (fk.from_table, fk.to_table)
                  for t in (fk.from_table, fk.to_table)}
        assert schema.fk_neighbors[a] == tuple(sorted(linked - {a}))
