"""Relational schema model and ingestion.

A :class:`Schema` can be loaded from a SQLite database file (read-only) or
from a JSON schema document. Declared column types are normalized through a
fixed, case-insensitive mapping so type-compatibility checks are reproducible
regardless of the vendor spelling in the source.

Names follow SQLite's rule, which folds the case of ASCII letters only
(:func:`fold_name`): ``Orders`` and ``orders`` name one table, ``Äpfel`` and
``äpfel`` two. Tables, or one table's columns, whose names are one under the
fold are rejected. :class:`Schema` alone resolves names and answers FK lookups.

Type mapping (first matching rule wins, matching is on the upper-cased raw
string):

====================================  ==========
raw type contains                      mapped to
====================================  ==========
TIMESTAMP or DATETIME                  timestamp
DATE                                   date
TIME                                   timestamp
BOOL                                   boolean
INT                                    integer
CHAR, CLOB, TEXT or STRING             text
BLOB (or empty string)                 blob
REAL, FLOA, DOUB, NUM or DEC           real
anything else                          other
====================================  ==========
"""

from __future__ import annotations

import json
import sqlite3
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Union

from .canonical import canonical_json

DECLARED_TYPES = (
    "integer",
    "real",
    "text",
    "blob",
    "boolean",
    "date",
    "timestamp",
    "other",
)

_TYPE_RULES = (
    (("TIMESTAMP", "DATETIME"), "timestamp"),
    (("DATE",), "date"),
    (("TIME",), "timestamp"),
    (("BOOL",), "boolean"),
    (("INT",), "integer"),
    (("CHAR", "CLOB", "TEXT", "STRING"), "text"),
    (("BLOB",), "blob"),
    (("REAL", "FLOA", "DOUB", "NUM", "DEC"), "real"),
)


class SchemaError(ValueError):
    """Raised for unreadable, malformed, or inconsistent schema inputs."""


_ASCII_LOWER = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)


def fold_name(name: str) -> str:
    """``name`` as SQLite compares identifiers: only ASCII letters lower-cased."""
    return name.translate(_ASCII_LOWER)


def map_declared_type(raw: str) -> str:
    """Map a raw database type string onto the closed declared-type set."""
    upper = (raw or "").strip().upper()
    if upper == "":
        return "blob"
    for needles, mapped in _TYPE_RULES:
        if any(n in upper for n in needles):
            return mapped
    return "other"


@dataclass(frozen=True)
class ColumnDef:
    name: str
    declared_type: str
    is_primary_key: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be non-empty")
        if self.declared_type not in DECLARED_TYPES:
            raise SchemaError(f"unknown declared type {self.declared_type!r}")


@dataclass(frozen=True)
class TableDef:
    name: str
    columns: tuple[ColumnDef, ...]
    row_count: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("table name must be non-empty")
        if not self.columns:
            raise SchemaError(f"table {self.name!r} has no columns")
        if len({fold_name(c.name) for c in self.columns}) != len(self.columns):
            raise SchemaError(f"duplicate column name in table {self.name!r}")
        if self.row_count is not None and self.row_count < 0:
            raise SchemaError("row_count must be non-negative")

    def column(self, name: str) -> ColumnDef:
        for c in self.columns:
            if c.name == name:
                return c
        raise KeyError(name)

    def has_column(self, name: str) -> bool:
        return any(c.name == name for c in self.columns)


@dataclass(frozen=True)
class ForeignKey:
    from_table: str
    from_column: str
    to_table: str
    to_column: str


@dataclass(frozen=True)
class Schema:
    """Immutable schema: tables in sorted order plus declared foreign keys.

    ``column_owners`` maps each column name to its ``(table, column)`` pairs in
    table order, ``fk_neighbors`` each table to the sorted other tables an FK
    links it to. Derived, they take no part in equality, hashing or ``repr``.
    """

    tables: tuple[TableDef, ...]
    foreign_keys: tuple[ForeignKey, ...] = ()
    _index: dict = field(default_factory=dict, repr=False, compare=False)
    column_owners: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    fk_neighbors: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _folded: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _fks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        folded = {fold_name(t.name): t.name for t in self.tables}
        if len(folded) != len(self.tables):
            raise SchemaError("duplicate table names")
        index = {t.name: t for t in self.tables}
        fks: dict[tuple[str, str], tuple[ForeignKey, ...]] = {}  # in foreign_keys order
        for fk in self.foreign_keys:
            for tbl, col in ((fk.from_table, fk.from_column), (fk.to_table, fk.to_column)):
                if tbl not in index:
                    raise SchemaError(f"dangling foreign key: table {tbl!r} not in schema")
                if not index[tbl].has_column(col):
                    raise SchemaError(f"dangling foreign key: column {tbl}.{col} not in schema")
            key = tuple(sorted((fk.from_table, fk.to_table)))
            fks[key] = fks.get(key, ()) + (fk,)
        object.__setattr__(self, "_index", index)
        owners: dict[str, list[tuple[str, str]]] = {}
        for t in self.tables:
            for c in t.columns:
                owners.setdefault(c.name, []).append((t.name, c.name))
        object.__setattr__(
            self, "column_owners", {name: tuple(pairs) for name, pairs in owners.items()}
        )
        neighbors: dict[str, list[str]] = {name: [] for name in index}
        for a, b in fks:
            if a != b:
                neighbors[a].append(b)
                neighbors[b].append(a)
        object.__setattr__(self, "fk_neighbors", {t: tuple(sorted(n)) for t, n in neighbors.items()})
        object.__setattr__(self, "_folded", folded)
        object.__setattr__(self, "_fks", fks)

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.tables)

    def table(self, name: str) -> TableDef:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no table named {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self._index

    def resolve_table(self, name: str) -> Optional[str]:
        """The table SQLite reads ``name`` as (see :func:`fold_name`), or None."""
        return self._folded.get(fold_name(name))

    def fk_between(self, a: str, b: str) -> tuple[ForeignKey, ...]:
        """Foreign keys linking tables ``a`` and ``b`` in either direction."""
        return self._fks.get((a, b) if a <= b else (b, a), ())

    def has_fk(self, a: str, b: str) -> bool:
        return bool(self.fk_between(a, b))


def _sorted_schema(tables: Iterable[TableDef], fks: Iterable[ForeignKey]) -> Schema:
    tables = tuple(
        TableDef(t.name, tuple(sorted(t.columns, key=lambda c: c.name)), t.row_count)
        for t in sorted(tables, key=lambda t: t.name)
    )
    fks = tuple(
        sorted(fks, key=lambda f: (f.from_table, f.from_column, f.to_table, f.to_column))
    )
    return Schema(tables, fks)


def connect_read_only(path: Union[str, Path]) -> sqlite3.Connection:
    """The package's one way to open a database: read-only, ``path`` taken literally.

    A file that is not a database raises :class:`SchemaError` here. ``ATTACH``
    and ``VACUUM INTO`` (both the ``SQLITE_ATTACH`` action) are denied, as they
    write files even on a read-only connection.
    """
    path = Path(path)
    if not path.is_file():
        raise SchemaError(f"database file not readable: {path}")
    conn = None
    try:
        conn = sqlite3.connect(path.absolute().as_uri() + "?mode=ro", uri=True)
        conn.execute("SELECT count(*) FROM sqlite_master").fetchone()
    except sqlite3.Error as exc:
        if conn is not None:
            conn.close()
        raise SchemaError(f"cannot open database {path}: {exc}") from exc
    conn.set_authorizer(_deny_attach)
    return conn


def _deny_attach(action: int, *_detail) -> int:
    return sqlite3.SQLITE_DENY if action == sqlite3.SQLITE_ATTACH else sqlite3.SQLITE_OK


def user_tables(conn: sqlite3.Connection) -> list[str]:
    """Names of the user tables, sorted. SQLite reserves the prefix ``sqlite_``."""
    rows = conn.execute(
        "SELECT name FROM sqlite_master WHERE type='table' "
        r"AND name NOT LIKE 'sqlite\_%' ESCAPE '\' ORDER BY name"
    )
    return [row[0] for row in rows]


def table_info(conn: sqlite3.Connection, table: str) -> list[tuple]:
    """``PRAGMA table_info`` rows of ``table``: (cid, name, type, notnull, default, pk)."""
    return conn.execute(f"PRAGMA table_info({quote_identifier(table)})").fetchall()


def load_schema_from_database(path: Union[str, Path]) -> Schema:
    """Load every user table, its typed columns, and declared FKs from a SQLite file.

    Tables and columns come back in sorted name order so repeated loads are
    identical. Raises :class:`SchemaError` for unreadable files or databases
    without user tables.
    """
    conn = connect_read_only(path)
    try:
        names = user_tables(conn)
        if not names:
            raise SchemaError(f"no user tables in {path}")
        cur = conn.cursor()
        tables = []
        fks = []
        for name in names:
            cols = [
                ColumnDef(row[1], map_declared_type(row[2]), bool(row[5]))
                for row in table_info(conn, name)
            ]
            cur.execute(f"SELECT COUNT(*) FROM {quote_identifier(name)}")
            row_count = cur.fetchone()[0]
            tables.append(TableDef(name, tuple(cols), row_count))
            cur.execute(f"PRAGMA foreign_key_list({quote_identifier(name)})")
            for row in cur.fetchall():
                # (id, seq, ref_table, from_col, to_col, ...); to_col may be
                # NULL, meaning column seq of the referenced table's primary key.
                seq, ref_table, from_col, to_col = row[1], row[2], row[3], row[4]
                if to_col is None:
                    to_col = _primary_key_column(conn, ref_table, seq)
                fks.append(ForeignKey(name, from_col, ref_table, to_col))
    except sqlite3.Error as exc:
        raise SchemaError(f"error reading database {path}: {exc}") from exc
    finally:
        conn.close()
    return _sorted_schema(tables, _fks_as_declared(tables, fks))


def _fks_as_declared(tables: list[TableDef], fks: list[ForeignKey]) -> list[ForeignKey]:
    """``fks`` with each referenced table and column named as declared.

    An FK clause may spell them in another ASCII case (``REFERENCES A(ID)``
    for table ``a``), which SQLite resolves by :func:`fold_name`. A table not
    in ``tables`` is left as written, for :class:`Schema` to report.
    """
    by_fold = {fold_name(t.name): t for t in tables}
    resolved = []
    for fk in fks:
        table = by_fold.get(fold_name(fk.to_table))
        if table is not None:
            column = fold_name(fk.to_column)
            to_column = next(
                (c.name for c in table.columns if fold_name(c.name) == column), fk.to_column
            )
            fk = ForeignKey(fk.from_table, fk.from_column, table.name, to_column)
        resolved.append(fk)
    return resolved


def quote_identifier(name: str) -> str:
    """An SQLite identifier in double quotes, each embedded quote doubled."""
    return '"' + name.replace('"', '""') + '"'


def _primary_key_column(conn: sqlite3.Connection, table: str, seq: int) -> str:
    """Column ``seq`` (from 0) of ``table``'s primary key, in key order.

    ``table_info`` gives each key column its 1-based position in the key,
    which need not be its position among the columns.
    """
    key = {row[5]: row[1] for row in table_info(conn, table) if row[5]}
    if not key:
        raise SchemaError(f"foreign key references table {table!r} without a primary key")
    if seq + 1 not in key:
        raise SchemaError(
            f"foreign key has more columns than the primary key of table {table!r}"
        )
    return key[seq + 1]


def load_schema_from_document(text: Union[str, bytes]) -> Schema:
    """Parse a JSON schema document (see :func:`serialize_schema_document`)."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed schema document: {exc}") from exc
    if not isinstance(doc, dict) or "tables" not in doc:
        raise SchemaError("malformed schema document: missing 'tables' key")
    tables = []
    for t in doc["tables"]:
        try:
            cols = tuple(
                ColumnDef(c["name"], map_declared_type(c["type"]), bool(c.get("pk", False)))
                for c in t["columns"]
            )
            tables.append(TableDef(t["name"], cols, t.get("row_count")))
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed table entry: {exc}") from exc
    fks = []
    for f in doc.get("foreign_keys", []):
        try:
            fks.append(
                ForeignKey(f["from_table"], f["from_column"], f["to_table"], f["to_column"])
            )
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed foreign key entry: {exc}") from exc
    return _sorted_schema(tables, fks)


def serialize_schema_document(schema: Schema) -> str:
    """Render the canonical schema document: sorted tables/columns, 2-space indent."""
    doc = {
        "tables": [
            {
                "name": t.name,
                "columns": [
                    {"name": c.name, "type": c.declared_type, "pk": c.is_primary_key}
                    for c in sorted(t.columns, key=lambda c: c.name)
                ],
            }
            for t in sorted(schema.tables, key=lambda t: t.name)
        ],
        "foreign_keys": [
            {
                "from_table": f.from_table,
                "from_column": f.from_column,
                "to_table": f.to_table,
                "to_column": f.to_column,
            }
            for f in sorted(
                schema.foreign_keys,
                key=lambda f: (f.from_table, f.from_column, f.to_table, f.to_column),
            )
        ],
    }
    return canonical_json(doc)
