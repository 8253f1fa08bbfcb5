"""Seeded inputs for the benchmark workloads.

Everything here is harness-side: it writes SQLite files and builds question
sets and graph instances; nothing here is timed. Inputs come from closed pools
(schema variants, question indices, graph instance ids), so every operation a
run can perform has a stored reference digest. The run seed picks the variant
and the order in which pool items are visited.
"""

from __future__ import annotations

import random
import sqlite3
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence, TypeVar

from joinscaffold.bench import SplitMix64, random_connected_graph, random_terminals
from joinscaffold.costs import SchemaGraph

# Identifiers avoid the question extractor's keywords, so a question mentions
# exactly the entities its template intends.
TABLE_WORDS = (
    "account", "address", "agent", "asset", "batch", "branch", "budget",
    "campaign", "carrier", "claim", "client", "contract", "course", "coupon",
    "customer", "dealer", "delivery", "device", "district", "doctor",
    "employee", "enrollment", "facility", "flight", "fund", "grant", "guest",
    "incident", "invoice", "journal", "lecture", "ledger", "license", "loan",
    "machine", "member", "merchant", "mission", "module", "office", "package",
    "partner", "patient", "payment", "permit", "plant", "policy", "portfolio",
    "program", "project", "property", "provider", "purchase", "receipt",
    "rental", "reservation", "resource", "review", "route", "sensor", "server",
    "shipment", "shop", "sponsor", "station", "student", "subscription",
    "supplier", "survey", "teacher", "tenant", "ticket", "trade", "trainer",
    "vehicle", "vendor", "venue", "visit", "voucher", "warehouse", "workshop",
)
NUMERIC_ATTRS = (
    ("amount", "REAL"), ("price", "REAL"), ("weight", "REAL"), ("score", "INTEGER"),
    ("rating", "INTEGER"), ("duration", "REAL"), ("balance", "REAL"),
    ("quota", "INTEGER"), ("capacity", "INTEGER"), ("distance", "REAL"),
    ("fee", "REAL"), ("volume", "REAL"), ("hours", "INTEGER"), ("margin", "REAL"),
)
TEXT_ATTRS = (
    "label", "status", "kind", "tier", "color", "city", "grade", "title",
    "brand", "segment", "zone", "phase",
)
# Shared-name columns: the similarity rule admits an edge between any two
# tables that both carry one of these (same name, same type).
FRINGE_ATTRS = (
    ("region_code", "TEXT"), ("currency", "TEXT"), ("created_on", "DATE"),
    ("priority", "INTEGER"), ("external_ref", "TEXT"), ("batch_no", "INTEGER"),
)
AGG_WORDS = (("average", "AVG"), ("total", "SUM"), ("minimum", "MIN"), ("maximum", "MAX"))

# What the stub generator answers on iterations 1, 2 and 3 of a question:
# "ok" follows the plan, the rest are injected faults (see stub.py). A block
# of ten has three 1-iteration, four 2-iteration and three 3-iteration plans,
# so the median latency falls inside the 2-iteration mode and the tail inside
# the 3-iteration mode whatever the run length.
PLAN_CYCLE = (
    ("ok",),                      # outcome sql
    ("syntax",),                  # outcome syntax_error
    ("ok",),
    ("drop", "ok"),               # dropped terminal, then re-planned
    ("join", "ok"),               # irrelevant join, then the edge is excluded
    ("drop", "ok"),
    ("join", "ok"),
    ("drop", "join", "ok"),
    ("join", "drop", "drop"),     # outcome max_iterations
    ("join", "drop", "ok"),
)

T = TypeVar("T")


def stratified_order(strata: Sequence[Sequence[T]], seed: int) -> Iterator[T]:
    """Endless round-robin over strata, each visited in its own seeded shuffle.

    Every block of ``len(strata)`` consecutive items holds one item of each
    stratum, so a run of any length sees nearly the same mix of operations.
    """
    rng = random.Random(seed)
    lists = [rng.sample(list(s), len(s)) for s in strata]
    turn = 0
    while True:
        for items in lists:
            yield items[turn % len(items)]
        turn += 1


@dataclass(frozen=True)
class TableSpec:
    name: str
    columns: tuple[tuple[str, str], ...]  # (name, SQL type); the first is the key
    parents: tuple[str, ...]  # tables this one references, via "<parent>_id"
    rows: int

    @property
    def key(self) -> str:
        return self.columns[0][0]


@dataclass(frozen=True)
class QuestionSpec:
    text: str
    agg: str | None  # aggregate applied to ``target``, or None for a plain select
    target: tuple[str, str]  # (table, column)
    group: tuple[str, str] | None  # (table, column) grouped by
    filters: tuple[tuple[str, str, str, int], ...]  # (table, column, op, literal)
    extra: tuple[tuple[str, str], ...]  # further plain-selected columns
    plan: tuple[str, ...]


class SchemaSpec:
    def __init__(self, tables: Sequence[TableSpec]):
        self.tables = {t.name: t for t in tables}

    def fk_column(self, a: str, b: str) -> str | None:
        """The shared key column if ``a`` and ``b`` are FK-linked."""
        if b in self.tables[a].parents:
            return self.tables[b].key
        if a in self.tables[b].parents:
            return self.tables[a].key
        return None


@dataclass(frozen=True)
class PipelineInputs:
    """One schema variant with its database seed and question pool."""

    name: str
    variant: int
    spec: SchemaSpec
    questions: tuple[QuestionSpec, ...]  # question i fills slot i mod ``block``
    block: int

    def order(self, seed: int) -> Iterator[int]:
        """Question indices, one per slot in every block."""
        strata = [range(k, len(self.questions), self.block) for k in range(self.block)]
        return stratified_order(strata, seed)

    def write(self, path: Path) -> None:
        write_database(self.spec, path, f"{self.name}-data-{self.variant}")


# ---------------------------------------------------------------------------
# wide_schema_plan: many tables, tiny data
# ---------------------------------------------------------------------------

WIDE_VARIANTS = 8
WIDE_TABLES = 24
WIDE_COLUMNS = 8
WIDE_QUESTIONS = 30


def _wide_schema(variant: int) -> SchemaSpec:
    """A random FK tree over ``WIDE_TABLES`` tables plus a shared-name fringe."""
    rng = random.Random(f"wide-schema-{variant}")
    names = rng.sample(TABLE_WORDS, WIDE_TABLES)
    fringe: dict[str, list[tuple[str, str]]] = {}
    for col, typ in FRINGE_ATTRS:
        for owner in rng.sample(names, rng.randint(2, 3)):
            fringe.setdefault(owner, []).append((col, typ))
    tables = []
    for i, name in enumerate(names):
        parents = (names[rng.randrange(i)],) if i else ()
        cols = [(f"{name}_id", "INTEGER")] + [(f"{p}_id", "INTEGER") for p in parents]
        cols += fringe.get(name, [])[: WIDE_COLUMNS - len(cols) - 3]
        free = WIDE_COLUMNS - len(cols)
        n_text = 2 if free >= 4 else 1
        cols += [(f"{name}_{a}", typ) for a, typ in rng.sample(NUMERIC_ATTRS, free - n_text)]
        cols += [(f"{name}_{a}", "TEXT") for a in rng.sample(TEXT_ATTRS, n_text)]
        tables.append(TableSpec(name, tuple(cols), parents, rng.randint(150, 400)))
    return SchemaSpec(tables)


def _own_columns(spec: SchemaSpec, table: str, numeric: bool) -> list[str]:
    """The table's own attribute columns (not keys, not fringe) of one kind."""
    return [
        col
        for col, typ in spec.tables[table].columns[1:]
        if col.startswith(f"{table}_")
        and not col.endswith("_id")
        and (typ in ("REAL", "INTEGER")) == numeric
    ]


def wide_inputs(variant: int) -> PipelineInputs:
    """Questions name attributes of 2 to 4 tables; question i has plan i mod 10."""
    spec = _wide_schema(variant)
    rng = random.Random(f"wide-questions-{variant}")
    names = sorted(spec.tables)
    questions = []
    for i in range(WIDE_QUESTIONS):
        tables = rng.sample(names, 2 + i % 3)
        agg_word, agg = AGG_WORDS[rng.randrange(len(AGG_WORDS))]
        target = (tables[0], rng.choice(_own_columns(spec, tables[0], True)))
        group = (tables[1], rng.choice(_own_columns(spec, tables[1], False)))
        filters = tuple(
            (t, rng.choice(_own_columns(spec, t, True)), rng.choice((">=", "<")),
             rng.randint(5, 60))
            for t in tables[2:]
        )
        text = f"What is the {agg_word} {target[1]} for each {group[1]}"
        if filters:
            text += " where " + " and ".join(f"{c} {op} {lit}" for _t, c, op, lit in filters)
        plan = PLAN_CYCLE[i % len(PLAN_CYCLE)]
        questions.append(QuestionSpec(text + "?", agg, target, group, filters, (), plan))
    return PipelineInputs("wide", variant, spec, tuple(questions), len(PLAN_CYCLE))


# ---------------------------------------------------------------------------
# deep_data_validate: a star schema with a large fact table
# ---------------------------------------------------------------------------

DEEP_VARIANTS = 8
DEEP_FACT_ROWS = 250_000
DEEP_QUESTIONS = 20
# (dimension, grouping column, numeric filter column)
DEEP_DIMENSIONS = (
    ("store", "store_region", "store_size"),
    ("product", "product_category", "product_price"),
    ("customer", "customer_segment", "customer_score"),
    ("promotion", "promotion_kind", "promotion_rate"),
)
# Question kind and fault plan per slot of a block of ten. "agg" groups the
# whole fact table into 8 rows, "fetch" returns about 1.6 x 10^5 joined rows,
# and "exec" is SQL the engine rejects (a column that does not exist). By
# latency the block is one rejected answer, three fast, three middle and three
# slow questions, so the median falls inside the middle band and the tail
# inside the slow one; by iterations it is three 1s, four 2s and three 3s.
DEEP_CYCLE = (
    ("agg", ("ok",)),
    ("fetch", ("ok",)),
    ("fetch", ("exec",)),
    ("agg", ("drop", "ok")),
    ("fetch", ("drop", "ok")),
    ("agg", ("join", "ok")),
    ("agg", ("drop", "join", "ok")),
    ("fetch", ("join", "ok")),
    ("fetch", ("drop", "join", "ok")),
    ("fetch", ("join", "drop", "drop")),
)


def _deep_schema() -> SchemaSpec:
    return SchemaSpec((
        TableSpec("store", (("store_id", "INTEGER"), ("store_region", "TEXT"),
                            ("store_city", "TEXT"), ("store_size", "REAL")), (), 60),
        TableSpec("promotion", (("promotion_id", "INTEGER"), ("promotion_kind", "TEXT"),
                                ("promotion_rate", "REAL")), (), 30),
        TableSpec("product", (("product_id", "INTEGER"), ("product_category", "TEXT"),
                              ("product_price", "REAL"), ("product_weight", "REAL")), (), 3000),
        TableSpec("customer", (("customer_id", "INTEGER"), ("store_id", "INTEGER"),
                               ("customer_segment", "TEXT"), ("customer_score", "INTEGER")),
                  ("store",), 20_000),
        TableSpec("sale", (("sale_id", "INTEGER"), ("product_id", "INTEGER"),
                           ("customer_id", "INTEGER"), ("store_id", "INTEGER"),
                           ("promotion_id", "INTEGER"), ("sale_quantity", "INTEGER"),
                           ("sale_amount", "REAL"), ("sale_date", "DATE"),
                           ("sale_channel", "TEXT")),
                  ("product", "customer", "store", "promotion"), DEEP_FACT_ROWS),
    ))


def deep_inputs(variant: int) -> PipelineInputs:
    """Question i joins dimension i mod 4, so every variant has the same mix
    of joins; literals keep about 88% of sales and 72% of dimension rows."""
    spec = _deep_schema()
    rng = random.Random(f"deep-questions-{variant}")
    questions = []
    for i in range(DEEP_QUESTIONS):
        kind, plan = DEEP_CYCLE[i % len(DEEP_CYCLE)]
        dim, text_col, num_col = DEEP_DIMENSIONS[i % len(DEEP_DIMENSIONS)]
        quantity = ("sale", "sale_quantity", ">=", rng.randint(10, 14))
        if kind == "agg":
            agg_word, agg = AGG_WORDS[rng.randrange(len(AGG_WORDS))]
            text = (
                f"What is the {agg_word} sale_amount for each {text_col} "
                f"where sale_quantity >= {quantity[3]}?"
            )
            q = QuestionSpec(text, agg, ("sale", "sale_amount"), (dim, text_col),
                             (quantity,), (), plan)
        else:
            bound = (dim, num_col, "<", rng.randint(70, 74))
            text = (
                f"Which sale_amount and {text_col} rows have sale_quantity >= "
                f"{quantity[3]} and {num_col} < {bound[3]}?"
            )
            q = QuestionSpec(text, None, ("sale", "sale_amount"), None,
                             (quantity, bound), ((dim, text_col),), plan)
        questions.append(q)
    return PipelineInputs("deep", variant, spec, tuple(questions), len(DEEP_CYCLE))


def _mix(salt: int) -> str:
    """SQL for a seeded hash of the row number ``i`` (SQLite has no XOR: a|b - a&b)."""
    h = f"((i * 2654435761 + {salt}) % 4294967311)"
    h = f"(({h} | ({h} >> 13)) - ({h} & ({h} >> 13)))"
    return f"(({h} * 40503 + {salt // 7}) % 4294967311)"


def _column_sql(col: str, typ: str, salt: int, parent_rows: dict[str, int]) -> str:
    h = _mix(salt)
    if col in parent_rows:
        return f"1 + {h} % {parent_rows[col]}"
    if typ == "REAL":
        return f"({h} % 10000) / 100.0"
    if typ == "INTEGER":
        return f"{h} % 101"
    if typ == "DATE":
        return f"printf('2024-%02d-%02d', 1 + {h} % 12, 1 + ({h} / 12) % 28)"
    return f"'{col.rsplit('_', 1)[-1]}_' || ({h} % 8)"


def write_database(spec: SchemaSpec, path: Path, seed: str) -> None:
    """Write ``spec`` to a fresh SQLite file; SQLite computes the seeded rows."""
    rng = random.Random(seed)
    if path.exists():
        path.unlink()
    conn = sqlite3.connect(path)
    try:
        for t in spec.tables.values():
            refs = {spec.tables[p].key: p for p in t.parents}
            defs = [f"{t.key} INTEGER PRIMARY KEY"] + [
                f"{col} {typ}" + (f" REFERENCES {refs[col]}({col})" if col in refs else "")
                for col, typ in t.columns[1:]
            ]
            conn.execute(f"CREATE TABLE {t.name} ({', '.join(defs)})")
            parent_rows = {spec.tables[p].key: spec.tables[p].rows for p in t.parents}
            values = ", ".join(
                ["i"] + [_column_sql(c, typ, rng.randrange(1 << 30), parent_rows)
                         for c, typ in t.columns[1:]]
            )
            conn.execute(
                f"INSERT INTO {t.name} WITH RECURSIVE n(i) AS "
                f"(SELECT 1 UNION ALL SELECT i + 1 FROM n WHERE i < {t.rows}) "
                f"SELECT {values} FROM n"
            )
        conn.commit()
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# Graph workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphInstance:
    key: str  # digest key
    graph: SchemaGraph
    terminals: tuple[str, ...]


# One size, so every operation does about the same work and a run's median
# does not depend on which sizes its last, partial round reaches: the host's
# speed alone already varies by +-12% from one operation to the next.
LARGE_NODES = 80
LARGE_INSTANCES = 64


def large_instance(nodes: int, index: int) -> GraphInstance:
    """A seeded ``random_connected_graph`` with 2 to 6 terminals."""
    graph = random_connected_graph(nodes, SplitMix64(1000 * nodes + index))
    rng = random.Random(f"large-terminals-{nodes}-{index}")
    terminals = tuple(sorted(rng.sample(graph.vertices, 2 + (nodes // 2 + index) % 5)))
    return GraphInstance(f"{nodes}/{index}", graph, terminals)


def large_strata() -> list[list[tuple[int, int]]]:
    """Instances grouped by terminal count."""
    return [[(LARGE_NODES, i) for i in range(k, LARGE_INSTANCES, 5)] for k in range(5)]


PLANNER_SIZES = (13, 14)
PLANNER_SEEDS = 160


def planner_strata() -> list[list[tuple[int, int]]]:
    """``run_bench`` base seeds grouped by (nodes, terminal count).

    Single-terminal instances are left out: the oracle returns at once on
    them, so they measure nothing.
    """
    strata: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for nodes in PLANNER_SIZES:
        for seed in range(PLANNER_SEEDS):
            rng = SplitMix64(seed)
            graph = random_connected_graph(nodes, rng)
            k = len(random_terminals(graph, rng, 5))
            if k >= 2:
                strata.setdefault((nodes, k), []).append((nodes, seed))
    return [strata[key] for key in sorted(strata)]
