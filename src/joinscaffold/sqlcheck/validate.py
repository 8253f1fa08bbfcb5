"""Three-level validation of candidate SQL.

Level 1 executes the query on a read-only connection and captures engine
errors. It reads the first :data:`FETCH_BATCH_ROWS` rows itself; when the
result is longer, SQLite counts it with every result column evaluated, so no
Python row is built for the rest and a runtime error in any row still fails
level 1. Result text is never decoded. The connection admits queries only:
any other statement (``PRAGMA``, ``BEGIN``, ``CREATE TEMP``, ``ATTACH``,
``VACUUM INTO``) fails as "not authorized" or "authorization denied", and a
query that runs past :data:`EXECUTION_BUDGET_S` seconds is interrupted. As no
candidate can leave state behind, each thread reuses one connection per
database file until the file changes. Level 2 checks semantic consistency: terminal coverage, join
relevance against the scaffold, and attribute mapping. Level 3 audits
mathematical structure: the group-by rule, aggregate/operation agreement, and
constraint translation.

A level-1 failure suppresses levels 2 and 3. When the query parses outside
the supported subset, levels 2 and 3 are skipped with an explanatory note and
validation falls back to execution only.
"""

from __future__ import annotations

import datetime as _dt
import os
import re
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from ..canonical import canonical_json
from ..costs import CostWeights, DEFAULT_WEIGHTS
from ..decompose import MathEntity, TerminalSet, matching_names, parse_numeric_date
from ..embedding import EmbeddingProvider, default_provider
from ..schema import Schema, SchemaError, connect_read_only, fold_name
from ..steiner import SteinerScaffold
from .parser import (
    BetweenOp,
    BinaryOp,
    ColumnRef,
    FuncCall,
    IsNull,
    Literal,
    ParseError,
    Query,
    Star,
    UnaryOp,
    aggregates_in,
    columns_in,
    parse_sql,
    tokenize,
    walk,
)

CODES = (
    "MISSING_TERMINAL",
    "IRRELEVANT_JOIN",
    "UNMAPPED_ATTRIBUTE",
    "GROUPBY_RULE",
    "AGG_MISMATCH",
    "CONSTRAINT_MISMATCH",
    "SYNTAX",
    "EXECUTION",
)

# Rows level 1 fetches before it hands the count of a longer result to the
# engine (see _engine_count); a shorter first batch is the row count. The fetch
# loop that takes over when the engine count fails reads this many per step, so
# no full row list is held.
FETCH_BATCH_ROWS = 4096


class InfrastructureError(RuntimeError):
    """Environment failure (unreachable database), distinct from validation."""


@dataclass(frozen=True)
class Violation:
    """One failed check. ``subject`` is display text for reports only.

    ``tables`` names the schema tables the violation is about, and it is what
    re-planning reads: the terminal of a ``MISSING_TERMINAL``, the two tables
    of an ``IRRELEVANT_JOIN``, the sorted owners of the columns an
    ``UNMAPPED_ATTRIBUTE`` phrase names. Other codes leave it empty.
    """

    level: int
    code: str
    message: str
    subject: str
    tables: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown violation code {self.code!r}")


@dataclass(frozen=True)
class ValidationReport:
    level1: Optional[bool]
    level2: Optional[bool]
    level3: Optional[bool]
    violations: tuple[Violation, ...] = ()
    notes: tuple[str, ...] = ()
    row_count: Optional[int] = None

    @property
    def ok(self) -> bool:
        return bool(self.level1) and self.level2 is not False and self.level3 is not False

    def by_code(self, code: str) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if v.code == code)

    def document_fields(self) -> dict:
        """The fields report and pipeline documents export; ``tables`` is not one."""
        return {
            "level1": self.level1,
            "level2": self.level2,
            "level3": self.level3,
            "ok": self.ok,
            "violations": [
                {"level": v.level, "code": v.code, "message": v.message, "subject": v.subject}
                for v in self.violations
            ],
            "notes": list(self.notes),
            "row_count": self.row_count,
        }


def report_document(report: ValidationReport) -> str:
    return canonical_json(report.document_fields())


# ---------------------------------------------------------------------------
# Level 1: execution
# ---------------------------------------------------------------------------


# Wall time one level-1 execution may take, in seconds, far above the slowest
# query the benchmark workloads run (about 0.3 s). The clock is read every
# PROGRESS_STEPS virtual-machine steps of the running statement.
EXECUTION_BUDGET_S = 10.0
PROGRESS_STEPS = 100_000

# The authorizer actions a query fires; every other action is denied.
_QUERY_ACTIONS = frozenset(
    (sqlite3.SQLITE_SELECT, sqlite3.SQLITE_READ, sqlite3.SQLITE_FUNCTION, sqlite3.SQLITE_RECURSIVE)
)

# A statement whose first word, after blanks and comments, is EXPLAIN.
# Each comment can end in one place only, so a failed match backtracks little.
_EXPLAIN = re.compile(r"(?:\s|--[^\n]*(?:\n|$)|/\*(?:[^*]|\*(?!/))*\*/)*EXPLAIN\b", re.IGNORECASE)

# The common table expression _engine_count wraps a candidate in. A candidate
# that spells this name in any case is counted by the fetch loop instead.
_COUNT_CTE = "joinscaffold_rows"

# This thread's level-1 connection: ``conn``, the ``key`` of the file it was
# opened on and the ``deadline`` of the running statement.
_local = threading.local()


def _allow_query(action: int, *_detail) -> int:
    return sqlite3.SQLITE_OK if action in _QUERY_ACTIONS else sqlite3.SQLITE_DENY


def _past_deadline() -> bool:
    return time.monotonic() > _local.deadline


def _query_connection(db_path: Union[str, Path]) -> sqlite3.Connection:
    """This thread's connection to ``db_path``, reopened when the file changes.

    The key is the absolute path, the file's identity, size and modification
    time, and the process id, so a replaced or rewritten file, or a forked
    child, gets a fresh open with the checks and errors of the first one.
    """
    path = os.path.abspath(db_path)
    try:
        st = os.stat(path)
        key = (path, st.st_dev, st.st_ino, st.st_mtime_ns, st.st_size, os.getpid())
    except OSError:
        key = None
    cached = getattr(_local, "conn", None)
    if cached is not None:
        if key is not None and key == _local.key:
            return cached
        _local.conn = _local.key = None
        cached.close()
    try:
        conn = connect_read_only(db_path)
    except SchemaError as exc:
        raise InfrastructureError(str(exc)) from exc
    conn.set_authorizer(_allow_query)
    conn.set_progress_handler(_past_deadline, PROGRESS_STEPS)
    conn.text_factory = bytes  # level 1 never reads a value, so none is decoded
    _local.conn, _local.key = conn, key
    return conn


def _statement_body(sql: str) -> str:
    """``sql`` cut after its last token other than ``;``.

    The trailing semicolons go, with the blanks and comments between and
    after them, so ``SELECT x FROM t; -- note`` can be wrapped. A comment
    before the first of them stays; the wrapper's newline ends it. Text the
    tokenizer rejects loses only its trailing blanks and semicolons.
    """
    try:
        tokens = tokenize(sql)[:-2]  # without the two EOF tokens
    except ParseError:
        return sql.rstrip(" \t\n\v\f\r;")
    end = len(tokens)
    while end and tokens[end - 1].kind == "OP" and tokens[end - 1].value == ";":
        end -= 1
    return sql if end == len(tokens) else sql[: tokens[end].offset]


def _engine_count(conn: sqlite3.Connection, sql: str, columns: int) -> Optional[int]:
    """The rows ``sql`` returns, counted by SQLite; ``None`` if the count fails.

    Each result column is counted too, so the engine evaluates every result
    expression on every row: a runtime error there fails the count as it
    fails a fetch. Run while the candidate's own statement is open, the count
    reads the same snapshot. On any error the caller's fetch loop carries on
    and its statement reports what goes wrong.
    """
    if _COUNT_CTE in sql.casefold():
        return None
    names = ", ".join(f"c{i}" for i in range(columns))
    counts = ", ".join(f"count(c{i})" for i in range(columns))
    body = _statement_body(sql)
    cur = conn.cursor()
    try:
        cur.execute(
            f"WITH {_COUNT_CTE}({names}) AS (\n{body}\n) SELECT count(*), {counts} FROM {_COUNT_CTE}"
        )
        return cur.fetchone()[0]
    except sqlite3.Error:
        return None
    finally:
        cur.close()


def validate_execution(sql: str, db_path: Union[str, Path]) -> ValidationReport:
    """Execute one query within the time budget; engine failures become SYNTAX/EXECUTION.

    A statement that is not a query fails as ``EXECUTION``: one that returns
    no result columns (``REINDEX``, an empty statement) and any ``EXPLAIN``.
    A result longer than one fetch batch is counted by the engine, within the
    same budget.
    """
    conn = _query_connection(db_path)
    cur = conn.cursor()
    _local.deadline = time.monotonic() + EXECUTION_BUDGET_S
    try:
        cur.execute(sql)
        if cur.description is None:
            message = "not a query: the statement returns no result columns"
        elif _EXPLAIN.match(sql):
            message = "not a query: EXPLAIN returns the statement's plan, not its result"
        else:
            row_count = len(cur.fetchmany(FETCH_BATCH_ROWS))
            if row_count == FETCH_BATCH_ROWS:
                counted = _engine_count(conn, sql, len(cur.description))
                if counted is not None:
                    row_count = counted
                else:
                    while batch := cur.fetchmany(FETCH_BATCH_ROWS):
                        row_count += len(batch)
            return ValidationReport(level1=True, level2=None, level3=None, row_count=row_count)
    except sqlite3.Error as exc:
        message = str(exc)
        if message == "interrupted":
            message = f"interrupted: query ran past the {EXECUTION_BUDGET_S:g} s execution budget"
    finally:
        cur.close()  # resets the statement, so no read lock outlives the call
    code = "SYNTAX" if "syntax error" in message.lower() else "EXECUTION"
    violation = Violation(1, code, message, subject=sql.strip().split("\n")[0][:80])
    return ValidationReport(level1=False, level2=None, level3=None, violations=(violation,))


# ---------------------------------------------------------------------------
# Binding helpers
# ---------------------------------------------------------------------------


class _Binding:
    """Resolves alias/table qualifiers and bare columns as SQLite reads them."""

    def __init__(self, ast: Query, schema: Schema):
        self.schema = schema
        self.alias_to_table: dict[str, str] = {}
        self.base_tables: list[str] = []
        for ref in ast.all_tables():
            resolved = schema.resolve_table(ref.name) or ref.name
            self.base_tables.append(resolved)
            self.alias_to_table[fold_name(ref.binding_name())] = resolved
            self.alias_to_table.setdefault(fold_name(ref.name), resolved)

    def table_of(self, col: ColumnRef) -> Optional[str]:
        if col.qualifier:
            return self.alias_to_table.get(fold_name(col.qualifier))
        name = fold_name(col.name)
        owners = [
            t
            for t in dict.fromkeys(self.base_tables)
            if self.schema.has_table(t)
            and any(fold_name(c.name) == name for c in self.schema.table(t).columns)
        ]
        if len(owners) == 1:
            return owners[0]
        if len(set(self.base_tables)) == 1:
            return self.base_tables[0]
        return None


# ---------------------------------------------------------------------------
# Level 2: semantic consistency
# ---------------------------------------------------------------------------


def _join_column_pairs(ast: Query, binding: _Binding) -> list[tuple[str, str, str]]:
    """(table_a, table_b, rendered condition) for every cross-table equality."""
    conditions = [j.condition for j in ast.joins if j.condition is not None]
    if ast.where is not None:
        conditions.append(ast.where)
    pairs = []
    for cond in conditions:
        for node in walk(cond):
            if (
                isinstance(node, BinaryOp)
                and node.op == "="
                and isinstance(node.left, ColumnRef)
                and isinstance(node.right, ColumnRef)
            ):
                ta = binding.table_of(node.left)
                tb = binding.table_of(node.right)
                if ta and tb and ta != tb:
                    rendered = f"{node.left.display()} = {node.right.display()}"
                    pairs.append((min(ta, tb), max(ta, tb), rendered))
    return pairs


def validate_semantic(
    ast: Query,
    terminals: TerminalSet,
    scaffold: Optional[SteinerScaffold],
    entities: Sequence[MathEntity],
    schema: Schema,
    weights: CostWeights = DEFAULT_WEIGHTS,
    provider: Optional[EmbeddingProvider] = None,
) -> tuple[bool, list[Violation]]:
    provider = provider or default_provider()
    violations: list[Violation] = []
    binding = _Binding(ast, schema)

    for terminal in terminals.tables:
        if (schema.resolve_table(terminal) or terminal) not in binding.base_tables:
            violations.append(
                Violation(
                    2,
                    "MISSING_TERMINAL",
                    f"terminal table {terminal!r} absent from FROM/JOIN",
                    subject=terminal,
                    tables=(terminal,),
                )
            )

    scaffold_pairs = scaffold.edge_pairs() if scaffold is not None else set()
    for ta, tb, rendered in _join_column_pairs(ast, binding):
        if not ((ta, tb) in scaffold_pairs or schema.has_fk(ta, tb)):
            violations.append(
                Violation(
                    2,
                    "IRRELEVANT_JOIN",
                    f"join {rendered} links {ta} and {tb}, which share no scaffold edge or FK",
                    subject=f"{ta}~{tb}",
                    tables=(ta, tb),
                )
            )

    referenced_names = [c.name for c in _all_query_columns(ast)]
    referenced_names += [item.alias for item in ast.select_items if item.alias]
    owners = schema.column_owners
    schema_columns = list(owners)
    seen_phrases: set[str] = set()
    for entity in entities:
        for phrase in entity.target_attributes:
            if phrase in seen_phrases:
                continue
            seen_phrases.add(phrase)
            if matching_names(phrase, referenced_names, weights, provider):
                continue
            # Only resolvable attributes can be demanded of the query; a
            # phrase matching no schema column is reported by decomposition
            # as unmatched, not here.
            names = matching_names(phrase, schema_columns, weights, provider)
            if not names:
                continue
            violations.append(
                Violation(
                    2,
                    "UNMAPPED_ATTRIBUTE",
                    f"attribute {phrase!r} from the question maps to no column in the query",
                    subject=phrase,
                    tables=tuple(sorted({t for name in names for t, _c in owners[name]})),
                )
            )

    return (not violations, violations)


def _all_query_columns(ast: Query) -> list[ColumnRef]:
    cols: list[ColumnRef] = []
    for item in ast.select_items:
        if not isinstance(item.expr, Star):
            cols += columns_in(item.expr)
    for j in ast.joins:
        if j.condition is not None:
            cols += columns_in(j.condition)
    for clause in (ast.where, ast.having):
        if clause is not None:
            cols += columns_in(clause)
    for expr in ast.group_by:
        cols += columns_in(expr)
    for expr, _d in ast.order_by:
        cols += columns_in(expr)
    return cols


# ---------------------------------------------------------------------------
# Level 3: mathematical logic
# ---------------------------------------------------------------------------


def _expr_fingerprint(expr) -> str:
    """Structural signature for matching SELECT items to GROUP BY keys."""
    return repr(expr).lower()


def _groupby_violations(ast: Query) -> list[Violation]:
    has_aggregate = any(aggregates_in(item.expr) for item in ast.select_items if not isinstance(item.expr, Star))
    if ast.having is not None:
        has_aggregate = has_aggregate or bool(aggregates_in(ast.having))
    if not has_aggregate and not ast.group_by:
        return []

    group_cols = {fold_name(e.name) for e in ast.group_by if isinstance(e, ColumnRef)}
    group_prints = {_expr_fingerprint(e) for e in ast.group_by}
    violations = []
    for item in ast.select_items:
        expr = item.expr
        if isinstance(expr, Star):
            violations.append(
                Violation(
                    3,
                    "GROUPBY_RULE",
                    "SELECT * cannot be grouped; enumerate grouped columns",
                    subject="*",
                )
            )
            continue
        if aggregates_in(expr):
            continue
        if item.alias and fold_name(item.alias) in group_cols:
            continue
        if _expr_fingerprint(expr) in group_prints:
            continue
        offending = [c for c in columns_in(expr) if fold_name(c.name) not in group_cols]
        if isinstance(expr, ColumnRef):
            if fold_name(expr.name) not in group_cols:
                violations.append(
                    Violation(
                        3,
                        "GROUPBY_RULE",
                        f"non-aggregated column {expr.display()} missing from GROUP BY",
                        subject=expr.display(),
                    )
                )
        elif offending:
            subject = item.alias or offending[0].display()
            violations.append(
                Violation(
                    3,
                    "GROUPBY_RULE",
                    f"non-aggregated expression {subject!r} missing from GROUP BY",
                    subject=subject,
                )
            )
    return violations


def _aggregate_inventory(ast: Query) -> list[FuncCall]:
    calls: list[FuncCall] = []
    for item in ast.select_items:
        if not isinstance(item.expr, Star):
            calls += aggregates_in(item.expr)
    if ast.having is not None:
        calls += aggregates_in(ast.having)
    for expr, _d in ast.order_by:
        calls += aggregates_in(expr)
    return calls


def _division_avg_targets(ast: Query) -> list[str]:
    """Columns X where the query computes SUM(X) / COUNT(...): the AVG idiom."""
    targets = []
    for item in ast.select_items:
        if isinstance(item.expr, Star):
            continue
        for node in walk(item.expr):
            if isinstance(node, BinaryOp) and node.op == "/":
                sums = [f for f in aggregates_in(node.left) if f.name == "SUM"]
                counts = [f for f in aggregates_in(node.right) if f.name == "COUNT"]
                if sums and counts:
                    for f in sums:
                        if f.args:
                            targets.extend(c.name for c in columns_in(f.args[0]))
    return targets


def _agg_violations(
    ast: Query,
    entities: Sequence[MathEntity],
    weights: CostWeights,
    provider: EmbeddingProvider,
) -> list[Violation]:
    calls = _aggregate_inventory(ast)
    division_avg = _division_avg_targets(ast)
    violations = []
    for entity in entities:
        if entity.kind != "aggregation" or entity.operation not in (
            "SUM", "COUNT", "AVG", "MIN", "MAX",
        ):
            continue
        op = entity.operation
        targets = entity.target_attributes
        matched = False
        for call in calls:
            if call.name != op:
                continue
            if not targets:
                matched = True
                break
            if call.star:
                matched = op == "COUNT"
                if matched:
                    break
                continue
            arg_cols = [c.name for a in call.args for c in columns_in(a)]
            if any(matching_names(t, arg_cols, weights, provider) for t in targets):
                matched = True
                break
        if not matched and op == "AVG":
            matched = any(
                matching_names(t, division_avg, weights, provider) for t in targets
            ) or (not targets and bool(division_avg))
        if not matched:
            described = f"{op}({', '.join(targets) if targets else '*'})"
            violations.append(
                Violation(
                    3,
                    "AGG_MISMATCH",
                    f"no aggregate in the query implements {described}",
                    subject=described,
                )
            )
    return violations


def _as_date(value) -> Optional[_dt.date]:
    if isinstance(value, _dt.date):
        return value
    if isinstance(value, str):
        return parse_numeric_date(value.strip())
    return None


def _literal_equal(expected, actual) -> bool:
    exp_date = _as_date(expected)
    if exp_date is not None:
        return _as_date(actual) == exp_date
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        return float(expected) == float(actual)
    return expected == actual


def _literal_value(expr) -> Optional[object]:
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, UnaryOp) and expr.op == "-" and isinstance(expr.operand, Literal):
        value = expr.operand.value
        if isinstance(value, (int, float)):
            return -value
    return None


@dataclass(frozen=True)
class _Predicate:
    column: str
    op: str
    value: object = None
    second: object = None  # BETWEEN upper bound


def _collect_predicates(ast: Query) -> list[_Predicate]:
    preds: list[_Predicate] = []
    trees = [t for t in (ast.where, ast.having) if t is not None]
    flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}
    for tree in trees:
        for node in walk(tree):
            if isinstance(node, BinaryOp) and node.op in flip:
                left_col = node.left if isinstance(node.left, ColumnRef) else None
                right_col = node.right if isinstance(node.right, ColumnRef) else None
                left_lit = _literal_value(node.left)
                right_lit = _literal_value(node.right)
                if left_col is not None and right_lit is not None:
                    preds.append(_Predicate(left_col.name, node.op, right_lit))
                elif right_col is not None and left_lit is not None:
                    preds.append(_Predicate(right_col.name, flip[node.op], left_lit))
            elif isinstance(node, IsNull) and isinstance(node.expr, ColumnRef):
                op = "IS NOT NULL" if node.negated else "IS NULL"
                preds.append(_Predicate(node.expr.name, op))
            elif isinstance(node, BetweenOp):
                cols = columns_in(node.expr)
                lo, hi = _literal_value(node.low), _literal_value(node.high)
                if cols and lo is not None and hi is not None:
                    preds.append(_Predicate(cols[0].name, "BETWEEN", lo, hi))
                    preds.append(_Predicate(cols[0].name, ">=", lo))
                    preds.append(_Predicate(cols[0].name, "<=", hi))
    return preds


def _constraint_violations(
    ast: Query,
    entities: Sequence[MathEntity],
    weights: CostWeights,
    provider: EmbeddingProvider,
) -> list[Violation]:
    preds = _collect_predicates(ast)
    columns = list(dict.fromkeys(p.column for p in preds))
    violations = []
    for entity in entities:
        if entity.kind not in ("comparison", "range", "temporal"):
            continue
        if entity.operation in ("LAST", "FIRST"):
            continue  # ordering cues have no single-predicate translation
        expected_op = entity.operation
        # An entity with targets is checked against the predicates on every
        # column one of them names; one without, against every predicate.
        # Each column is matched on its own: an exact match on one column
        # must not hide another that a target reaches by similarity.
        on_target = preds
        if entity.target_attributes:
            named = {
                c
                for c in columns
                if any(
                    matching_names(t, [c], weights, provider)
                    for t in entity.target_attributes
                )
            }
            on_target = [p for p in preds if p.column in named]

        if expected_op in ("IS NULL", "IS NOT NULL"):
            matched = any(p.op == expected_op for p in on_target)
        elif expected_op == "BETWEEN":
            lo, hi = entity.literals
            matched = any(
                p.op == "BETWEEN" and _literal_equal(lo, p.value) and _literal_equal(hi, p.second)
                for p in on_target
            ) or (
                any(p.op == ">=" and _literal_equal(lo, p.value) for p in on_target)
                and any(p.op == "<=" and _literal_equal(hi, p.value) for p in on_target)
            )
        else:
            value = entity.literals[0] if entity.literals else None
            matched = any(
                p.op == expected_op and (value is None or _literal_equal(value, p.value))
                for p in on_target
            )
        if not matched:
            target = ", ".join(entity.target_attributes) or "<any>"
            rendered = f"{target} {expected_op} {list(entity.literals) or ''}".strip()
            violations.append(
                Violation(
                    3,
                    "CONSTRAINT_MISMATCH",
                    f"constraint from the question not found in WHERE/HAVING: {rendered}",
                    subject=rendered,
                )
            )
    return violations


def validate_math(
    ast: Query,
    entities: Sequence[MathEntity],
    weights: CostWeights = DEFAULT_WEIGHTS,
    provider: Optional[EmbeddingProvider] = None,
) -> tuple[bool, list[Violation]]:
    provider = provider or default_provider()
    violations = (
        _groupby_violations(ast)
        + _agg_violations(ast, entities, weights, provider)
        + _constraint_violations(ast, entities, weights, provider)
    )
    return (not violations, violations)


# ---------------------------------------------------------------------------
# Aggregate report
# ---------------------------------------------------------------------------


def validate_all(
    sql: str,
    db_path: Union[str, Path],
    terminals: TerminalSet,
    scaffold: Optional[SteinerScaffold],
    entities: Sequence[MathEntity],
    schema: Schema,
    weights: CostWeights = DEFAULT_WEIGHTS,
    provider: Optional[EmbeddingProvider] = None,
) -> ValidationReport:
    """Level 1 first; on pass, levels 2 and 3 both run and are both reported."""
    level1 = validate_execution(sql, db_path)
    if not level1.level1:
        return level1
    try:
        ast = parse_sql(sql)
    except ParseError as exc:
        note = (
            f"levels 2-3 skipped, execution-only validation: {exc.message}"
            if exc.kind == "unsupported"
            else f"levels 2-3 skipped, query outside the validated subset: {exc.message}"
        )
        return ValidationReport(
            level1=True,
            level2=None,
            level3=None,
            notes=(note,),
            row_count=level1.row_count,
        )
    ok2, v2 = validate_semantic(ast, terminals, scaffold, entities, schema, weights, provider)
    ok3, v3 = validate_math(ast, entities, weights, provider)
    return ValidationReport(
        level1=True,
        level2=ok2,
        level3=ok3,
        violations=tuple(v2 + v3),
        row_count=level1.row_count,
    )
