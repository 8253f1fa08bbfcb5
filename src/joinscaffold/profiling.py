"""Join-statistics profiling: selectivity and correlation strength per pair.

Profiling samples up to ``sample_limit`` rows per table (rowid order, so runs
are repeatable) and derives two [0, 1] statistics per candidate join pair:

* selectivity — Jaccard overlap of the sampled distinct value sets of the two
  join columns;
* correlation strength — absolute Pearson correlation of quantile-aligned
  numeric samples when both columns are numeric, otherwise Cramér's V over
  index-paired sampled categories.

Any statistic that cannot be computed (empty table, constant column, missing
data) falls back to the neutral value 0.5 so unprofiled pairs neither attract
nor repel the planner.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .schema import (
    Schema,
    SchemaError,
    connect_read_only,
    fold_name,
    quote_identifier,
    table_info,
    user_tables,
)

NEUTRAL = 0.5
DEFAULT_SAMPLE_LIMIT = 10_000

# (table_a, column_a, table_b, column_b) with table_a < table_b
JoinPair = tuple[str, str, str, str]


def _pair_key(ta: str, ca: str, tb: str, cb: str) -> JoinPair:
    if (ta, ca) <= (tb, cb):
        return (ta, ca, tb, cb)
    return (tb, cb, ta, ca)


@dataclass(frozen=True)
class PairStats:
    selectivity: float
    correlation: float

    def __post_init__(self) -> None:
        for v in (self.selectivity, self.correlation):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"pair statistic {v} outside [0,1]")


@dataclass(frozen=True)
class StatsProfile:
    """Immutable profile of per-pair statistics and the sample size behind them."""

    sample_limit: int
    pairs: dict[JoinPair, PairStats] = field(default_factory=dict)
    _by_table_pair: dict[tuple[str, str], PairStats] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # The best selectivity of each table pair; ties go to the first column
        # pair in sorted order.
        best: dict[tuple[str, str], PairStats] = {}
        for (a, _ca, b, _cb), stats in sorted(self.pairs.items()):
            key = (min(a, b), max(a, b))
            if key not in best or stats.selectivity > best[key].selectivity:
                best[key] = stats
        object.__setattr__(self, "_by_table_pair", best)

    def pair_stats(self, ta: str, ca: str, tb: str, cb: str) -> Optional[PairStats]:
        return self.pairs.get(_pair_key(ta, ca, tb, cb))

    def table_pair_stats(self, ta: str, tb: str) -> Optional[PairStats]:
        """Best-selectivity stats over any profiled column pair of two tables."""
        return self._by_table_pair.get((min(ta, tb), max(ta, tb)))


def _sample_table(
    conn: sqlite3.Connection, table: str, columns: Sequence[str], limit: int
) -> dict[str, list]:
    cols = ", ".join(quote_identifier(c) for c in columns)
    source = quote_identifier(table)
    try:
        rows = conn.execute(f"SELECT {cols} FROM {source} ORDER BY rowid LIMIT ?", (limit,))
    except sqlite3.OperationalError:
        # WITHOUT ROWID tables have no rowid; fall back to declaration order.
        rows = conn.execute(f"SELECT {cols} FROM {source} LIMIT ?", (limit,))
    out: dict[str, list] = {c: [] for c in columns}
    for row in rows:
        for c, v in zip(columns, row):
            if v is not None:
                out[c].append(v)
    return out


def jaccard(a: Sequence, b: Sequence) -> Optional[float]:
    sa, sb = set(a), set(b)
    if not sa or not sb:
        return None
    union = sa | sb
    return len(sa & sb) / len(union)


def _as_numeric(values: Sequence) -> Optional[np.ndarray]:
    try:
        arr = np.asarray([float(v) for v in values], dtype=np.float64)
    except (TypeError, ValueError):
        return None
    if not np.all(np.isfinite(arr)):
        return None
    return arr


def quantile_aligned_pearson(a: Sequence, b: Sequence) -> Optional[float]:
    """|Pearson r| of the two samples' order statistics, aligned by quantile."""
    xa = _as_numeric(a)
    xb = _as_numeric(b)
    if xa is None or xb is None or len(xa) < 2 or len(xb) < 2:
        return None
    xa = np.sort(xa)
    xb = np.sort(xb)
    n = min(len(xa), len(xb))
    idx_a = np.round(np.linspace(0, len(xa) - 1, n)).astype(int)
    idx_b = np.round(np.linspace(0, len(xb) - 1, n)).astype(int)
    ya, yb = xa[idx_a], xb[idx_b]
    if np.std(ya) == 0.0 or np.std(yb) == 0.0:
        return None
    r = float(np.corrcoef(ya, yb)[0, 1])
    if not np.isfinite(r):
        return None
    return min(1.0, abs(r))


def cramers_v(a: Sequence, b: Sequence) -> Optional[float]:
    """Cramér's V over index-paired samples, truncated to the shorter column."""
    n = min(len(a), len(b))
    if n < 2:
        return None
    xa = [str(v) for v in a[:n]]
    xb = [str(v) for v in b[:n]]
    cats_a = sorted(set(xa))
    cats_b = sorted(set(xb))
    if len(cats_a) < 2 or len(cats_b) < 2:
        return None
    table = np.zeros((len(cats_a), len(cats_b)), dtype=np.float64)
    ia = {c: i for i, c in enumerate(cats_a)}
    ib = {c: i for i, c in enumerate(cats_b)}
    for va, vb in zip(xa, xb):
        table[ia[va], ib[vb]] += 1
    row = table.sum(axis=1, keepdims=True)
    col = table.sum(axis=0, keepdims=True)
    expected = row @ col / n
    with np.errstate(divide="ignore", invalid="ignore"):
        chi2 = np.nansum(np.where(expected > 0, (table - expected) ** 2 / expected, 0.0))
    denom = n * (min(len(cats_a), len(cats_b)) - 1)
    if denom <= 0:
        return None
    return min(1.0, float(np.sqrt(chi2 / denom)))


def _pair_statistics(
    samples_a: Sequence, samples_b: Sequence, both_numeric: bool
) -> PairStats:
    sel = jaccard(samples_a, samples_b)
    if both_numeric:
        corr = quantile_aligned_pearson(samples_a, samples_b)
    else:
        corr = cramers_v(samples_a, samples_b)
    return PairStats(
        selectivity=NEUTRAL if sel is None else min(1.0, max(0.0, sel)),
        correlation=NEUTRAL if corr is None else min(1.0, max(0.0, corr)),
    )


def profile_statistics(
    schema: Schema,
    path: Union[str, Path],
    sample_limit: int = DEFAULT_SAMPLE_LIMIT,
    pairs: Optional[Sequence[JoinPair]] = None,
) -> StatsProfile:
    """Profile the database at ``path`` for the given candidate join pairs.

    When ``pairs`` is omitted the candidates are derived from the schema with
    the same edge-admission rule the graph builder uses (FK pairs plus
    similarity-admitted pairs).
    """
    if sample_limit <= 0:
        raise ValueError("sample_limit must be positive")
    if pairs is None:
        from .costs import candidate_join_pairs  # deferred: costs imports this module

        pairs = candidate_join_pairs(schema)

    conn = connect_read_only(path)
    try:
        present = {fold_name(name) for name in user_tables(conn)}
        missing = [t.name for t in schema.tables if fold_name(t.name) not in present]
        if missing:
            raise SchemaError(f"schema/database mismatch: missing tables {missing}")
        # SQLite reads an unknown double-quoted column name as a string
        # literal, so sampling a missing column would not fail on its own.
        missing = []
        for t in schema.tables:
            present = {fold_name(row[1]) for row in table_info(conn, t.name)}
            missing += [f"{t.name}.{c.name}" for c in t.columns
                        if fold_name(c.name) not in present]
        if missing:
            raise SchemaError(f"schema/database mismatch: missing columns {missing}")

        needed: dict[str, set[str]] = {}
        for ta, ca, tb, cb in pairs:
            needed.setdefault(ta, set()).add(ca)
            needed.setdefault(tb, set()).add(cb)

        samples: dict[tuple[str, str], list] = {}
        for table in sorted(needed):
            cols = sorted(needed[table])
            data = _sample_table(conn, table, cols, sample_limit)
            for col in cols:
                samples[(table, col)] = data[col]
    finally:
        conn.close()

    pair_stats: dict[JoinPair, PairStats] = {}
    for ta, ca, tb, cb in pairs:
        key = _pair_key(ta, ca, tb, cb)
        type_a = schema.table(ta).column(ca).declared_type
        type_b = schema.table(tb).column(cb).declared_type
        both_numeric = {type_a, type_b} <= {"integer", "real"}
        pair_stats[key] = _pair_statistics(
            samples[(ta, ca)], samples[(tb, cb)], both_numeric
        )

    return StatsProfile(sample_limit=sample_limit, pairs=pair_stats)
