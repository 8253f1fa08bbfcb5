"""Answer-level ground truth on the benchmark's wide fixtures.

Each wide schema's foreign keys form a spanning tree, and each question names
its target, group and filter tables, so the gold join is the FK subtree that
spans those tables and the gold SQL is the scaffold-following stub's query
over that subtree. Every question runs through ``run_pipeline`` with the stub;
an accepted answer is right when its result equals the gold result as a
multiset of rows. The counts pin today's behaviour: a planner or cost change
that moves them shows here beside the digest diff.
"""

from __future__ import annotations

import sqlite3
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import inputs  # noqa: E402
from stub import ScaffoldStub  # noqa: E402

from joinscaffold.costs import edge_key  # noqa: E402
from joinscaffold.pipeline import PipelineConfig, run_pipeline  # noqa: E402
from joinscaffold.profiling import profile_statistics  # noqa: E402
from joinscaffold.schema import load_schema_from_database  # noqa: E402

# Every variant's 30 questions follow the stub's fault plan cycle three times.
OUTCOMES = {"sql": 24, "syntax_error": 3, "max_iterations": 3}
# variant -> (right answers, wrong answers, first-iteration scaffolds whose
# edge set is the FK subtree)
EXPECTED = {
    0: (16, 8, 21),
    1: (20, 4, 20),
    2: (18, 6, 21),
    3: (17, 7, 20),
    4: (17, 7, 19),
    5: (18, 6, 20),
    6: (19, 5, 23),
    7: (21, 3, 24),
}


def fk_subtree(spec: inputs.SchemaSpec, tables: set[str]) -> set[tuple[str, str]]:
    """Edges of the smallest subtree of the FK tree that spans ``tables``.

    In a tree that is the union of the paths from one of the tables to each
    of the others.
    """
    adjacent: dict[str, list[str]] = {t: [] for t in spec.tables}
    for t in spec.tables.values():
        for p in t.parents:
            adjacent[t.name].append(p)
            adjacent[p].append(t.name)
    root, *others = sorted(tables)
    parent = {root: root}
    queue = [root]
    for here in queue:
        for there in adjacent[here]:
            if there not in parent:
                parent[there] = here
                queue.append(there)
    edges = set()
    for t in others:
        while t != root:
            edges.add(edge_key(t, parent[t]))
            t = parent[t]
    return edges


def gold_sql(spec: inputs.SchemaSpec, question: inputs.QuestionSpec) -> tuple[str, set]:
    named = {question.target[0], question.group[0], *(t for t, *_ in question.filters)}
    edges = fk_subtree(spec, named)
    tables = sorted(named.union(*edges))
    stub = ScaffoldStub(spec, question)
    return stub._query(tables, sorted(edges), irrelevant=False, broken=False), edges


@pytest.mark.parametrize("variant", sorted(EXPECTED))
def test_wide_answers_against_fk_subtree_gold(variant, tmp_path):
    fixture = inputs.wide_inputs(variant)
    db = tmp_path / "wide.db"
    fixture.write(db)
    schema = load_schema_from_database(db)
    stats = profile_statistics(schema, db)
    config = PipelineConfig()
    outcomes: Counter = Counter()
    right, wrong, exact_first = 0, [], 0
    conn = sqlite3.connect(db)
    try:
        for index, question in enumerate(fixture.questions):
            gold, edges = gold_sql(fixture.spec, question)
            result = run_pipeline(
                question.text, schema, db, config, ScaffoldStub(fixture.spec, question),
                stats=stats,
            )
            outcomes[result.outcome] += 1
            exact_first += result.trace[0].scaffold.edge_pairs() == edges
            if result.outcome != "sql":
                continue
            expected = Counter(conn.execute(gold).fetchall())
            if Counter(conn.execute(result.sql).fetchall()) == expected:
                right += 1
            else:
                outside = sorted(result.trace[-1].scaffold.edge_pairs() - edges)
                wrong.append(f"question {index}: scaffold edges outside the FK subtree {outside}")
    finally:
        conn.close()
    assert dict(outcomes) == OUTCOMES
    assert (right, len(wrong), exact_first) == EXPECTED[variant], "\n".join(wrong)
