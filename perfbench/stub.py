"""Scaffold-following generator client with seeded fault injection.

The stub stands in for the LLM. It reads the plan section of the prompt the
pipeline built (the ``tables:`` line and every ``join a -- b`` line) and
writes SQL that joins exactly those tables along exactly those edges, then
selects, filters and groups what the question asks for. On the iterations its
plan marks as faulty it answers with one of these instead:

* ``drop``: only the aggregated table, so terminals go missing;
* ``join``: the correct query plus a join to a table outside the plan;
* ``syntax``: the correct query with a misspelt keyword;
* ``exec``: the correct query naming a column that does not exist.
"""

from __future__ import annotations

from inputs import QuestionSpec, SchemaSpec


def read_plan(prompt: str) -> tuple[list[str], list[tuple[str, str]]]:
    """Tables and join edges listed in the prompt's plan section."""
    tables: list[str] = []
    joins: list[tuple[str, str]] = []
    for line in prompt.splitlines():
        if line.startswith("tables: "):
            tables = line[len("tables: "):].split(", ")
        elif line.startswith("join ") and " -- " in line:
            a, rest = line[len("join "):].split(" -- ", 1)
            joins.append((a, rest.split(" ", 1)[0]))
    return tables, joins


class ScaffoldStub:
    """One question's generator; answer k follows step k of the question's plan."""

    def __init__(self, spec: SchemaSpec, question: QuestionSpec):
        self.spec = spec
        self.question = question
        self.calls = 0

    def generate(self, prompt: str, question: str) -> str:
        plan = self.question.plan
        step = plan[min(self.calls, len(plan) - 1)]
        self.calls += 1
        tables, joins = read_plan(prompt)
        if step == "drop":
            return self._dropped()
        sql = self._query(tables, joins, irrelevant=step == "join", broken=step == "exec")
        if step == "syntax":
            return sql.replace("SELECT", "SELEC", 1)
        return sql

    def _join_on(self, a: str, b: str) -> str:
        shared = self.spec.fk_column(a, b)
        if shared is None:
            cols_b = set(self.spec.tables[b].columns)
            same = sorted(c for c, t in self.spec.tables[a].columns if (c, t) in cols_b)
            shared = same[0] if same else None
        if shared is None:
            return f"{a}.{self.spec.tables[a].key} = {b}.{self.spec.tables[b].key}"
        return f"{a}.{shared} = {b}.{shared}"

    def _from(self, tables: list[str], joins: list[tuple[str, str]]) -> list[str]:
        """FROM and JOIN lines walking the plan's tree outward from its first table."""
        adjacent: dict[str, list[str]] = {t: [] for t in tables}
        for a, b in joins:
            adjacent[a].append(b)
            adjacent[b].append(a)
        lines = [f"FROM {tables[0]}"]
        seen = [tables[0]]
        for here in seen:
            for there in sorted(adjacent[here]):
                if there not in seen:
                    seen.append(there)
                    lines.append(f"JOIN {there} ON {self._join_on(here, there)}")
        return lines

    def _outside_join(self, tables: list[str]) -> str:
        """A join to the first table outside the plan that no FK links to it."""
        for here in sorted(tables):
            for there in sorted(self.spec.tables):
                if there not in tables and self.spec.fk_column(here, there) is None:
                    key_a, key_b = self.spec.tables[here].key, self.spec.tables[there].key
                    return f"JOIN {there} ON {here}.{key_a} = {there}.{key_b}"
        raise ValueError("every table is in the plan or FK-linked to it")

    def _target(self, broken: bool = False) -> str:
        q = self.question
        column = f"{q.target[0]}.{q.target[1]}" + ("_missing" if broken else "")
        return f"{q.agg}({column})" if q.agg else column

    def _select(self, broken: bool) -> list[str]:
        q = self.question
        group = [f"{q.group[0]}.{q.group[1]}"] if q.group else []
        return group + [self._target(broken)] + [f"{t}.{c}" for t, c in q.extra]

    def _query(
        self, tables: list[str], joins: list[tuple[str, str]], irrelevant: bool, broken: bool
    ) -> str:
        q = self.question
        lines = [f"SELECT {', '.join(self._select(broken))}"] + self._from(tables, joins)
        if irrelevant:
            lines.append(self._outside_join(tables))
        if q.filters:
            lines.append("WHERE " + " AND ".join(f"{t}.{c} {op} {v}" for t, c, op, v in q.filters))
        if q.group:
            lines.append(f"GROUP BY {q.group[0]}.{q.group[1]}")
        return "\n".join(lines)

    def _dropped(self) -> str:
        q = self.question
        table = q.target[0]
        lines = [f"SELECT {self._target()}", f"FROM {table}"]
        own = [f"{t}.{c} {op} {v}" for t, c, op, v in q.filters if t == table]
        if own:
            lines.append("WHERE " + " AND ".join(own))
        return "\n".join(lines)
