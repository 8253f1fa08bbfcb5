"""Run the full planning loop offline with a scripted generator.

The loop: decompose and take the schema graph once (a later question on the
same schema reuses the graph), then up to three rounds of scaffold solve,
prompt assembly, generation, and validation. The stub generator here
returns a terminal-dropping query first, so the loop re-plans and the second
answer passes.
"""

import sqlite3
import tempfile
from pathlib import Path

from joinscaffold import (
    PipelineConfig,
    StubGenerator,
    load_schema_from_database,
    pipeline_document,
    run_pipeline,
)

workdir = Path(tempfile.mkdtemp())
db = workdir / "store.db"
conn = sqlite3.connect(db)
conn.executescript(
    """
    CREATE TABLE departments (dept_id INTEGER PRIMARY KEY, dept_name TEXT);
    CREATE TABLE employees (
        emp_id INTEGER PRIMARY KEY, name TEXT, salary REAL,
        dept_id INTEGER REFERENCES departments(dept_id));
    INSERT INTO departments VALUES (1, 'Sales'), (2, 'Engineering');
    INSERT INTO employees VALUES
        (1, 'Ada', 92000, 2), (2, 'Bo', 48000, 1), (3, 'Cy', 61000, 1),
        (4, 'Dee', 75000, 2);
    """
)
conn.commit()
conn.close()

schema = load_schema_from_database(db)
question = "average salary for each dept_name where salary >= 50000"

# First answer forgets the departments table; the validator flags it and the
# re-planning loop marks the table as must-include for the second round.
client = StubGenerator(
    responses=[
        "SELECT AVG(salary) FROM employees WHERE salary >= 50000",
        "SELECT d.dept_name, AVG(e.salary) FROM employees e "
        "JOIN departments d ON e.dept_id = d.dept_id "
        "WHERE e.salary >= 50000 GROUP BY d.dept_name",
    ]
)

result = run_pipeline(
    question, schema, db, PipelineConfig(profile_stats=True), client
)
print("outcome:", result.outcome)
print("iterations used:", result.iterations_used)
for t in result.trace:
    codes = sorted({v.code for v in t.report.violations})
    print(f"  iteration {t.iteration}: terminals={list(t.terminals.tables)} violations={codes}")
print("\nfinal SQL:", result.sql)
print()
print(pipeline_document(result))
