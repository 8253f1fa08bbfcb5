"""End-to-end planning loop: decompose, solve, prompt, generate, validate.

One run performs Stage-1 decomposition once and takes the schema graph, which
is built once per schema, statistics, weights and provider and reused by
every later run while those stay the same (see :mod:`joinscaffold.costs`).
Then come up to ``max_iterations`` (default 3) rounds of: dropping the
accumulated edge exclusions from that graph, Steiner solve, prompt assembly,
SQL generation through a pluggable client, and three-level validation. A
level-1 failure returns immediately with the ``syntax_error`` outcome;
level-2/3 failures feed the re-planning rules; three failed rounds yield
``max_iterations``.

The loop's one plan state is a :class:`ReplanUpdate`: terminals, must-include
tables, excluded edges and extra requirements. Re-planning reads the tables
each violation names (``Violation.tables``); its ``subject`` is display text
only. Rules by violation code:

* MISSING_TERMINAL — terminals unchanged; the table is marked must-include in
  the next prompt's critical requirements.
* UNMAPPED_ATTRIBUTE — the tables owning the columns the phrase names join
  the terminal set.
* IRRELEVANT_JOIN — the edge between the join's two tables joins a per-run
  exclusion list that is dropped from the graph before the next solve.
* AGG_MISMATCH / CONSTRAINT_MISMATCH / GROUPBY_RULE — terminals unchanged; the
  violation text is appended to the critical-requirements section.
"""

from __future__ import annotations

import functools
import string
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional, Protocol, Sequence, Union

from .canonical import canonical_json
from .costs import (
    CostWeights,
    DEFAULT_WEIGHTS,
    build_schema_graph,
    candidate_join_pairs,
    edge_key,
)
from .decompose import REASON_DIRECT, DecompositionResult, TerminalSet, decompose_question
from .embedding import EmbeddingProvider, default_provider
from .httpjson import POST_ERRORS, post_json
from .profiling import StatsProfile, profile_statistics
from .schema import Schema
from .sqlcheck import ValidationReport, validate_all
from .steiner import SteinerScaffold, scaffold_document, solve_steiner

TEMPLATE_NAMES = (
    "role_play",
    "critical_requirements",
    "build_relation",
    "optimal_query_plan",
    "behavioral_guidelines",
)


class PipelineError(RuntimeError):
    """Unrecoverable pipeline failure (configuration, templates, no terminals)."""


class GeneratorError(RuntimeError):
    """Generator client failure after retries."""


@dataclass(frozen=True)
class PipelineConfig:
    weights: CostWeights = DEFAULT_WEIGHTS
    sample_limit: int = 10_000
    max_iterations: int = 3
    temperature: float = 0.0
    generator_endpoint: str = ""
    generator_model: str = ""
    generator_api_key: str = ""
    template_dir: Optional[Path] = None
    profile_stats: bool = True
    retries: int = 3
    backoff: float = 0.5
    timeout: float = 60.0

    def __post_init__(self) -> None:
        for name in ("max_iterations", "retries"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")


class GeneratorClient(Protocol):
    def generate(self, prompt: str, question: str) -> str: ...


class StubGenerator:
    """Deterministic fixture-keyed generator for offline runs and tests.

    Responses come from, in order of precedence: the memo of inputs already
    answered (identical input always gets the identical output back), the
    ``keyed`` mapping by question, the ``responses`` script (consumed one per
    novel input), then ``default``.
    """

    def __init__(
        self,
        responses: Sequence[str] = (),
        keyed: Optional[dict[str, str]] = None,
        default: Optional[str] = None,
    ) -> None:
        self._script = list(responses)
        self._keyed = dict(keyed or {})
        self._default = default
        self._memo: dict[tuple[str, str], str] = {}

    def generate(self, prompt: str, question: str) -> str:
        key = (prompt, question)
        if key in self._memo:
            return self._memo[key]
        if question in self._keyed:
            answer = self._keyed[question]
        elif self._script:
            answer = self._script.pop(0)
        elif self._default is not None:
            answer = self._default
        else:
            raise GeneratorError("stub generator has no response left for this input")
        self._memo[key] = answer
        return answer


class HttpGenerator:
    """Chat-completion client; endpoint/model/key from config or environment."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        if not config.generator_endpoint:
            raise PipelineError(
                "no generator endpoint configured (JOINSCAFFOLD_GENERATOR_ENDPOINT)"
            )

    def generate(self, prompt: str, question: str) -> str:
        payload = {
            "model": self.config.generator_model,
            "messages": [
                {"role": "system", "content": prompt},
                {"role": "user", "content": question},
            ],
            "temperature": self.config.temperature,
        }
        delay = self.config.backoff
        last_error: Exception | None = None
        for attempt in range(self.config.retries):
            try:
                reply = post_json(
                    self.config.generator_endpoint,
                    payload,
                    self.config.generator_api_key,
                    self.config.timeout,
                )
                content = reply["choices"][0]["message"]["content"]
                if not isinstance(content, str):
                    raise TypeError(f"message content is {type(content).__name__}, not a string")
                return content
            except (*POST_ERRORS, LookupError, TypeError) as exc:
                last_error = exc
                if attempt + 1 < self.config.retries:
                    time.sleep(delay)
                    delay *= 2
        raise GeneratorError(f"generator failed after {self.config.retries} attempts: {last_error}")


# ---------------------------------------------------------------------------
# Prompt assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PromptBundle:
    role_play: str
    critical_requirements: str
    build_relation: str
    optimal_query_plan: str
    behavioral_guidelines: str

    def __post_init__(self) -> None:
        for name in TEMPLATE_NAMES:
            if not getattr(self, name).strip():
                raise PipelineError(f"prompt section {name!r} is empty")

    def text(self) -> str:
        sections = [getattr(self, name).strip() for name in TEMPLATE_NAMES]
        return "\n\n".join(sections) + "\n"


def _load_template(name: str, template_dir: Optional[Path]) -> string.Template:
    """A user ``template_dir`` is read on every call, so edits to it show up."""
    if template_dir is not None:
        path = Path(template_dir) / f"{name}.txt"
        if not path.is_file():
            raise PipelineError(f"missing template file: {path}")
        return string.Template(path.read_text(encoding="utf-8"))
    return _package_template(name)


@functools.cache
def _package_template(name: str) -> string.Template:
    """A template shipped with the package, read once per process."""
    ref = resources.files("joinscaffold").joinpath(f"templates/{name}.txt")
    try:
        return string.Template(ref.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise PipelineError(f"missing template file: {name}.txt") from exc


def _schema_excerpt(schema: Schema, tables: Sequence[str]) -> str:
    lines = []
    in_scope = set(tables)
    for name in tables:
        t = schema.table(name)
        cols = ", ".join(f"{c.name} {c.declared_type}" for c in t.columns)
        lines.append(f"{t.name}({cols})")
    for fk in schema.foreign_keys:
        if fk.from_table in in_scope and fk.to_table in in_scope:
            lines.append(
                f"FK {fk.from_table}.{fk.from_column} -> {fk.to_table}.{fk.to_column}"
            )
    return "\n".join(lines)


def _plan_section(scaffold: SteinerScaffold) -> str:
    lines = [f"tables: {', '.join(scaffold.vertices)}"]
    if scaffold.steiner_vertices:
        lines.append(f"bridge tables: {', '.join(scaffold.steiner_vertices)}")
    for a, b, cost in scaffold.edges:
        lines.append(f"join {a} -- {b} (cost {cost})")
    if not scaffold.edges:
        lines.append("single-table query, no joins required")
    return "\n".join(lines)


def build_prompt(
    scaffold: SteinerScaffold,
    schema: Schema,
    question: str,
    config: PipelineConfig = PipelineConfig(),
    must_include: Sequence[str] = (),
    extra_requirements: Sequence[str] = (),
) -> PromptBundle:
    """Deterministic five-section prompt assembly from template files."""
    if not question or not question.strip():
        raise ValueError("question must be non-empty")
    templates = {name: _load_template(name, config.template_dir) for name in TEMPLATE_NAMES}
    extra_lines = [f"- The table {t!r} is required; include it." for t in must_include]
    extra_lines += [f"- {req}" for req in extra_requirements]
    return PromptBundle(
        role_play=templates["role_play"].substitute(),
        critical_requirements=templates["critical_requirements"].substitute(
            extra_requirements="\n".join(extra_lines)
        ),
        build_relation=templates["build_relation"].substitute(
            schema_excerpt=_schema_excerpt(schema, scaffold.vertices)
        ),
        optimal_query_plan=templates["optimal_query_plan"].substitute(
            plan=_plan_section(scaffold)
        ),
        behavioral_guidelines=templates["behavioral_guidelines"].substitute(),
    )


# ---------------------------------------------------------------------------
# Re-planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReplanUpdate:
    """The plan one iteration runs with; re-planning returns the next one."""

    terminals: TerminalSet
    must_include: tuple[str, ...] = ()
    excluded_edges: tuple[tuple[str, str], ...] = ()
    extra_requirements: tuple[str, ...] = ()


def update_terminals(plan: ReplanUpdate, report: ValidationReport) -> ReplanUpdate:
    """The next plan: ``plan`` with the level-2/3 violations of ``report`` added.

    Each rule reads the tables a violation names (``Violation.tables``),
    never its display ``subject``. Entries already in the plan are kept
    once, in the order they first appeared.
    """
    if report.level2 is not False and report.level3 is not False:
        raise ValueError("update_terminals called on a passing report")
    terminals = plan.terminals
    must_include = list(plan.must_include)
    excluded = list(plan.excluded_edges)
    extra = list(plan.extra_requirements)
    for v in report.violations:
        if v.code == "MISSING_TERMINAL":
            must_include += v.tables
        elif v.code == "UNMAPPED_ATTRIBUTE":
            terminals = terminals.union(v.tables, REASON_DIRECT)
        elif v.code == "IRRELEVANT_JOIN":
            excluded.append(edge_key(*v.tables))
        elif v.code in ("AGG_MISMATCH", "CONSTRAINT_MISMATCH", "GROUPBY_RULE"):
            extra.append(v.message)
    return ReplanUpdate(
        terminals=terminals,
        must_include=tuple(dict.fromkeys(must_include)),
        excluded_edges=tuple(dict.fromkeys(excluded)),
        extra_requirements=tuple(dict.fromkeys(extra)),
    )


# ---------------------------------------------------------------------------
# The loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IterationTrace:
    iteration: int
    terminals: TerminalSet
    scaffold: SteinerScaffold
    sql: str
    report: ValidationReport
    excluded_edges: tuple[tuple[str, str], ...] = ()
    must_include: tuple[str, ...] = ()


@dataclass(frozen=True)
class PipelineResult:
    outcome: str  # sql | syntax_error | max_iterations
    sql: Optional[str]
    question: str
    iterations_used: int
    trace: tuple[IterationTrace, ...]
    decomposition: DecompositionResult


def run_pipeline(
    question: str,
    schema: Schema,
    db_path: Union[str, Path, None],
    config: PipelineConfig,
    client: GeneratorClient,
    stats: Optional[StatsProfile] = None,
    provider: Optional[EmbeddingProvider] = None,
) -> PipelineResult:
    """Decompose, take the schema's graph, then run the bounded re-planning loop."""
    if db_path is None:
        raise PipelineError("a database path is required for validation")
    provider = provider or default_provider()
    decomposition = decompose_question(question, schema, config.weights, provider)
    if not len(decomposition.terminals):
        raise PipelineError(
            "no terminal tables identified for this question; nothing to plan"
        )
    if stats is None and config.profile_stats:
        pairs = candidate_join_pairs(schema, config.weights, provider)
        stats = profile_statistics(schema, db_path, config.sample_limit, pairs)
    graph = build_schema_graph(schema, stats, config.weights, provider)

    plan = ReplanUpdate(decomposition.terminals)
    trace: list[IterationTrace] = []
    outcome, final_sql = "max_iterations", None
    for iteration in range(1, config.max_iterations + 1):
        scaffold = solve_steiner(graph.without(plan.excluded_edges), plan.terminals.tables)
        prompt = build_prompt(
            scaffold, schema, question, config, plan.must_include, plan.extra_requirements
        )
        sql = client.generate(prompt.text(), question)
        report = validate_all(
            sql,
            db_path,
            plan.terminals,
            scaffold,
            decomposition.entities,
            schema,
            config.weights,
            provider,
        )
        trace.append(
            IterationTrace(
                iteration=iteration,
                terminals=plan.terminals,
                scaffold=scaffold,
                sql=sql,
                report=report,
                excluded_edges=plan.excluded_edges,
                must_include=plan.must_include,
            )
        )
        if report.level1 is False:
            outcome = "syntax_error"
            break
        if report.ok:
            outcome, final_sql = "sql", sql
            break
        plan = update_terminals(plan, report)

    return PipelineResult(
        outcome=outcome,
        sql=final_sql,
        question=question,
        iterations_used=len(trace),
        trace=tuple(trace),
        decomposition=decomposition,
    )


def pipeline_document(result: PipelineResult) -> str:
    """Canonical JSON trace of a pipeline run."""
    import json

    doc = {
        "outcome": result.outcome,
        "sql": result.sql,
        "question": result.question,
        "iterations_used": result.iterations_used,
        "iterations": [
            {
                "iteration": t.iteration,
                "terminals": [
                    {"table": name, "reason": reason}
                    for name, reason in t.terminals.entries
                ],
                "scaffold": json.loads(scaffold_document(t.scaffold)),
                "sql": t.sql,
                "report": {
                    k: v for k, v in t.report.document_fields().items() if k != "row_count"
                },
                "excluded_edges": [list(e) for e in t.excluded_edges],
                "must_include": list(t.must_include),
            }
            for t in result.trace
        ],
    }
    return canonical_json(doc)
