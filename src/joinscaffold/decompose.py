"""Question decomposition: mathematical entities, dependencies, terminal tables.

The extractor is rule-based over a versioned keyword lexicon (lexicon.json):
aggregation and arithmetic keywords, comparison phrasings, null checks,
numeric/date ranges, grouping cues, and temporal cues. It is deterministic —
the same question always yields the same entity list. An LLM-backed extractor
can implement the same contract, but the rule-based one is the default and the
only one the tests rely on.

Terminal identification walks the extracted entities in three steps: direct
attribute references, join-path completion over the FK-only graph, and
constraint propagation (constraint-bearing entities bind the tables owning
their matched columns; date literals with no matched target bind tables owning
date/timestamp columns).

A question phrase names a column through :func:`matching_names`: the columns
whose name equals the phrase once both are lower-cased and stripped of every
character that is not a letter or digit, or, when none does, every column whose
name similarity to the phrase reaches the admission threshold ``tau`` (the
phrase has no type, so the type term counts as a match). Validation and
re-planning ask the same question through the same function. Each name is
normalised once per process: the key is memoised, in a bounded memo because
phrases come from user questions.
"""

from __future__ import annotations

import datetime as _dt
import functools
import json
import re
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Optional, Sequence

from .canonical import canonical_json
from .costs import CostWeights, DEFAULT_WEIGHTS
from .embedding import WORD_BREAK, EmbeddingProvider, cosine01, default_provider, vector_norm
from .schema import Schema

ENTITY_KINDS = ("aggregation", "comparison", "range", "grouping", "temporal", "arithmetic")

REASON_DIRECT = "direct-reference"
REASON_JOIN_PATH = "join-path"
REASON_CONSTRAINT = "constraint"


def _load_lexicon() -> dict:
    with resources.files("joinscaffold").joinpath("lexicon.json").open("rb") as fh:
        return json.load(fh)


_LEXICON = _load_lexicon()


@dataclass(frozen=True)
class MathEntity:
    kind: str
    operation: str
    target_attributes: tuple[str, ...] = ()
    literals: tuple = ()
    source_span: tuple[int, int] = (0, 0)

    def __post_init__(self) -> None:
        if self.kind not in ENTITY_KINDS:
            raise ValueError(f"unknown entity kind {self.kind!r}")
        if any(not t.strip() for t in self.target_attributes):
            raise ValueError("target attributes must not be blank")


@dataclass(frozen=True)
class TerminalSet:
    """Ordered set of terminal tables, one reason tag per table."""

    entries: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        names = [t for t, _r in self.entries]
        if len(set(names)) != len(names):
            raise ValueError("duplicate terminal table")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, str]]) -> "TerminalSet":
        seen: dict[str, str] = {}
        for table, reason in pairs:
            seen.setdefault(table, reason)  # first reason wins
        return cls(tuple(sorted(seen.items())))

    @property
    def tables(self) -> tuple[str, ...]:
        return tuple(t for t, _r in self.entries)

    def reason_of(self, table: str) -> str:
        for t, r in self.entries:
            if t == table:
                return r
        raise KeyError(table)

    def union(self, tables: Iterable[str], reason: str) -> "TerminalSet":
        return TerminalSet.from_pairs(list(self.entries) + [(t, reason) for t in tables])

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, table: str) -> bool:
        return any(t == table for t, _r in self.entries)


@dataclass(frozen=True)
class DependencyGraph:
    """Entities and tables as nodes; typed edges record why tables are needed."""

    entity_ids: tuple[str, ...]
    tables: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]  # (kind, source, target)


# --------------------------------------------------------------------------
# Entity extraction
# --------------------------------------------------------------------------

_NUMBER = r"-?\d+(?:\.\d+)?"
_QUOTED = r"'[^']*'|\"[^\"]*\""


def _parse_number(text: str):
    return float(text) if "." in text else int(text)


def _parse_literal(text: str):
    text = text.strip()
    if re.fullmatch(_NUMBER, text):
        return _parse_number(text)
    if re.fullmatch(_QUOTED, text):
        return text[1:-1]
    return text


def _parse_date_phrase(text: str, year: Optional[int]) -> Optional[_dt.date]:
    text = text.strip().strip(",")
    m = re.fullmatch(r"(\d{4})-(\d{2})-(\d{2})", text)
    if m:
        return _dt.date(int(m.group(1)), int(m.group(2)), int(m.group(3)))
    m = re.fullmatch(r"(\d{4})(\d{2})(\d{2})", text)
    if m:
        return _dt.date(int(m.group(1)), int(m.group(2)), int(m.group(3)))
    m = re.fullmatch(
        r"([A-Za-z]+)\s+(\d{1,2})(?:\s*,?\s*(\d{4}))?", text
    )
    if m:
        month = _LEXICON["months"].get(m.group(1).lower())
        if month is None:
            return None
        y = int(m.group(3)) if m.group(3) else year
        if y is None:
            return None
        try:
            return _dt.date(y, month, int(m.group(2)))
        except ValueError:
            return None
    return None


def _trim_target(raw: str) -> str:
    stop = set(_LEXICON["target_stopwords"])
    words = []
    for w in raw.strip().split():
        lw = w.lower().strip(",.;:()'\"")
        if lw in stop:
            break
        if lw:
            words.append(w.strip(",.;:()'\""))
    return " ".join(words)


def _clean_subject(raw: str) -> str:
    # "the status of a data collector" -> attribute part before "of"
    part = re.split(r"\s+of\s+", raw, maxsplit=1)[0]
    determiners = set(_LEXICON["determiners"])
    words = part.strip().split()
    while words and words[0].lower() in determiners:
        words.pop(0)
    return " ".join(words)


class _SpanLedger:
    """Tracks claimed character ranges so later passes skip consumed text."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int]] = []

    def overlaps(self, start: int, end: int) -> bool:
        return any(s < end and start < e for s, e in self.spans)

    def claim(self, start: int, end: int) -> None:
        self.spans.append((start, end))


def extract_entities(question: str) -> list[MathEntity]:
    """Rule-based extraction of mathematical entities from a question."""
    if not question or not question.strip():
        raise ValueError("question must be non-empty")
    q = question
    ledger = _SpanLedger()
    entities: list[MathEntity] = []

    # Ranges: "between X and Y [of YEAR]" over dates or numbers.
    for m in re.finditer(
        r"\bbetween\s+(.+?)\s+and\s+(.+?)(?=\s*[,.;:()]|$)", q, re.IGNORECASE
    ):
        lo_text, hi_text = m.group(1), m.group(2)
        year = None
        ym = re.search(r"\bof\s+(\d{4})\s*$", hi_text)
        if ym:
            year = int(ym.group(1))
            hi_text = hi_text[: ym.start()].strip()
        lo_d, hi_d = _parse_date_phrase(lo_text, year), _parse_date_phrase(hi_text, year)
        if lo_d and hi_d:
            entities.append(
                MathEntity("temporal", "BETWEEN", (), (lo_d, hi_d), m.span())
            )
            ledger.claim(*m.span())
            continue
        if re.fullmatch(_NUMBER, lo_text.strip()) and re.fullmatch(_NUMBER, hi_text.strip()):
            entities.append(
                MathEntity(
                    "range",
                    "BETWEEN",
                    (),
                    (_parse_number(lo_text.strip()), _parse_number(hi_text.strip())),
                    m.span(),
                )
            )
            ledger.claim(*m.span())

    # Null checks, NOT NULL first so the plain-null pass cannot shadow it.
    for m in re.finditer(r"([A-Za-z_]\w*)\s+(?:is\s+)?not\s+null\b", q, re.IGNORECASE):
        if ledger.overlaps(*m.span()):
            continue
        entities.append(MathEntity("comparison", "IS NOT NULL", (m.group(1),), (), m.span()))
        ledger.claim(*m.span())
    for m in re.finditer(r"([A-Za-z_]\w*)\s+(?:is\s+)?null\b", q, re.IGNORECASE):
        if ledger.overlaps(*m.span()):
            continue
        entities.append(MathEntity("comparison", "IS NULL", (m.group(1),), (), m.span()))
        ledger.claim(*m.span())

    # Symbolic comparisons: "attr >= literal" (attr optionally dot-qualified).
    for m in re.finditer(
        rf"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)?)\s*(>=|<=|!=|<>|=|>|<)\s*({_NUMBER}|{_QUOTED})",
        q,
    ):
        if ledger.overlaps(*m.span()):
            continue
        attr = m.group(1).rsplit(".", 1)[-1]
        op = "!=" if m.group(2) == "<>" else m.group(2)
        entities.append(
            MathEntity("comparison", op, (attr,), (_parse_literal(m.group(3)),), m.span())
        )
        ledger.claim(*m.span())

    # Worded comparisons: "attr is/shows/equals literal".
    verbs = "|".join(_LEXICON["comparison_verbs"])
    for m in re.finditer(
        rf"\b((?:[A-Za-z_]\w*\s+){{0,5}}[A-Za-z_]\w*)\s+(?:{verbs})\s+({_NUMBER}|{_QUOTED})",
        q,
        re.IGNORECASE,
    ):
        if ledger.overlaps(*m.span()):
            continue
        attr = _clean_subject(m.group(1))
        if not attr:
            continue
        entities.append(
            MathEntity("comparison", "=", (attr,), (_parse_literal(m.group(2)),), m.span())
        )
        ledger.claim(*m.span())

    # "attr of NUMBER" ("a temperature of -10").
    for m in re.finditer(
        rf"\b((?:[A-Za-z_]\w*\s+){{0,2}}[A-Za-z_]\w*)\s+of\s+({_NUMBER})", q, re.IGNORECASE
    ):
        if ledger.overlaps(*m.span()):
            continue
        attr = _clean_subject(m.group(1))
        if not attr:
            continue
        entities.append(
            MathEntity("comparison", "=", (attr,), (_parse_number(m.group(2)),), m.span())
        )
        ledger.claim(*m.span())

    # Inverted worded comparators: "at least 5 orders".
    worded = sorted(_LEXICON["worded_comparators"], key=len, reverse=True)
    for m in re.finditer(
        rf"\b({'|'.join(worded)})\s+({_NUMBER})\s+([A-Za-z_]\w*)", q, re.IGNORECASE
    ):
        if ledger.overlaps(*m.span()):
            continue
        op = _LEXICON["worded_comparators"][m.group(1).lower()]
        entities.append(
            MathEntity(
                "comparison", op, (m.group(3),), (_parse_number(m.group(2)),), m.span()
            )
        )
        ledger.claim(*m.span())

    # Aggregations.
    agg_keys = sorted(_LEXICON["aggregations"], key=len, reverse=True)
    agg_pattern = "|".join(re.escape(k) for k in agg_keys)
    for m in re.finditer(
        rf"\b({agg_pattern})\b\s+(?:(?:of|the|all|distinct)\s+)*((?:[A-Za-z_']\w*)(?:\s+[A-Za-z_']\w*){{0,2}})",
        q,
        re.IGNORECASE,
    ):
        target = _trim_target(m.group(2))
        op = _LEXICON["aggregations"][m.group(1).lower()]
        entities.append(
            MathEntity("aggregation", op, (target,) if target else (), (), m.span())
        )

    # Arithmetic operations.
    arith_keys = sorted(_LEXICON["arithmetic"], key=len, reverse=True)
    arith_pattern = "|".join(re.escape(k) for k in arith_keys)
    for m in re.finditer(
        rf"\b({arith_pattern})\b(?:\s+(?:of|the|between)\s*)*((?:[A-Za-z_]\w*)(?:\s+[A-Za-z_]\w*){{0,2}})?",
        q,
        re.IGNORECASE,
    ):
        target = _trim_target(m.group(2)) if m.group(2) else ""
        op = _LEXICON["arithmetic"][m.group(1).lower()]
        entities.append(
            MathEntity("arithmetic", op, (target,) if target else (), (), m.span())
        )

    # Grouping cues.
    for m in re.finditer(
        r"\b(?:for|by)\s+each\s+((?:[A-Za-z_]\w*)(?:\s+[A-Za-z_]\w*)?)", q, re.IGNORECASE
    ):
        target = _trim_target(m.group(1))
        if target:
            entities.append(MathEntity("grouping", "GROUP", (target,), (), m.span()))
    for m in re.finditer(r"\bper\s+([A-Za-z_]\w*)", q, re.IGNORECASE):
        entities.append(MathEntity("grouping", "GROUP", (m.group(1),), (), m.span()))
    units = "|".join(_LEXICON["grouping_temporal_units"])
    for m in re.finditer(rf"\b(?:group(?:ed)?\s+)?by\s+({units})\b", q, re.IGNORECASE):
        entities.append(MathEntity("grouping", "GROUP", (m.group(1).lower(),), (), m.span()))

    # Temporal ordering cues.
    for m in re.finditer(
        r"\b(last|latest|most recent|first|earliest)\s+((?:[A-Za-z_]\w*)(?:\s+[A-Za-z_]\w*){0,2})",
        q,
        re.IGNORECASE,
    ):
        if ledger.overlaps(*m.span()):
            continue
        op = "LAST" if m.group(1).lower() in ("last", "latest", "most recent") else "FIRST"
        target = _trim_target(m.group(2))
        entities.append(
            MathEntity("temporal", op, (target,) if target else (), (), m.span())
        )

    entities.sort(key=lambda e: (e.source_span, e.kind, e.operation))
    # Drop exact duplicates from overlapping passes.
    unique: list[MathEntity] = []
    seen = set()
    for e in entities:
        key = (e.kind, e.operation, e.target_attributes, tuple(map(str, e.literals)))
        if key not in seen:
            seen.add(key)
            unique.append(e)
    return unique


# --------------------------------------------------------------------------
# Attribute-to-table matching
# --------------------------------------------------------------------------


# Bounded, as phrases come from user questions; room for a wide schema's
# column names plus a batch of questions' phrases.
@functools.lru_cache(maxsize=1 << 16)
def _name_key(text: str) -> str:
    return WORD_BREAK.sub("", text.lower())


def matching_names(
    phrase: str,
    names: Sequence[str],
    weights: CostWeights = DEFAULT_WEIGHTS,
    provider: Optional[EmbeddingProvider] = None,
) -> list[str]:
    """The names, in their given order, that a question phrase refers to.

    Names equal to the phrase under ``_name_key`` (when the phrase's key is not
    empty) decide alone. Failing those, every name whose column similarity
    to the phrase reaches ``tau`` matches; the phrase carries no type
    information, so the type term of that similarity counts as a match.
    An exact match hides the names reached only by similarity; a caller that
    asks of each name on its own passes it as a one-name list.
    """
    key = _name_key(phrase)
    if key:
        exact = [n for n in names if _name_key(n) == key]
        if exact:
            return exact
    if not names:
        return []
    provider = provider or default_provider()
    vec = provider.embed(phrase)
    norm = vector_norm(vec)
    matched = []
    for name in names:
        other = provider.embed(name)
        cos = cosine01(vec, other, norm, vector_norm(other))
        if weights.sim_alpha * cos + (1.0 - weights.sim_alpha) >= weights.tau:
            matched.append(name)
    return matched


@dataclass(frozen=True)
class AttributeMatches:
    matches: dict[str, tuple[tuple[str, str], ...]]  # phrase -> ((table, column), ...)
    tables: tuple[str, ...]
    unmatched: tuple[str, ...]


def find_containing_tables(
    attributes: Sequence[str],
    schema: Schema,
    weights: CostWeights = DEFAULT_WEIGHTS,
    provider: Optional[EmbeddingProvider] = None,
) -> AttributeMatches:
    """Owning tables for each attribute phrase; unmatched phrases are reported."""
    owners = schema.column_owners
    names = list(owners)
    matches: dict[str, tuple[tuple[str, str], ...]] = {}
    tables: set[str] = set()
    unmatched: list[str] = []
    for phrase in attributes:
        if not phrase.strip():
            continue
        found = tuple(sorted(
            pair for name in matching_names(phrase, names, weights, provider)
            for pair in owners[name]
        ))
        if found:
            matches[phrase] = found
            tables.update(t for t, _c in found)
        elif phrase not in unmatched:
            unmatched.append(phrase)
    return AttributeMatches(matches, tuple(sorted(tables)), tuple(unmatched))


# --------------------------------------------------------------------------
# Dependency analysis
# --------------------------------------------------------------------------


def _fk_shortest_path(schema: Schema, start: str, goal: str) -> Optional[list[str]]:
    """BFS shortest path over FK links; sorted neighbours keep it deterministic."""
    if start == goal:
        return [start]
    from collections import deque

    parent = {start: None}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for n in schema.fk_neighbors[v]:
            if n not in parent:
                parent[n] = v
                if n == goal:
                    path = [n]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    return list(reversed(path))
                queue.append(n)
    return None


_STEP1_KINDS = {"aggregation", "grouping", "arithmetic"}
_CONSTRAINT_KINDS = {"comparison", "range", "temporal"}


@dataclass(frozen=True)
class DecompositionResult:
    entities: tuple[MathEntity, ...]
    graph: DependencyGraph
    terminals: TerminalSet
    unmatched: tuple[str, ...]
    warnings: tuple[str, ...]


def analyze_dependencies(
    question: str,
    entities: Sequence[MathEntity],
    schema: Schema,
    weights: CostWeights = DEFAULT_WEIGHTS,
    provider: Optional[EmbeddingProvider] = None,
) -> DecompositionResult:
    """Three-step dependency analysis producing the terminal table set.

    Step 1 binds direct attribute references; step 2 inserts intermediate
    tables on FK join paths between terminals an entity spans (or a grouping
    key vs. an aggregation target); step 3 binds constraint entities, with
    date literals falling back to date/timestamp-typed columns.
    """
    provider = provider or default_provider()

    entity_ids = tuple(f"e{i}" for i in range(len(entities)))
    edges: list[tuple[str, str, str]] = []
    pairs: list[tuple[str, str]] = []  # (table, reason) in discovery order
    entity_tables: dict[str, set[str]] = {eid: set() for eid in entity_ids}
    unmatched: list[str] = []

    def bind(eid: str, entity: MathEntity, reason: str, edge_kind: str) -> None:
        found = find_containing_tables(entity.target_attributes, schema, weights, provider)
        for phrase in found.unmatched:
            if phrase not in unmatched:
                unmatched.append(phrase)
        for table in found.tables:
            pairs.append((table, reason))
            entity_tables[eid].add(table)
            edges.append((edge_kind, eid, table))

    # Step 1: data-flow analysis for direct references.
    for eid, entity in zip(entity_ids, entities):
        if entity.kind in _STEP1_KINDS:
            bind(eid, entity, REASON_DIRECT, "attribute-flow")

    # The order is step 1, step 2, step 3, then step 2 again over the tables
    # step 3 bound.
    def join_requirements() -> None:
        required: set[tuple[str, str]] = set()
        for eid in entity_ids:
            tbls = sorted(entity_tables[eid])
            for i, a in enumerate(tbls):
                for b in tbls[i + 1 :]:
                    required.add((a, b))
        group_tables = set()
        agg_tables = set()
        for eid, entity in zip(entity_ids, entities):
            if entity.kind == "grouping":
                group_tables |= entity_tables[eid]
            elif entity.kind == "aggregation":
                agg_tables |= entity_tables[eid]
        for a in sorted(group_tables):
            for b in sorted(agg_tables):
                if a != b:
                    required.add((min(a, b), max(a, b)))
        for a, b in sorted(required):
            path = _fk_shortest_path(schema, a, b)
            if path is None:
                continue
            for t in path[1:-1]:
                pairs.append((t, REASON_JOIN_PATH))
            for u, v in zip(path, path[1:]):
                edge = ("join-dependency", u, v)
                if edge not in edges:
                    edges.append(edge)

    # Step 2: join requirements over step-1 tables.
    join_requirements()

    # Step 3: constraint propagation.
    date_types = {"date", "timestamp"}
    for eid, entity in zip(entity_ids, entities):
        if entity.kind not in _CONSTRAINT_KINDS:
            continue
        bind(eid, entity, REASON_CONSTRAINT, "constraint")
        has_date_literal = any(isinstance(lit, _dt.date) for lit in entity.literals)
        if has_date_literal and not entity_tables[eid]:
            for t in schema.tables:
                if any(c.declared_type in date_types for c in t.columns):
                    pairs.append((t.name, REASON_CONSTRAINT))
                    entity_tables[eid].add(t.name)
                    edges.append(("constraint", eid, t.name))

    # Join requirements may involve constraint tables too.
    join_requirements()

    terminals = TerminalSet.from_pairs(pairs)
    warnings = []
    if entities and not terminals.entries:
        warnings.append("no terminal tables identified for a math-bearing question")

    dep_graph = DependencyGraph(
        entity_ids=entity_ids,
        tables=terminals.tables,
        edges=tuple(dict.fromkeys(edges)),
    )
    return DecompositionResult(
        entities=tuple(entities),
        graph=dep_graph,
        terminals=terminals,
        unmatched=tuple(unmatched),
        warnings=tuple(warnings),
    )


def decompose_question(
    question: str,
    schema: Schema,
    weights: CostWeights = DEFAULT_WEIGHTS,
    provider: Optional[EmbeddingProvider] = None,
) -> DecompositionResult:
    """Extraction plus dependency analysis in one call."""
    entities = extract_entities(question)
    return analyze_dependencies(question, entities, schema, weights, provider)


_LLM_EXTRACTION_PROMPT = """\
Extract the mathematical entities from the user's question. Reply with a JSON
array only. Each element: {"kind": one of aggregation|comparison|range|
grouping|temporal|arithmetic, "operation": string (e.g. SUM, AVG, >=,
IS NOT NULL, BETWEEN, GROUP), "targets": [attribute phrases],
"literals": [numbers or strings]}.
"""


def extract_entities_llm(question: str, client) -> list[MathEntity]:
    """Alternative extractor backed by a generator client; off by default.

    The client's reply must be a JSON array of entity records; every record is
    validated against the entity schema before use, and any malformed reply
    raises ValueError rather than passing unchecked output downstream.
    """
    if not question or not question.strip():
        raise ValueError("question must be non-empty")
    raw = client.generate(_LLM_EXTRACTION_PROMPT, question)
    try:
        records = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"extractor reply is not valid JSON: {exc}") from exc
    if not isinstance(records, list):
        raise ValueError("extractor reply must be a JSON array")
    entities = []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ValueError(f"entity {i} is not an object")
        try:
            kind = rec["kind"]
            operation = rec["operation"]
        except KeyError as exc:
            raise ValueError(f"entity {i} missing field {exc}") from exc
        targets = rec.get("targets", [])
        literals = rec.get("literals", [])
        if not isinstance(targets, list) or not all(isinstance(t, str) for t in targets):
            raise ValueError(f"entity {i} has malformed targets")
        if not isinstance(literals, list) or not all(
            isinstance(v, (int, float, str)) for v in literals
        ):
            raise ValueError(f"entity {i} has malformed literals")
        entities.append(
            MathEntity(kind, str(operation), tuple(targets), tuple(literals), (0, 0))
        )
    return entities


def _literal_doc(value) -> dict:
    if isinstance(value, bool):
        return {"type": "bool", "value": value}
    if isinstance(value, int):
        return {"type": "int", "value": value}
    if isinstance(value, float):
        return {"type": "float", "value": value}
    if isinstance(value, _dt.date):
        return {"type": "date", "value": value.isoformat()}
    return {"type": "str", "value": str(value)}


def decomposition_document(result: DecompositionResult) -> str:
    """Canonical JSON for the entity/terminal output."""
    doc = {
        "entities": [
            {
                "kind": e.kind,
                "operation": e.operation,
                "targets": list(e.target_attributes),
                "literals": [_literal_doc(v) for v in e.literals],
                "span": list(e.source_span),
            }
            for e in result.entities
        ],
        "terminals": [
            {"table": t, "reason": r} for t, r in result.terminals.entries
        ],
        "unmatched": list(result.unmatched),
        "warnings": list(result.warnings),
    }
    return canonical_json(doc)
