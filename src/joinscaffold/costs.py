"""Edge costs and the weighted schema graph.

Every pair of tables gets an edge iff a foreign key links them or their best
column-pair similarity reaches the admission threshold ``tau``. Each admitted
edge carries three [0, 1] cost components blended into a total:

    total = alpha * connect + beta * semantic + gamma * statistical

* connect — FK indicator, name dissimilarity of the closest column-name
  pair, and a type term that is 0 when the tables share a declared column
  type, each internal term weighted equally;
* semantic — one minus the cosine of the two tables' mean name embeddings
  (table name averaged with all column names);
* statistical — one minus join selectivity and one minus correlation
  strength, equally weighted, neutral 0.5 when unprofiled.

Column-pair similarity is ``sim_alpha * cos + (1 - sim_alpha) * type_match``
with the cosine clamped to [0, 1].

Edge admission screens before it scores. One matrix product of the unit
column-name embeddings (a row block per table) approximates every column-pair
similarity, and a table pair with no FK whose approximate best falls below
``tau - SCREEN_MARGIN`` is skipped. Every other pair is rescored exactly by
``table_similarity``, column pair by column pair; only exact values decide
admission or reach an exported cost. Pairs with a cost override are added
to the walk's pairs by the graph build. Within one
build each name is embedded and normed once, each table's mean embedding is
computed once, and the connection cost reuses the column-pair cosines its
pair's rescoring computed.

Neither the admission walk nor the graph depends on a question, so both are
memoized in one module-level slot. The walk (the name vectors and the list
of admitted pairs) is keyed by the schema and the weights (compared with
``==``) and the embedding provider (by identity); ``candidate_join_pairs``
and ``build_schema_graph`` share it, with or without cost overrides. The
slot also keeps the last graph costed from that walk, keyed further by the
statistics (``==``) and the override costs. Asking many questions of one
schema therefore walks and costs once; a different key replaces the slot.
The memoized graph is handed to every caller, so ``SchemaGraph.edges`` is a
read-only mapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional

import numpy as np

from .canonical import canonical_json
from .embedding import EmbeddingProvider, cosine01, default_provider, vector_norm
from .profiling import NEUTRAL, JoinPair, StatsProfile
from .schema import ColumnDef, Schema, TableDef

EdgeKey = tuple[str, str]


def edge_key(a: str, b: str) -> EdgeKey:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class CostWeights:
    """Blend weights plus similarity and admission parameters."""

    alpha: float = 0.4
    beta: float = 0.4
    gamma: float = 0.2
    w1: float = 1.0 / 3.0
    w2: float = 1.0 / 3.0
    w3: float = 1.0 / 3.0
    w4: float = 0.5
    w5: float = 0.5
    sim_alpha: float = 0.85
    tau: float = 0.75

    def __post_init__(self) -> None:
        weights = (
            self.alpha, self.beta, self.gamma,
            self.w1, self.w2, self.w3, self.w4, self.w5,
            self.sim_alpha, self.tau,
        )
        if any(not 0.0 <= w <= 1.0 for w in weights):
            raise ValueError("all weights must lie in [0,1]")
        if abs(self.alpha + self.beta + self.gamma - 1.0) > 1e-9:
            raise ValueError("alpha+beta+gamma must equal 1")
        if abs(self.w1 + self.w2 + self.w3 - 1.0) > 1e-9:
            raise ValueError("w1+w2+w3 must equal 1")
        if abs(self.w4 + self.w5 - 1.0) > 1e-9:
            raise ValueError("w4+w5 must equal 1")


DEFAULT_WEIGHTS = CostWeights()


@dataclass(frozen=True)
class EdgeCost:
    connect: float
    semantic: float
    statistical: float
    total: float
    has_fk: bool
    best_column_pair: tuple[str, str]

    def __post_init__(self) -> None:
        # Solver contract is non-negative weights; engine-built edges also
        # stay within [0,1] because every component is a convex combination.
        for v in (self.connect, self.semantic, self.statistical, self.total):
            if not (math.isfinite(v) and v >= -1e-12):
                raise ValueError(f"cost component {v} must be finite and non-negative")


class _NameVectors:
    """The embedding lookups of one graph build, each made once.

    Holds each name's vector and norm, each table's mean name embedding and
    its norm, and each column-name pair's clamped cosine. It has the
    ``EmbeddingProvider`` interface, so every cost function takes it as its
    provider; a function given a plain provider wraps it for that call alone.
    """

    def __init__(self, provider: EmbeddingProvider) -> None:
        self.provider = provider
        self._normed: dict[str, tuple[np.ndarray, float]] = {}
        self._tables: dict[tuple[str, ...], tuple[np.ndarray, float]] = {}
        self._cosines: dict[tuple[str, str], float] = {}

    @property
    def dimension(self) -> int:
        return self.provider.dimension

    def embed(self, text: str) -> np.ndarray:
        return self.normed(text)[0]

    def normed(self, text: str) -> tuple[np.ndarray, float]:
        found = self._normed.get(text)
        if found is None:
            vec = self.provider.embed(text)
            found = self._normed[text] = (vec, vector_norm(vec))
        return found

    def name_cosine01(self, a: str, b: str) -> float:
        cos = self._cosines.get((a, b))
        if cos is None:
            (va, na), (vb, nb) = self.normed(a), self.normed(b)
            cos = self._cosines[(a, b)] = cosine01(va, vb, na, nb)
        return cos

    def table_cosine01(self, ti: TableDef, tj: TableDef) -> float:
        (ei, ni), (ej, nj) = self._table_normed(ti), self._table_normed(tj)
        return cosine01(ei, ej, ni, nj)

    def _table_normed(self, t: TableDef) -> tuple[np.ndarray, float]:
        key = (t.name, *(c.name for c in t.columns))
        found = self._tables.get(key)
        if found is None:
            vec = table_embedding(t, self)
            found = self._tables[key] = (vec, vector_norm(vec))
        return found


def _name_vectors(provider: Optional[EmbeddingProvider]) -> _NameVectors:
    if isinstance(provider, _NameVectors):
        return provider
    return _NameVectors(provider or default_provider())


def type_match(ci: ColumnDef, cj: ColumnDef) -> float:
    return 1.0 if ci.declared_type == cj.declared_type else 0.0


def column_pair_similarity(
    ci: ColumnDef,
    cj: ColumnDef,
    weights: CostWeights = DEFAULT_WEIGHTS,
    provider: Optional[EmbeddingProvider] = None,
) -> float:
    cos = _name_vectors(provider).name_cosine01(ci.name, cj.name)
    return weights.sim_alpha * cos + (1.0 - weights.sim_alpha) * type_match(ci, cj)


def table_similarity(
    ti: TableDef,
    tj: TableDef,
    weights: CostWeights = DEFAULT_WEIGHTS,
    provider: Optional[EmbeddingProvider] = None,
) -> tuple[float, tuple[str, str]]:
    """Max column-pair similarity; ties go to the lexicographically first pair."""
    vectors = _name_vectors(provider)
    best = -1.0
    best_pair = ("", "")
    columns_j = sorted(tj.columns, key=lambda c: c.name)
    for ci in sorted(ti.columns, key=lambda c: c.name):
        for cj in columns_j:
            s = column_pair_similarity(ci, cj, weights, vectors)
            if s > best:
                best = s
                best_pair = (ci.name, cj.name)
    return best, best_pair


def connection_cost(
    ti: TableDef,
    tj: TableDef,
    schema: Schema,
    weights: CostWeights = DEFAULT_WEIGHTS,
    provider: Optional[EmbeddingProvider] = None,
) -> float:
    """FK indicator, max column-name cosine and shared declared type, blended."""
    vectors = _name_vectors(provider)
    not_fk = 0.0 if schema.has_fk(ti.name, tj.name) else 1.0
    sim_name = max(
        vectors.name_cosine01(ci.name, cj.name) for ci in ti.columns for cj in tj.columns
    )
    shared_type = {c.declared_type for c in ti.columns} & {c.declared_type for c in tj.columns}
    sim_type = 1.0 if shared_type else 0.0
    return weights.w1 * not_fk + weights.w2 * (1.0 - sim_name) + weights.w3 * (1.0 - sim_type)


def table_embedding(t: TableDef, provider: Optional[EmbeddingProvider] = None) -> np.ndarray:
    """Mean of the table-name embedding and every column-name embedding."""
    provider = provider or default_provider()
    vectors = [provider.embed(t.name)] + [provider.embed(c.name) for c in t.columns]
    return np.mean(np.stack(vectors), axis=0)


def semantic_cost(
    ti: TableDef,
    tj: TableDef,
    provider: Optional[EmbeddingProvider] = None,
) -> float:
    return 1.0 - _name_vectors(provider).table_cosine01(ti, tj)


def statistical_cost(
    ti: TableDef,
    tj: TableDef,
    stats: Optional[StatsProfile],
    weights: CostWeights = DEFAULT_WEIGHTS,
) -> float:
    pair = stats.table_pair_stats(ti.name, tj.name) if stats is not None else None
    sel = pair.selectivity if pair is not None else NEUTRAL
    corr = pair.correlation if pair is not None else NEUTRAL
    return weights.w4 * (1.0 - sel) + weights.w5 * (1.0 - corr)


@dataclass(frozen=True)
class SchemaGraph:
    """Weighted undirected graph over table names. No self-loops, no parallels.

    ``edges`` is stored as a read-only view of a private copy, so one graph
    can be shared by every caller that asks for it.
    """

    vertices: tuple[str, ...]
    edges: Mapping[EdgeKey, EdgeCost]
    _adjacency: dict[str, tuple[str, ...]] = field(
        default_factory=dict, repr=False, compare=False
    )
    _weighted_adjacency: dict[str, tuple[tuple[str, float], ...]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", MappingProxyType(dict(self.edges)))
        vset = set(self.vertices)
        adj: dict[str, list[tuple[str, float]]] = {v: [] for v in self.vertices}
        for (a, b), cost in self.edges.items():
            if a == b:
                raise ValueError(f"self-loop on {a!r}")
            if (a, b) != edge_key(a, b):
                raise ValueError(f"edge key {(a, b)} not in canonical order")
            if a not in vset or b not in vset:
                raise ValueError(f"edge {(a, b)} references unknown vertex")
            if not math.isfinite(cost.total) or cost.total < 0.0:
                raise ValueError(f"edge {(a, b)} has invalid weight {cost.total}")
            adj[a].append((b, cost.total))
            adj[b].append((a, cost.total))
        weighted = {v: tuple(sorted(ns, key=itemgetter(0))) for v, ns in adj.items()}
        object.__setattr__(self, "_weighted_adjacency", weighted)
        object.__setattr__(
            self, "_adjacency", {v: tuple(n for n, _w in ns) for v, ns in weighted.items()}
        )

    @classmethod
    def from_weights(
        cls, vertices: Iterable[str], weights: Mapping[tuple[str, str], float]
    ) -> "SchemaGraph":
        """Build a synthetic graph where every component equals the edge weight."""
        edges = {}
        for (a, b), w in weights.items():
            edges[edge_key(a, b)] = EdgeCost(
                connect=w, semantic=w, statistical=w, total=w,
                has_fk=False, best_column_pair=("", ""),
            )
        return cls(tuple(sorted(set(vertices))), edges)

    def has_edge(self, a: str, b: str) -> bool:
        return edge_key(a, b) in self.edges

    def edge(self, a: str, b: str) -> EdgeCost:
        return self.edges[edge_key(a, b)]

    def weight(self, a: str, b: str) -> float:
        return self.edges[edge_key(a, b)].total

    def neighbors(self, v: str) -> tuple[str, ...]:
        return self._adjacency[v]

    def weighted_neighbors(self, v: str) -> tuple[tuple[str, float], ...]:
        """(neighbour, edge total) pairs in sorted neighbour order."""
        return self._weighted_adjacency[v]

    def sorted_edges(self) -> list[tuple[str, str, EdgeCost]]:
        return [(a, b, c) for (a, b), c in sorted(self.edges.items())]

    def without(self, pairs: Iterable[tuple[str, str]]) -> "SchemaGraph":
        """This graph minus the edges between the given table pairs, if present.

        Returns this graph itself when none of the pairs is an edge.
        """
        drop = {edge_key(a, b) for a, b in pairs}
        if drop.isdisjoint(self.edges):
            return self
        return SchemaGraph(
            self.vertices, {k: c for k, c in self.edges.items() if k not in drop}
        )


# How far below ``tau`` a screened similarity must fall before its table pair
# is skipped. The screen and the exact cosine each round by at most about
# d * 2**-53 for d-dimensional embeddings (under 1e-12 up to 8,000
# dimensions), so a pair within the margin is always rescored exactly.
SCREEN_MARGIN = 1e-9


def _screened_similarity(
    tables: list[TableDef], weights: CostWeights, vectors: _NameVectors
) -> np.ndarray:
    """Every table pair's best column-pair similarity, to within rounding.

    The unit rows of all column-name embeddings, multiplied by their
    transpose one table's rows at a time (so memory grows with the columns,
    not their square), give every column-pair cosine; a block maximum per
    table pair approximates what ``table_similarity`` returns. A screen
    only: none of its values is exported. A non-finite embedding makes its
    entries NaN, which no comparison with ``tau`` drops.
    """
    columns = [c for t in tables for c in t.columns]
    normed = [vectors.normed(c.name) for c in columns]
    rows = np.stack([v for v, _n in normed])
    norms = np.array([n for _v, n in normed])[:, None]
    units = np.divide(rows, norms, out=np.zeros_like(rows), where=norms > 0.0)
    kinds: dict[str, int] = {}
    codes = np.array([kinds.setdefault(c.declared_type, len(kinds)) for c in columns])
    starts = np.cumsum([0] + [len(t.columns) for t in tables])
    best = np.empty((len(tables), len(tables)))
    for i, (lo, hi) in enumerate(zip(starts[:-1], starts[1:])):
        cos = np.clip(units[lo:hi] @ units.T, 0.0, 1.0)
        same_type = codes[lo:hi, None] == codes[None, :]
        sims = weights.sim_alpha * cos + (1.0 - weights.sim_alpha) * same_type
        best[i] = np.maximum.reduceat(sims.max(axis=0), starts[:-1])
    return best


def _admitted_pairs(
    schema: Schema,
    weights: CostWeights,
    vectors: _NameVectors,
) -> Iterator[tuple[TableDef, TableDef, bool, tuple[str, str]]]:
    """The edge-admission rule, applied to table pairs in sorted order.

    A pair is admitted iff a foreign key links it or its best column-pair
    similarity reaches ``tau``. Yields both tables, the FK flag and the best
    column pair of each admitted pair.

    The similarity screen skips each pair with no FK whose screened
    similarity is below ``tau - SCREEN_MARGIN``; every other pair is
    rescored exactly by ``table_similarity``, which alone decides.
    """
    names = sorted(schema.table_names)
    if len(names) < 2:
        return
    tables = [schema.table(n) for n in names]
    screened = _screened_similarity(tables, weights, vectors)
    floor = weights.tau - SCREEN_MARGIN
    for i, (a, ti) in enumerate(zip(names, tables)):
        for j in range(i + 1, len(names)):
            b, tj = names[j], tables[j]
            has_fk = schema.has_fk(a, b)
            if not has_fk and screened[i, j] < floor:
                continue  # cannot reach tau
            s, best_pair = table_similarity(ti, tj, weights, vectors)
            if has_fk or s >= weights.tau:
                yield ti, tj, has_fk, best_pair


class _Admission:
    """One materialised admission walk and the last graph costed from it."""

    def __init__(self, schema: Schema, weights: CostWeights, provider: EmbeddingProvider) -> None:
        self.key = (schema, weights)
        self.provider = provider
        self.vectors = _NameVectors(provider)
        self.pairs = list(_admitted_pairs(schema, weights, self.vectors))
        # (statistics, override costs) -> the graph costed from ``pairs``
        self.graph: Optional[tuple[tuple, SchemaGraph]] = None


# The one memo slot: the last admission walk, with its last graph. Each call
# reads it once and replaces it whole, so concurrent callers can at worst
# repeat a walk or a build; none sees a half-made entry.
_memo: Optional[_Admission] = None


def _admission(
    schema: Schema,
    weights: CostWeights,
    provider: Optional[EmbeddingProvider],
) -> _Admission:
    """The admission walk for this key, from the memo slot when it matches.

    The key is the schema and the weights (``==``) and the provider
    (identity). A miss walks again and replaces the slot.
    """
    global _memo
    provider = provider or default_provider()
    memo = _memo
    if memo is None or memo.provider is not provider or memo.key != (schema, weights):
        memo = _memo = _Admission(schema, weights, provider)
    return memo


def candidate_join_pairs(
    schema: Schema,
    weights: CostWeights = DEFAULT_WEIGHTS,
    provider: Optional[EmbeddingProvider] = None,
) -> list[JoinPair]:
    """Join-column pairs the edge rule admits: FK columns, else best column pair."""
    ends: list[tuple[tuple[str, str], tuple[str, str]]] = []
    for ti, tj, has_fk, (ca, cb) in _admission(schema, weights, provider).pairs:
        if has_fk:
            ends += [
                ((fk.from_table, fk.from_column), (fk.to_table, fk.to_column))
                for fk in schema.fk_between(ti.name, tj.name)
            ]
        else:
            ends.append(((ti.name, ca), (tj.name, cb)))
    return list(dict.fromkeys((*min(x, y), *max(x, y)) for x, y in ends))


def build_schema_graph(
    schema: Schema,
    stats: Optional[StatsProfile] = None,
    weights: CostWeights = DEFAULT_WEIGHTS,
    provider: Optional[EmbeddingProvider] = None,
    cost_overrides: Optional[Mapping[tuple[str, str], float]] = None,
) -> SchemaGraph:
    """Assemble the weighted schema graph, or return the memoized one.

    ``cost_overrides`` maps table pairs to pinned total costs (every component
    is set to the pinned value, which keeps the blend identity intact); pairs
    listed there are always admitted. The graph depends on the schema, the
    statistics, the weights, the provider and the overrides, never on a
    question or on the re-planning loop's edge exclusions: the last graph
    built is returned again while those match (see the module docstring),
    and the loop drops excluded edges with ``SchemaGraph.without``.
    """
    overrides = {edge_key(a, b): c for (a, b), c in (cost_overrides or {}).items()}
    admission = _admission(schema, weights, provider)
    # Override costs compare by repr, so 1 and 1.0 (or 0.0 and -0.0), which
    # export differently, never share a graph.
    graph_key = (stats, {k: repr(c) for k, c in overrides.items()})
    if admission.graph is not None and admission.graph[0] == graph_key:
        return admission.graph[1]
    vectors = admission.vectors
    # Overridden pairs the walk did not admit (so no FK links them) join the
    # walk's pairs; one naming an unknown table, or a table twice, is ignored.
    pairs = list(admission.pairs)
    admitted = {(ti.name, tj.name) for ti, tj, _fk, _pair in pairs}
    for a, b in overrides.keys() - admitted:
        if a != b and schema.has_table(a) and schema.has_table(b):
            ti, tj = schema.table(a), schema.table(b)
            pairs.append((ti, tj, False, table_similarity(ti, tj, weights, vectors)[1]))
    edges: dict[EdgeKey, EdgeCost] = {}
    for ti, tj, has_fk, best_pair in sorted(pairs, key=lambda p: (p[0].name, p[1].name)):
        key = (ti.name, tj.name)
        if key in overrides:
            c = overrides[key]
            edges[key] = EdgeCost(
                connect=c, semantic=c, statistical=c, total=c,
                has_fk=has_fk, best_column_pair=best_pair,
            )
            continue
        connect = connection_cost(ti, tj, schema, weights, vectors)
        sem = semantic_cost(ti, tj, vectors)
        stat = statistical_cost(ti, tj, stats, weights)
        total = weights.alpha * connect + weights.beta * sem + weights.gamma * stat
        edges[key] = EdgeCost(
            connect=connect, semantic=sem, statistical=stat, total=total,
            has_fk=has_fk, best_column_pair=best_pair,
        )
    graph = SchemaGraph(tuple(sorted(schema.table_names)), edges)
    admission.graph = (graph_key, graph)
    return graph


def graph_document(graph: SchemaGraph) -> str:
    """Canonical, diffable JSON export of vertices and per-edge cost breakdown."""
    doc = {
        "vertices": list(graph.vertices),
        "edges": [
            {
                "a": a,
                "b": b,
                "connect": cost.connect,
                "semantic": cost.semantic,
                "statistical": cost.statistical,
                "total": cost.total,
                "has_fk": cost.has_fk,
            }
            for a, b, cost in graph.sorted_edges()
        ],
    }
    return canonical_json(doc)


def load_graph_document(text: str) -> SchemaGraph:
    """Parse a graph document back into a SchemaGraph."""
    import json

    doc = json.loads(text)
    edges = {}
    for e in doc["edges"]:
        edges[edge_key(e["a"], e["b"])] = EdgeCost(
            connect=e["connect"],
            semantic=e["semantic"],
            statistical=e["statistical"],
            total=e["total"],
            has_fk=bool(e.get("has_fk", False)),
            best_column_pair=("", ""),
        )
    return SchemaGraph(tuple(sorted(doc["vertices"])), edges)
