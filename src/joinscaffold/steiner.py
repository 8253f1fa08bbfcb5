"""Steiner-tree solving on the schema graph.

The planner follows the classic four-step 2-approximation of Kou, Markowsky
and Berman (metric closure over the terminals, MST over the terminals,
expansion back to original paths, pruning) plus an exact oracle for
verification and two simpler baseline planners for benchmarking. The closure
holds only the entries its caller reads: KMB reads the pair (a, b) from row a
for a < b, so the solve runs one Dijkstra from every terminal but the last,
and the run from terminal t_i stops once the terminals after it are settled.
The run from the first terminal waits for all of them, because the
reachability check reads its row.
The oracle enumerates Steiner-vertex subsets over one sorted, integer-scaled
edge list; when the terminals are few against the non-terminals it first
takes the optimum cost from the Dreyfus–Wagner dynamic program and enumerates
only over the vertices that lie on some optimal tree.

Determinism contract: every tie anywhere in the solve is broken the same way.
Shortest paths order by (distance, hop count, vertex sequence); MST and
pruning order candidate edges by (cost, endpoint, endpoint). Given the same
graph, outputs are byte-identical across runs and vertex insertion orders.

Scaffold totals are accumulated exactly over the decimal value of each edge
cost (rather than binary-float summation) so exported totals are stable,
order-independent, and diff-friendly.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Callable, Collection, Iterable, Mapping, Optional, Sequence

from .canonical import canonical_json
from .costs import EdgeKey, SchemaGraph, edge_key

# Shortest-path key: (distance, hops, vertex sequence). Tuple comparison
# implements the tie-break rule directly.
PathKey = tuple[float, int, tuple[str, ...]]


class SteinerError(ValueError):
    """Domain failure in the solver (bad terminals, unsolvable instance)."""


class DisconnectedTerminalsError(SteinerError):
    def __init__(self, groups: Sequence[Sequence[str]]):
        self.groups = tuple(tuple(g) for g in groups)
        rendered = " | ".join(",".join(g) for g in self.groups)
        super().__init__(f"disconnected terminals: {rendered}")


class GraphTooLargeError(SteinerError):
    pass


def exact_total(costs: Iterable[float]) -> float:
    """Sum edge costs exactly over their decimal representations.

    The decimal numerators are summed over their common denominator and
    divided once; integer true division is correctly rounded, so the result
    equals ``float`` of the exact rational sum.
    """
    ratios = [_decimal_ratio(c) for c in costs]
    denominator = math.lcm(1, *(d for _n, d in ratios))
    return sum(n * (denominator // d) for n, d in ratios) / denominator


@dataclass(frozen=True)
class MetricClosure:
    """Shortest distances plus the reconstructed path, from each source vertex.

    ``keys[source][target]`` holds the (distance, hops, path) key of every
    vertex the run from ``source`` settled. ``targets`` maps a source to the
    targets its run stopped at; a source it does not name has a full row, in
    which a missing vertex is unreachable. In a stopped row a missing target
    of that row is still unreachable (the run drained its component looking
    for it), but a query for any other vertex outside the row raises
    ``SteinerError``.
    """

    graph: SchemaGraph
    keys: dict[str, dict[str, PathKey]]
    targets: Mapping[str, frozenset[str]] = field(default_factory=dict)

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.graph.vertices

    def _key(self, u: str, v: str) -> Optional[PathKey]:
        row = self.keys.get(u)
        if row is None:
            raise SteinerError(f"metric closure has no row for source {u!r}")
        key = row.get(v)
        if key is None and u in self.targets and v not in self.targets[u]:
            raise SteinerError(
                f"metric closure row {u!r} stopped before {v!r}, which is not a target"
            )
        return key

    def reachable(self, u: str, v: str) -> bool:
        return self._key(u, v) is not None

    def distance(self, u: str, v: str) -> float:
        key = self._key(u, v)
        return key[0] if key is not None else float("inf")

    def path(self, u: str, v: str) -> Optional[tuple[str, ...]]:
        key = self._key(u, v)
        return key[2] if key is not None else None


def metric_closure(
    graph: SchemaGraph,
    sources: Optional[Iterable[str]] = None,
    targets: Optional[Iterable[str] | Mapping[str, Iterable[str]]] = None,
) -> MetricClosure:
    """Shortest-path rows from ``sources`` (every vertex when None).

    Each row is one Dijkstra run ordered by the composite (distance, hops,
    path) key, which yields, for every reachable target, the shortest
    distance, then the fewest-hop path among shortest, then the
    lexicographically smallest vertex sequence. The key only grows along a
    path (weights are non-negative, hops grow by one) and extending two
    paths by the same edge keeps their order, so a vertex's key is final when
    it leaves the heap.

    ``targets`` is one set of vertices for every row, or a mapping from every
    source to its own set. A row stops as soon as each of its targets is
    settled (a run that cannot reach one drains its component); when
    ``targets`` is None, rows are full.

    The heap holds (distance, hops, vertex) and each vertex keeps only its
    best predecessor; a path tuple is built once, when its vertex settles.
    Two candidates for a vertex with equal (distance, hops) have paths of one
    length ending in that vertex, so comparing their predecessors' settled
    paths orders them as the full key would. Vertices sharing a (distance,
    hops) cannot improve one another (a path through one of them has more
    hops), so the vertex order among such heap ties changes no settled key.
    """
    rows = graph.vertices if sources is None else sorted(set(sources))
    if targets is not None and not isinstance(targets, Mapping):
        targets = dict.fromkeys(rows, frozenset(targets))
    wanted = {} if targets is None else {s: frozenset(targets[s]) for s in rows}
    return MetricClosure(
        graph, {s: _shortest_paths_from(graph, s, wanted.get(s)) for s in rows}, wanted
    )


def _shortest_paths_from(
    graph: SchemaGraph, source: str, targets: Optional[frozenset[str]]
) -> dict[str, PathKey]:
    """One closure row: the settled keys of a Dijkstra run from ``source``.

    ``dist`` holds each vertex's best distance so far (infinite until
    reached) and ``best`` its (hops, predecessor), so the common relaxation,
    one that improves nothing, costs one dict lookup and one comparison.
    Settled neighbours are not skipped explicitly: vertices settle in
    non-decreasing (distance, hops) order and a settled vertex keeps its
    settled key, so a new candidate for it, at (distance + w, hops + 1) from
    a vertex settled no earlier, is strictly above that key and neither the
    improving branch nor the equal-key branch can fire.

    With ``targets``, ``pending`` counts those not yet settled and the run
    stops when it reaches 0 (at once for an empty set); without, it starts
    at -1 and the row is full.
    """
    push, pop = heapq.heappush, heapq.heappop
    neighbors = graph.weighted_neighbors
    settled: dict[str, PathKey] = {}
    dist = dict.fromkeys(graph.vertices, math.inf)
    dist[source] = 0.0
    best: dict[str, tuple[int, Optional[str]]] = {source: (0, None)}  # (hops, pred)
    heap: list[tuple[float, int, str]] = [(0.0, 0, source)]
    wanted = targets or ()
    pending = -1 if targets is None else len(targets)
    while heap:
        distance, hops, v = pop(heap)
        if v in settled:
            continue  # a stale entry, superseded by a smaller key
        pred = best[v][1]
        path = (v,) if pred is None else settled[pred][2] + (v,)
        settled[v] = (distance, hops, path)
        if v in wanted:
            pending -= 1
        if not pending:
            break
        h = hops + 1
        for n, w in neighbors(v):
            d = distance + w
            known = dist[n]
            if d > known:
                continue
            if d < known:
                dist[n] = d
                best[n] = (h, v)
                push(heap, (d, h, n))
            else:
                known_hops, known_pred = best[n]
                if h < known_hops:
                    best[n] = (h, v)
                    push(heap, (d, h, n))
                elif h == known_hops and path < settled[known_pred][2]:
                    best[n] = (h, v)  # the same heap entry, now through a smaller path
    return settled


class _UnionFind:
    def __init__(self, items: Iterable[str]):
        self.parent = {x: x for x in items}

    def find(self, x: str) -> str:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: str, b: str) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def _by_weight(weighted_edges: Mapping[EdgeKey, float]) -> list[EdgeKey]:
    """The edges in Kruskal's candidate order: (weight, endpoint, endpoint)."""
    return sorted(weighted_edges, key=lambda e: (weighted_edges[e], e))


def _kruskal(vertices: Collection[str], edges: Iterable[EdgeKey]) -> list[EdgeKey]:
    """Spanning-forest edges, taking ``edges`` in the given order.

    Given in ``_by_weight`` order, the result is the MST. Stops once it holds
    |V| - 1 edges, which span ``vertices``.
    """
    uf = _UnionFind(vertices)
    chosen: list[EdgeKey] = []
    spanning = len(vertices) - 1
    for a, b in edges:
        if uf.union(a, b):
            chosen.append((a, b))
            if len(chosen) == spanning:
                break
    return chosen


def _connected_groups(
    neighbors: Callable[[str], Iterable[str]], among: Sequence[str]
) -> list[list[str]]:
    """Partition ``among`` into connectivity groups, each sorted, groups sorted."""
    remaining = set(among)
    groups = []
    while remaining:
        start = min(remaining)
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for n in neighbors(v):
                if n not in seen:
                    seen.add(n)
                    stack.append(n)
        group = sorted(seen & remaining)
        remaining -= seen
        groups.append(group)
    return sorted(groups)


@dataclass(frozen=True)
class SteinerScaffold:
    """Connected acyclic subgraph spanning the terminal set."""

    terminals: tuple[str, ...]
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]
    total_cost: float = field(default=0.0)

    def __post_init__(self) -> None:
        vset = set(self.vertices)
        if not set(self.terminals) <= vset:
            raise SteinerError("scaffold does not span its terminals")
        if len(self.edges) != len(vset) - 1:
            raise SteinerError("scaffold is not a tree (|E| != |V|-1)")
        adjacency: dict[str, list[str]] = {v: [] for v in self.vertices}
        for a, b, _w in self.edges:
            adjacency[a].append(b)
            adjacency[b].append(a)
        groups = _connected_groups(adjacency.__getitem__, self.vertices)
        if len(groups) > 1:
            raise SteinerError("scaffold is not connected")

    @classmethod
    def build(
        cls, terminals: Sequence[str], edge_costs: Mapping[EdgeKey, float]
    ) -> "SteinerScaffold":
        terminals = tuple(sorted(set(terminals)))
        vertices = set(terminals)
        for a, b in edge_costs:
            vertices.add(a)
            vertices.add(b)
        edges = tuple((a, b, w) for (a, b), w in sorted(edge_costs.items()))
        return cls(
            terminals=terminals,
            vertices=tuple(sorted(vertices)),
            edges=edges,
            total_cost=exact_total(w for _a, _b, w in edges),
        )

    @property
    def steiner_vertices(self) -> tuple[str, ...]:
        terminal_set = set(self.terminals)
        return tuple(v for v in self.vertices if v not in terminal_set)

    def edge_pairs(self) -> set[EdgeKey]:
        return {(a, b) for a, b, _w in self.edges}


def _check_terminals(graph: SchemaGraph, terminals: Sequence[str]) -> tuple[str, ...]:
    if not terminals:
        raise SteinerError("terminal set must be non-empty")
    unknown = sorted(set(terminals) - set(graph.vertices))
    if unknown:
        raise SteinerError(f"unknown terminals: {', '.join(unknown)}")
    return tuple(sorted(set(terminals)))


def _require_mutually_reachable(graph: SchemaGraph, terminals: Sequence[str]) -> None:
    groups = _connected_groups(graph.neighbors, terminals)
    if len(groups) > 1:
        raise DisconnectedTerminalsError(groups)


def _require_reachable_in_closure(closure: MetricClosure, terminals: Sequence[str]) -> None:
    """Raise unless every terminal is in the closure row of the first one.

    The terminals are mutually reachable exactly when they all are; the graph
    is walked for the groups only on failure.
    """
    first = terminals[0]
    if not all(closure.reachable(first, t) for t in terminals[1:]):
        raise DisconnectedTerminalsError(_connected_groups(closure.graph.neighbors, terminals))


def mst_on_terminals(
    closure: MetricClosure, terminals: Sequence[str]
) -> list[EdgeKey]:
    """MST of the terminal-induced complete subgraph of the closure."""
    terminals = tuple(sorted(set(terminals)))
    if len(terminals) <= 1:
        return []
    _require_reachable_in_closure(closure, terminals)
    candidates = {
        (a, b): closure.distance(a, b)
        for i, a in enumerate(terminals)
        for b in terminals[i + 1 :]
    }
    return _kruskal(terminals, _by_weight(candidates))


def expand_to_paths(
    mst_edges: Sequence[EdgeKey], closure: MetricClosure
) -> dict[EdgeKey, float]:
    """Union of the original-graph paths behind each closure edge (may contain cycles)."""
    subgraph: dict[EdgeKey, float] = {}
    for a, b in mst_edges:
        path = closure.path(a, b)
        if path is None:
            raise SteinerError(f"no path between terminals {a!r} and {b!r}")
        for u, v in zip(path, path[1:]):
            subgraph[edge_key(u, v)] = closure.graph.weight(u, v)
    return subgraph


def prune_to_tree(
    subgraph: Mapping[EdgeKey, float], terminals: Sequence[str]
) -> SteinerScaffold:
    """Cycle removal (via MST of the subgraph) plus iterative leaf pruning.

    Cheapest edges win; within equal cost the lexicographically later edge is
    the one dropped from a cycle. Non-terminal degree-1 vertices are removed
    until none remain.
    """
    terminals = tuple(sorted(set(terminals)))
    vertices = set(terminals)
    for a, b in subgraph:
        vertices.add(a)
        vertices.add(b)
    adjacency: dict[str, set[str]] = {v: set() for v in vertices}
    for a, b in subgraph:
        adjacency[a].add(b)
        adjacency[b].add(a)
    groups = _connected_groups(adjacency.__getitem__, sorted(vertices))
    if len(groups) > 1:
        raise SteinerError("input subgraph does not span the terminals")

    tree = {e: subgraph[e] for e in _kruskal(vertices, _by_weight(subgraph))}

    # Iterative removal of non-terminal leaves, in sorted vertex order.
    terminal_set = set(terminals)
    while True:
        degree: dict[str, int] = {}
        for a, b in tree:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        leaves = sorted(
            v for v, d in degree.items() if d == 1 and v not in terminal_set
        )
        if not leaves:
            break
        doomed = set(leaves)
        tree = {
            (a, b): w for (a, b), w in tree.items() if a not in doomed and b not in doomed
        }
    return SteinerScaffold.build(terminals, tree)


def solve_steiner(graph: SchemaGraph, terminals: Sequence[str]) -> SteinerScaffold:
    """KMB 2-approximation: closure, terminal MST, path expansion, pruning."""
    terminals = _check_terminals(graph, terminals)
    if len(terminals) == 1:
        return SteinerScaffold.build(terminals, {})
    # KMB reads row a only for pairs a < b, so the last terminal needs no row
    # and each row stops at the terminals after its source. The first row
    # waits for all of them: the reachability check in mst_on_terminals reads it.
    targets = {t: terminals[i + 1 :] for i, t in enumerate(terminals[:-1])}
    closure = metric_closure(graph, terminals[:-1], targets=targets)
    mst = mst_on_terminals(closure, terminals)
    subgraph = expand_to_paths(mst, closure)
    return prune_to_tree(subgraph, terminals)


def _decimal_ratio(w: float) -> tuple[int, int]:
    """``w``'s shortest decimal value as a reduced fraction (numerator, denominator).

    The same ratio as ``Fraction(repr(w))``, made about four times faster.
    """
    return Decimal(repr(w)).as_integer_ratio()


def _scaled_weights(weights: Iterable[float]) -> tuple[dict[float, int], int]:
    """Each distinct weight as an integer over the common denominator of all.

    ``scaled[w] / denominator`` is ``w``'s decimal value (``_decimal_ratio``),
    so sums and comparisons of scaled weights are exact.
    """
    exact = {w: _decimal_ratio(w) for w in set(weights)}
    denominator = math.lcm(1, *(d for _n, d in exact.values()))
    return {w: n * (denominator // d) for w, (n, d) in exact.items()}, denominator


def _dreyfus_wagner(
    graph: SchemaGraph, terminals: Sequence[str]
) -> tuple[dict[str, int], int]:
    """Exact cost of the cheapest tree spanning ``terminals`` plus each vertex.

    The dynamic program of Dreyfus and Wagner (Networks, 1971): ``dp[mask][v]``
    is the cheapest tree spanning the terminals in ``mask`` plus ``v``. Each
    mask first joins two complementary sub-masks at a common vertex, then one
    Dijkstra relaxation extends those trees along paths. Every weight is
    scaled to an integer over the common denominator of its decimal value
    (``_scaled_weights``), so comparisons are exact and agree with the
    oracle's totals.

    Returns the full-mask row and the denominator: ``row[v] / denominator``
    is the cost for ``v``, and a vertex the terminals cannot reach has no
    entry.
    """
    scaled, denominator = _scaled_weights(c.total for c in graph.edges.values())
    adjacency = {
        v: [(n, scaled[w]) for n, w in graph.weighted_neighbors(v)]
        for v in graph.vertices
    }
    dp: list[dict[str, int]] = [{}]
    for mask in range(1, 1 << len(terminals)):
        row: dict[str, int] = {}
        if mask & (mask - 1) == 0:
            row[terminals[mask.bit_length() - 1]] = 0
        low = mask & -mask
        sub = (mask - 1) & mask
        while sub:
            if sub & low:  # each split once: the part holding the lowest terminal
                other = dp[mask ^ sub]
                for v, cost in dp[sub].items():
                    if v in other:
                        total = cost + other[v]
                        if v not in row or total < row[v]:
                            row[v] = total
            sub = (sub - 1) & mask
        heap = [(cost, v) for v, cost in row.items()]
        heapq.heapify(heap)
        while heap:
            cost, v = heapq.heappop(heap)
            if cost > row[v]:
                continue  # a stale entry, superseded by a cheaper one
            for n, w in adjacency[v]:
                total = cost + w
                if n not in row or total < row[n]:
                    row[n] = total
                    heapq.heappush(heap, (total, n))
        dp.append(row)
    return dp[-1], denominator


MAX_ORACLE_VERTICES = 14

# CPython time of one enumerated subset per vertex-or-edge of the graph (an
# edge filter, a sort, a union-find and an exact total) over the time of one
# Dreyfus–Wagner merge step (one dict entry of one split); measured at 8-14
# vertices on random graphs from a spanning tree up to a complete graph.
_SUBSET_STEP_COST = 16


def _dreyfus_wagner_is_cheaper(graph: SchemaGraph, n_terminals: int) -> bool:
    """Whether the DP costs less than enumerating every non-terminal subset.

    The DP merges each split of each terminal mask over a row of up to |V|
    entries, about 3^T·|V| steps; the full enumeration builds 2^(V-T) MSTs,
    each a pass over the vertices and edges. Few terminals among many
    vertices favour the DP; when the terminals are most of the graph the
    enumeration is only a handful of MSTs.
    """
    n_vertices = len(graph.vertices)
    merge_steps = 3**n_terminals * n_vertices
    subset_steps = 2 ** (n_vertices - n_terminals) * (n_vertices + len(graph.edges))
    return merge_steps < _SUBSET_STEP_COST * subset_steps


def exact_steiner_oracle(graph: SchemaGraph, terminals: Sequence[str]) -> SteinerScaffold:
    """Exact minimum Steiner tree: enumeration, pruned by a Dreyfus–Wagner optimum.

    For each subset S of the candidate non-terminals, take the MST of the
    subgraph induced by terminals ∪ S when it spans that vertex set, and
    return the global minimum (exact totals over integer-scaled weights; ties
    broken by the lexicographic edge list). The edges are sorted and scaled
    once; each subset filters that list and its Kruskal stops at |S| - 1
    edges. When the dynamic program is cheaper than the full enumeration
    (few terminals, many non-terminals), it gives the
    optimum cost OPT and, for every vertex v, the cheapest tree spanning the
    terminals plus v; only non-terminals whose cost equals OPT can lie on an
    optimal tree, so only they are candidates. Otherwise every non-terminal
    is. Every subset whose MST costs OPT is a candidate subset either way, so
    the result equals the minimum over all subsets. Guarded to |V| <= 14,
    since with all weights tied every vertex is a candidate.
    """
    if len(graph.vertices) > MAX_ORACLE_VERTICES:
        raise GraphTooLargeError(
            f"oracle limited to {MAX_ORACLE_VERTICES} vertices, got {len(graph.vertices)}"
        )
    terminals = _check_terminals(graph, terminals)
    if len(terminals) == 1:
        return SteinerScaffold.build(terminals, {})
    _require_mutually_reachable(graph, terminals)

    terminal_set = set(terminals)
    candidates = [v for v in graph.vertices if v not in terminal_set]
    if _dreyfus_wagner_is_cheaper(graph, len(terminals)):
        row, _denominator = _dreyfus_wagner(graph, terminals)
        optimum = row[terminals[0]]
        candidates = [v for v in candidates if row.get(v) == optimum]
    pool = terminal_set.union(candidates)
    ordered = sorted(
        (c.total, e) for e, c in graph.edges.items() if e[0] in pool and e[1] in pool
    )
    scaled, _denominator = _scaled_weights(w for w, _e in ordered)
    cost = {e: scaled[w] for w, e in ordered}  # in Kruskal's (weight, key) order
    best: Optional[tuple[int, tuple[EdgeKey, ...]]] = None
    for r in range(len(candidates) + 1):
        for subset in itertools.combinations(candidates, r):
            nodes = terminal_set.union(subset)
            chosen = _kruskal(nodes, [e for e in cost if e[0] in nodes and e[1] in nodes])
            if len(chosen) != len(nodes) - 1:
                continue  # induced subgraph does not span terminals ∪ subset
            candidate = (sum(cost[e] for e in chosen), tuple(sorted(chosen)))
            if best is None or candidate < best:
                best = candidate
    assert best is not None  # reachability was checked above
    return SteinerScaffold.build(terminals, {e: graph.edges[e].total for e in best[1]})


def baseline_shortest_path_combination(
    graph: SchemaGraph, terminals: Sequence[str]
) -> SteinerScaffold:
    """Union of shortest paths from the first terminal to each other, pruned."""
    terminals = _check_terminals(graph, terminals)
    if len(terminals) == 1:
        return SteinerScaffold.build(terminals, {})
    first = terminals[0]
    closure = metric_closure(graph, [first], targets=terminals)
    _require_reachable_in_closure(closure, terminals)
    subgraph: dict[EdgeKey, float] = {}
    for other in terminals[1:]:
        path = closure.path(first, other)
        assert path is not None
        for u, v in zip(path, path[1:]):
            subgraph[edge_key(u, v)] = graph.weight(u, v)
    return prune_to_tree(subgraph, terminals)


def baseline_mst_on_terminal_subgraph(
    graph: SchemaGraph, terminals: Sequence[str]
) -> SteinerScaffold:
    """MST restricted to edges with both endpoints terminal; errors if disconnected."""
    terminals = _check_terminals(graph, terminals)
    if len(terminals) == 1:
        return SteinerScaffold.build(terminals, {})
    terminal_set = set(terminals)
    induced = {
        (a, b): c.total
        for (a, b), c in graph.edges.items()
        if a in terminal_set and b in terminal_set
    }
    chosen = _kruskal(terminals, _by_weight(induced))
    if len(chosen) != len(terminals) - 1:
        adjacency: dict[str, list[str]] = {t: [] for t in terminals}
        for a, b in induced:
            adjacency[a].append(b)
            adjacency[b].append(a)
        raise DisconnectedTerminalsError(_connected_groups(adjacency.__getitem__, terminals))
    return SteinerScaffold.build(terminals, {e: induced[e] for e in chosen})


def scaffold_document(scaffold: SteinerScaffold) -> str:
    """Canonical JSON export consumed by the prompt builder and the CLI."""
    doc = {
        "terminals": list(scaffold.terminals),
        "vertices": list(scaffold.vertices),
        "edges": [{"a": a, "b": b, "cost": w} for a, b, w in scaffold.edges],
        "total_cost": scaffold.total_cost,
    }
    return canonical_json(doc)


def load_scaffold_document(text: str) -> SteinerScaffold:
    import json

    doc = json.loads(text)
    return SteinerScaffold(
        terminals=tuple(doc["terminals"]),
        vertices=tuple(doc["vertices"]),
        edges=tuple((e["a"], e["b"], e["cost"]) for e in doc["edges"]),
        total_cost=doc["total_cost"],
    )
