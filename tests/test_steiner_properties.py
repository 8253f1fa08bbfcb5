"""Property tests over seeded random graphs."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from joinscaffold import steiner
from joinscaffold.bench import SplitMix64, random_connected_graph, random_terminals
from joinscaffold.costs import SchemaGraph, edge_key
from joinscaffold.steiner import (
    MetricClosure,
    SteinerError,
    SteinerScaffold,
    _connected_groups,
    _dreyfus_wagner,
    _scaled_weights,
    baseline_mst_on_terminal_subgraph,
    baseline_shortest_path_combination,
    exact_steiner_oracle,
    exact_total,
    expand_to_paths,
    metric_closure,
    mst_on_terminals,
    prune_to_tree,
    scaffold_document,
    solve_steiner,
)


def seeded_instance(seed: int, max_nodes: int = 9):
    rng = SplitMix64(seed)
    n = 2 + rng.randint(0, max_nodes - 2)
    graph = random_connected_graph(n, rng)
    terminals = random_terminals(graph, rng)
    return graph, terminals


def assert_sound(scaffold, terminals):
    assert set(terminals) <= set(scaffold.vertices)
    assert len(scaffold.edges) == len(scaffold.vertices) - 1
    # connectivity via reachability from the first vertex
    adj = {v: set() for v in scaffold.vertices}
    for a, b, _w in scaffold.edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = set()
    stack = [scaffold.vertices[0]]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adj[v])
    assert seen == set(scaffold.vertices)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**48))
def test_kmb_scaffold_is_sound(seed):
    graph, terminals = seeded_instance(seed)
    scaffold = solve_steiner(graph, terminals)
    assert_sound(scaffold, terminals)
    assert all(w >= 0.0 for _a, _b, w in scaffold.edges)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**48))
def test_kmb_within_twice_optimal(seed):
    graph, terminals = seeded_instance(seed, max_nodes=8)
    kmb = solve_steiner(graph, terminals)
    opt = exact_steiner_oracle(graph, terminals)
    assert opt.total_cost <= kmb.total_cost + 1e-12
    assert kmb.total_cost <= 2.0 * opt.total_cost + 1e-12


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**48))
def test_pruning_never_increases_cost(seed):
    graph, terminals = seeded_instance(seed)
    closure = metric_closure(graph)
    mst = mst_on_terminals(closure, terminals)
    subgraph = expand_to_paths(mst, closure)
    scaffold = prune_to_tree(subgraph, terminals)
    assert scaffold.total_cost <= exact_total(subgraph.values()) + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**48))
def test_closure_distances_match_dijkstra_oracle(seed):
    graph, _terminals = seeded_instance(seed)
    closure = metric_closure(graph)

    # independent oracle: plain Dijkstra with a visited set, no tie rules
    import heapq

    for source in graph.vertices:
        dist = {source: 0.0}
        heap = [(0.0, source)]
        done = set()
        while heap:
            d, v = heapq.heappop(heap)
            if v in done:
                continue
            done.add(v)
            for n in graph.neighbors(v):
                nd = d + graph.weight(v, n)
                if nd < dist.get(n, math.inf) - 1e-15:
                    dist[n] = nd
                    heapq.heappush(heap, (nd, n))
        for target in graph.vertices:
            expected = dist.get(target, math.inf)
            got = closure.distance(source, target)
            if math.isinf(expected):
                assert math.isinf(got)
            else:
                assert abs(got - expected) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**48))
def test_solver_is_deterministic(seed):
    graph, terminals = seeded_instance(seed)
    first = scaffold_document(solve_steiner(graph, terminals))
    second = scaffold_document(solve_steiner(graph, terminals))
    assert first == second


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**48))
def test_terminal_set_is_always_spanned_by_oracle(seed):
    graph, terminals = seeded_instance(seed, max_nodes=8)
    scaffold = exact_steiner_oracle(graph, terminals)
    assert_sound(scaffold, terminals)


# ---------------------------------------------------------------------------
# metric closure against the all-pairs Floyd–Warshall reference
# ---------------------------------------------------------------------------


def floyd_warshall_keys(graph):
    """Reference closure: all-pairs Floyd–Warshall over (distance, hops, path) keys.

    This is the planner's former closure, kept as the reference for the
    per-source Dijkstra rows. O(|V|^3).
    """
    vertices = graph.vertices
    keys = {u: {} for u in vertices}
    for u in vertices:
        keys[u][u] = (0.0, 0, (u,))
    for (a, b), cost in graph.edges.items():
        w = cost.total
        keys[a][b] = (w, 1, (a, b))
        keys[b][a] = (w, 1, (b, a))
    for k in vertices:
        row_k = keys[k]
        for i in vertices:
            via = keys[i].get(k)
            if via is None or i == k:
                continue
            row_i = keys[i]
            for j, tail in row_k.items():
                if j == i or j == k:
                    continue
                candidate = (via[0] + tail[0], via[1] + tail[1], via[2] + tail[2][1:])
                current = row_i.get(j)
                if current is None or candidate < current:
                    row_i[j] = candidate
    return keys


def seeded_closure_graph(seed: int, max_nodes: int = 30) -> SchemaGraph:
    """A seeded graph of 1 to ``max_nodes`` vertices, often disconnected.

    Half the graphs get weights in eighths of 0 to 1: float sums of those are
    exact, so distance ties are common and the tie-break decides the paths.
    """
    rng = SplitMix64(seed)
    graph = random_connected_graph(rng.randint(1, max_nodes), rng)
    if rng.randint(0, 1):
        graph = SchemaGraph.from_weights(
            graph.vertices, {e: rng.randint(0, 8) / 8 for e in sorted(graph.edges)}
        )
    return graph.without(e for e in sorted(graph.edges) if rng.next_float() < 0.15)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**48))
def test_closure_matches_floyd_warshall_reference(seed):
    graph = seeded_closure_graph(seed)
    reference = floyd_warshall_keys(graph)
    closure = metric_closure(graph)
    assert set(closure.keys) == set(graph.vertices)
    for source in graph.vertices:
        row, expected = closure.keys[source], reference[source]
        assert set(row) == set(expected)  # reachability
        for target, (distance, hops, path) in expected.items():
            got = row[target]
            assert got[2] == path and got[1] == hops
            assert abs(got[0] - distance) <= 1e-12 * (1 + distance)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**48), st.integers(0, 2**48))
def test_closure_source_rows_equal_full_closure_rows(seed, pick):
    graph = seeded_closure_graph(seed)
    rng = SplitMix64(pick)
    sources = rng.sample(graph.vertices, rng.randint(1, len(graph.vertices)))
    full = metric_closure(graph)
    partial = metric_closure(graph, sources)
    assert set(partial.keys) == set(sources)
    for source in sources:
        assert partial.keys[source] == full.keys[source]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**48), st.integers(0, 2**48))
def test_rows_stopped_at_targets_agree_with_full_rows(seed, pick):
    graph = seeded_closure_graph(seed)
    rng = SplitMix64(pick)
    targets = set(rng.sample(graph.vertices, rng.randint(1, len(graph.vertices))))
    full = metric_closure(graph)
    stopped = metric_closure(graph, targets=targets)
    assert set(stopped.keys) == set(graph.vertices)
    for source in graph.vertices:
        row, full_row = stopped.keys[source], full.keys[source]
        assert all(full_row[v] == key for v, key in row.items())
        for target in targets:
            assert (target in row) == (target in full_row)  # reachability
            assert stopped.reachable(source, target) == (target in full_row)
            assert stopped.distance(source, target) == full.distance(source, target)
            assert stopped.path(source, target) == full.path(source, target)
        for other in set(graph.vertices) - set(row) - targets:
            for query in (stopped.reachable, stopped.distance, stopped.path):
                with pytest.raises(SteinerError, match="not a target"):
                    query(source, other)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**48), st.integers(0, 2**48))
def test_rows_stopped_at_their_own_targets_agree_with_full_rows(seed, pick):
    graph = seeded_closure_graph(seed)
    rng = SplitMix64(pick)
    sources = rng.sample(graph.vertices, rng.randint(1, len(graph.vertices)))
    own = {
        s: set(rng.sample(graph.vertices, rng.randint(0, len(graph.vertices))))
        for s in sources
    }
    full = metric_closure(graph)
    stopped = metric_closure(graph, sources, targets=own)
    assert set(stopped.keys) == set(sources)
    for source in sources:
        row, full_row = stopped.keys[source], full.keys[source]
        assert all(full_row[v] == key for v, key in row.items())
        for target in own[source]:
            assert stopped.reachable(source, target) == (target in full_row)
            assert stopped.distance(source, target) == full.distance(source, target)
            assert stopped.path(source, target) == full.path(source, target)
        for other in set(graph.vertices) - set(row) - own[source]:
            for query in (stopped.reachable, stopped.distance, stopped.path):
                with pytest.raises(SteinerError, match="not a target"):
                    query(source, other)


@pytest.mark.parametrize("nodes", [20, 50, 80])
def test_kmb_scaffold_equals_kmb_on_reference_closure(nodes):
    for seed in range(6):
        rng = SplitMix64(1000 * nodes + seed)
        graph = random_connected_graph(nodes, rng)
        terminals = sorted(rng.sample(graph.vertices, rng.randint(2, 6)))
        reference = MetricClosure(graph, floyd_warshall_keys(graph))
        subgraph = expand_to_paths(mst_on_terminals(reference, terminals), reference)
        expected = scaffold_document(prune_to_tree(subgraph, terminals))
        assert scaffold_document(solve_steiner(graph, terminals)) == expected


def reference_prune_to_tree(subgraph, terminals):
    """Reference pruning: the former ``prune_to_tree``.

    A connectivity walk decides spanning; after the MST, every non-terminal
    leaf is removed at once, round after round, recounting every degree.
    """
    terminals = tuple(sorted(set(terminals)))
    vertices = set(terminals)
    for a, b in subgraph:
        vertices.add(a)
        vertices.add(b)
    adjacency = {v: set() for v in vertices}
    for a, b in subgraph:
        adjacency[a].add(b)
        adjacency[b].add(a)
    if len(_connected_groups(adjacency.__getitem__, sorted(vertices))) > 1:
        raise SteinerError("input subgraph does not span the terminals")
    tree = {e: subgraph[e] for e in reference_kruskal(vertices, subgraph)}
    terminal_set = set(terminals)
    while True:
        degree = {}
        for a, b in tree:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        doomed = {v for v, d in degree.items() if d == 1 and v not in terminal_set}
        if not doomed:
            break
        tree = {(a, b): w for (a, b), w in tree.items() if a not in doomed and b not in doomed}
    return SteinerScaffold.build(terminals, tree)


PRUNE_VERTICES = "abcdefg"
PRUNE_WEIGHTS = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0, 1), st.just(0.5)
)


@st.composite
def prune_inputs(draw):
    """A subgraph over a few vertices with tied weights, often cyclic or
    disconnected, plus a dangling chain z0-z1-... off ``a``, and terminals
    that may be empty or lie outside the subgraph."""
    edges = draw(st.lists(
        st.tuples(st.sampled_from(PRUNE_VERTICES), st.sampled_from(PRUNE_VERTICES),
                  PRUNE_WEIGHTS).filter(lambda e: e[0] != e[1]),
        max_size=12,
    ))
    subgraph = {edge_key(a, b): w for a, b, w in edges}
    chain = ["a"] + [f"z{i}" for i in range(draw(st.integers(0, 6)))]
    for u, v in zip(chain, chain[1:]):
        subgraph[edge_key(u, v)] = draw(PRUNE_WEIGHTS)
    terminals = draw(st.lists(st.sampled_from(PRUNE_VERTICES + "".join(chain[1:])), max_size=5))
    return subgraph, terminals


def prune_outcome(prune, subgraph, terminals):
    try:
        return scaffold_document(prune(subgraph, terminals))
    except SteinerError:
        return "SteinerError"


@settings(max_examples=400, deadline=None)
@given(prune_inputs())
@example(({("a", "b"): 0.5, ("b", "c"): 0.5, ("c", "d"): 0.5, ("a", "d"): 0.5}, ["a", "c"]))
@example(({("a", "b"): 0.1, ("b", "c"): 0.1, ("c", "d"): 0.1, ("d", "e"): 0.1}, ["a"]))
@example(({("a", "b"): 0.1, ("c", "d"): 0.1}, ["a", "b"]))
@example(({("a", "b"): 0.1}, ["a", "g"]))
@example(({("a", "b"): 0.1, ("b", "c"): 0.2}, []))
@example(({}, []))
@example(({}, ["a"]))
def test_prune_equals_the_reference_pruning(case):
    subgraph, terminals = case
    assert prune_outcome(prune_to_tree, subgraph, terminals) == (
        prune_outcome(reference_prune_to_tree, subgraph, terminals)
    )


def fraction_total(costs) -> float:
    """Reference exact total: the former ``exact_total``, one Fraction per cost."""
    return float(sum((Fraction(repr(c)) for c in costs), start=Fraction(0)))


COST_VALUES = st.one_of(
    st.floats(min_value=-1e5, max_value=1e5),
    st.floats(min_value=0, max_value=1e-8),
    st.sampled_from([1 / 3, 2 / 3, 0.1, 0.2, 0.3, 1e-9 / 3, 12345.678901]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(COST_VALUES, max_size=12))
def test_exact_total_equals_the_fraction_sum(costs):
    assert exact_total(costs).hex() == fraction_total(costs).hex()


# ---------------------------------------------------------------------------
# exact oracle against the full Steiner-vertex subset enumerator
# ---------------------------------------------------------------------------


def reference_kruskal(vertices, weighted_edges):
    """MST edges, candidates ordered by (weight, endpoint, endpoint)."""
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    chosen = []
    for (a, b), _w in sorted(weighted_edges.items(), key=lambda kv: (kv[1], kv[0])):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
            chosen.append((a, b))
    return chosen


def enumerating_oracle(graph, terminals):
    """Reference oracle: the MST of every spanning terminals ∪ S, over all S.

    This is the oracle's former body, which enumerated every subset S of the
    non-terminals instead of the candidates the Dreyfus–Wagner optimum leaves,
    with its own Kruskal and one Fraction per edge, so it shares no MST or
    total with the code under test. Exact rational totals; ties broken by the
    lexicographic edge list. O(2^(V-T)) MSTs.
    """
    terminals = sorted(set(terminals))
    non_terminals = [v for v in graph.vertices if v not in set(terminals)]
    best = None
    for r in range(len(non_terminals) + 1):
        for subset in itertools.combinations(non_terminals, r):
            nodes = sorted(set(terminals) | set(subset))
            node_set = set(nodes)
            induced = {
                (a, b): c.total
                for (a, b), c in graph.edges.items()
                if a in node_set and b in node_set
            }
            chosen = reference_kruskal(nodes, induced)
            if len(chosen) != len(nodes) - 1:
                continue
            tree = {e: induced[e] for e in chosen}
            total = sum((Fraction(repr(w)) for w in tree.values()), start=Fraction(0))
            candidate = (total, tuple(sorted(tree)), tree)
            if best is None or candidate[:2] < best[:2]:
                best = candidate
    return SteinerScaffold.build(terminals, best[2]), best[0]


def tie_heavy_instance(seed: int, max_nodes: int = 13):
    """A seeded graph of 1 to ``max_nodes`` vertices with tied weights.

    Weights come from one palette per graph: all zero, {0, 1/4, 1/2, 1},
    {1/8, 1/4, 3/8}, two repeated 6-decimal values, or free 6-decimal floats.
    About a fifth of the edges are dropped, so the graph is often
    disconnected; the terminals are drawn from one connected group.
    """
    rng = SplitMix64(seed)
    graph = random_connected_graph(rng.randint(1, max_nodes), rng)
    palette = [
        (0.0,),
        (0.0, 0.25, 0.5, 1.0),
        (0.125, 0.25, 0.375),
        (round(rng.next_float(), 6), round(rng.next_float(), 6)),
        None,
    ][rng.randint(0, 4)]
    weights = {}
    for e in sorted(graph.edges):
        if rng.next_float() < 0.2:
            continue
        weights[e] = (
            round(rng.next_float(), 6)
            if palette is None
            else palette[rng.randint(0, len(palette) - 1)]
        )
    graph = SchemaGraph.from_weights(graph.vertices, weights)
    group = rng.sample(_connected_groups(graph.neighbors, graph.vertices), 1)[0]
    terminals = sorted(rng.sample(group, rng.randint(1, min(5, len(group)))))
    return graph, terminals


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**48))
def test_oracle_tree_equals_enumerating_reference(seed):
    graph, terminals = tie_heavy_instance(seed)
    expected, optimum = enumerating_oracle(graph, terminals)
    assert scaffold_document(exact_steiner_oracle(graph, terminals)) == (
        scaffold_document(expected)
    )
    for dp_first in (True, False):  # each side of the oracle's DP-or-enumerate choice
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(steiner, "_dreyfus_wagner_is_cheaper", lambda *_: dp_first)
            assert scaffold_document(exact_steiner_oracle(graph, terminals)) == (
                scaffold_document(expected)
            )
    scaled, denominator = _scaled_weights(c.total for c in graph.edges.values())
    row = _dreyfus_wagner(graph, terminals, scaled)
    assert Fraction(row[terminals[0]], denominator) == optimum
    groups = _connected_groups(graph.neighbors, graph.vertices)
    assert set(row) == set(next(g for g in groups if terminals[0] in g))


def exact_cost(scaffold) -> Fraction:
    return sum((Fraction(repr(w)) for _a, _b, w in scaffold.edges), start=Fraction(0))


@pytest.mark.parametrize("nodes", [50, 80])
def test_kmb_and_baselines_against_dreyfus_wagner_optimum(nodes):
    for seed in range(6):
        rng = SplitMix64(7000 * nodes + seed)
        graph = random_connected_graph(nodes, rng)
        terminals = sorted(rng.sample(graph.vertices, rng.randint(2, 6)))
        scaled, denominator = _scaled_weights(c.total for c in graph.edges.values())
        row = _dreyfus_wagner(graph, terminals, scaled)
        optimum = Fraction(row[terminals[0]], denominator)
        assert all(Fraction(row[t], denominator) == optimum for t in terminals)
        assert optimum <= exact_cost(solve_steiner(graph, terminals)) <= 2 * optimum
        for baseline in (
            baseline_shortest_path_combination,
            baseline_mst_on_terminal_subgraph,
        ):
            try:
                scaffold = baseline(graph, terminals)
            except SteinerError:
                continue  # the terminal-only MST fails when terminals are not adjacent
            assert optimum <= exact_cost(scaffold)
