import itertools
import math
from fractions import Fraction

import pytest

from helpers import load_perfbench_spans

from joinscaffold import steiner
from joinscaffold.bench import SplitMix64, random_connected_graph
from joinscaffold.costs import SchemaGraph
from joinscaffold.steiner import (
    DisconnectedTerminalsError,
    GraphTooLargeError,
    SteinerError,
    SteinerScaffold,
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

APPENDIX_WEIGHTS = {
    ("ga_sessions", "totals"): 0.08,
    ("ga_sessions", "hits"): 0.09,
    ("hits", "totals"): 0.58,
}


def graph_of(weights, vertices=None):
    if vertices is None:
        vertices = {v for e in weights for v in e}
    return SchemaGraph.from_weights(vertices, weights)


def brute_force_shortest(graph, u, v):
    """Oracle: enumerate all simple paths, return the minimum total weight."""
    best = math.inf
    stack = [(u, (u,), 0.0)]
    while stack:
        node, path, cost = stack.pop()
        if node == v:
            best = min(best, cost)
            continue
        for n in graph.neighbors(node):
            if n not in path:
                stack.append((n, path + (n,), cost + graph.weight(node, n)))
    return best


# ---------------------------------------------------------------------------
# metric closure
# ---------------------------------------------------------------------------


def test_closure_triangle_shortcut():
    g = graph_of({("a", "b"): 1.0, ("b", "c"): 1.0, ("a", "c"): 3.0})
    closure = metric_closure(g)
    assert closure.distance("a", "c") == 2.0
    assert closure.path("a", "c") == ("a", "b", "c")
    assert brute_force_shortest(g, "a", "c") == 2.0


def test_closure_single_edge():
    g = graph_of({("a", "b"): 0.4})
    closure = metric_closure(g)
    assert closure.distance("a", "b") == 0.4
    assert closure.distance("a", "a") == 0.0


def test_closure_disconnected_pair_is_infinite():
    g = graph_of({("a", "b"): 0.4}, vertices={"a", "b", "c"})
    closure = metric_closure(g)
    assert closure.distance("a", "c") == math.inf
    assert not closure.reachable("a", "c")
    assert closure.path("a", "c") is None


def test_closure_matches_bruteforce_everywhere():
    g = graph_of(
        {
            ("a", "b"): 0.2, ("b", "c"): 0.3, ("c", "d"): 0.1,
            ("a", "d"): 0.9, ("b", "d"): 0.35, ("a", "e"): 0.15,
            ("e", "c"): 0.25,
        }
    )
    closure = metric_closure(g)
    for u in g.vertices:
        for v in g.vertices:
            if u < v:
                assert closure.distance(u, v) == pytest.approx(
                    brute_force_shortest(g, u, v), abs=1e-12
                )


def test_closure_triangle_inequality_and_symmetry():
    g = graph_of(
        {("a", "b"): 0.5, ("b", "c"): 0.25, ("c", "d"): 0.75, ("a", "c"): 0.6}
    )
    closure = metric_closure(g)
    vs = g.vertices
    for u in vs:
        for v in vs:
            assert closure.distance(u, v) == closure.distance(v, u)
            for w in vs:
                assert (
                    closure.distance(u, v)
                    <= closure.distance(u, w) + closure.distance(w, v) + 1e-12
                )


def test_closure_tie_break_prefers_fewer_hops_then_lex():
    # two shortest a->d paths of equal weight: a-b-d and a-c-d; lex picks b.
    g = graph_of({("a", "b"): 0.5, ("b", "d"): 0.5, ("a", "c"): 0.5, ("c", "d"): 0.5})
    closure = metric_closure(g)
    assert closure.path("a", "d") == ("a", "b", "d")
    # direct edge of equal weight wins over a two-hop path
    g2 = graph_of({("a", "b"): 0.5, ("b", "c"): 0.5, ("a", "c"): 1.0})
    closure2 = metric_closure(g2)
    assert closure2.path("a", "c") == ("a", "c")


def test_closure_rows_only_for_sources():
    g = graph_of({("a", "b"): 0.4, ("b", "c"): 0.2}, vertices={"a", "b", "c", "d"})
    closure = metric_closure(g, ["c", "a", "c"])
    assert set(closure.keys) == {"a", "c"}
    assert closure.path("c", "a") == ("c", "b", "a")
    assert closure.keys["a"] == metric_closure(g).keys["a"]
    assert not closure.reachable("a", "d")


def test_closure_missing_row_raises_steiner_error():
    closure = metric_closure(graph_of(APPENDIX_WEIGHTS), ["hits"])
    for query in (closure.reachable, closure.distance, closure.path):
        with pytest.raises(SteinerError, match="no row for source 'totals'"):
            query("totals", "hits")


def test_closure_reads_weights_from_the_weighted_adjacency(monkeypatch):
    g = random_connected_graph(20, SplitMix64(3))
    expected = metric_closure(g).keys
    for v in g.vertices:
        assert g.weighted_neighbors(v) == tuple((n, g.weight(v, n)) for n in g.neighbors(v))

    def no_lookup(*args):
        raise AssertionError("the closure must not look up edge weights one by one")

    monkeypatch.setattr(SchemaGraph, "weight", no_lookup)
    assert metric_closure(g).keys == expected


def test_traced_solve_counts_only_the_closure_entries_kmb_reads(monkeypatch):
    # The traced benchmark run counts steiner.closure_entries by wrapping
    # steiner.metric_closure. A solve builds a row from every terminal but the
    # last; the first row runs until every terminal is settled, each later row
    # until the terminals after its source are.
    graph = random_connected_graph(30, SplitMix64(7))
    terminals = ["v01", "v05", "v20", "v24"]
    spans = load_perfbench_spans()
    rec = spans.Recorder()
    spans.instrument(rec)
    try:
        steiner.solve_steiner(graph, terminals[:1])  # one terminal: no closure
        steiner.solve_steiner(graph, terminals)
    finally:
        rec.unpatch()
    full = metric_closure(graph)

    def settle_order(key):  # a run settles vertices in (distance, hops, vertex) order
        return key[0], key[1], key[2][-1]

    def settled_until(source, targets):
        row = full.keys[source]
        last = max(settle_order(row[t]) for t in targets)
        return sum(settle_order(key) <= last for key in row.values())

    expected = sum(
        settled_until(source, terminals[i + 1 :]) for i, source in enumerate(terminals[:-1])
    )
    every_terminal = sum(settled_until(source, terminals) for source in terminals[:-1])
    counted = rec.counters["setup"]["steiner.closure_entries"]
    assert counted == expected < every_terminal < (len(terminals) - 1) * len(graph.vertices)

    built = []

    def recording_closure(*args, **kwargs):
        closure = metric_closure(*args, **kwargs)
        built.append(set(closure.keys))
        return closure

    monkeypatch.setattr(steiner, "metric_closure", recording_closure)
    steiner.solve_steiner(graph, terminals)
    assert built == [set(terminals[:-1])]


# ---------------------------------------------------------------------------
# MST on terminals
# ---------------------------------------------------------------------------


def test_mst_picks_cheapest_appendix_edges():
    closure = metric_closure(graph_of(APPENDIX_WEIGHTS))
    edges = mst_on_terminals(closure, ["ga_sessions", "totals", "hits"])
    assert sorted(edges) == [("ga_sessions", "hits"), ("ga_sessions", "totals")]


def test_mst_single_terminal_empty():
    closure = metric_closure(graph_of(APPENDIX_WEIGHTS))
    assert mst_on_terminals(closure, ["hits"]) == []


def enumerate_spanning_trees(vertices, weights):
    """Oracle: all spanning trees by brute force over edge subsets."""
    edges = sorted(weights)
    n = len(vertices)
    trees = []
    for subset in itertools.combinations(edges, n - 1):
        parent = {v: v for v in vertices}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        ok = True
        for a, b in subset:
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        if ok:
            trees.append(subset)
    return trees


def test_mst_equal_weights_is_lexicographic_minimum():
    vertices = ("a", "b", "c", "d")
    weights = {e: 0.5 for e in itertools.combinations(vertices, 2)}
    closure = metric_closure(graph_of(weights, vertices))
    chosen = sorted(mst_on_terminals(closure, vertices))
    trees = enumerate_spanning_trees(vertices, weights)
    best = min(tuple(sorted(t)) for t in trees)  # all costs equal
    assert tuple(chosen) == best
    # stability across runs
    again = sorted(mst_on_terminals(metric_closure(graph_of(weights, vertices)), vertices))
    assert again == chosen


def test_mst_disconnected_terminals_names_groups():
    g = graph_of({("a", "b"): 0.1, ("c", "d"): 0.1})
    closure = metric_closure(g)
    with pytest.raises(DisconnectedTerminalsError) as err:
        mst_on_terminals(closure, ["a", "b", "c", "d"])
    assert err.value.groups == (("a", "b"), ("c", "d"))


# ---------------------------------------------------------------------------
# expansion and pruning
# ---------------------------------------------------------------------------


def test_expand_maps_back_to_original_paths():
    g = graph_of({("a", "b"): 1.0, ("b", "c"): 1.0, ("a", "c"): 3.0})
    closure = metric_closure(g)
    sub = expand_to_paths([("a", "c")], closure)
    assert set(sub) == {("a", "b"), ("b", "c")}


def test_prune_fixed_point_on_tree():
    sub = {("a", "b"): 0.3, ("b", "c"): 0.2}
    scaffold = prune_to_tree(sub, ["a", "c"])
    assert scaffold.edge_pairs() == set(sub)


def test_prune_square_drops_lexicographically_last_edge():
    sub = {("a", "b"): 0.5, ("b", "c"): 0.5, ("c", "d"): 0.5, ("a", "d"): 0.5}
    scaffold = prune_to_tree(sub, ["a", "b", "c", "d"])
    # enumerate removable edges: any one of the four keeps the square
    # connected; the tie rule keeps the lexicographically first three.
    assert scaffold.edge_pairs() == {("a", "b"), ("a", "d"), ("b", "c")}


def test_prune_removes_dangling_non_terminal_leaf():
    sub = {("a", "b"): 0.3, ("b", "c"): 0.2, ("b", "x"): 0.1}
    scaffold = prune_to_tree(sub, ["a", "c"])
    assert "x" not in scaffold.vertices


def test_prune_never_increases_cost():
    sub = {("a", "b"): 0.5, ("b", "c"): 0.5, ("c", "a"): 0.5, ("c", "x"): 0.4}
    scaffold = prune_to_tree(sub, ["a", "b", "c"])
    assert scaffold.total_cost <= exact_total(sub.values())
    assert scaffold.total_cost < exact_total(sub.values())  # removed weight > 0


def test_prune_requires_spanning_input():
    with pytest.raises(SteinerError, match="span"):
        prune_to_tree({("a", "b"): 0.1}, ["a", "z"])


# ---------------------------------------------------------------------------
# solve_steiner
# ---------------------------------------------------------------------------


def test_appendix_case_golden_scaffold():
    g = graph_of(APPENDIX_WEIGHTS)
    scaffold = solve_steiner(g, ["ga_sessions", "totals", "hits"])
    assert scaffold.edge_pairs() == {("ga_sessions", "hits"), ("ga_sessions", "totals")}
    assert scaffold.total_cost == 0.17


def test_single_terminal_scaffold():
    g = graph_of(APPENDIX_WEIGHTS)
    scaffold = solve_steiner(g, ["totals"])
    assert scaffold.vertices == ("totals",)
    assert scaffold.edges == ()
    assert scaffold.total_cost == 0.0


def test_unknown_terminal_rejected():
    g = graph_of(APPENDIX_WEIGHTS)
    with pytest.raises(SteinerError, match="unknown terminals: nope"):
        solve_steiner(g, ["nope", "totals"])


def test_empty_terminals_rejected():
    with pytest.raises(SteinerError, match="non-empty"):
        solve_steiner(graph_of(APPENDIX_WEIGHTS), [])


def test_disconnected_terminals_rejected():
    g = graph_of({("a", "b"): 0.1, ("c", "d"): 0.1})
    with pytest.raises(DisconnectedTerminalsError):
        solve_steiner(g, ["a", "c"])


def test_steiner_vertex_used_when_cheaper():
    g = graph_of(
        {("t1", "hub"): 0.1, ("t2", "hub"): 0.1, ("t3", "hub"): 0.1,
         ("t1", "t2"): 0.5, ("t2", "t3"): 0.5}
    )
    scaffold = solve_steiner(g, ["t1", "t2", "t3"])
    assert scaffold.steiner_vertices == ("hub",)
    assert scaffold.total_cost == pytest.approx(0.3)


# ---------------------------------------------------------------------------
# exact oracle
# ---------------------------------------------------------------------------


def test_oracle_on_tree_returns_minimal_subtree():
    g = graph_of(
        {("a", "b"): 0.2, ("b", "c"): 0.3, ("b", "d"): 0.4, ("d", "e"): 0.1}
    )
    scaffold = exact_steiner_oracle(g, ["a", "e"])
    assert scaffold.edge_pairs() == {("a", "b"), ("b", "d"), ("d", "e")}
    assert scaffold.total_cost == exact_total([0.2, 0.4, 0.1])


def test_oracle_matches_kmb_on_appendix_case():
    g = graph_of(APPENDIX_WEIGHTS)
    assert exact_steiner_oracle(g, list(g.vertices)).total_cost == 0.17


def test_oracle_beats_kmb_on_worst_case_family():
    # classic family: terminals ring around a cheap center; KMB picks the
    # ring, the optimum is the star through the center.
    weights = {("s", f"t{i}"): 1.0 for i in range(1, 5)}
    ring = [("t1", "t2"), ("t2", "t3"), ("t3", "t4"), ("t1", "t4")]
    weights.update({e: 1.9 for e in ring})
    g = graph_of(weights)
    terminals = ["t1", "t2", "t3", "t4"]
    kmb = solve_steiner(g, terminals)
    opt = exact_steiner_oracle(g, terminals)
    assert opt.total_cost == pytest.approx(4.0)
    assert kmb.total_cost == pytest.approx(5.7)
    assert opt.total_cost < kmb.total_cost <= 2.0 * opt.total_cost


def test_oracle_disconnected_terminals_names_groups(monkeypatch):
    def no_closure(*args, **kwargs):
        raise AssertionError("the oracle must not build a metric closure")

    monkeypatch.setattr(steiner, "metric_closure", no_closure)
    g = graph_of(
        {("a", "x"): 0.1, ("x", "b"): 0.1, ("c", "d"): 0.1},
        vertices={"a", "b", "c", "d", "e", "x"},
    )
    with pytest.raises(DisconnectedTerminalsError) as err:
        exact_steiner_oracle(g, ["e", "d", "b", "a", "c"])
    assert err.value.groups == (("a", "b"), ("c", "d"), ("e",))
    assert str(err.value) == "disconnected terminals: a,b | c,d | e"
    assert exact_steiner_oracle(g, ["a", "b"]).edge_pairs() == {("a", "x"), ("b", "x")}


def test_oracle_enumerates_only_vertices_of_optimal_trees(monkeypatch):
    calls = []
    kruskal = steiner._kruskal
    monkeypatch.setattr(
        steiner, "_kruskal", lambda *args: calls.append(args) or kruskal(*args)
    )
    weights = {("ta", "hub"): 0.1, ("tb", "hub"): 0.1, ("tc", "hub"): 0.1,
               ("ta", "tb"): 0.7, ("tb", "tc"): 0.7}
    weights.update({("ta", f"d{i}"): 0.5 for i in range(8)})
    opt = exact_steiner_oracle(graph_of(weights), ["ta", "tb", "tc"])
    assert opt.edge_pairs() == {("hub", "ta"), ("hub", "tb"), ("hub", "tc")}
    assert len(calls) == 2  # the subsets {} and {hub}

    # With every weight tied each vertex lies on an optimal tree, so every
    # subset is enumerated: the size guard still bounds the work.
    calls.clear()
    tied = graph_of({e: 0.0 for e in weights})
    assert exact_steiner_oracle(tied, ["ta", "tb", "tc"]).total_cost == 0.0
    assert len(calls) == 2**9


def test_oracle_skips_the_dp_when_most_vertices_are_terminals(monkeypatch):
    # At 14 vertices with 12-14 terminals the full enumeration is 1-4 MSTs,
    # while the DP would merge about 3^T·V row entries (seconds in CPython).
    calls = []
    kruskal = steiner._kruskal
    monkeypatch.setattr(
        steiner, "_kruskal", lambda *args: calls.append(args) or kruskal(*args)
    )

    def no_dp(*_args):
        raise AssertionError("the Dreyfus–Wagner pass ran")

    monkeypatch.setattr(steiner, "_dreyfus_wagner", no_dp)
    for density in (0.0, 0.4, 1.0):
        graph = random_connected_graph(14, SplitMix64(14), density)
        for n_terminals in (12, 13, 14):
            calls.clear()
            opt = exact_steiner_oracle(graph, graph.vertices[:n_terminals])
            assert len(calls) == 2 ** (14 - n_terminals)
            assert set(graph.vertices[:n_terminals]) <= set(opt.vertices)


def test_oracle_runs_the_dp_for_few_terminals_among_many_vertices():
    # The planner comparison's instances: 2-5 terminals at 13-14 vertices.
    for nodes in (13, 14):
        for density in (0.0, 0.4, 1.0):
            graph = random_connected_graph(nodes, SplitMix64(nodes), density)
            for n_terminals in range(2, 6):
                assert steiner._dreyfus_wagner_is_cheaper(graph, n_terminals)


def test_oracle_guard_on_large_graphs():
    weights = {(f"v{i:02d}", f"v{i + 1:02d}"): 0.1 for i in range(15)}
    g = graph_of(weights)
    with pytest.raises(GraphTooLargeError):
        exact_steiner_oracle(g, ["v00", "v15"])


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


def test_two_terminals_all_planners_agree():
    g = graph_of(
        {("a", "b"): 0.2, ("b", "c"): 0.3, ("a", "c"): 0.6}
    )
    terminals = ["a", "c"]
    costs = {
        solve_steiner(g, terminals).total_cost,
        exact_steiner_oracle(g, terminals).total_cost,
        baseline_shortest_path_combination(g, terminals).total_cost,
    }
    assert costs == {0.5}


def test_all_planners_agree_on_appendix_case():
    g = graph_of(APPENDIX_WEIGHTS)
    terminals = list(g.vertices)
    for planner in (
        solve_steiner,
        exact_steiner_oracle,
        baseline_shortest_path_combination,
        baseline_mst_on_terminal_subgraph,
    ):
        assert planner(g, terminals).total_cost == 0.17


def test_mst_baseline_groups_terminals_by_terminal_edges_only():
    # tc reaches ta and tb only through the non-terminal hub.
    g = graph_of({("ta", "tb"): 0.1, ("tb", "hub"): 0.1, ("tc", "hub"): 0.1})
    with pytest.raises(DisconnectedTerminalsError) as err:
        baseline_mst_on_terminal_subgraph(g, ["tc", "tb", "ta"])
    assert err.value.groups == (("ta", "tb"), ("tc",))


def test_mst_baseline_fails_or_loses_on_hub():
    hub_only = graph_of(
        {("ta", "hub"): 0.1, ("tb", "hub"): 0.1, ("tc", "hub"): 0.1}
    )
    with pytest.raises(DisconnectedTerminalsError):
        baseline_mst_on_terminal_subgraph(hub_only, ["ta", "tb", "tc"])
    with_direct = graph_of(
        {("ta", "hub"): 0.1, ("tb", "hub"): 0.1, ("tc", "hub"): 0.1,
         ("ta", "tb"): 0.7, ("tb", "tc"): 0.7, ("ta", "tc"): 0.7}
    )
    kmb = solve_steiner(with_direct, ["ta", "tb", "tc"])
    naive = baseline_mst_on_terminal_subgraph(with_direct, ["ta", "tb", "tc"])
    opt = exact_steiner_oracle(with_direct, ["ta", "tb", "tc"])
    assert kmb.total_cost == opt.total_cost == pytest.approx(0.3)
    assert naive.total_cost == pytest.approx(1.4)
    assert kmb.total_cost < naive.total_cost


# ---------------------------------------------------------------------------
# determinism and exact totals
# ---------------------------------------------------------------------------


def test_exact_total_decimal_accumulation():
    assert exact_total([0.08, 0.09]) == 0.17
    assert exact_total([]) == 0.0
    assert exact_total([0.1] * 10) == 1.0


def test_scaffold_serialization_insertion_order_independent():
    terminals = ["ga_sessions", "totals", "hits"]
    docs = set()
    items = list(APPENDIX_WEIGHTS.items())
    for order in itertools.permutations(items):
        g = SchemaGraph.from_weights(
            ["totals", "hits", "ga_sessions"], dict(order)
        )
        docs.add(scaffold_document(solve_steiner(g, terminals)))
    assert len(docs) == 1


def test_scaffold_validation_rejects_cycles_and_disconnection():
    with pytest.raises(SteinerError):
        SteinerScaffold(
            terminals=("a", "b"),
            vertices=("a", "b", "c"),
            edges=(("a", "b", 0.1), ("a", "c", 0.1), ("b", "c", 0.1)),
        )
    with pytest.raises(SteinerError):
        SteinerScaffold(
            terminals=("a", "d"),
            vertices=("a", "b", "c", "d"),
            edges=(("a", "b", 0.1), ("c", "d", 0.1), ("a", "b", 0.1)),
        )


@pytest.mark.parametrize(
    "w", [0.0, 1e-7, 0.1, 123.456, 0.123456, 0.999999, 7.000001, 0.30000000000000004]
)
def test_decimal_ratio_equals_the_fraction_of_the_decimal_value(w):
    exact = Fraction(repr(w))
    assert steiner._decimal_ratio(w) == (exact.numerator, exact.denominator)


def test_dreyfus_wagner_scales_over_the_common_decimal_denominator():
    graph = graph_of({("a", "b"): 0.1, ("b", "c"): 123.456, ("a", "c"): 0.000001})
    scaled, denominator = steiner._scaled_weights(c.total for c in graph.edges.values())
    row = steiner._dreyfus_wagner(graph, ["a", "c"], scaled)
    assert denominator == 1_000_000
    assert row == {"a": 1, "c": 1, "b": 100_001}


def test_oracle_scales_the_graph_weights_once_per_call(monkeypatch):
    # One scaling of every edge total serves the dynamic program and the
    # enumeration; the scaffold's exact_total is the only other call.
    calls = []
    scaled_weights = steiner._scaled_weights

    def counted(weights):
        weights = list(weights)
        calls.append(sorted(weights))
        return scaled_weights(weights)

    monkeypatch.setattr(steiner, "_scaled_weights", counted)
    monkeypatch.setattr(steiner, "_dreyfus_wagner_is_cheaper", lambda *_: True)
    graph = random_connected_graph(12, SplitMix64(12))
    scaffold = exact_steiner_oracle(graph, graph.vertices[:3])
    assert calls == [
        sorted(c.total for c in graph.edges.values()),
        sorted(w for _a, _b, w in scaffold.edges),
    ]
