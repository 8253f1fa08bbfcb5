"""Solve the minimum join scaffold for a set of required tables.

The planner computes the metric closure, takes an MST over the terminals,
expands closure edges back to real paths, and prunes. The resulting tree is
within twice the optimal cost; the exact oracle verifies that here.
"""

from joinscaffold import (
    SchemaGraph,
    baseline_mst_on_terminal_subgraph,
    exact_steiner_oracle,
    scaffold_document,
    solve_steiner,
)

# The worked analytics case: three tables, two cheap FK-like links and one
# expensive direct link.
graph = SchemaGraph.from_weights(
    ["ga_sessions", "totals", "hits"],
    {
        ("ga_sessions", "totals"): 0.08,
        ("ga_sessions", "hits"): 0.09,
        ("totals", "hits"): 0.58,
    },
)
scaffold = solve_steiner(graph, ["ga_sessions", "totals", "hits"])
print("analytics scaffold edges:", [(a, b) for a, b, _ in scaffold.edges])
print("total cost:", scaffold.total_cost)  # exactly 0.17
print(scaffold_document(scaffold))

# A bridge table the question never mentions can still be the right route:
# connecting three terminals through a cheap hub beats any direct wiring.
hub = SchemaGraph.from_weights(
    ["flights", "bookings", "passengers", "airports"],
    {
        ("flights", "bookings"): 0.1,
        ("bookings", "passengers"): 0.1,
        ("flights", "airports"): 0.1,
        ("passengers", "airports"): 0.9,
    },
)
terminals = ["airports", "passengers"]
kmb = solve_steiner(hub, terminals)
opt = exact_steiner_oracle(hub, terminals)
print("\nhub case, KMB:", [(a, b) for a, b, _ in kmb.edges], "cost", kmb.total_cost)
print("hub case, optimal:", [(a, b) for a, b, _ in opt.edges], "cost", opt.total_cost)
print("steiner vertices (bridge tables):", kmb.steiner_vertices)

# The naive baseline that only joins terminals directly pays more.
naive = baseline_mst_on_terminal_subgraph(hub, terminals)
print("terminal-only MST cost:", naive.total_cost, "(worse)")
