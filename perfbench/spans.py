"""Span and counter recorder for the traced run.

The recorder wraps public functions of the ``joinscaffold`` modules in
memory, so no file under ``src/`` changes. A wrapped function opens a span
(name, start, end, parent span, operation id) when called and can add to
counters from its arguments and result. Time comes from
``time.perf_counter`` only. Spans stay in memory until the run ends.

A function imported by name into several modules is patched in every module
that holds it, so a call is traced whichever module it is made from.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterable, Optional

CountFn = Callable[[Counter, tuple, dict, Any], None]


class Recorder:
    def __init__(self) -> None:
        # [name, start, end, parent index or -1, operation id]
        self.spans: list[list] = []
        self.counters = {"setup": Counter(), "ops": Counter()}
        self.current = self.counters["setup"]  # the counters of the running phase
        self._operation: Optional[int] = None
        self.vectors: dict[int, object] = {}  # embedding results seen so far
        self.active: Counter = Counter()  # span name -> open spans of that name
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans and counters -------------------------------------------------

    @property
    def operation(self) -> Optional[int]:
        """Id of the operation running, or None while setting up."""
        return self._operation

    @operation.setter
    def operation(self, value: Optional[int]) -> None:
        self._operation = value
        self.current = self.counters["setup" if value is None else "ops"]

    def spanned(self, fn: Callable, name: str, count: Optional[CountFn] = None) -> Callable:
        """``fn`` wrapped so each call records a span and then its counters."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(rec.spans)
            parent = rec._stack[-1] if rec._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, rec.operation]
            rec.spans.append(span)
            rec._stack.append(index)
            rec.active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                rec._stack.pop()
                rec.active[name] -= 1
            if count is not None:
                count(rec.current, args, kwargs, result)
            return result

        return wrapper

    def counted(self, fn: Callable, count: CountFn) -> Callable:
        """``fn`` wrapped to add to counters only: no span, for hot functions."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(rec.current, args, kwargs, result)
            return result

        return wrapper

    # -- patching -----------------------------------------------------------

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_everywhere(
        self, original: Callable, replacement: Callable, modules: Optional[Iterable[str]] = None
    ) -> None:
        """Replace ``original`` in every ``joinscaffold`` module (or the named ones)."""
        names = modules or [m for m in sys.modules if m.split(".")[0] == "joinscaffold"]
        for mod_name in names:
            module = sys.modules[mod_name]
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, attr, replacement)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation --------------------------------------------------------

    def self_times(self, setup: bool) -> dict[str, float]:
        """Total self time in seconds per span name, of set-up or operation spans.

        Self time is a span's duration minus the durations of its direct
        children. One thread runs everything, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, op) in enumerate(self.spans):
            if (op is None) != setup:
                continue
            totals[name] += (end - start) - child_time[i]
        return totals

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "operation": op}
            for n, s, e, p, op in self.spans
        ]


# ---------------------------------------------------------------------------
# The joinscaffold layers
# ---------------------------------------------------------------------------

REPLAN_CODES = (
    "MISSING_TERMINAL", "UNMAPPED_ATTRIBUTE", "IRRELEVANT_JOIN",
    "AGG_MISMATCH", "CONSTRAINT_MISMATCH", "GROUPBY_RULE",
)


def instrument(rec: Recorder) -> None:
    """Wrap the public functions of every layer; ``rec.unpatch()`` undoes it."""
    from joinscaffold import bench, costs, decompose, embedding, pipeline, profiling
    from joinscaffold import schema, steiner
    from joinscaffold.sqlcheck import parser, validate

    def span(fn, name, count=None, modules=None):
        rec.patch_everywhere(fn, rec.spanned(fn, name, count), modules)

    def add(amounts: dict[str, Callable]) -> CountFn:
        """Adds ``amount(args, kwargs, result)`` to each named counter."""
        def count(c, args, kwargs, result):
            for name, amount in amounts.items():
                c[name] += amount(args, kwargs, result)
        return count

    span(schema.load_schema_from_database, "schema.load")
    span(profiling.profile_statistics, "profiling.profile",
         add({"profiling.pairs_profiled": lambda a, k, r: len(r.pairs)}))
    span(costs.candidate_join_pairs, "profiling.candidate_pairs")

    # The hottest call of all, so it gets a lean wrapper of its own. A cache
    # hit returns the memoized vector object; a miss returns a new one.
    provider = embedding.default_provider()
    embed = provider.embed

    def counted_embed(text):
        vec = embed(text)
        counts = rec.current
        counts["embedding.embed_calls"] += 1
        if id(vec) not in rec.vectors:
            rec.vectors[id(vec)] = vec
            counts["embedding.cache_misses"] += 1
        return vec

    rec.patch(provider, "embed", counted_embed)

    span(costs.build_schema_graph, "costs.build_graph", add({
        "costs.build_graph_calls": lambda a, k, g: 1,
        "costs.vertex_pairs": lambda a, k, g: len(g.vertices) * (len(g.vertices) - 1) // 2,
        "costs.edges_admitted_fk": lambda a, k, g: sum(e.has_fk for e in g.edges.values()),
        "costs.edges_admitted_similarity": lambda a, k, g: sum(
            not e.has_fk for e in g.edges.values()),
    }))
    rec.patch_everywhere(costs.table_similarity, rec.counted(costs.table_similarity, add({
        "costs.table_pairs_scored": lambda a, k, r: 1,
        "costs.column_pairs_scored": lambda a, k, r: len(a[0].columns) * len(a[1].columns),
    })))

    span(steiner.solve_steiner, "steiner.solve", add({
        "steiner.scaffold_edges": lambda a, k, s: len(s.edges),
        "steiner.bridge_vertices": lambda a, k, s: len(s.steiner_vertices),
    }))
    span(steiner.metric_closure, "steiner.closure", add({
        "steiner.closure_entries": lambda a, k, m: sum(len(row) for row in m.keys.values())}))
    span(steiner.mst_on_terminals, "steiner.mst")
    span(steiner.expand_to_paths, "steiner.expand")
    span(steiner.prune_to_tree, "steiner.prune")
    span(steiner.exact_steiner_oracle, "steiner.oracle")
    span(steiner.baseline_shortest_path_combination, "steiner.baseline")
    span(steiner.baseline_mst_on_terminal_subgraph, "steiner.baseline")

    # The oracle builds one induced-subgraph MST per Steiner-vertex subset.
    def count_subset(c, args, kwargs, result):
        if rec.active["steiner.oracle"]:
            c["steiner.oracle_subsets"] += 1

    rec.patch(steiner, "_kruskal", rec.counted(steiner._kruskal, count_subset))
    span(bench.run_bench, "bench.run_bench")

    span(decompose.decompose_question, "decompose.decompose",
         add({"decompose.terminals": lambda a, k, r: len(r.terminals)}))
    # Only the re-planning call site: decomposition's own lookups stay inside
    # decompose.decompose.
    span(decompose.find_containing_tables, "decompose.find_tables",
         modules=["joinscaffold.pipeline"])

    def count_replans(c, args, kwargs, result):
        report = args[1] if len(args) > 1 else kwargs["report"]
        for v in report.violations:
            if v.code in REPLAN_CODES:
                c[f"pipeline.replans.{v.code}"] += 1

    span(pipeline.run_pipeline, "pipeline.run",
         add({"pipeline.iterations": lambda a, k, r: r.iterations_used}))
    span(pipeline.build_prompt, "pipeline.prompt")
    span(pipeline.update_terminals, "pipeline.replan", count_replans)

    span(validate.validate_all, "sqlcheck.validate", add({
        "sqlcheck.validations": lambda a, k, r: 1,
        "sqlcheck.passed": lambda a, k, r: int(r.ok),
    }))
    span(validate.validate_execution, "sqlcheck.execute",
         add({"sqlcheck.rows_fetched": lambda a, k, r: r.row_count or 0}))
    span(parser.parse_sql, "sqlcheck.parse")
    span(validate.validate_semantic, "sqlcheck.semantic")
    span(validate.validate_math, "sqlcheck.math")


# Per-layer metrics: (name, unit, source). Span times are self times in ms,
# per operation except for the set-up layers, which are per set-up.
OPERATION_TIMES = (
    ("costs.build_graph_ms", "costs.build_graph"),
    ("steiner.solve_ms", "steiner.solve"),
    ("steiner.closure_ms", "steiner.closure"),
    ("steiner.mst_ms", "steiner.mst"),
    ("steiner.expand_ms", "steiner.expand"),
    ("steiner.prune_ms", "steiner.prune"),
    ("steiner.oracle_ms", "steiner.oracle"),
    ("steiner.baseline_ms", "steiner.baseline"),
    ("bench.run_bench_ms", "bench.run_bench"),
    ("decompose.decompose_ms", "decompose.decompose"),
    ("decompose.find_tables_ms", "decompose.find_tables"),
    ("pipeline.run_ms", "pipeline.run"),
    ("pipeline.prompt_ms", "pipeline.prompt"),
    ("pipeline.generate_ms", "pipeline.generate"),
    ("pipeline.replan_ms", "pipeline.replan"),
    ("sqlcheck.validate_ms", "sqlcheck.validate"),
    ("sqlcheck.execute_ms", "sqlcheck.execute"),
    ("sqlcheck.parse_ms", "sqlcheck.parse"),
    ("sqlcheck.semantic_ms", "sqlcheck.semantic"),
    ("sqlcheck.math_ms", "sqlcheck.math"),
)
SETUP_TIMES = (
    ("schema.load_ms", "schema.load"),
    ("profiling.profile_ms", "profiling.profile"),
    ("profiling.candidate_pairs_ms", "profiling.candidate_pairs"),
)
OPERATION_COUNTS = (
    "embedding.embed_calls",
    "costs.build_graph_calls",
    "costs.table_pairs_scored",
    "costs.column_pairs_scored",
    "costs.edges_admitted_fk",
    "costs.edges_admitted_similarity",
    "steiner.closure_entries",
    "steiner.scaffold_edges",
    "steiner.bridge_vertices",
    "steiner.oracle_subsets",
    "decompose.terminals",
    "pipeline.iterations",
    *(f"pipeline.replans.{code}" for code in REPLAN_CODES),
    "sqlcheck.rows_fetched",
)
SETUP_COUNTS = ("profiling.pairs_profiled", "embedding.cache_misses")
RATIOS = (
    "embedding.hit_ratio",
    "costs.admit_ratio",
    "sqlcheck.pass_ratio",
    "steiner.mean_optimality_ratio",
)
OVERHEAD = "trace.overhead_pct"


def per_layer_units() -> dict[str, str]:
    units = {name: "ms" for name, _span in SETUP_TIMES + OPERATION_TIMES}
    units.update({name: "count" for name in SETUP_COUNTS + OPERATION_COUNTS})
    units.update({name: "ratio" for name in RATIOS})
    units[OVERHEAD] = "%"
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    rec: Recorder, setups: int, operations: int, optimality: Iterable[float], overhead_pct: float
) -> dict[str, float]:
    """Every per-layer metric from the spans and counters of a traced run."""
    setup_t = rec.self_times(setup=True)
    op_t = rec.self_times(setup=False)
    sc, oc = rec.counters["setup"], rec.counters["ops"]
    out: dict[str, float] = {}
    for name, span_name in SETUP_TIMES:
        out[name] = 1000 * setup_t.get(span_name, 0.0) / setups
    for name, span_name in OPERATION_TIMES:
        out[name] = 1000 * op_t.get(span_name, 0.0) / operations
    for name in SETUP_COUNTS:
        out[name] = sc[name] / setups
    for name in OPERATION_COUNTS:
        out[name] = oc[name] / operations
    calls = sc["embedding.embed_calls"] + oc["embedding.embed_calls"]
    misses = sc["embedding.cache_misses"] + oc["embedding.cache_misses"]
    out["embedding.hit_ratio"] = _ratio(calls - misses, calls)
    out["costs.admit_ratio"] = _ratio(
        oc["costs.edges_admitted_fk"] + oc["costs.edges_admitted_similarity"],
        oc["costs.vertex_pairs"],
    )
    out["sqlcheck.pass_ratio"] = _ratio(oc["sqlcheck.passed"], oc["sqlcheck.validations"])
    optimality = list(optimality)
    out["steiner.mean_optimality_ratio"] = _ratio(sum(optimality), len(optimality))
    out[OVERHEAD] = overhead_pct
    return out
