"""The four workloads: inputs, set-up and one operation at a time.

Each workload calls the program only through module attributes looked up at
call time (``pipeline.run_pipeline(...)``), so the recorder in spans.py can
wrap them. ``prepare`` writes inputs and is never timed; ``setup`` is the
timed set-up (schema load, statistics profiling, one warm-up operation).
``order`` yields pool items without end; ``operation(item)`` returns the
item's digest key, a callable that performs the timed operation, and a
function that renders its result as the canonical document.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from joinscaffold import bench, pipeline, profiling, schema, steiner

import inputs
from stub import ScaffoldStub
from spans import Recorder

Operation = tuple[str, Callable[[], Any], Callable[[Any], str]]


class Workload:
    """Set-up is one warm-up operation, which fills the caches it touches."""

    order: Iterator

    def prepare(self) -> None:
        pass

    def setup(self, rec: Optional[Recorder] = None) -> None:
        _key, op, _render = self.operation(next(self.order), rec)
        op()

    def operation(self, item, rec: Optional[Recorder] = None) -> Operation:
        raise NotImplementedError


class PipelineWorkload(Workload):
    """``run_pipeline`` over one seeded schema variant and its question pool."""

    def __init__(self, make_inputs: Callable[[int], inputs.PipelineInputs],
                 variants: int, seed: int, workdir: Path):
        self.inputs = make_inputs(seed % variants)
        self.db = workdir / f"{self.inputs.name}-{self.inputs.variant}.db"
        self.order = self.inputs.order(seed)
        self.config = pipeline.PipelineConfig()
        self.iterations: dict[str, int] = {}  # per question run

    @property
    def description(self) -> str:
        spec = self.inputs.spec
        cols = sum(len(t.columns) for t in spec.tables.values())
        rows = sum(t.rows for t in spec.tables.values())
        return (f"variant {self.inputs.variant}: {len(spec.tables)} tables, "
                f"{cols} columns, {rows} rows")

    def prepare(self) -> None:
        self.inputs.write(self.db)

    def setup(self, rec: Optional[Recorder] = None) -> None:
        self.schema = schema.load_schema_from_database(self.db)
        self.stats = profiling.profile_statistics(self.schema, self.db)
        super().setup(rec)

    def operation(self, index: int, rec: Optional[Recorder] = None) -> Operation:
        question = self.inputs.questions[index]
        client = ScaffoldStub(self.inputs.spec, question)
        if rec is not None:
            client.generate = rec.spanned(client.generate, "pipeline.generate")

        def op():
            return pipeline.run_pipeline(
                question.text, self.schema, self.db, self.config, client, stats=self.stats
            )

        key = f"{self.inputs.variant}/{index}"

        def render(result) -> str:
            self.iterations[key] = result.iterations_used
            return pipeline.pipeline_document(result)

        return key, op, render


class LargeGraphWorkload(Workload):
    """``solve_steiner`` on seeded random graphs of 80 vertices."""

    description = (f"{inputs.LARGE_INSTANCES} graphs of {inputs.LARGE_NODES} vertices, "
                   "2-6 terminals")

    def __init__(self, seed: int, workdir: Path):
        self.order = inputs.stratified_order(inputs.large_strata(), seed)

    def operation(self, item: tuple[int, int], rec: Optional[Recorder] = None) -> Operation:
        instance = inputs.large_instance(*item)
        return (
            instance.key,
            lambda: steiner.solve_steiner(instance.graph, instance.terminals),
            steiner.scaffold_document,
        )


class PlannerWorkload(Workload):
    """One ``run_bench`` instance (KMB, oracle, two baselines) at 13-14 vertices."""

    description = f"sizes {inputs.PLANNER_SIZES}, 2-5 terminals"

    def __init__(self, seed: int, workdir: Path):
        self.order = inputs.stratified_order(inputs.planner_strata(), seed)
        self.ratios: dict[str, float] = {}  # KMB / oracle cost per instance run

    def operation(self, item: tuple[int, int], rec: Optional[Recorder] = None) -> Operation:
        nodes, seed = item
        key = f"{nodes}/{seed}"

        def render(rows) -> str:
            self.ratios.update((key, r.ratio) for r in rows if r.ratio is not None)
            return bench.bench_document(rows)

        return key, lambda: bench.run_bench(1, nodes, base_seed=seed), render


WORKLOADS: dict[str, Callable[[int, Path], Any]] = {
    "wide_schema_plan": lambda seed, wd: PipelineWorkload(
        inputs.wide_inputs, inputs.WIDE_VARIANTS, seed, wd),
    "deep_data_validate": lambda seed, wd: PipelineWorkload(
        inputs.deep_inputs, inputs.DEEP_VARIANTS, seed, wd),
    "large_graph_solve": LargeGraphWorkload,
    "planner_compare": PlannerWorkload,
}
