"""joinscaffold: join-scaffold planning for SQL generation.

Builds a weighted graph over a database schema, identifies the tables a
question's mathematical logic requires, connects them with a minimum-cost
Steiner scaffold, and validates candidate SQL against the scaffold at three
levels with a bounded re-planning loop.
"""

from .schema import (  # noqa: F401
    ColumnDef,
    ForeignKey,
    Schema,
    SchemaError,
    TableDef,
    load_schema_from_database,
    load_schema_from_document,
    serialize_schema_document,
)
from .profiling import StatsProfile, profile_statistics  # noqa: F401
from .embedding import (  # noqa: F401
    HttpEmbeddingProvider,
    TrigramEmbeddingProvider,
    default_provider,
    embed_text,
)
from .costs import (  # noqa: F401
    CostWeights,
    EdgeCost,
    SchemaGraph,
    build_schema_graph,
    column_pair_similarity,
    connection_cost,
    graph_document,
    semantic_cost,
    statistical_cost,
    table_similarity,
)
from .steiner import (  # noqa: F401
    DisconnectedTerminalsError,
    MetricClosure,
    SteinerError,
    SteinerScaffold,
    baseline_mst_on_terminal_subgraph,
    baseline_shortest_path_combination,
    exact_steiner_oracle,
    expand_to_paths,
    metric_closure,
    mst_on_terminals,
    prune_to_tree,
    scaffold_document,
    solve_steiner,
)
from .decompose import (  # noqa: F401
    MathEntity,
    TerminalSet,
    decompose_question,
    decomposition_document,
    extract_entities,
    extract_entities_llm,
    find_containing_tables,
)
from .sqlcheck import (  # noqa: F401
    ParseError,
    ValidationReport,
    Violation,
    parse_sql,
    report_document,
    validate_all,
    validate_execution,
    validate_math,
    validate_semantic,
)
from .pipeline import (  # noqa: F401
    GeneratorClient,
    HttpGenerator,
    PipelineConfig,
    PipelineResult,
    StubGenerator,
    build_prompt,
    pipeline_document,
    run_pipeline,
    update_terminals,
)

__version__ = "0.1.0"
