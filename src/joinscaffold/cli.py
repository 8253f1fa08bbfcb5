"""Command-line surface: graph, solve, plan, validate, run, bench.

Every command writes a canonical document to stdout (or ``-o FILE``) so
outputs can be diffed and piped between commands. Exit codes: 0 success,
2 domain failure (validation failed, disconnected terminals, loop exhausted),
1 infrastructure or usage error, every database fault included.

Configuration precedence: flags > environment > config file > defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .canonical import canonical_json
from .costs import (
    CostWeights,
    build_schema_graph,
    candidate_join_pairs,
    graph_document,
    load_graph_document,
)
from .decompose import TerminalSet, decompose_question, decomposition_document
from .pipeline import (
    GeneratorError,
    HttpGenerator,
    PipelineConfig,
    PipelineError,
    StubGenerator,
    pipeline_document,
    run_pipeline,
)
from .profiling import profile_statistics
from .schema import (
    Schema,
    SchemaError,
    load_schema_from_database,
    load_schema_from_document,
)
from .sqlcheck import InfrastructureError, report_document, validate_all
from .steiner import (
    MAX_ORACLE_VERTICES,
    DisconnectedTerminalsError,
    SteinerError,
    exact_steiner_oracle,
    load_scaffold_document,
    scaffold_document,
    solve_steiner,
)
from .bench import bench_document, run_bench

EXIT_OK = 0
EXIT_INFRA = 1
EXIT_DOMAIN = 2


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INFRA):
        super().__init__(message)
        self.code = code


def _load_schema_input(path_text: str) -> Schema:
    path = Path(path_text)
    if not path.is_file():
        raise CliError(f"schema input not found: {path}")
    if path.suffix.lower() in (".json", ".txt"):
        try:
            return load_schema_from_document(path.read_text(encoding="utf-8"))
        except SchemaError as exc:
            raise CliError(str(exc)) from exc
    try:
        return load_schema_from_database(path)
    except SchemaError as exc:
        raise CliError(str(exc)) from exc


def _read_json(path: Path, what: str):
    """The parsed JSON content of a file named on the command line.

    A missing file or one that is not UTF-8 JSON is a usage error (exit 1),
    reported with the file's name. Each caller checks the shape of what it
    reads and reports a wrong one the same way.
    """
    if not path.is_file():
        raise CliError(f"{what} not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CliError(f"{what} {path}: {exc}") from exc


def _is_override_edge(edge) -> bool:
    return (
        isinstance(edge, dict)
        and isinstance(edge.get("a"), str)
        and isinstance(edge.get("b"), str)
        and isinstance(edge.get("cost"), (int, float))
        and not isinstance(edge.get("cost"), bool)
    )


def _load_overrides(path_text: Optional[str], schema: Schema) -> Optional[dict]:
    if not path_text:
        return None
    path = Path(path_text)
    doc = _read_json(path, "override-costs file")
    edges = doc.get("edges") if isinstance(doc, dict) else None
    if not isinstance(edges, list) or not all(_is_override_edge(e) for e in edges):
        raise CliError(
            f"override-costs file {path}: expected an object with an \"edges\" list "
            'of {"a": table, "b": table, "cost": number} objects'
        )
    overrides = {}
    for e in edges:
        a, b = schema.resolve_table(e["a"]), schema.resolve_table(e["b"])
        if a is None or b is None or a == b:
            raise CliError(f"override-costs file {path}: {e['a']!r} and {e['b']!r} are not two tables")
        overrides[a, b] = float(e["cost"])
    return overrides


def _load_stub(path: Path) -> StubGenerator:
    doc = _read_json(path, "stub-responses file")
    if isinstance(doc, list):
        doc = {"responses": doc}
    if isinstance(doc, dict):
        responses, keyed, default = doc.get("responses", []), doc.get("keyed"), doc.get("default")
        if (
            isinstance(responses, list)
            and all(isinstance(r, str) for r in responses)
            and (keyed is None or isinstance(keyed, dict))
            and all(isinstance(r, str) for r in (keyed or {}).values())
            and (default is None or isinstance(default, str))
        ):
            return StubGenerator(responses=responses, keyed=keyed, default=default)
    raise CliError(
        f"stub-responses file {path}: expected a list of SQL strings or an object "
        'with "responses" (a list of strings), "keyed" (an object of strings) '
        'and "default" (a string)'
    )


# The keys a config file may hold besides "weights" (an object of CostWeights
# fields) and "tau" (its tau): the other PipelineConfig fields.
_CONFIG_KEYS = frozenset(f.name for f in dataclasses.fields(PipelineConfig)) - {"weights"}


def _effective_config(args: argparse.Namespace) -> PipelineConfig:
    """Merge defaults, config file, environment, and flags (that order)."""
    values: dict = {}
    weight_fields: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        doc = _read_json(Path(config_path), "config file")
        if not isinstance(doc, dict) or not isinstance(doc.get("weights", {}), dict):
            raise CliError(
                f"config file {config_path}: expected an object, "
                'with "weights" (if given) an object'
            )
        weight_fields.update(doc.pop("weights", {}))
        if "tau" in doc:
            weight_fields["tau"] = doc.pop("tau")
        unknown = sorted(set(doc) - _CONFIG_KEYS)
        if unknown:
            raise CliError(f"config file {config_path}: unknown keys {unknown}")
        values.update(doc)
    env = os.environ
    for env_key, cfg_key in (
        ("JOINSCAFFOLD_GENERATOR_ENDPOINT", "generator_endpoint"),
        ("JOINSCAFFOLD_GENERATOR_MODEL", "generator_model"),
        ("JOINSCAFFOLD_GENERATOR_API_KEY", "generator_api_key"),
    ):
        if env.get(env_key):
            values[cfg_key] = env[env_key]
    if getattr(args, "weights", None):
        parts = [float(x) for x in args.weights.split(",")]
        if len(parts) != 3:
            raise CliError("--weights expects three comma-separated values a,b,g")
        weight_fields.update(alpha=parts[0], beta=parts[1], gamma=parts[2])
    if getattr(args, "tau", None) is not None:
        weight_fields["tau"] = args.tau
    try:
        weights = dataclasses.replace(CostWeights(), **weight_fields)
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid weights: {exc}") from exc
    try:
        if values.get("template_dir"):
            values["template_dir"] = Path(values["template_dir"])
        return PipelineConfig(weights=weights, **values)
    except (TypeError, ValueError) as exc:  # only config-file values can fail here
        raise CliError(f"config file {config_path}: {exc}") from exc


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _maybe_show_config(args: argparse.Namespace, config: PipelineConfig) -> bool:
    if getattr(args, "show_config", False):
        doc = dataclasses.asdict(config)
        doc["template_dir"] = str(doc["template_dir"]) if doc["template_dir"] else None
        _emit(canonical_json(doc), getattr(args, "output", None))
        return True
    return False


def _parse_terminals(text: Optional[str]) -> list[str]:
    if not text:
        raise CliError("--terminals is required (comma-separated table names)")
    return [t.strip() for t in text.split(",") if t.strip()]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_graph(args: argparse.Namespace) -> int:
    config = _effective_config(args)
    if _maybe_show_config(args, config):
        return EXIT_OK
    schema = _load_schema_input(args.schema)
    overrides = _load_overrides(args.override_costs, schema)
    stats = None
    if args.db and args.profile:
        pairs = candidate_join_pairs(schema, config.weights)
        stats = profile_statistics(schema, args.db, config.sample_limit, pairs)
    graph = build_schema_graph(
        schema, stats, config.weights, cost_overrides=overrides
    )
    if args.costs:
        lines = [f"{'edge':40s} {'connect':>8s} {'semantic':>8s} {'stat':>8s} {'total':>8s}"]
        for a, b, cost in graph.sorted_edges():
            lines.append(
                f"{a + ' -- ' + b:40s} {cost.connect:8.4f} {cost.semantic:8.4f} "
                f"{cost.statistical:8.4f} {cost.total:8.4f}"
            )
        _emit("\n".join(lines) + "\n", args.output)
    else:
        _emit(graph_document(graph), args.output)
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    config = _effective_config(args)
    if _maybe_show_config(args, config):
        return EXIT_OK
    path = Path(args.input)
    if not path.is_file():
        raise CliError(f"input not found: {path}")
    graph = None
    if path.suffix.lower() in (".json", ".txt"):
        doc = _read_json(path, "input")
        if isinstance(doc, dict) and "vertices" in doc and "edges" in doc:
            graph = load_graph_document(path.read_text(encoding="utf-8"))
    if graph is None:
        schema = _load_schema_input(args.input)
        overrides = _load_overrides(args.override_costs, schema)
        graph = build_schema_graph(
            schema, None, config.weights, cost_overrides=overrides
        )
    terminals = _parse_terminals(args.terminals)
    scaffold = solve_steiner(graph, terminals)
    if args.exact:
        oracle = exact_steiner_oracle(graph, terminals)
        ratio = (
            scaffold.total_cost / oracle.total_cost if oracle.total_cost > 0 else 1.0
        )
        doc = {
            "scaffold": json.loads(scaffold_document(scaffold)),
            "oracle": json.loads(scaffold_document(oracle)),
            "kmb_cost": scaffold.total_cost,
            "oracle_cost": oracle.total_cost,
            "ratio": ratio,
        }
        _emit(canonical_json(doc), args.output)
    else:
        _emit(scaffold_document(scaffold), args.output)
    return EXIT_OK


def cmd_plan(args: argparse.Namespace) -> int:
    config = _effective_config(args)
    if _maybe_show_config(args, config):
        return EXIT_OK
    schema = _load_schema_input(args.schema)
    result = decompose_question(args.question, schema, config.weights)
    _emit(decomposition_document(result), args.output)
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    config = _effective_config(args)
    if _maybe_show_config(args, config):
        return EXIT_OK
    schema = _load_schema_input(args.schema)
    if args.sql_file:
        sql = Path(args.sql_file).read_text(encoding="utf-8")
    elif args.sql:
        sql = args.sql
    else:
        raise CliError("provide --sql or --sql-file")
    if not args.db:
        raise CliError("--db is required for execution validation")
    terminals = TerminalSet.from_pairs(
        (t, "direct-reference") for t in _parse_terminals(args.terminals)
    )
    scaffold = None
    if args.scaffold:
        scaffold = load_scaffold_document(Path(args.scaffold).read_text(encoding="utf-8"))
    entities = ()
    if args.question:
        entities = decompose_question(args.question, schema, config.weights).entities
    report = validate_all(
        sql, args.db, terminals, scaffold, entities, schema, config.weights
    )
    _emit(report_document(report), args.output)
    return EXIT_OK if report.ok else EXIT_DOMAIN


def cmd_run(args: argparse.Namespace) -> int:
    config = _effective_config(args)
    if _maybe_show_config(args, config):
        return EXIT_OK
    schema = _load_schema_input(args.schema)
    if args.stub_responses:
        client = _load_stub(Path(args.stub_responses))
    else:
        client = HttpGenerator(config)
    result = run_pipeline(args.question, schema, args.db, config, client)
    _emit(pipeline_document(result), args.output)
    return EXIT_OK if result.outcome == "sql" else EXIT_DOMAIN


def cmd_bench(args: argparse.Namespace) -> int:
    config = _effective_config(args)
    if _maybe_show_config(args, config):
        return EXIT_OK
    if args.nodes > MAX_ORACLE_VERTICES and not args.hub_family:
        raise CliError(f"bench is oracle-verified; --nodes must be <= {MAX_ORACLE_VERTICES}")
    rows = run_bench(
        seeds=args.seeds,
        nodes=args.nodes,
        max_terminals=args.max_terminals,
        hub_family=args.hub_family,
        base_seed=args.base_seed,
    )
    _emit(bench_document(rows), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--weights", help="blend weights a,b,g (default 0.4,0.4,0.2)")
    parser.add_argument("--tau", type=float, help="edge-admission threshold (default 0.75)")
    parser.add_argument("-o", "--output", help="write the document to a file instead of stdout")
    parser.add_argument(
        "--show-config", action="store_true", help="print the effective merged config and exit"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="joinscaffold",
        description="Join-scaffold planning: schema graphs, Steiner solving, SQL validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="build and export the weighted schema graph")
    p.add_argument("schema", help="schema document (.json) or SQLite database")
    p.add_argument("--db", help="database for statistics profiling")
    p.add_argument("--profile", action="store_true", help="profile join statistics from --db")
    p.add_argument("--override-costs", help="JSON file pinning edge costs")
    p.add_argument("--costs", action="store_true", help="print per-edge component breakdown")
    _add_common(p)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("solve", help="solve the Steiner scaffold for a terminal set")
    p.add_argument("input", help="schema document, database, or graph document")
    p.add_argument("--terminals", help="comma-separated terminal tables")
    p.add_argument("--override-costs", help="JSON file pinning edge costs")
    p.add_argument("--exact", action="store_true", help="also run the exact oracle and print the ratio")
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("plan", help="decompose a question into entities and terminals")
    p.add_argument("question")
    p.add_argument("schema", help="schema document (.json) or SQLite database")
    _add_common(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("validate", help="run three-level validation on a SQL query")
    p.add_argument("schema", help="schema document (.json) or SQLite database")
    p.add_argument("--sql", help="SQL text")
    p.add_argument("--sql-file", help="file containing SQL")
    p.add_argument("--db", help="database for execution validation")
    p.add_argument("--terminals", help="comma-separated terminal tables")
    p.add_argument("--scaffold", help="scaffold document from `solve`")
    p.add_argument("--question", help="derive entities for level-3 checks from this question")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="run the full planning loop on a question")
    p.add_argument("question")
    p.add_argument("schema", help="schema document (.json) or SQLite database")
    p.add_argument("--db", help="database for execution validation (defaults to schema when it is a db)")
    p.add_argument("--stub-responses", help="JSON stub responses; forces the offline stub client")
    _add_common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="compare planners on seeded random graphs")
    p.add_argument("--seeds", type=int, default=50)
    p.add_argument("--nodes", type=int, default=8)
    p.add_argument("--max-terminals", type=int, default=5)
    p.add_argument("--hub-family", action="store_true", help="use the 4-node hub fixture family")
    p.add_argument("--base-seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "run" and not args.db:
        schema_path = Path(args.schema)
        if schema_path.suffix.lower() not in (".json", ".txt"):
            args.db = args.schema
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except DisconnectedTerminalsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for group in exc.groups:
            print(f"  group: {', '.join(group)}", file=sys.stderr)
        return EXIT_DOMAIN
    except (SchemaError, InfrastructureError, GeneratorError, OSError) as exc:
        # Before ValueError: SchemaError subclasses it, and database faults exit 1.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFRA
    except (SteinerError, PipelineError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
