"""Command-line interface.

Seven subcommands cover the everyday workflows::

    python -m repro tpch --query 9 --workers 8 --fail-at 0.5   # run a TPC-H query
    python -m repro sql "SELECT count(*) AS n FROM orders"     # run ad-hoc SQL
    python -m repro session --queries 1,6,3,1 --compare        # multi-query session
    python -m repro chaos matrix --queries 1,6,9 --seeds 10    # differential chaos
    python -m repro chaos replay --query 9 --strategy wal --seed 3   # 1-cmd repro
    python -m repro explain --query 3 --optimize               # cost-annotated plans
    python -m repro analyze --tables lineitem,orders           # table statistics
    python -m repro systems                                     # list system presets

Everything runs on the simulated cluster, so the tool works on a laptop with
no services to start; runtimes reported are virtual seconds.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.api import QueryOptions, QuokkaContext
from repro.api.systems import SYSTEM_PRESETS
from repro.cluster.faults import FailurePlan
from repro.common.config import CostModelConfig
from repro.common.errors import ReproError
from repro.core.metrics import QueryResult
from repro.plan import format_batch
from repro.tpch import build_query, generate_catalog
from repro.tpch.sql import SQL_QUERIES, build_sql_query


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Write-ahead lineage query engine (paper reproduction) CLI",
    )
    subparsers = parser.add_subparsers(dest="command")

    tpch = subparsers.add_parser("tpch", help="run one TPC-H query on the simulated cluster")
    _add_cluster_arguments(tpch)
    tpch.add_argument("--query", type=int, required=True, help="TPC-H query number (1-22)")
    tpch.add_argument(
        "--system",
        default="quokka",
        choices=sorted(SYSTEM_PRESETS),
        help="system preset to run as (default: quokka)",
    )
    tpch.add_argument(
        "--use-sql",
        action="store_true",
        help="use the SQL formulation (where available) instead of the DataFrame plan",
    )
    _add_planner_arguments(tpch)
    tpch.add_argument(
        "--fail-worker", type=int, default=None, help="worker id to kill during the query"
    )
    tpch.add_argument(
        "--fail-at",
        type=float,
        default=0.5,
        help="fraction of the failure-free runtime at which the worker is killed (default 0.5)",
    )
    tpch.add_argument("--rows", type=int, default=10, help="result rows to print (default 10)")
    _add_memory_arguments(tpch)
    tpch.add_argument(
        "--trace",
        action="store_true",
        help="collect an execution trace and print per-worker utilisation and a timeline",
    )
    tpch.set_defaults(handler=run_tpch)

    sql = subparsers.add_parser("sql", help="run an ad-hoc SQL query against generated TPC-H data")
    _add_cluster_arguments(sql)
    sql.add_argument("statement", help="the SELECT statement to run")
    _add_planner_arguments(sql)
    sql.add_argument("--rows", type=int, default=20, help="result rows to print (default 20)")
    _add_memory_arguments(sql)
    sql.set_defaults(handler=run_sql)

    session = subparsers.add_parser(
        "session",
        help="run a mixed multi-query workload on one persistent session",
    )
    _add_cluster_arguments(session)
    session.add_argument(
        "--queries",
        default="1,6,3,10,12,1,6,3",
        help="comma-separated TPC-H query numbers, run concurrently "
        "(default: 1,6,3,10,12,1,6,3)",
    )
    session.add_argument(
        "--task-managers",
        type=int,
        default=None,
        help="TaskManager slots per worker (default: one per CPU)",
    )
    session.add_argument(
        "--max-concurrent",
        type=int,
        default=None,
        help="admission limit on concurrently executing queries (default: all)",
    )
    session.add_argument(
        "--fail-worker", type=int, default=None, help="worker id to kill mid-stream"
    )
    session.add_argument(
        "--fail-at",
        type=float,
        default=0.5,
        help="fraction of the failure-free makespan at which the worker dies (default 0.5)",
    )
    session.add_argument(
        "--compare",
        action="store_true",
        help="also run each query on a fresh cluster sequentially and report the speedup",
    )
    session.set_defaults(handler=run_session)

    chaos = subparsers.add_parser(
        "chaos",
        help="differential chaos testing: seeded fault schedules vs the reference",
    )
    chaos_modes = chaos.add_subparsers(dest="chaos_mode")
    chaos.set_defaults(handler=lambda args, parser=chaos: (parser.print_help(), 2)[1])

    matrix = chaos_modes.add_parser(
        "matrix",
        help="run a {queries x strategies x seeds} matrix and report failures",
    )
    _add_chaos_arguments(matrix)
    matrix.add_argument(
        "--queries",
        default="1,6,9",
        help="comma-separated TPC-H query numbers (default: 1,6,9)",
    )
    matrix.add_argument(
        "--seeds", type=int, default=10, help="number of chaos seeds per cell (default 10)"
    )
    matrix.add_argument(
        "--strategies",
        default="all",
        help="comma-separated FT strategies, or 'all' (default)",
    )
    matrix.set_defaults(handler=run_chaos_matrix)

    replay = chaos_modes.add_parser(
        "replay",
        help="replay one chaos case from its seed (deterministic, one command)",
    )
    _add_chaos_arguments(replay)
    replay.add_argument("--query", type=int, required=True, help="TPC-H query number")
    replay.add_argument("--seed", type=int, required=True, help="chaos schedule seed")
    replay.add_argument(
        "--strategy", default="wal", help="fault-tolerance strategy (default: wal)"
    )
    replay.add_argument(
        "--shrink",
        action="store_true",
        help="on failure, ddmin-shrink the schedule to a minimal failing core",
    )
    replay.set_defaults(handler=run_chaos_replay)

    explain = subparsers.add_parser("explain", help="print the logical plan of a query")
    explain.add_argument("--query", type=int, default=None, help="TPC-H query number")
    explain.add_argument("--statement", default=None, help="SQL text to explain instead")
    explain.add_argument("--scale-factor", type=float, default=0.001)
    explain.add_argument("--optimize", action="store_true", help="also print the optimized plan")
    explain.set_defaults(handler=run_explain)

    analyze = subparsers.add_parser(
        "analyze",
        help="ANALYZE: compute table statistics (row counts, NDVs, min/max)",
    )
    analyze.add_argument(
        "--scale-factor", type=float, default=0.001, help="TPC-H scale factor to generate"
    )
    analyze.add_argument("--seed", type=int, default=0, help="data-generation seed")
    analyze.add_argument(
        "--tables",
        default=None,
        help="comma-separated table names (default: every table)",
    )
    analyze.set_defaults(handler=run_analyze)

    systems = subparsers.add_parser("systems", help="list the available system presets")
    systems.set_defaults(handler=run_systems)

    return parser


def _add_cluster_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=4, help="number of workers (default 4)")
    parser.add_argument(
        "--cpus-per-worker", type=int, default=4, help="CPU slots per worker (default 4)"
    )
    parser.add_argument(
        "--scale-factor", type=float, default=0.001, help="TPC-H scale factor to generate"
    )
    parser.add_argument(
        "--target-scale-factor",
        type=float,
        default=None,
        help="scale factor the cost model should emulate (defaults to the generated one)",
    )
    parser.add_argument("--seed", type=int, default=0, help="data-generation seed")


def _add_planner_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--optimize",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="force the cost-based planner on/off (default: on for the engine)",
    )
    parser.add_argument(
        "--adaptive",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="force adaptive (runtime-feedback) execution on/off "
        "(default: on whenever the cost-based planner runs)",
    )
    parser.add_argument(
        "--runtime-filters",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="force runtime semi-join filters on/off "
        "(default: on whenever the cost-based planner runs)",
    )


def _add_memory_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--memory-budget-mb",
        type=float,
        default=None,
        help="per-worker operator-state budget in MiB; stateful operators spill "
        "when it is exceeded, to the FT strategy's durable store when it spools "
        "to one and to worker-local disk otherwise (default: unlimited, no spilling)",
    )


def _memory_budget_bytes(args) -> Optional[float]:
    budget = args.memory_budget_mb
    return None if budget is None else budget * 1024 * 1024


def _add_chaos_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=4, help="number of workers (default 4)")
    parser.add_argument(
        "--cpus-per-worker", type=int, default=2, help="CPU slots per worker (default 2)"
    )
    parser.add_argument(
        "--scale-factor", type=float, default=0.001, help="TPC-H scale factor to generate"
    )
    parser.add_argument("--data-seed", type=int, default=0, help="data-generation seed")


def _make_harness(args):
    from repro.chaos import DifferentialHarness

    return DifferentialHarness(
        scale_factor=args.scale_factor,
        data_seed=args.data_seed,
        num_workers=args.workers,
        cpus_per_worker=args.cpus_per_worker,
    )


def _parse_strategies(value: str):
    from repro.chaos import ALL_STRATEGIES

    if value == "all":
        return ALL_STRATEGIES
    strategies = tuple(part.strip() for part in value.split(",") if part.strip())
    unknown = [s for s in strategies if s not in ALL_STRATEGIES]
    if unknown:
        raise ReproError(
            f"unknown strategies {unknown}; available: {list(ALL_STRATEGIES)}"
        )
    return strategies


def _check_chaos_queries(queries) -> None:
    from repro.tpch import QUERIES

    unknown = [q for q in queries if q not in QUERIES]
    if unknown:
        raise ReproError(f"unknown TPC-H queries {unknown}; available: 1-22")


def run_chaos_matrix(args) -> int:
    """Handler for ``repro chaos matrix``: the differential smoke matrix."""
    harness = _make_harness(args)
    strategies = _parse_strategies(args.strategies)
    try:
        queries = [int(part) for part in args.queries.split(",") if part.strip()]
    except ValueError:
        print(f"error: bad --queries value {args.queries!r}", file=sys.stderr)
        return 2
    _check_chaos_queries(queries)
    report = harness.run_matrix(
        queries=queries, strategies=strategies, seeds=range(args.seeds)
    )
    print(report.summary())
    if not report.passed:
        for outcome in report.failures:
            print(
                f"\nreproduce with: python -m repro chaos replay "
                f"--query {outcome.query} --strategy {outcome.strategy} "
                f"--seed {outcome.seed} --shrink"
            )
        return 1
    return 0


def run_chaos_replay(args) -> int:
    """Handler for ``repro chaos replay``: one-command deterministic repro."""
    harness = _make_harness(args)
    strategies = _parse_strategies(args.strategy)
    if len(strategies) != 1:
        print("error: replay needs exactly one --strategy", file=sys.stderr)
        return 2
    strategy = strategies[0]
    _check_chaos_queries([args.query])
    plan = harness.plan_for(args.query, strategy, args.seed)
    print(plan.describe())
    outcome = harness.run_case(args.query, strategy, args.seed, plan=plan)
    print(f"\n{outcome.describe()}")
    print(f"trace digest: {outcome.trace_digest}")
    if outcome.metrics is not None:
        print(outcome.metrics.summary())
    if outcome.passed:
        return 0
    if args.shrink and plan.events:
        print("\nshrinking the schedule to a minimal failing core ...")
        minimal = harness.shrink(args.query, strategy, plan)
        print(minimal.describe())
    return 1


def _make_context(args) -> QuokkaContext:
    catalog = generate_catalog(scale_factor=args.scale_factor, seed=args.seed)
    cost_config = None
    if args.target_scale_factor is not None:
        multiplier = max(1.0, args.target_scale_factor / args.scale_factor)
        cost_config = CostModelConfig(io_scale_multiplier=multiplier)
    return QuokkaContext(
        num_workers=args.workers,
        cpus_per_worker=args.cpus_per_worker,
        cost_config=cost_config,
        catalog=catalog,
    )


def _print_result(result: QueryResult, rows: int) -> None:
    batch = result.batch
    print(f"\n== {result.query_name or 'query'} ==")
    print(result.metrics.summary())
    if batch is None or batch.num_rows == 0:
        print("\n(no rows)")
        return
    print()
    print(format_batch(batch, rows))


def run_tpch(args) -> int:
    """Handler for ``repro tpch``."""
    context = _make_context(args)
    if args.use_sql:
        if args.query not in SQL_QUERIES:
            print(
                f"error: Q{args.query} has no SQL formulation; available: {sorted(SQL_QUERIES)}",
                file=sys.stderr,
            )
            return 1
        frame = build_sql_query(context.catalog, args.query).bind(context)
    else:
        try:
            frame = build_query(context.catalog, args.query).bind(context)
        except KeyError as error:
            print(f"error: {error.args[0]}", file=sys.stderr)
            return 1

    options = QueryOptions(
        system=args.system,
        optimize=args.optimize,
        adaptive=args.adaptive,
        runtime_filters=args.runtime_filters,
        query_name=f"tpch-q{args.query} ({args.system})",
        memory_budget_bytes=_memory_budget_bytes(args),
    )
    if args.fail_worker is not None:
        baseline = frame.submit(
            options=options.with_overrides(query_name=f"tpch-q{args.query}")
        ).wait()
        options = options.with_overrides(
            failure_plans=[
                FailurePlan.at_fraction(args.fail_worker, args.fail_at, baseline.runtime)
            ]
        )
        print(
            f"failure-free virtual runtime: {baseline.runtime:.2f}s; killing worker "
            f"{args.fail_worker} at {args.fail_at * 100:.0f}%"
        )
    if args.trace:
        from repro.trace import TraceRecorder

        options = options.with_overrides(tracer=TraceRecorder())
    result = frame.submit(options=options).wait()
    tracer = options.tracer
    _print_result(result, args.rows)
    if tracer is not None:
        from repro.trace import render_trace_report

        print()
        print(render_trace_report(tracer))
    return 0


def run_sql(args) -> int:
    """Handler for ``repro sql``."""
    context = _make_context(args)
    frame = context.sql(args.statement)
    result = frame.submit(
        options=QueryOptions(
            query_name="adhoc-sql",
            optimize=args.optimize,
            adaptive=args.adaptive,
            runtime_filters=args.runtime_filters,
            memory_budget_bytes=_memory_budget_bytes(args),
        )
    ).wait()
    _print_result(result, args.rows)
    return 0


def run_session(args) -> int:
    """Handler for ``repro session``: sustained mixed traffic on one cluster."""
    from repro.common.config import ClusterConfig
    from repro.core.session import Session

    try:
        mix = [int(part) for part in args.queries.split(",") if part.strip()]
    except ValueError:
        print(f"error: bad --queries value {args.queries!r}", file=sys.stderr)
        return 2
    if not mix:
        print("error: --queries must name at least one query", file=sys.stderr)
        return 2

    context = _make_context(args)
    task_managers = args.task_managers or args.cpus_per_worker
    cluster_config = ClusterConfig(
        num_workers=args.workers,
        cpus_per_worker=args.cpus_per_worker,
        task_managers_per_worker=task_managers,
    )
    engine_config = context.engine_config.with_overrides(
        max_concurrent_queries=args.max_concurrent or len(mix)
    )
    try:
        frames = [build_query(context.catalog, q) for q in mix]
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 1
    names = [f"tpch-q{q}" for q in mix]

    def make_session() -> Session:
        return Session(
            cluster_config=cluster_config,
            cost_config=context.cost_config,
            engine_config=engine_config,
            catalog=context.catalog,
        )

    def run_workload(failure_plans=None):
        """Run the whole mix concurrently on one shared session."""
        with make_session() as session:
            results = session.run_many(
                frames, query_names=names, failure_plans=failure_plans
            )
            scans = session.scan_pool.stats.coalesced_reads if session.scan_pool else 0
            return results, session.env.now, scans

    failure_plans = None
    if args.fail_worker is not None:
        _results, base_makespan, _scans = run_workload()
        failure_plans = [
            FailurePlan.at_fraction(args.fail_worker, args.fail_at, base_makespan)
        ]
        print(
            f"failure-free makespan: {base_makespan:.2f}s; killing worker "
            f"{args.fail_worker} at {args.fail_at * 100:.0f}%"
        )

    results, makespan, shared_scans = run_workload(failure_plans)

    print(f"\n== session: {len(mix)} queries on {args.workers} workers ==")
    print(f"{'query':<12} {'runtime':>9} {'tasks':>7} {'cached':>7} {'rewound':>8}")
    for result in results:
        metrics = result.metrics
        cached = "result" if metrics.result_from_cache else "-"
        print(
            f"{result.query_name:<12} {metrics.runtime_seconds:>8.2f}s "
            f"{metrics.tasks_executed:>7} {cached:>7} {metrics.rewound_channels:>8}"
        )
    print(f"\nmakespan           : {makespan:.2f}s (virtual)")
    print(f"coalesced results  : {sum(r.metrics.result_from_cache for r in results)}")
    print(f"shared scan reads  : {shared_scans}")

    if args.compare:
        compare_context = QuokkaContext(
            num_workers=args.workers,
            cpus_per_worker=args.cpus_per_worker,
            cost_config=context.cost_config,
            engine_config=engine_config,
            catalog=context.catalog,
            task_managers_per_worker=task_managers,
        )
        sequential = sum(
            frame.bind(compare_context).submit().wait().runtime for frame in frames
        )
        print(f"sequential total   : {sequential:.2f}s (fresh cluster per query)")
        print(f"session throughput : {sequential / makespan:.2f}x")
    return 0


def run_explain(args) -> int:
    """Handler for ``repro explain``."""
    if (args.query is None) == (args.statement is None):
        print("error: pass exactly one of --query or --statement", file=sys.stderr)
        return 2
    catalog = generate_catalog(scale_factor=args.scale_factor, seed=0)
    if args.query is not None:
        frame = build_query(catalog, args.query)
        title = f"TPC-H Q{args.query}"
    else:
        context = QuokkaContext(catalog=catalog)
        frame = context.sql(args.statement)
        title = "SQL statement"
    print(f"{title} — logical plan:\n{frame.explain()}")
    if args.optimize:
        print(f"\noptimized plan:\n{frame.explain(optimized=True)}")
    return 0


def run_analyze(args) -> int:
    """Handler for ``repro analyze``: print ANALYZE-style table statistics."""
    catalog = generate_catalog(scale_factor=args.scale_factor, seed=args.seed)
    names = None
    if args.tables:
        names = [part.strip() for part in args.tables.split(",") if part.strip()]
    all_stats = catalog.analyze(names)
    for table_name in sorted(all_stats):
        stats = all_stats[table_name]
        print(f"== {table_name}: {stats.row_count} rows, "
              f"~{stats.avg_row_bytes:.0f} bytes/row ==")
        print(f"{'column':<16} {'ndv':>8} {'null%':>6} {'width':>7}  range")
        for column_name, column in stats.columns.items():
            span = (
                f"[{column.min_value!r} .. {column.max_value!r}]"
                if column.min_value is not None
                else "-"
            )
            print(
                f"{column_name:<16} {column.ndv:>8} "
                f"{column.null_fraction * 100:>5.1f} {column.avg_width:>7.1f}  {span}"
            )
        print()
    return 0


def run_systems(args) -> int:  # noqa: ARG001 - uniform handler signature
    """Handler for ``repro systems``."""
    print("system presets (pass to `repro tpch --system`):")
    for name in sorted(SYSTEM_PRESETS):
        preset = SYSTEM_PRESETS[name]
        config = preset.engine_config
        print(
            f"  {name:<14} execution={config.execution_mode:<10} "
            f"scheduling={config.scheduling:<8} ft={config.ft_strategy}"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
