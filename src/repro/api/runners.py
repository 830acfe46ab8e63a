"""The unified execution protocol: runners turn frames into query handles.

Every way of running a query is an object with one method::

    submit(frame, options: QueryOptions) -> QueryHandle

and four implementations cover the engine's execution modes:

* :class:`OneShotRunner` — a fresh single-query cluster per submission (the
  paper's per-experiment methodology; what ``frame.collect()`` uses on a
  bound frame);
* :class:`SessionRunner` — submission onto a persistent multi-query
  :class:`~repro.core.session.Session` (shared cluster, caches, fair-share
  scheduling);
* :class:`ReferenceRunner` — the single-node reference interpreter, returning
  an already-finished handle;
* :class:`ParallelRunner` — real multi-core execution: the compiled stage
  graph runs morsel-driven across forked worker processes exchanging batches
  through shared memory (:mod:`repro.parallel`).

All of them accept the same :class:`~repro.core.options.QueryOptions` and
return the same :class:`~repro.core.session.QueryHandle` future shape, so
user code (and future backends: remote, async, cached) is interchangeable —
swap the runner, keep the call sites.
"""

from __future__ import annotations

from typing import Optional, Protocol, Union, runtime_checkable

from repro.api.systems import resolve_engine_config
from repro.common.errors import ConfigError
from repro.core.metrics import QueryMetrics, QueryResult
from repro.core.options import QueryOptions, resolve_planning
from repro.core.session import QueryHandle, Session
from repro.plan.dataframe import DataFrame
from repro.plan.nodes import LogicalPlan

Query = Union[DataFrame, LogicalPlan]


@runtime_checkable
class Runner(Protocol):
    """Anything that can execute a query: one ``submit`` method."""

    def submit(self, query: Query, options: Optional[QueryOptions] = None) -> QueryHandle:
        """Start ``query`` under ``options``; return a :class:`QueryHandle`."""
        ...  # pragma: no cover - protocol definition


def _reject_set_fields(options: QueryOptions, fields, why: str) -> None:
    """Raise rather than silently ignore options this backend cannot honor."""
    unsupported = [field for field in fields if getattr(options, field) is not None]
    if unsupported:
        raise ConfigError(f"{why}: it cannot honor QueryOptions fields {unsupported}")


class OneShotRunner:
    """Run each submission on a fresh single-query simulated cluster.

    Mirrors the paper's per-experiment methodology: every query gets its own
    cluster, no cross-query caches.  The handle owns its private session and
    closes it after ``wait()``.
    """

    def __init__(self, context):
        """``context`` is a :class:`~repro.api.context.QuokkaContext` (or any
        object with ``cluster_config`` / ``cost_config`` / ``engine_config`` /
        ``catalog`` attributes)."""
        self.context = context

    def submit(self, query: Query, options: Optional[QueryOptions] = None) -> QueryHandle:
        options = options or QueryOptions()
        context = self.context
        session = Session(
            cluster_config=context.cluster_config,
            cost_config=context.cost_config,
            engine_config=resolve_engine_config(options, context.engine_config),
            catalog=context.catalog,
            enable_output_cache=False,
        )
        handle = session.submit_options(
            query, options.with_overrides(system=None, engine_config=None)
        )
        handle.owns_session = True
        return handle


class SessionRunner:
    """Submit onto a persistent multi-query :class:`Session`.

    The session's engine configuration is fixed at construction, so options
    naming a ``system`` preset or ``engine_config`` are rejected by
    :meth:`Session.submit_options`.
    """

    def __init__(self, session: Session):
        self.session = session

    def submit(self, query: Query, options: Optional[QueryOptions] = None) -> QueryHandle:
        return self.session.submit_options(query, options or QueryOptions())


class ReferenceRunner:
    """Run on the single-node reference interpreter (executes eagerly).

    The returned handle is already finished; interpreter errors raise at
    ``submit`` time.  Used for correctness checks — ``frame.collect()`` on
    the distributed engine should equal ``frame.collect_reference()``.
    Options the interpreter cannot honor (failure injection, tracing, engine
    configuration) are rejected rather than silently ignored.

    With the default ``optimize=None`` the plan runs exactly as written
    (unlike the engine runners, which plan cost-based by default): the
    reference stays an *independent* oracle, so a differential mismatch can
    implicate the optimizer as well as the engine.  ``adaptive`` and
    ``runtime_filters`` are likewise inert here — the interpreter executes
    the logical plan directly, with no stages to revise and no shuffles a
    semi-join filter could save — so the reference also serves as the oracle
    for every adaptive and filter decision the engine makes.
    """

    def submit(self, query: Query, options: Optional[QueryOptions] = None) -> QueryHandle:
        from repro.plan.interpreter import execute_plan

        options = options or QueryOptions()
        _reject_set_fields(
            options,
            ("system", "engine_config", "failure_plans", "tracer", "chaos"),
            "the reference interpreter has no cluster",
        )
        plan = query.plan if isinstance(query, DataFrame) else query
        # Only an *explicit* optimize=True runs the cost-based pipeline the
        # engine uses (honoring the planner knobs rather than ignoring them).
        plan = resolve_planning(plan, options, default_optimize=False)[0]
        batch = execute_plan(plan)
        return QueryHandle.completed(QueryResult(batch, QueryMetrics(), options.query_name))


class ParallelRunner:
    """Execute on real cores: morsel-driven multi-process stage execution.

    The query compiles through the exact pipeline the engine runners use
    (cost-based optimizer on by default, same
    :func:`~repro.physical.compiler.compile_plan`), then the stage graph runs
    on a pool of ``workers`` forked processes instead of the simulated
    cluster: workers pull morsel-sized tasks from a shared queue and exchange
    batches zero-copy through POSIX shared memory.  Results are deterministic
    for a fixed ``(plan, workers, morsel_rows)`` — see ``docs/PARALLEL.md``.

    Options that require the simulated cluster (failure injection, chaos,
    tracing, engine presets, memory budgets) are rejected rather than
    silently ignored, mirroring :class:`ReferenceRunner`; ``adaptive=True``
    is likewise rejected — this backend executes the static physical plan.
    Runtime semi-join filters *are* supported (they are part of the static
    plan's dataflow, not a runtime re-plan): the driver builds each filter
    from the build side's routed output and ships it to workers through
    shared memory between stage barriers, resolving ``runtime_filters`` the
    same way the engine runners do (default on when planning cost-based).

    The returned handle is already finished (execution is synchronous);
    ``metrics.runtime_seconds`` holds real wall-clock time, not virtual
    simulator time.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        morsel_rows: Optional[int] = None,
        num_channels: Optional[int] = None,
    ):
        """``workers=None`` uses the machine's CPU count; ``workers=0`` runs
        every task inline in the driver process (debugging).  ``num_channels``
        overrides the per-stage channel budget (default: the worker count, so
        every worker can own a channel of every stage)."""
        import os

        from repro.parallel.morsel import DEFAULT_MORSEL_ROWS

        self.workers = os.cpu_count() or 1 if workers is None else workers
        self.morsel_rows = DEFAULT_MORSEL_ROWS if morsel_rows is None else morsel_rows
        self.num_channels = num_channels or max(1, self.workers)

    def submit(self, query: Query, options: Optional[QueryOptions] = None) -> QueryHandle:
        import time

        from repro.parallel.runner import execute_graph_parallel
        from repro.physical.compiler import compile_plan

        options = options or QueryOptions()
        _reject_set_fields(
            options,
            ("system", "engine_config", "failure_plans", "tracer", "chaos",
             "memory_budget_bytes"),
            "the parallel backend runs on real processes, not the simulated cluster",
        )
        if options.adaptive:
            raise ConfigError(
                "the parallel backend executes the static physical plan; "
                "adaptive=True requires a simulated-cluster runner"
            )
        plan = query.plan if isinstance(query, DataFrame) else query
        # Like the engine runners (and unlike the reference interpreter),
        # planning is cost-based unless explicitly disabled.
        plan, estimator, _adaptive, runtime_filters = resolve_planning(
            plan, options, default_optimize=True
        )
        graph = compile_plan(
            plan,
            num_channels=self.num_channels,
            estimator=estimator,
            broadcast_threshold_bytes=options.broadcast_threshold_bytes,
            runtime_filters=runtime_filters,
        )
        started = time.perf_counter()
        batch, stats = execute_graph_parallel(
            graph, workers=self.workers, morsel_rows=self.morsel_rows
        )
        metrics = QueryMetrics(
            runtime_seconds=time.perf_counter() - started,
            tasks_executed=stats.total_tasks,
            input_tasks=stats.scan_tasks,
            network_bytes=float(stats.shm_bytes),
            filters_published=stats.filters_published,
            filter_bytes=float(stats.filter_bytes),
            filter_rows_tested=stats.filter_rows_tested,
            filter_rows_dropped=stats.filter_rows_dropped,
            splits_pruned=stats.splits_pruned,
        )
        return QueryHandle.completed(QueryResult(batch, metrics, options.query_name))


def as_runner(target, context=None) -> Runner:
    """Coerce a ``frame.submit`` / ``frame.collect`` target into a runner.

    ``None`` means "the frame's own context, one-shot" (the default verb
    semantics); a :class:`Session` is wrapped in a :class:`SessionRunner`;
    any object with a ``submit`` method is used as-is.
    """
    if target is None:
        if context is None:
            raise ConfigError(
                "this frame is not bound to a context; build it via "
                "ctx.read_table()/ctx.sql() (or frame.bind(ctx)), or pass a "
                "runner/session explicitly"
            )
        return OneShotRunner(context)
    if isinstance(target, Session):
        return SessionRunner(target)
    # DataFrame has a submit() method too, so it would satisfy the structural
    # Runner check — and then recurse forever; reject it before the protocol.
    if not isinstance(target, DataFrame) and isinstance(target, Runner):
        return target
    raise ConfigError(
        f"cannot execute on {target!r}: expected None, a Session, or a Runner"
    )
