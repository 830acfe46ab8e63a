"""Persistent multi-query sessions over one long-lived simulated cluster.

The paper's engine is evaluated one query at a time, but its design — a
never-failing head node holding KB-sized write-ahead lineage in a shared GCS —
is exactly what makes *long-lived* infrastructure cheap: admitting another
query adds a few rows of metadata, not another cluster.  :class:`Session`
realises that:

* one :class:`~repro.cluster.cluster.Cluster` (workers, network, S3/HDFS) and
  one :class:`~repro.gcs.tables.GlobalControlStore` serve every query;
* each admitted query gets a **query-scoped GCS view** (its lineage / task /
  object / placement tables live under a ``q<id>/`` namespace) and a disjoint
  stage-id range, so task names and flight-buffer keys never collide;
* per-worker **TaskManager processes are shared**: each sweep serves the
  admitted queries in rotating order with a per-query task budget (a simple
  fair-share policy), and an admission queue caps concurrency
  (``EngineConfig.max_concurrent_queries``);
* committed query results go into a session-wide LRU
  (:class:`~repro.core.cache.OutputCache`), so repeated queries return
  straight from the result cache, duplicate in-flight submissions coalesce,
  and concurrent scans of one split share a single read;
* one head-node coordinator process watches worker liveness for *all* queries:
  on a failure it takes the usual recovery barrier once, reconciles every
  admitted query's namespace (Algorithm 2 per query), and resumes — recovery
  of one query never restarts another.

Typical usage::

    session = Session(catalog=catalog)
    handles = [frame.submit(session) for frame in frames]
    results = session.wait_all(handles)
    session.close()
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cluster.cluster import Cluster
from repro.cluster.faults import FailureInjector, FailurePlan
from repro.cluster.worker import Worker
from repro.common.config import ClusterConfig, CostModelConfig, EngineConfig
from repro.common.errors import ConfigError, ExecutionError
from repro.core.cache import OutputCache, SharedScanPool, plan_key
from repro.core.engine import ExecutionContext
from repro.core.metrics import QueryMetrics, QueryResult
from repro.core.options import QueryOptions, resolve_planning
from repro.core.recovery import RecoveryCoordinator
from repro.core.runtime import FairShareScheduler
from repro.data.batch import Batch
from repro.ft.base import FaultToleranceStrategy
from repro.ft.strategies import make_strategy
from repro.gcs.tables import GlobalControlStore
from repro.physical.compiler import compile_plan
from repro.plan.catalog import Catalog
from repro.plan.dataframe import DataFrame
from repro.plan.nodes import LogicalPlan
from repro.sim.core import Event, Interrupt


class QueryHandle:
    """A submitted query: its lifecycle state and (eventually) its result.

    This is the one future shape every execution path returns — session
    submissions, one-shot runs on a fresh cluster, even the single-node
    reference interpreter (which returns an already-``finished`` handle).
    States move ``queued`` → ``running`` → ``finished`` | ``failed``; a
    result-cache hit jumps straight to ``finished``.
    """

    def __init__(self, session: Optional["Session"], query_id: int, query_name: str):
        self.session = session
        self.query_id = query_id
        self.query_name = query_name
        self.state = "queued"
        self.execution: Optional[ExecutionContext] = None
        self.result: Optional[QueryResult] = None
        self.submitted_at = session.env.now if session is not None else 0.0
        self.finished_at: Optional[float] = None
        self.from_cache = False
        #: True for failure-injection experiments: never serve from the
        #: result cache or coalesce — the query must really run.
        self.bypass_result_cache = False
        #: True when the handle's session exists only for this query (the
        #: one-shot runner path); :meth:`wait` closes it when done.
        self.owns_session = False
        #: The :class:`~repro.chaos.ChaosInjector` driving this submission's
        #: chaos schedule, if any (set by ``submit_options``).
        self.chaos_injector = None
        self.done_event: Optional[Event] = None
        self._plan_key = None

    @classmethod
    def completed(cls, result: QueryResult) -> "QueryHandle":
        """A detached handle that is already ``finished`` with ``result``.

        Used by runners whose execution is synchronous (the reference
        interpreter) so every path still returns the same future shape.
        """
        handle = cls(None, -1, result.query_name)
        handle.result = result
        handle.state = "finished"
        return handle

    @property
    def done(self) -> bool:
        """True once the query has finished (successfully or not)."""
        return self.state in ("finished", "failed")

    def wait(self) -> QueryResult:
        """Block (in virtual time) until the query finishes; return its result.

        Raises the query's failure exactly like :meth:`Session.wait`.  A
        handle owning a one-shot session closes that session afterwards.
        """
        try:
            if self.session is not None:
                return self.session.wait(self)
            if self.state == "failed":
                raise ExecutionError(f"query {self.query_name or 'query'} failed")
            return self.result
        finally:
            if self.owns_session and self.session is not None:
                self.session.close()

    def __repr__(self) -> str:
        return f"QueryHandle(q{self.query_id}, {self.query_name or 'query'}, {self.state})"


class Session:
    """A long-lived cluster + GCS that admits, schedules and caches queries.

    ``cluster_config`` / ``cost_config`` / ``engine_config`` shape the
    simulated cluster and the engine; ``catalog`` loads base tables into the
    session's simulated S3 once, and ``enable_output_cache=False`` turns off
    cross-query reuse — result cache, coalescing and shared scans (used by
    :class:`~repro.api.runners.OneShotRunner` to preserve the paper's
    per-run costs).
    """

    #: GCS polling interval of idle TaskManagers (virtual seconds).
    POLL_INTERVAL = ExecutionContext.POLL_INTERVAL

    def __init__(
        self,
        cluster_config: Optional[ClusterConfig] = None,
        cost_config: Optional[CostModelConfig] = None,
        engine_config: Optional[EngineConfig] = None,
        strategy: Optional[FaultToleranceStrategy] = None,
        catalog: Optional[Catalog] = None,
        enable_output_cache: bool = True,
    ):
        self.engine_config = engine_config or EngineConfig()
        self.engine_config.validate()
        self.cluster = Cluster(cluster_config, cost_config)
        if catalog is not None:
            self.cluster.load_catalog(catalog)
        self.catalog = catalog
        self.env = self.cluster.env
        self.cost_model = self.cluster.cost_model
        self.strategy = strategy or make_strategy(self.engine_config)
        #: Root (session-wide) GCS facade; per-query views share its store.
        self.gcs = GlobalControlStore()
        self.result_cache: Optional[OutputCache] = None
        self.scan_pool: Optional[SharedScanPool] = None
        if enable_output_cache and self.engine_config.result_cache_bytes > 0:
            self.result_cache = OutputCache(self.engine_config.result_cache_bytes)
        if enable_output_cache:
            self.scan_pool = SharedScanPool(self.env)
        self.scheduler = FairShareScheduler(
            max_concurrent=self.engine_config.max_concurrent_queries
        )
        #: Pause flags of every TaskManager process, keyed by (worker, slot).
        self.worker_paused: Dict[tuple, bool] = {}
        #: Task names currently being executed by some TaskManager slot, so
        #: concurrent slots of one worker never double-run a task.
        self._inflight: set = set()
        self.handled_failures: set = set()
        self.handles: Dict[int, QueryHandle] = {}
        #: In-flight queries by plan key, for coalescing duplicate submissions.
        self._inflight_plans: Dict = {}
        self._recovery: Dict[int, RecoveryCoordinator] = {}
        self._progress: Dict[int, tuple] = {}
        self._next_query_id = 0
        self._stage_base = 0
        self._open = True
        self._started = False

    # -- submission and admission -------------------------------------------------------

    def submit_options(
        self, query: DataFrame | LogicalPlan, options: QueryOptions
    ) -> QueryHandle:
        """Submit one query parameterised by ``options`` (the canonical path).

        Every public execution surface — ``frame.collect()``,
        ``frame.submit()``, the one-shot runner and this session's
        :meth:`run_many` — funnels through here.

        ``options.failure_plans`` are scheduled relative to the submission
        instant (their ``at_time`` counts virtual seconds from now); a
        submission carrying failure plans always executes for real — it is
        exempt from the result cache and from coalescing, so the recovery it
        is meant to exercise actually happens.  ``options.tracer`` collects
        this query's task spans.  The query starts once the admission policy
        has a free slot; call :meth:`wait` (or :meth:`wait_all`, or
        ``handle.wait()``) to drive the simulation forward.
        """
        if not self._open:
            raise ExecutionError("cannot submit to a closed session")
        if options.system is not None or options.engine_config is not None:
            raise ConfigError(
                "a Session's engine configuration is fixed at construction; "
                "pass system/engine_config to QuokkaContext.session() or use a "
                "one-shot runner for per-query presets"
            )
        plan = query.plan if isinstance(query, DataFrame) else query
        # Cost-based planning (and with it adaptive execution and runtime
        # filters) is default-on for the engine.
        plan, estimator, adaptive, runtime_filters = resolve_planning(
            plan, options, default_optimize=True
        )
        query_name = options.query_name
        failure_plans = options.failure_plans
        tracer = options.tracer
        query_id = self._next_query_id
        self._next_query_id += 1
        handle = QueryHandle(self, query_id, query_name)
        self.handles[query_id] = handle
        if failure_plans:
            FailureInjector(self.env, self.cluster.workers, list(failure_plans))
            # A submission that injects failures is an experiment: it must
            # actually execute (and recover), never be served from the result
            # cache or coalesced onto another run.
            handle.bypass_result_cache = True
        if options.chaos is not None:
            # A full chaos schedule (crashes, stragglers, storage outages, GCS
            # brownouts), generated deterministically from the options' seed
            # unless an explicit plan is replayed.  Fire times count from now.
            from repro.chaos.injector import ChaosInjector

            handle.chaos_injector = ChaosInjector(
                self,
                options.chaos.resolve_plan(self.cluster.num_workers),
                tracer=tracer,
            )
            handle.bypass_result_cache = True

        # A bypassing (failure/chaos) submission gets no plan key at all: its
        # result must never be served from cache, *stored* into the cache, or
        # act as a coalescing twin for clean submissions of the same plan.
        key = (
            plan_key(plan)
            if self.result_cache is not None and not handle.bypass_result_cache
            else None
        )
        if key is not None:
            # Physical planner knobs do not change the result batch, but a
            # submission probing a different physical plan (e.g. broadcast
            # disabled) must actually run so its *metrics* are its own — fold
            # them into the key rather than serving another plan's run.
            key = key + (
                (
                    "physical",
                    estimator is not None,
                    adaptive,
                    runtime_filters,
                    options.broadcast_threshold_bytes,
                    options.memory_budget_bytes,
                ),
            )
        if key is not None:
            cached = self.result_cache.get(key)
            if cached is not None:
                return self._finish_from_cache(handle, cached)
            twin = self._inflight_plans.get(key)
            if twin is not None and not twin.done:
                return self._coalesce_with(handle, twin)
        handle._plan_key = key

        graph = compile_plan(
            plan,
            num_channels=self.cluster.num_workers,
            stage_base=self._stage_base,
            estimator=estimator,
            broadcast_threshold_bytes=options.broadcast_threshold_bytes,
            memory_budget_bytes=options.memory_budget_bytes,
            runtime_filters=runtime_filters,
        )
        self._stage_base = max(graph.stages) + 1
        execution = ExecutionContext(
            self.cluster,
            graph,
            self.engine_config,
            self.strategy,
            tracer=tracer,
            gcs=self.gcs.for_query(query_id),
            query_id=query_id,
            query_name=query_name,
            scan_pool=self.scan_pool,
            memory_budget_bytes=options.memory_budget_bytes,
            adaptive=adaptive,
        )
        handle.execution = execution
        handle.done_event = execution.done_event
        execution.done_event.callbacks.append(
            lambda _event, handle=handle: self._on_query_done(handle)
        )
        if key is not None:
            self._inflight_plans[key] = handle
        self._ensure_started()
        self.scheduler.enqueue(handle)
        self._admit()
        return handle

    def _coalesce_with(self, handle: QueryHandle, twin: QueryHandle) -> QueryHandle:
        """Attach ``handle`` to an identical in-flight query instead of re-running.

        The classic memoisation of identical concurrent requests: the new
        handle completes (or fails) together with its twin and shares the
        twin's result batch.  Any tracer passed for the coalesced submission is
        ignored — no tasks of its own ever run.
        """
        handle.from_cache = True

        def _on_twin_done(_event, handle=handle, twin=twin):
            if twin.done_event.ok and twin.result is not None:
                metrics = QueryMetrics()
                metrics.result_from_cache = True
                metrics.runtime_seconds = self.env.now - handle.submitted_at
                handle.result = QueryResult(
                    twin.result.batch, metrics, handle.query_name
                )
                handle.state = "finished"
                handle.finished_at = self.env.now
                handle.done_event.succeed(twin.result.batch)
            else:
                handle.state = "failed"
                handle.finished_at = self.env.now
                handle.done_event.fail(
                    ExecutionError(
                        f"coalesced with query q{twin.query_id}, which failed"
                    )
                )

        handle.done_event = self.env.event()
        twin.done_event.callbacks.append(_on_twin_done)
        return handle

    def _finish_from_cache(self, handle: QueryHandle, batch: Batch) -> QueryHandle:
        """Complete ``handle`` instantly from the result cache."""
        metrics = QueryMetrics()
        metrics.result_from_cache = True
        handle.result = QueryResult(batch, metrics, handle.query_name)
        handle.state = "finished"
        handle.from_cache = True
        handle.finished_at = self.env.now
        handle.done_event = self.env.event()
        handle.done_event.succeed(batch)
        return handle

    def _admit(self) -> None:
        """Move queued queries into the active set while slots are free."""
        for handle in self.scheduler.admit():
            handle.state = "running"
            execution = handle.execution
            # A duplicate submitted while its twin was still running compiles
            # and queues normally; if the twin finished in the meantime, serve
            # the queued copy from the result cache instead of admitting tasks.
            if handle._plan_key is not None and not handle.bypass_result_cache:
                cached = self.result_cache.get(handle._plan_key)
                if cached is not None:
                    handle.from_cache = True
                    execution.metrics.result_from_cache = True
                    execution.finish_query(cached)
                    continue
            execution.setup_placement_and_tasks(self.cluster.live_worker_ids())
            self._progress[handle.query_id] = (
                execution.metrics.tasks_executed,
                self.env.now,
            )

    def _ensure_started(self) -> None:
        """Start the shared TaskManager and coordinator processes (idempotent).

        Each worker runs ``ClusterConfig.task_managers_per_worker`` TaskManager
        processes.  One (the default, matching the paper's per-query runs)
        executes tasks strictly one at a time; more slots let a worker overlap
        independent tasks — most useful under multi-query traffic, where one
        query's in-flight S3 read would otherwise serialise every other
        query's tasks on that worker.
        """
        if self._started:
            return
        self._started = True
        slots = self.cluster.cluster_config.task_managers_per_worker
        for worker in self.cluster.workers:
            if not worker.alive:
                continue
            for slot in range(slots):
                process = self.env.process(
                    self._task_manager(worker, slot),
                    name=f"taskmanager-{worker.worker_id}.{slot}",
                )
                worker.register_process(process)
        self.env.process(self._coordinator(), name="coordinator")

    # -- running and waiting --------------------------------------------------------------

    def run_many(
        self,
        queries: Sequence[DataFrame | LogicalPlan],
        query_names: Optional[Sequence[str]] = None,
        failure_plans: Optional[Sequence[FailurePlan]] = None,
    ) -> List[QueryResult]:
        """Submit every query up front (concurrent execution) and wait for all.

        Thin wrapper over :meth:`submit_options`; ``failure_plans`` are
        injected once for the whole batch, relative to the moment of
        submission.
        """
        names = list(query_names or [])
        handles = [
            self.submit_options(query, QueryOptions(
                query_name=names[i] if i < len(names) else f"query-{i}",
                failure_plans=failure_plans if i == 0 else None,
            ))
            for i, query in enumerate(queries)
        ]
        return self.wait_all(handles)

    def wait(self, handle: QueryHandle) -> QueryResult:
        """Drive the simulation until ``handle`` finishes; return its result.

        Raises the query's failure (e.g. :class:`ExecutionError` from an
        unrecoverable stall) exactly like the single-query engine does.
        """
        if not handle.done:
            self.env.run(handle.done_event)
        if handle.state == "failed":
            raise handle.done_event.value
        return handle.result

    def wait_all(self, handles: Sequence[QueryHandle]) -> List[QueryResult]:
        """Wait for every handle (in order) and return their results."""
        return [self.wait(handle) for handle in handles]

    def close(self) -> None:
        """Stop admitting queries and let the shared processes wind down."""
        self._open = False

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def active_queries(self) -> List[QueryHandle]:
        """Handles of the queries currently admitted for execution."""
        return list(self.scheduler.active)

    # -- completion ----------------------------------------------------------------------

    def _on_query_done(self, handle: QueryHandle) -> None:
        """Done-event callback: collect metrics, cache the result, admit next."""
        execution = handle.execution
        execution._collect_metrics()
        handle.result = QueryResult(
            execution.result_batch, execution.metrics, handle.query_name
        )
        handle.finished_at = self.env.now
        succeeded = bool(handle.done_event.ok)
        handle.state = "finished" if succeeded else "failed"
        if (
            succeeded
            and handle._plan_key is not None
            and execution.result_batch is not None
        ):
            self.result_cache.put(
                handle._plan_key,
                execution.result_batch,
                float(execution.result_batch.nbytes),
            )
        self.scheduler.retire(handle)
        self._progress.pop(handle.query_id, None)
        self._recovery.pop(handle.query_id, None)
        if self._inflight_plans.get(handle._plan_key) is handle:
            del self._inflight_plans[handle._plan_key]
        self._admit()

    # -- the shared TaskManager loop -------------------------------------------------------

    def _task_manager(self, worker: Worker, slot: int = 0):
        """One TaskManager slot: serve every admitted query fair-share.

        With a single admitted query (and one slot) this behaves exactly like
        the paper's per-query TaskManager; with several queries, each sweep
        visits them in rotating order and runs at most
        ``FairShareScheduler.TASKS_PER_SWEEP`` committed tasks per query before
        moving on.
        """
        pause_key = (worker.worker_id, slot)
        try:
            while self._open and worker.alive:
                if self.gcs.control.recovery_in_progress():
                    self.worker_paused[pause_key] = True
                    yield self.env.timeout(self.POLL_INTERVAL)
                    continue
                self.worker_paused[pause_key] = False
                progressed = False
                for handle in self.scheduler.sweep_order():
                    if handle.execution.query_finished:
                        continue
                    ran = yield from self._serve_query(worker, handle.execution)
                    progressed = progressed or ran
                    if not worker.alive or self.gcs.control.recovery_in_progress():
                        break
                if not progressed:
                    yield self.env.timeout(self.POLL_INTERVAL)
        except Interrupt:
            return

    def _serve_query(self, worker: Worker, execution: ExecutionContext):
        """Run one query's outstanding tasks on ``worker`` (one sweep's share)."""
        budget = (
            self.scheduler.TASKS_PER_SWEEP if len(self.scheduler.active) > 1 else None
        )
        progressed = False
        try:
            for descriptor in execution.gcs.tasks.for_worker(worker.worker_id):
                if execution.query_finished or not worker.alive:
                    break
                if self.gcs.control.recovery_in_progress():
                    break
                current = execution.gcs.tasks.get(descriptor.name)
                if current is None or current.worker_id != worker.worker_id:
                    continue
                if execution.idle(worker, descriptor):
                    continue  # nothing it reads has changed since it found no work
                claim = (execution.query_id, descriptor.name)
                if claim in self._inflight:
                    continue  # another TaskManager slot is already running it
                self._inflight.add(claim)
                try:
                    ran = yield from execution._run_descriptor(worker, descriptor)
                finally:
                    self._inflight.discard(claim)
                progressed = progressed or ran
                if ran and budget is not None:
                    budget -= 1
                    if budget <= 0:
                        break
            if execution.speculation is not None:
                # Speculative duplicates of straggler tasks live only in the
                # controller (never in G.T); serve the ones targeted at this
                # worker.  First committed copy wins, the loser defers to the
                # committed lineage inside ``_emit_output``.
                for descriptor in execution.speculation.speculative_for(worker.worker_id):
                    if (
                        execution.query_finished
                        or not worker.alive
                        or self.gcs.control.recovery_in_progress()
                    ):
                        break
                    claim = (execution.query_id, descriptor.name, "speculative")
                    if claim in self._inflight:
                        continue
                    self._inflight.add(claim)
                    try:
                        ran = yield from execution._run_descriptor(worker, descriptor)
                    finally:
                        self._inflight.discard(claim)
                    progressed = progressed or ran
        except Interrupt:
            raise  # the worker was killed: its TaskManager loop ends
        except Exception as error:
            if not worker.alive:
                # Racing with this worker's own failure; the interrupt follows.
                return progressed
            # A task raised outside the failure paths the protocol handles.
            # Any error type counts: one escaping here would end this
            # TaskManager and leave the query to stall.
            # Aborting just this query keeps the worker serving the others and
            # is far more debuggable than a silent stall.
            failure = ExecutionError(f"task failed on worker {worker.worker_id}: {error}")
            failure.__cause__ = error
            execution.abort(failure)
        return progressed

    # -- the head-node coordinator ---------------------------------------------------------

    def _recovery_for(self, execution: ExecutionContext) -> RecoveryCoordinator:
        coordinator = self._recovery.get(execution.query_id)
        if coordinator is None:
            coordinator = RecoveryCoordinator(execution)
            self._recovery[execution.query_id] = coordinator
        return coordinator

    def _coordinator(self):
        """Head-node process: liveness checks, recovery and stall detection.

        One process covers every admitted query.  On a failure it raises the
        session-wide recovery barrier once, reconciles each query's namespace
        (Algorithm 2), and clears the barrier; queries unaffected by the lost
        worker resume with all their progress intact.
        """
        cost_config = self.cost_model.config
        while self._open:
            yield self.env.timeout(cost_config.heartbeat_interval)
            if not self._open:
                return
            dead = self._unhandled_dead_workers()
            if dead:
                yield self.env.timeout(cost_config.failure_detection_delay)
                self.gcs.control.set_recovery_in_progress(True)
                yield from self._wait_for_barrier()
                yield self.env.timeout(self.cost_model.gcs_txn_seconds() * 5)
                # Re-scan after the detection delay and barrier so that every
                # worker that has died by now is handled in the same recovery
                # pass — otherwise the first pass could schedule replays
                # against a worker that is already gone.
                dead = self._unhandled_dead_workers()
                try:
                    for handle in list(self.scheduler.active):
                        if not handle.execution.query_finished:
                            self._recover_query(handle.execution, dead)
                finally:
                    self.handled_failures.update(dead)
                    self.gcs.control.set_recovery_in_progress(False)
            for handle in list(self.scheduler.active):
                if not handle.execution.query_finished:
                    self._check_stall(handle.execution)
                    if handle.execution.speculation is not None:
                        handle.execution.speculation.maybe_speculate(self.env.now)

    def _unhandled_dead_workers(self) -> List[int]:
        return [
            worker.worker_id
            for worker in self.cluster.workers
            if not worker.alive and worker.worker_id not in self.handled_failures
        ]

    def _wait_for_barrier(self):
        """Wait until every live TaskManager slot has paused on the recovery flag."""
        slots = self.cluster.cluster_config.task_managers_per_worker
        while True:
            live = self.cluster.live_worker_ids()
            if all(
                self.worker_paused.get((worker_id, slot), False)
                for worker_id in live
                for slot in range(slots)
            ):
                return
            yield self.env.timeout(self.POLL_INTERVAL)

    def _recover_query(self, execution: ExecutionContext, dead: List[int]) -> None:
        """Reconcile one query's GCS namespace after ``dead`` workers failed."""
        if not dead:
            return
        coordinator = self._recovery_for(execution)
        execution.metrics.failures_injected += len(dead)
        rewound_before = execution.metrics.rewound_channels
        try:
            if execution.strategy.supports_intra_query_recovery:
                for worker_id in dead:
                    coordinator.recover_from_failure(worker_id)
                execution.metrics.recovery_events += 1
            else:
                coordinator.restart_query()
        finally:
            if execution.tracer.enabled and dead:
                execution.tracer.record_recovery(
                    self.env.now,
                    tuple(dead),
                    execution.metrics.rewound_channels - rewound_before,
                )

    def _check_stall(self, execution: ExecutionContext) -> None:
        """Repair or abort a query that has stopped committing tasks."""
        coordinator = self._recovery_for(execution)
        tasks_before, since = self._progress[execution.query_id]
        now = self.env.now
        if execution.metrics.tasks_executed != tasks_before:
            self._progress[execution.query_id] = (execution.metrics.tasks_executed, now)
            return
        stalled_for = now - since
        if (
            stalled_for > coordinator.REPAIR_TIMEOUT
            and now - coordinator._last_repair_at > coordinator.REPAIR_TIMEOUT
        ):
            coordinator._last_repair_at = now
            coordinator.reconcile_stuck_channels()
        if stalled_for > coordinator.STALL_TIMEOUT:
            execution.abort(
                ExecutionError(
                    "engine stalled: no task committed for "
                    f"{coordinator.STALL_TIMEOUT} virtual seconds"
                )
            )
