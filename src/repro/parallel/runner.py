"""Morsel-driven parallel execution of a compiled stage graph.

:class:`ParallelExecutor` takes the same :class:`~repro.physical.stages
.StageGraph` the simulator executes and drives it across a pool of forked
worker processes, stage by stage:

0. the pool is a :class:`WarmPool` that outlives the statement — forked once
   per runner and re-forked only when a graph scans a table registered after
   the fork — so the driver ships each statement's graph to the workers as
   one pickled shared-memory blob whose handle every task carries;
1. every stage is decomposed into tasks (see :mod:`repro.parallel.morsel`)
   that workers pull from one shared queue — morsel-driven scheduling, so a
   slow split or a hot channel never idles the rest of the pool;
2. all batch payloads between tasks travel through shared memory
   (:mod:`repro.parallel.shm`) — the queues carry only handles;
3. every task body is the shared stage-task step of
   :mod:`repro.physical.task` (post-ops, runtime-filter apply, routing) —
   the same code the in-process and simulated executors run, so surviving
   rows and hash placement are bit-identical;
4. each emitted piece carries a driver-assigned sequence key, and the driver
   sorts every consumer channel's pieces by that key before dispatching the
   consumer — operator input order is a pure function of
   ``(plan, workers, morsel_rows)``, never of worker scheduling.

Stages run under a barrier (a stage's tasks all finish before its consumer
starts), which is what makes the per-stage unlink bookkeeping and the
deterministic piece ordering trivial; within a stage, parallelism comes from
scan tasks per ``(channel, split)`` and one channel task per channel.  The
driver never names an operator class: a channel task builds its stage's
operator and drains it like every other executor.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ExecutionError
from repro.data.batch import Batch, concat_batches
from repro.parallel.morsel import (
    DEFAULT_MORSEL_ROWS,
    ChannelTask,
    RoutedPiece,
    ScanTask,
    scan_tasks,
)
from repro.parallel.pool import WorkerPool
from repro.parallel.shm import (
    BlockRegistry,
    ShmBatchRef,
    ShmBlobRef,
    read_batch,
    read_blob,
    sweep_blocks,
    unlink_block,
    write_batch,
    write_blob,
)
from repro.physical.stages import Stage, StageGraph
from repro.physical.task import (
    FilterFold,
    apply_runtime_filters,
    drain_operator,
    finish_output,
    route_output,
    split_prunable,
)
from repro.plan.catalog import newest_table_token

#: Unique-per-driver-process counter feeding block name prefixes.
_query_counter = itertools.count()


@dataclass
class ParallelExecutionStats:
    """Execution counters surfaced into :class:`~repro.core.metrics.QueryMetrics`."""

    workers: int
    morsel_rows: int
    scan_tasks: int = 0
    channel_tasks: int = 0
    shm_blocks: int = 0
    shm_bytes: int = 0
    filters_published: int = 0
    filter_bytes: int = 0
    filter_rows_tested: int = 0
    filter_rows_dropped: int = 0
    splits_pruned: int = 0
    stage_walls: Dict[int, float] = field(default_factory=dict)

    @property
    def total_tasks(self) -> int:
        return self.scan_tasks + self.channel_tasks


class StageGraphTaskHandler:
    """Executes one task inside a worker (or inline at ``workers=0``).

    Holds no statement until a task arrives.  Every task carries the handle
    of its statement's shipped ``(graph, morsel_rows)`` blob, and the handler
    keeps the one it unpickled last.  The first task of a new statement
    resets the handler, releasing the previous statement's block mappings
    and filters, so a warm worker's state is bounded by one statement.
    Tables inside the graph unpickle to the worker's fork-inherited copies
    (:meth:`~repro.plan.catalog.TableMetadata.__reduce_ex__`).
    """

    def __init__(self):
        self.graph: Optional[StageGraph] = None
        self.morsel_rows = DEFAULT_MORSEL_ROWS
        self.block_prefix = ""
        # Holds the statement's zero-copy mappings; cleared when it changes.
        self.registry = BlockRegistry()
        # Runtime filters deserialised once per process, keyed by block name.
        self._filter_cache: Dict[str, object] = {}
        self._statement: Optional[str] = None

    def run(self, task):
        if task.graph.block != self._statement:
            self.reset()
            self.graph, self.morsel_rows = read_blob(task.graph)
            # The blob's name starts with the statement's block prefix, so
            # blocks named under it are swept with the statement's.
            self.block_prefix = task.graph.block + "_"
            self._statement = task.graph.block
        if isinstance(task, ScanTask):
            return self._run_scan(task)
        if isinstance(task, ChannelTask):
            return self._run_channel(task)
        raise ExecutionError(f"unknown parallel task type {type(task).__name__}")

    def reset(self) -> None:
        """Forget the current statement and unmap the blocks it read."""
        self.graph = None
        self._statement = None
        self._filter_cache.clear()
        self.registry.clear()

    # -- task bodies ------------------------------------------------------------

    def _run_scan(self, task: ScanTask):
        stage = self.graph.stage(task.stage_id)
        split = stage.table.split(task.split_index)
        return self._emit(
            stage, task, (task.channel, task.split_position),
            split.split(self.morsel_rows),
        )

    def _run_channel(self, task: ChannelTask):
        stage = self.graph.stage(task.stage_id)
        inputs = [
            (read_batch(ref, self.registry) for ref in refs) for refs in task.inputs
        ]
        emitted = drain_operator(stage, stage.make_operator(), inputs)
        return self._emit(stage, task, (task.channel,), emitted)

    # -- the task step, plus transport --------------------------------------------

    def _emit(self, stage: Stage, task, seq_prefix: tuple, raw):
        """Run the shared task step over ``raw`` and write the pieces out.

        Returns ``(routed pieces, filter rows tested, filter rows dropped)``.
        Every surviving output batch gets the sequence key ``seq_prefix +
        (its index,)``.  Result-stage output routes to pseudo-channel 0; the
        driver lifts it out with copy-mode reads.  Broadcast links repeat the
        same batch object per target channel — it is written to shared memory
        once and the one handle fans out.
        """
        filters = [(key, self._filter(handle)) for key, handle in task.filters]
        routed: List[RoutedPiece] = []
        tested = dropped = 0
        for index, batch in enumerate(finish_output(stage, raw)):
            batch, batch_tested, batch_dropped = apply_runtime_filters(batch, filters)
            tested += batch_tested
            dropped += batch_dropped
            if not batch.num_rows:
                continue
            seq = seq_prefix + (index,)
            written: Dict[int, ShmBatchRef] = {}
            pieces = route_output(self.graph, stage, task.channel, batch)
            for target, piece in pieces.items():
                if not piece.num_rows:
                    continue
                ref = written.get(id(piece))
                if ref is None:
                    ref = write_batch(piece, self.block_prefix)
                    written[id(piece)] = ref
                routed.append((target, seq, ref))
        return routed, tested, dropped

    def _filter(self, handle: ShmBlobRef):
        rf = self._filter_cache.get(handle.block)
        if rf is None:
            rf = self._filter_cache[handle.block] = read_blob(handle)
        return rf


class WarmPool:
    """The worker pool one :class:`~repro.api.ParallelRunner` keeps warm.

    Forked lazily by the first :meth:`acquire` and reused by every later
    statement.  Tables reach the workers by fork inheritance only, so a
    graph that scans a table registered after the fork — its token is above
    the fork-time watermark — re-forks the pool first.  A statement that
    fails discards the pool (:meth:`discard`); the next one forks afresh.
    """

    def __init__(self, workers: int):
        self.workers = workers
        #: Held for a whole statement: task ids restart at 0 per statement,
        #: so two statements must never share the queues at once.
        self.lock = threading.Lock()
        self._handler = StageGraphTaskHandler()
        self._pool: Optional[WorkerPool] = None
        #: Newest table token the current pool's workers inherited.
        self._watermark = 0
        self._owner_pid = os.getpid()

    def acquire(self, graph: StageGraph) -> WorkerPool:
        """A live pool whose workers can resolve every table ``graph`` scans."""
        newest = max((s.table.token or 0 for s in graph.input_stages()), default=0)
        if self._pool is not None and newest > self._watermark:
            self.close()
        if self._pool is None:
            self._watermark = newest_table_token()
            self._pool = WorkerPool(self.workers, self._handler)
        return self._pool

    def discard(self) -> None:
        """Kill the workers at once; for a pool a statement failed on."""
        self._shut(terminate=True)

    def close(self) -> None:
        """Stop the workers (idempotent); a later :meth:`acquire` re-forks."""
        self._shut(terminate=False)

    def _shut(self, terminate: bool) -> None:
        if os.getpid() != self._owner_pid:
            # A forked process collected its inherited copy (say, a runner's
            # finalizer in a worker): the workers belong to the parent.
            return
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close(terminate=terminate)
        # Only an inline pool ran tasks on this (driver-side) handler.
        self._handler.reset()


class ParallelExecutor:
    """Drives one compiled stage graph over a worker pool.

    One executor serves one statement.  Given a :class:`WarmPool` it runs on
    that pool's workers; without one it forks a single-use pool and closes
    it when ``execute`` returns.  Either way the graph travels to the
    workers as one shared-memory blob, and the statement's blocks are swept
    in ``execute``'s ``finally``.
    """

    def __init__(
        self,
        graph: StageGraph,
        workers: int,
        morsel_rows: int = DEFAULT_MORSEL_ROWS,
        pool: Optional[WarmPool] = None,
    ):
        if morsel_rows < 1:
            raise ExecutionError("morsel_rows must be >= 1")
        if pool is not None and pool.workers != workers:
            raise ExecutionError(
                f"the pool has {pool.workers} workers, the executor was given {workers}"
            )
        graph.validate()
        self.graph = graph
        self.workers = workers
        self.morsel_rows = morsel_rows
        self.pool = pool
        self.block_prefix = f"repro_par_{os.getpid()}_{next(_query_counter)}_"
        self.stats = ParallelExecutionStats(workers=workers, morsel_rows=morsel_rows)
        #: Finalized runtime filters by filter id, and their shipped handles.
        self._filters: Dict[int, object] = {}
        self._filter_handles: Dict[int, ShmBlobRef] = {}
        self._graph_handle: Optional[ShmBlobRef] = None

    def execute(self) -> Batch:
        """Run the graph to completion and return the result batch.

        Any failure discards the pool: its queues may still hold results of
        this statement's tasks, whose ids the next statement reuses.
        """
        pool = self.pool if self.pool is not None else WarmPool(self.workers)
        with pool.lock:
            try:
                worker_pool = pool.acquire(self.graph)
                self._graph_handle = write_blob(
                    (self.graph, self.morsel_rows), self.block_prefix
                )
                self.stats.shm_blocks += 1
                self.stats.shm_bytes += self._graph_handle.size
                return self._drive(worker_pool)
            except BaseException:
                pool.discard()
                raise
            finally:
                if pool is not self.pool:
                    pool.close()
                if self._graph_handle is not None:
                    unlink_block(self._graph_handle.block)
                sweep_blocks(self.block_prefix)

    def _run_tasks(self, pool: WorkerPool, tasks, on_error) -> Dict[int, object]:
        for task in tasks:
            task.graph = self._graph_handle
        return pool.run(tasks, on_error=on_error)

    # -- driver loop ------------------------------------------------------------

    def _drive(self, pool: WorkerPool) -> Batch:
        graph = self.graph
        # inbox[(consumer_stage, consumer_channel, upstream_stage)] -> [(seq, ref)]
        inbox: Dict[Tuple[int, int, int], List[Tuple[tuple, ShmBatchRef]]] = {}
        blocks_by_stage: Dict[int, set] = {}
        final_pieces: List[Tuple[tuple, ShmBatchRef]] = []
        next_id = itertools.count().__next__

        def release_all() -> None:
            for names in blocks_by_stage.values():
                for name in names:
                    unlink_block(name)
            blocks_by_stage.clear()

        try:
            # Filter edges count as dependencies: a filter's build-side source
            # stage completes (and the filter is built and shipped) before the
            # target stage's tasks are created.  Every target task therefore
            # observes the final filter — the barrier-per-stage analogue of
            # the simulated engine's publication gate.
            for stage_id in graph.topological_order(include_filter_edges=True):
                stage = graph.stage(stage_id)
                started = time.perf_counter()
                if stage.is_input:
                    routed = self._run_input_stage(stage, pool, next_id, release_all)
                else:
                    routed = self._run_inner_stage(
                        stage, pool, inbox, next_id, release_all
                    )
                self._register_pieces(
                    stage, routed, blocks_by_stage, inbox, final_pieces
                )
                self._publish_filters(stage, routed)
                # Plans are trees with a per-stage barrier, so once this stage
                # has consumed its inputs the producing stages' blocks are dead.
                for link in stage.upstreams:
                    for name in blocks_by_stage.pop(link.upstream_id, ()):
                        unlink_block(name)
                self.stats.stage_walls[stage_id] = time.perf_counter() - started

            final_pieces.sort(key=lambda piece: piece[0])
            result_schema = graph.stage(graph.result_stage_id).output_schema
            result = concat_batches(
                [read_batch(ref, copy=True) for _seq, ref in final_pieces],
                schema=result_schema,
            )
            return result
        finally:
            release_all()

    def _run_input_stage(self, stage, pool, next_id, on_error) -> List[RoutedPiece]:
        tasks = scan_tasks(stage, next_id)
        # Zone-map pruning: a split whose min/max cannot intersect the scan's
        # static predicate bounds or a published min/max filter would filter
        # to zero rows — skipping its task routes the exact same (empty)
        # piece set without reading the split.
        specs = self.graph.filters_for_target(stage.stage_id)
        live = [
            t for t in tasks
            if not split_prunable(stage, t.split_index, specs, self._filters)
        ]
        self.stats.splits_pruned += len(tasks) - len(live)
        filters = self._filter_handles_for(stage)
        for task in live:
            task.filters = filters
        self.stats.scan_tasks += len(live)
        return self._collect(live, self._run_tasks(pool, live, on_error))

    def _run_inner_stage(
        self, stage, pool, inbox, next_id, on_error
    ) -> List[RoutedPiece]:
        """One channel task per channel, over its pieces in sequence order."""
        filters = self._filter_handles_for(stage)
        tasks: List[ChannelTask] = []
        for channel in range(stage.num_channels):
            inputs: List[List[ShmBatchRef]] = []
            for link in stage.upstreams:
                pieces = inbox.pop((stage.stage_id, channel, link.upstream_id), [])
                pieces.sort(key=lambda piece: piece[0])
                inputs.append([ref for _seq, ref in pieces])
            tasks.append(
                ChannelTask(next_id(), stage.stage_id, channel, inputs, filters=filters)
            )
        self.stats.channel_tasks += len(tasks)
        return self._collect(tasks, self._run_tasks(pool, tasks, on_error))

    def _collect(self, tasks, payloads) -> List[RoutedPiece]:
        """Routed pieces of finished tasks, in task order; their filter
        counters fold into the stats."""
        routed: List[RoutedPiece] = []
        for task in tasks:
            pieces, tested, dropped = payloads[task.task_id]
            self.stats.filter_rows_tested += tested
            self.stats.filter_rows_dropped += dropped
            routed.extend(pieces)
        return routed

    def _register_pieces(
        self, stage, routed, blocks_by_stage, inbox, final_pieces
    ) -> None:
        stage_blocks = blocks_by_stage.setdefault(stage.stage_id, set())
        consumer = self.graph.consumer_of(stage.stage_id)
        for target, seq, ref in routed:
            if ref.block not in stage_blocks:
                stage_blocks.add(ref.block)
                self.stats.shm_blocks += 1
                self.stats.shm_bytes += ref.size
            if consumer is None:
                final_pieces.append((seq, ref))
            else:
                inbox.setdefault(
                    (consumer[0].stage_id, target, stage.stage_id), []
                ).append((seq, ref))

    # -- runtime filters ---------------------------------------------------------

    def _publish_filters(self, stage, routed: List[RoutedPiece]) -> None:
        """Build and ship the filters fed by a just-completed source stage.

        The stage's routed pieces union to its full output (broadcast links
        repeat one block per target, so refs dedupe by block name); folding
        every piece's key column into the builder is the barrier-mode
        analogue of the engine folding every committed task output — the
        reductions are idempotent, so duplicates would not even matter.
        """
        specs = self.graph.filters_from_source(stage.stage_id)
        if not specs:
            return
        fold = FilterFold(stage, specs)
        seen: set = set()
        for _target, _seq, ref in routed:
            if ref.block not in seen:
                seen.add(ref.block)
                fold.add(read_batch(ref, copy=True))
        for spec, rf in fold.finalize():
            self._filters[spec.filter_id] = rf
            handle = write_blob(rf, self.block_prefix)
            self._filter_handles[spec.filter_id] = handle
            self.stats.filters_published += 1
            self.stats.filter_bytes += rf.nbytes
            # The blob is real cross-process traffic, same as a batch block.
            self.stats.shm_blocks += 1
            self.stats.shm_bytes += handle.size

    def _filter_handles_for(self, stage) -> list:
        return [
            (spec.probe_key, self._filter_handles[spec.filter_id])
            for spec in self.graph.filters_for_target(stage.stage_id)
        ]


def execute_graph_parallel(
    graph: StageGraph,
    workers: int,
    morsel_rows: int = DEFAULT_MORSEL_ROWS,
    pool: Optional[WarmPool] = None,
) -> Tuple[Batch, ParallelExecutionStats]:
    """Execute ``graph`` (on ``pool``, or a single-use pool) and return
    ``(result, stats)``."""
    executor = ParallelExecutor(graph, workers, morsel_rows=morsel_rows, pool=pool)
    result = executor.execute()
    return result, executor.stats
