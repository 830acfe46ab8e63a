"""Morsel-driven parallel execution of a compiled stage graph.

:class:`ParallelExecutor` takes the same :class:`~repro.physical.stages
.StageGraph` the simulator executes and drives it across a pool of forked
worker processes, stage by stage:

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
scan tasks per ``(channel, split)``, channel tasks per channel, and
partial-aggregation shards when an aggregation has fewer channels than the
pool has workers.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.common.errors import ExecutionError
from repro.data.batch import Batch, concat_batches
from repro.parallel.morsel import (
    DEFAULT_MORSEL_ROWS,
    ChannelTask,
    MergeAggTask,
    PartialAggTask,
    RoutedPiece,
    ScanTask,
    agg_shard_count,
    scan_tasks,
    split_sizes,
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
from repro.physical.operators import AggregateOperator
from repro.physical.stages import Stage, StageGraph
from repro.physical.task import (
    FilterFold,
    apply_runtime_filters,
    drain_operator,
    finish_output,
    route_output,
    split_prunable,
)

#: Unique-per-driver-process counter feeding block name prefixes.
_query_counter = itertools.count()


@dataclass
class ParallelExecutionStats:
    """Execution counters surfaced into :class:`~repro.core.metrics.QueryMetrics`."""

    workers: int
    morsel_rows: int
    scan_tasks: int = 0
    channel_tasks: int = 0
    agg_shard_tasks: int = 0
    merge_tasks: int = 0
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
        return (
            self.scan_tasks + self.channel_tasks
            + self.agg_shard_tasks + self.merge_tasks
        )


class StageGraphTaskHandler:
    """Executes one task inside a worker (or inline at ``workers=0``).

    Constructed in the driver *before* the pool forks, so the stage graph —
    operator-factory closures, resident catalog batches and all — reaches
    every worker by inheritance, never by pickling.
    """

    def __init__(self, graph: StageGraph, morsel_rows: int, block_prefix: str):
        self.graph = graph
        self.morsel_rows = morsel_rows
        self.block_prefix = block_prefix
        # Keeps zero-copy mappings open for this process's lifetime.
        self.registry = BlockRegistry()
        # Runtime filters deserialised once per process, keyed by block name.
        self._filter_cache: Dict[str, object] = {}

    def run(self, task):
        if isinstance(task, ScanTask):
            return self._run_scan(task)
        if isinstance(task, ChannelTask):
            return self._run_channel(task)
        if isinstance(task, PartialAggTask):
            return self._run_partial_agg(task)
        if isinstance(task, MergeAggTask):
            return self._run_merge_agg(task)
        raise ExecutionError(f"unknown parallel task type {type(task).__name__}")

    # -- task bodies ------------------------------------------------------------

    def _run_scan(self, task: ScanTask):
        stage = self.graph.stage(task.stage_id)
        split = stage.table.splits()[task.split_index]
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

    def _run_partial_agg(self, task: PartialAggTask):
        stage = self.graph.stage(task.stage_id)
        operator = stage.make_operator()
        upstream_id = stage.upstreams[0].upstream_id
        for ref in task.inputs:
            operator.on_input(upstream_id, read_batch(ref, self.registry))
        return operator._state

    def _run_merge_agg(self, task: MergeAggTask):
        stage = self.graph.stage(task.stage_id)
        operator = stage.make_operator()
        for state in task.states:  # shard order — deterministic group order
            operator._state.merge(state)
        return self._emit(stage, task, (task.channel,), operator.finalize())

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


class ParallelExecutor:
    """Drives one compiled stage graph over a fresh worker pool.

    One executor serves one query: the pool is forked *after* compilation so
    workers inherit the graph, and torn down (with a shared-memory sweep) in
    ``execute``'s ``finally``.
    """

    def __init__(
        self,
        graph: StageGraph,
        workers: int,
        morsel_rows: int = DEFAULT_MORSEL_ROWS,
    ):
        if morsel_rows < 1:
            raise ExecutionError("morsel_rows must be >= 1")
        graph.validate()
        self.graph = graph
        self.workers = workers
        self.morsel_rows = morsel_rows
        self.block_prefix = f"repro_par_{os.getpid()}_{next(_query_counter)}_"
        self.stats = ParallelExecutionStats(workers=workers, morsel_rows=morsel_rows)
        #: Finalized runtime filters by filter id, and their shipped handles.
        self._filters: Dict[int, object] = {}
        self._filter_handles: Dict[int, ShmBlobRef] = {}

    def execute(self) -> Batch:
        """Run the graph to completion and return the result batch."""
        handler = StageGraphTaskHandler(self.graph, self.morsel_rows, self.block_prefix)
        pool = WorkerPool(self.workers, handler)
        try:
            return self._drive(pool)
        finally:
            pool.close()
            sweep_blocks(self.block_prefix)

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
        return self._collect(live, pool.run(live, on_error=on_error))

    def _run_inner_stage(
        self, stage, pool, inbox, next_id, on_error
    ) -> List[RoutedPiece]:
        """Channel tasks for every channel, sharding wide aggregation channels."""
        shardable = _is_shardable_agg(stage)
        channel_tasks: List[ChannelTask] = []
        sharded: List[Tuple[int, List[PartialAggTask]]] = []
        for channel in range(stage.num_channels):
            inputs: List[List[ShmBatchRef]] = []
            for link in stage.upstreams:
                pieces = inbox.pop((stage.stage_id, channel, link.upstream_id), [])
                pieces.sort(key=lambda piece: piece[0])
                inputs.append([ref for _seq, ref in pieces])
            shards = (
                agg_shard_count(len(inputs[0]), stage.num_channels, pool.workers)
                if shardable
                else None
            )
            if shards is None:
                channel_tasks.append(
                    ChannelTask(
                        next_id(), stage.stage_id, channel, inputs,
                        filters=self._filter_handles_for(stage),
                    )
                )
                continue
            shard_tasks, start = [], 0
            for shard_index, size in enumerate(split_sizes(len(inputs[0]), shards)):
                shard_tasks.append(
                    PartialAggTask(
                        next_id(), stage.stage_id, channel, shard_index,
                        inputs[0][start:start + size],
                    )
                )
                start += size
            sharded.append((channel, shard_tasks))

        self.stats.channel_tasks += len(channel_tasks)
        self.stats.agg_shard_tasks += sum(len(ts) for _, ts in sharded)
        round_one = channel_tasks + [t for _, ts in sharded for t in ts]
        payloads = pool.run(round_one, on_error=on_error)
        routed = self._collect(channel_tasks, payloads)
        if sharded:
            merges = [
                MergeAggTask(
                    next_id(), stage.stage_id, channel,
                    [payloads[t.task_id] for t in shard_tasks],
                    filters=self._filter_handles_for(stage),
                )
                for channel, shard_tasks in sharded
            ]
            self.stats.merge_tasks += len(merges)
            routed += self._collect(merges, pool.run(merges, on_error=on_error))
        return routed

    def _collect(self, tasks, payloads) -> List[RoutedPiece]:
        """Routed pieces of finished emitting tasks, in task order; their
        filter counters fold into the stats."""
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


def _is_shardable_agg(stage: Stage) -> bool:
    """Aggregation channels can split into mergeable partial states.

    Requires the single-upstream aggregation shape over the resident kernel:
    partial states merge through :meth:`GroupedAggregationState.merge`, whose
    result (and the finalize that follows) is independent of how the input
    was sharded, so sharding never changes query output.  An operator built
    with a memory quota holds the out-of-core kernel, which never merges.
    """
    if stage.is_input or not stage.stateful or len(stage.upstreams) != 1:
        return False
    try:
        operator = stage.make_operator()
    except Exception:
        return False
    return isinstance(operator, AggregateOperator) and operator.spill is None


def execute_graph_parallel(
    graph: StageGraph,
    workers: int,
    morsel_rows: int = DEFAULT_MORSEL_ROWS,
) -> Tuple[Batch, ParallelExecutionStats]:
    """Convenience wrapper: execute ``graph`` and return (result, stats)."""
    executor = ParallelExecutor(graph, workers, morsel_rows=morsel_rows)
    result = executor.execute()
    return result, executor.stats
