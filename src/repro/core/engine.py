"""The write-ahead lineage execution engine (Algorithm 1 of the paper).

Queries enter through :mod:`repro.core.session` (one query on a private
session via :class:`~repro.api.runners.OneShotRunner`, or many on a shared
one); this module owns the per-query :class:`ExecutionContext` — every piece
of mutable state one query needs plus the task-execution protocol itself.  A task only runs when its inputs' lineage
is committed, and when it finishes, its own lineage, the task-queue update and
the backup's directory entry are written to the GCS in a single transaction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cluster.worker import Worker
from repro.common.config import EngineConfig
from repro.common.errors import ExecutionError
from repro.core.cache import SharedScanPool
from repro.core.metrics import QueryMetrics
from repro.core.runtime import ChannelRuntime
from repro.data.batch import Batch, concat_batches
from repro.ft.base import FaultToleranceStrategy
from repro.gcs.naming import Lineage, TaskName
from repro.gcs.tables import GlobalControlStore, TaskDescriptor
from repro.memory.manager import MemoryManager
from repro.physical.stages import Stage, StageGraph
from repro.physical.task import finish_output, route_output


class ExecutionContext:
    """All per-query mutable state plus the task-execution protocol.

    In a multi-query session many contexts coexist on one cluster: each gets a
    query-scoped GCS view (disjoint table namespace) and a disjoint stage-id
    range, while the TaskManager loop that actually calls
    :meth:`_run_descriptor` is owned by the session and shared by all of them.
    """

    #: GCS polling interval of idle TaskManagers (virtual seconds).
    POLL_INTERVAL = 0.05
    #: Fixed metadata overhead charged per pushed piece (bytes).
    PIECE_OVERHEAD = 256.0
    #: Under dynamic scheduling a task waits until at least this many upstream
    #: outputs are available (unless the upstream channel has finished), which
    #: is how "each task attempts to maximise the number of input batches it
    #: consumes" (Section IV-A) is realised without busy-consuming singletons.
    MIN_DYNAMIC_BATCHES = 4

    def __init__(
        self,
        cluster,
        graph: StageGraph,
        engine_config: EngineConfig,
        strategy: FaultToleranceStrategy,
        tracer=None,
        gcs: Optional[GlobalControlStore] = None,
        query_id: int = 0,
        query_name: str = "",
        scan_pool: Optional[SharedScanPool] = None,
        memory_budget_bytes: Optional[float] = None,
        spill_target: str = "local",
        adaptive: bool = False,
        broadcast_threshold_bytes: float = 0.0,
    ):
        from repro.trace.recorder import NullTracer

        self.cluster = cluster
        self.env = cluster.env
        self.cost_model = cluster.cost_model
        self.graph = graph
        self.engine_config = engine_config
        self.strategy = strategy
        self.tracer = tracer if tracer is not None else NullTracer()
        #: Query-scoped GCS view; a private store when running stand-alone.
        self.gcs = gcs if gcs is not None else GlobalControlStore()
        self.query_id = query_id
        self.query_name = query_name
        #: Session-shared scan coalescer (None means direct object-store reads).
        self.scan_pool = scan_pool
        self.metrics = QueryMetrics()
        #: Per-worker memory budget for stateful operator state; None means
        #: the operators run their resident kernels and nothing below spills.
        self.memory_budget_bytes = memory_budget_bytes
        #: Resolved spill destination: "local", "s3" or "hdfs".
        self.spill_target = spill_target
        #: Lazily created per-worker accounting (usage / peak / forced grants).
        self.memory_managers: Dict[int, "MemoryManager"] = {}
        self.runtimes: Dict[int, Dict[Tuple[int, int], ChannelRuntime]] = {
            w.worker_id: {} for w in cluster.workers
        }
        #: Runtime-feedback controller revising the physical plan mid-query
        #: (broadcast revisits, channel re-sizing, speculation); None runs the
        #: static plan exactly as compiled.
        self.adaptive = None
        if adaptive:
            from repro.core.adaptive import AdaptiveController

            self.adaptive = AdaptiveController(
                self, broadcast_threshold_bytes=broadcast_threshold_bytes
            )
        #: Runtime semi-join filter coordinator; None when the compiled graph
        #: carries neither filter edges nor static scan bounds (the planning
        #: pass did not run or found nothing prunable).  Scan bounds alone are
        #: enough: zone-map pruning is static and must fire on join-free plans.
        self.filters = None
        if graph.runtime_filters or any(stage.scan_bounds for stage in graph):
            from repro.core.filters import FilterCoordinator

            self.filters = FilterCoordinator(self)
        self.result_batch: Optional[Batch] = None
        self.query_finished = False
        self.done_event = self.env.event()
        self.poisoned_channels: set = set()
        #: Submission time; runtime_seconds is measured from here, so for a
        #: session query it includes any time spent in the admission queue.
        self._started_at = self.env.now
        self._io_baseline = self._io_snapshot()

    # -- lifecycle ----------------------------------------------------------------

    def setup_placement_and_tasks(self, worker_ids: List[int]) -> None:
        """Assign every channel to a worker and enqueue each channel's first task."""
        if not worker_ids:
            raise ExecutionError("no live workers to place channels on")
        for stage in self.graph:
            for channel in range(stage.num_channels):
                worker_id = worker_ids[channel % len(worker_ids)]
                self.gcs.placement.assign(stage.stage_id, channel, worker_id)
                self.gcs.tasks.add(
                    TaskDescriptor(TaskName(stage.stage_id, channel, 0), worker_id)
                )

    def finish_query(self, batch: Batch) -> None:
        """Record the final result and stop the simulation."""
        self.result_batch = batch
        self.query_finished = True
        self.gcs.control.mark_query_done()
        if not self.done_event.triggered:
            self.done_event.succeed(batch)

    def abort(self, error: Exception) -> None:
        """Abort the run (used by the coordinator on unrecoverable situations)."""
        self.query_finished = True
        if not self.done_event.triggered:
            self.done_event.fail(error)

    def _io_snapshot(self) -> Dict[str, float]:
        """Cluster-cumulative I/O counters at one instant.

        On a shared session several queries drive the same network, disks and
        object stores, so per-query byte counters are computed as the delta
        between submission and completion snapshots.  During overlap the delta
        attributes concurrent queries' traffic to each other — exact per-query
        attribution would require tagging every transfer — but it is exact
        whenever a query runs alone, which includes every
        :class:`~repro.api.runners.OneShotRunner` submission.
        """
        cluster = self.cluster
        return {
            "network_bytes": cluster.network.stats.bytes_sent,
            "local_disk_write_bytes": sum(
                w.disk.stats.bytes_written for w in cluster.workers
            ),
            "local_disk_read_bytes": sum(
                w.disk.stats.bytes_read for w in cluster.workers
            ),
            "s3_read_bytes": cluster.s3.stats.bytes_read,
            "s3_write_bytes": cluster.s3.stats.bytes_written,
            "hdfs_read_bytes": cluster.hdfs.stats.bytes_read,
            "hdfs_write_bytes": cluster.hdfs.stats.bytes_written,
            "gcs_transactions": self.gcs.store.stats.transactions,
            "gcs_logged_bytes": self.gcs.store.stats.logged_bytes,
        }

    def _collect_metrics(self) -> None:
        metrics = self.metrics
        metrics.runtime_seconds = self.env.now - self._started_at
        current = self._io_snapshot()
        for name, value in current.items():
            setattr(metrics, name, value - self._io_baseline[name])
        metrics.lineage_records = len(self.gcs.lineage)
        metrics.lineage_bytes = self.gcs.lineage.total_nbytes()
        if self.memory_managers:
            metrics.memory_peak_bytes = max(
                manager.peak_bytes for manager in self.memory_managers.values()
            )
            metrics.forced_memory_grants = sum(
                manager.forced_grants for manager in self.memory_managers.values()
            )

    # -- channel runtimes -----------------------------------------------------------

    def runtime_for(self, worker_id: int, stage: Stage, channel: int) -> ChannelRuntime:
        """Get or lazily create the runtime of a channel on its host worker."""
        key = (stage.stage_id, channel)
        per_worker = self.runtimes[worker_id]
        if key not in per_worker:
            runtime = ChannelRuntime(stage, channel)
            operator = runtime.operator
            if operator is not None and operator.spill is not None:
                store, _durable, _target = self._spill_store_for(worker_id)
                operator.spill.attach(
                    stage.stage_id, channel,
                    self.memory_manager_for(worker_id), store.peek,
                )
            per_worker[key] = runtime
        return per_worker[key]

    def drop_runtime(self, stage_id: int, channel: int) -> None:
        """Remove a channel's runtime from every worker (used when rewinding)."""
        for per_worker in self.runtimes.values():
            per_worker.pop((stage_id, channel), None)
        for manager in self.memory_managers.values():
            manager.release((stage_id, channel))

    # -- memory / spill infrastructure ---------------------------------------------

    def memory_manager_for(self, worker_id: int) -> MemoryManager:
        """The per-worker memory accounting, created on first use."""
        manager = self.memory_managers.get(worker_id)
        if manager is None:
            manager = MemoryManager(self.memory_budget_bytes)
            self.memory_managers[worker_id] = manager
        return manager

    def _spill_store_for(self, worker_id: int):
        """The spill destination for ``worker_id``: ``(store, durable, target)``."""
        if self.spill_target == "s3":
            return self.cluster.s3, True, "s3"
        if self.spill_target == "hdfs":
            return self.cluster.hdfs, True, "hdfs"
        return self.cluster.worker(worker_id).disk, False, "local"

    def _drain_spill(self, worker: Worker, runtime: ChannelRuntime):
        """Process: perform the store I/O an operator's spill context logged.

        Operators restore payloads synchronously mid-task; this drain charges
        the corresponding (outage-aware, bandwidth-shared) storage time after
        the operator step and keeps the stats and trace honest.  Durable spill
        chunks a retraced channel re-writes are skipped when already present
        (``spill_write_rehits``) — that is the recovery benefit of durable
        spill: re-read instead of recompute.
        """
        spill = runtime.operator.spill
        if spill is None:
            return
        records = spill.take_io()
        if not records:
            return
        store, durable, target = self._spill_store_for(worker.worker_id)
        metrics = self.metrics
        for record in records:
            key = record.key
            kind = record.kind
            if kind == "write":
                if durable and store.contains(key):
                    metrics.spill_write_rehits += 1
                    spill.mark_flushed(key)
                    kind = "rehit"
                else:
                    payload, _size = spill.staged_payload(key)
                    scaled = self.cost_model.scaled(record.nbytes)
                    if durable:
                        yield from store.put(key, payload, scaled)
                    else:
                        yield from store.write(key, payload, scaled)
                    spill.mark_flushed(key)
                    metrics.spill_writes += 1
                    metrics.spill_bytes_written += record.nbytes
                    store.stats.spill_writes += 1
                    store.stats.spill_bytes_written += record.nbytes
            elif kind == "read":
                if durable:
                    yield from store.get(key)
                else:
                    yield from store.read(key)
                metrics.spill_reads += 1
                metrics.spill_bytes_read += record.nbytes
                store.stats.spill_reads += 1
                store.stats.spill_bytes_read += record.nbytes
            else:  # delete
                store.delete(key)
                spill.forget(key)
            if self.tracer.enabled:
                self.tracer.record_spill(
                    self.env.now, key.stage, key.channel, key.label, key.seq,
                    kind, target, record.nbytes,
                )

    # -- task execution (driven by the session's TaskManager loop) --------------------

    def _run_descriptor(self, worker: Worker, descriptor: TaskDescriptor):
        stage = self.graph.stage(descriptor.name.stage)
        start = self.env.now
        if descriptor.kind == "replay":
            ran = yield from self._run_replay_task(worker, descriptor)
            kind = "replay"
        elif descriptor.kind == "regen":
            ran = yield from self._run_regen_task(worker, descriptor, stage)
            kind = "regen"
        else:
            feedback = self.adaptive.feedback if self.adaptive is not None else None
            if feedback is not None:
                feedback.task_started(descriptor.name, worker.worker_id, start)
            ran = False
            try:
                if stage.is_input:
                    ran = yield from self._run_input_task(worker, descriptor, stage)
                    kind = "input"
                else:
                    ran = yield from self._run_channel_task(worker, descriptor, stage)
                    kind = "channel"
            finally:
                if feedback is not None:
                    feedback.task_finished(
                        descriptor.name, worker.worker_id, self.env.now, bool(ran)
                    )
        end = self.env.now
        if self.tracer.enabled and (ran or end > start):
            self.tracer.record_task(
                descriptor.name, worker.worker_id, kind, start, end, committed=bool(ran)
            )
        return ran

    # -- input-reader tasks ------------------------------------------------------------

    def _run_input_task(self, worker: Worker, descriptor: TaskDescriptor, stage: Stage):
        runtime = self._startable_runtime(worker, stage, descriptor.name.channel)
        if runtime is None:
            return False
        splits = stage.splits_for_channel(descriptor.name.channel)
        split_pos = descriptor.name.seq
        if split_pos >= len(splits):
            return False
        lineage = self.gcs.lineage.get(descriptor.name) if descriptor.prescribed else None
        if lineage is not None:
            split_index = lineage.input_split
        else:
            split_index = splits[split_pos]
        is_final = split_pos == len(splits) - 1

        request = worker.cpu.request()
        yield request
        try:
            yield self.env.timeout(self.cost_model.dispatch_seconds())
            out_batch = yield from self._split_output(stage, split_index)
            record = Lineage(descriptor.name, input_split=split_index, kind="input")
            committed = yield from self._emit_output(
                worker, stage, runtime, descriptor, out_batch, record, is_final
            )
            if committed is None:
                return False  # lost a speculation race; nothing to recover
            if not committed:
                self.poisoned_channels.add((stage.stage_id, descriptor.name.channel))
                return False
            if is_final:
                runtime.finalized = True
            self.metrics.input_tasks += 1
            return True
        finally:
            worker.cpu.release(request)

    def _split_output(self, stage: Stage, split_index: int):
        """Process: the output batch of the input task over ``split_index``.

        The single definition of what an input task computes, run by both the
        original task and its lineage-driven regeneration — same decisions,
        same yields, same bytes.
        """
        if self.filters is not None and self.filters.split_prunable(stage, split_index):
            # Zone-map pruning: no row of this split can survive the scan's
            # static bounds or a published min/max filter, so the output is
            # the same empty batch a full read would produce — skip the S3
            # read.  The decision replays exactly: filters never change once
            # published, and the original task only ran gated on them.
            self.metrics.splits_pruned += 1
            return Batch.empty(stage.output_schema)
        split_batch = yield from self._read_split(stage.table.name, split_index)
        out_batch, rows, nbytes = self._apply_post_ops(stage, [split_batch])
        yield self.env.timeout(self.cost_model.cpu_seconds(rows, nbytes))
        if self.filters is not None:
            out_batch = self.filters.apply(stage, out_batch)
        return out_batch

    def _read_split(self, table_name: str, split_index: int):
        """Process: fetch one base-table split, via the shared-scan pool if any.

        The pool coalesces concurrent reads of the same split across every
        query of the session — one physical S3 transfer serves them all.
        """
        key = ("table", table_name, split_index)
        if self.scan_pool is not None:
            batch = yield from self.scan_pool.read(self.cluster.s3, key)
        else:
            batch = yield from self.cluster.s3.get(key)
        return batch

    # -- stateful channel tasks ----------------------------------------------------------

    def _run_channel_task(self, worker: Worker, descriptor: TaskDescriptor, stage: Stage):
        channel = descriptor.name.channel
        runtime = self._startable_runtime(worker, stage, channel)
        if runtime is None:
            return False
        lineage = self.gcs.lineage.get(descriptor.name) if descriptor.prescribed else None
        if lineage is not None:
            action = self._action_from_lineage(worker, runtime, stage, lineage)
        else:
            action = self._choose_action(worker, runtime, stage)
        if action is None:
            return False

        request = worker.cpu.request()
        yield request
        try:
            yield self.env.timeout(self.cost_model.dispatch_seconds())
            operator = runtime.operator
            outputs: List[Batch] = []
            consume = action.get("consume")
            pieces: List[Batch] = []
            if consume is not None:
                upstream_stage, upstream_channel, start_seq, count = consume
                names = [
                    TaskName(upstream_stage, upstream_channel, start_seq + i)
                    for i in range(count)
                ]
                pieces = [
                    worker.flight.peek((stage.stage_id, channel), name) for name in names
                ]
                if any(piece is None for piece in pieces):
                    return False

            for acked_stage in sorted(action.get("acks", [])):
                outputs.extend(operator.on_upstream_done(acked_stage))

            if consume is not None:
                rows = sum(p.num_rows for p in pieces)
                nbytes = sum(p.nbytes for p in pieces)
                yield self.env.timeout(self.cost_model.cpu_seconds(rows, nbytes))
                for piece in pieces:
                    outputs.extend(operator.on_input(consume[0], piece))

            if action["kind"] == "finalize":
                outputs.extend(operator.finalize())

            yield from self._drain_spill(worker, runtime)

            out_batch, out_rows, out_bytes = self._apply_post_ops(stage, outputs)
            if out_rows:
                yield self.env.timeout(self.cost_model.cpu_seconds(out_rows, out_bytes))
            if self.filters is not None:
                out_batch = self.filters.apply(stage, out_batch)

            record = self._lineage_for_action(descriptor.name, action)
            is_final = action["kind"] == "finalize"
            committed = yield from self._emit_output(
                worker, stage, runtime, descriptor, out_batch, record, is_final
            )
            if committed is None:
                return False  # lost a speculation race; nothing to recover
            if not committed:
                self.poisoned_channels.add((stage.stage_id, channel))
                return False

            for acked_stage in action.get("acks", []):
                runtime.acked_upstreams.add(acked_stage)
            if consume is not None:
                upstream_stage, upstream_channel, start_seq, count = consume
                for name in names:
                    worker.flight.take((stage.stage_id, channel), name)
                runtime.advance_watermark(upstream_stage, upstream_channel, count)
            if is_final:
                runtime.finalized = True
                manager = self.memory_managers.get(worker.worker_id)
                if manager is not None:
                    manager.release((stage.stage_id, channel))
            return True
        finally:
            worker.cpu.release(request)

    def _startable_runtime(self, worker: Worker, stage: Stage, channel: int):
        """The channel's runtime if one of its tasks may start now, else None."""
        if self.adaptive is not None and self.adaptive.gated(stage.stage_id):
            return None  # held back while a runtime plan revision is pending
        if self.filters is not None and self.filters.gated(stage.stage_id):
            return None  # held back until every filter aimed here is published
        runtime = self.runtime_for(worker.worker_id, stage, channel)
        if runtime.finalized or not self._consumers_reachable(stage):
            return None  # done, or a downstream worker is dead (coordinator's turn)
        return runtime

    def _consumers_reachable(self, stage: Stage) -> bool:
        """True if every worker hosting a consumer channel of ``stage`` is alive.

        Starting a task whose output cannot be delivered would waste the input
        read / compute only to hit Algorithm 1's "push failed, do not commit"
        path; the task is deferred instead until the coordinator has reassigned
        the lost channels.
        """
        consumer = self.graph.consumer_of(stage.stage_id)
        if consumer is None:
            return True
        consumer_stage, _link = consumer
        for consumer_channel in range(consumer_stage.num_channels):
            worker_id = self.gcs.placement.worker_for(consumer_stage.stage_id, consumer_channel)
            if not self.cluster.worker(worker_id).alive:
                return False
        return True

    def _lineage_for_action(self, task: TaskName, action: dict) -> Lineage:
        consume = action.get("consume")
        if consume is not None:
            upstream_stage, upstream_channel, start_seq, count = consume
            return Lineage(
                task,
                upstream_stage=upstream_stage,
                upstream_channel=upstream_channel,
                start_seq=start_seq,
                count=count,
                kind="consume",
            )
        return Lineage(task, kind=action["kind"])

    # -- input selection ---------------------------------------------------------------

    def _choose_action(self, worker: Worker, runtime: ChannelRuntime, stage: Stage):
        if self.engine_config.execution_mode == "stagewise":
            for link in stage.upstreams:
                if not self._stage_fully_done(link.upstream_id):
                    return None
        acks = self._pending_acks(runtime, stage)
        best = None
        for link in stage.upstreams:
            upstream = self.graph.stage(link.upstream_id)
            for upstream_channel in range(upstream.num_channels):
                watermark = runtime.watermark(link.upstream_id, upstream_channel)
                worker.flight.discard_below(
                    (stage.stage_id, runtime.channel),
                    link.upstream_id,
                    upstream_channel,
                    watermark,
                )
                count = self._available_run(
                    worker, stage, runtime.channel, link.upstream_id, upstream_channel, watermark
                )
                count = self._apply_scheduling_policy(
                    link.upstream_id, upstream_channel, watermark, count
                )
                if count > 0 and (best is None or count > best["consume"][3]):
                    best = {
                        "kind": "consume",
                        "consume": (link.upstream_id, upstream_channel, watermark, count),
                    }
        if best is not None:
            best["acks"] = acks
            return best
        if self._all_upstreams_exhausted(runtime, stage):
            return {"kind": "finalize", "acks": acks}
        if acks:
            return {"kind": "ack", "acks": acks}
        return None

    def _action_from_lineage(
        self, worker: Worker, runtime: ChannelRuntime, stage: Stage, lineage: Lineage
    ):
        acks = self._pending_acks(runtime, stage)
        if lineage.kind == "consume":
            names = lineage.consumed()
            for name in names:
                if worker.flight.peek((stage.stage_id, runtime.channel), name) is None:
                    return None  # waiting for a replayed input
            return {
                "kind": "consume",
                "consume": (
                    lineage.upstream_stage,
                    lineage.upstream_channel,
                    lineage.start_seq,
                    lineage.count,
                ),
                "acks": acks,
            }
        if lineage.kind == "ack":
            return {"kind": "ack", "acks": acks}
        if lineage.kind == "finalize":
            return {"kind": "finalize", "acks": acks}
        raise ExecutionError(f"unexpected lineage kind {lineage.kind!r} for a channel task")

    def _available_run(
        self,
        worker: Worker,
        stage: Stage,
        channel: int,
        upstream_stage: int,
        upstream_channel: int,
        watermark: int,
    ) -> int:
        count = 0
        while True:
            name = TaskName(upstream_stage, upstream_channel, watermark + count)
            piece = worker.flight.peek((stage.stage_id, channel), name)
            if piece is None or not self.gcs.lineage.contains(name):
                break
            count += 1
        return count

    def _apply_scheduling_policy(
        self, upstream_stage: int, upstream_channel: int, watermark: int, count: int
    ) -> int:
        if count == 0:
            return 0
        if self.engine_config.scheduling == "dynamic":
            if count >= self.MIN_DYNAMIC_BATCHES:
                return count
            total = self.gcs.channel_done.total_outputs(upstream_stage, upstream_channel)
            if total is not None and watermark + count >= total:
                return count  # the tail of a finished upstream channel
            return 0
        batch_size = self.engine_config.static_batch_size
        if count >= batch_size:
            return batch_size
        total = self.gcs.channel_done.total_outputs(upstream_stage, upstream_channel)
        if total is not None and watermark + count >= total:
            return count  # the tail of a finished upstream channel
        return 0

    def _pending_acks(self, runtime: ChannelRuntime, stage: Stage) -> List[int]:
        pending = []
        for link in stage.upstreams:
            if link.upstream_id in runtime.acked_upstreams:
                continue
            if self._upstream_fully_consumed(runtime, link.upstream_id):
                pending.append(link.upstream_id)
        return pending

    def _upstream_fully_consumed(self, runtime: ChannelRuntime, upstream_id: int) -> bool:
        upstream = self.graph.stage(upstream_id)
        for upstream_channel in range(upstream.num_channels):
            total = self.gcs.channel_done.total_outputs(upstream_id, upstream_channel)
            if total is None:
                return False
            if runtime.watermark(upstream_id, upstream_channel) < total:
                return False
        return True

    def _all_upstreams_exhausted(self, runtime: ChannelRuntime, stage: Stage) -> bool:
        return all(
            self._upstream_fully_consumed(runtime, link.upstream_id)
            for link in stage.upstreams
        )

    def _stage_fully_done(self, stage_id: int) -> bool:
        stage = self.graph.stage(stage_id)
        return all(
            self.gcs.channel_done.is_done(stage_id, channel)
            for channel in range(stage.num_channels)
        )

    # -- output emission (push + persist + commit) ----------------------------------------

    def _apply_post_ops(self, stage: Stage, batches: List[Batch]):
        """One task's single output batch, plus the input rows and bytes its
        CPU charge is computed from."""
        out = concat_batches(finish_output(stage, batches), schema=stage.output_schema)
        rows = sum(batch.num_rows for batch in batches)
        nbytes = sum(batch.nbytes for batch in batches)
        return out, rows, nbytes

    def _emit_output(
        self,
        worker: Worker,
        stage: Stage,
        runtime: ChannelRuntime,
        descriptor: TaskDescriptor,
        out_batch: Batch,
        record: Lineage,
        is_final: bool,
    ):
        task_name = descriptor.name
        consumer = self.graph.consumer_of(stage.stage_id)
        adaptive = self.adaptive
        # The push/persist phase must be consistent with the plan state the
        # commit happens under.  An adaptive revision can land while this task
        # is parked at any yield below (it runs inside another task's commit
        # hook), re-shaping the consumer's links, channel count or placement —
        # so the whole phase re-runs whenever the controller's epoch moved
        # (duplicate puts and persists simply overwrite).  Rare in practice:
        # revisions fire at stage boundaries.
        while True:
            epoch = adaptive.epoch if adaptive is not None else None
            pieces_payload = route_output(self.graph, stage, task_name.channel, out_batch)
            stale = False
            if consumer is not None:
                consumer_stage = consumer[0]
                for consumer_channel, piece in pieces_payload.items():
                    destination = self.gcs.placement.worker_for(
                        consumer_stage.stage_id, consumer_channel
                    )
                    destination_worker = self.cluster.worker(destination)
                    if not destination_worker.alive:
                        return False
                    transfer_bytes = (
                        self.cost_model.scaled(piece.nbytes) + self.PIECE_OVERHEAD
                    )
                    yield from self.cluster.network.transfer(
                        worker.worker_id, destination, transfer_bytes
                    )
                    if not destination_worker.alive:
                        return False
                    if adaptive is not None and adaptive.epoch != epoch:
                        stale = True  # don't put: the channel may be gone
                        break
                    destination_worker.flight.put(
                        (consumer_stage.stage_id, consumer_channel), task_name, piece
                    )
                if stale:
                    continue

            location = yield from self.strategy.persist_output(
                self, worker, task_name, pieces_payload, float(out_batch.nbytes)
            )

            yield self.env.timeout(self.cost_model.gcs_txn_seconds())
            if not worker.alive:
                return False
            if adaptive is None or adaptive.epoch == epoch:
                break

        if (
            adaptive is not None
            and not descriptor.prescribed
            and (descriptor.speculative or adaptive.is_speculated(task_name))
            and self.gcs.lineage.contains(task_name)
        ):
            # Lost a speculation race: the other copy of this task committed
            # first (and queued the channel's next task on its worker).  Defer
            # to the committed lineage — this is not a failure, so the caller
            # must not poison the channel.
            return None

        with self.gcs.transaction() as txn:
            self.gcs.lineage.commit(record, txn=txn)
            self.gcs.tasks.remove(task_name, txn=txn)
            if is_final:
                self.gcs.channel_done.mark_done(
                    stage.stage_id, runtime.channel, task_name.seq + 1, txn=txn
                )
            else:
                self.gcs.tasks.add(
                    TaskDescriptor(
                        task_name.next(),
                        worker.worker_id,
                        kind="execute",
                        prescribed=descriptor.prescribed,
                    ),
                    txn=txn,
                )
            if location is not None:
                self.gcs.objects.record(location, txn=txn)

        runtime.next_seq = task_name.seq + 1
        self.metrics.tasks_executed += 1
        if self.filters is not None:
            # Synchronous (no yield since the commit transaction): any process
            # that observes this commit's channel-done mark therefore also
            # sees its values folded into the filter builders.
            self.filters.observe_commit(stage, out_batch)
        yield from self.strategy.after_task_commit(self, worker, runtime)
        if adaptive is not None:
            yield from adaptive.after_commit(worker, stage, descriptor, out_batch, is_final)
        if self.filters is not None:
            yield from self.filters.publish_ready(worker)

        if consumer is None and is_final:
            self.finish_query(out_batch)
        return True

    # -- recovery tasks (replay / regenerate) -------------------------------------------------

    def _run_replay_task(self, worker: Worker, descriptor: TaskDescriptor):
        location = self.gcs.objects.get(descriptor.name)
        if location is None:
            self.gcs.tasks.remove(descriptor.name)
            return True
        request = worker.cpu.request()
        yield request
        try:
            yield self.env.timeout(self.cost_model.dispatch_seconds())
            if location.durable:
                key = ("spool", descriptor.name)
                store = self.cluster.s3 if self.cluster.s3.contains(key) else self.cluster.hdfs
                payload = yield from store.get(key)

                def refresh(store=store, key=key):
                    return store.peek(key) if store.contains(key) else None

            else:
                if not worker.disk.contains(descriptor.name):
                    self.gcs.tasks.remove(descriptor.name)
                    return True
                payload = yield from worker.disk.read(descriptor.name)

                def refresh(disk=worker.disk, key=descriptor.name):
                    return disk.peek(key) if disk.contains(key) else None

            yield from self._push_payload(worker, descriptor, payload, refresh=refresh)
            self.gcs.tasks.remove(descriptor.name)
            self.metrics.replay_tasks += 1
            return True
        finally:
            worker.cpu.release(request)

    def _run_regen_task(self, worker: Worker, descriptor: TaskDescriptor, stage: Stage):
        lineage = self.gcs.lineage.get(descriptor.name)
        if lineage is None or not lineage.is_input:
            self.gcs.tasks.remove(descriptor.name)
            return True
        request = worker.cpu.request()
        yield request
        try:
            yield self.env.timeout(self.cost_model.dispatch_seconds())
            out_batch = yield from self._split_output(stage, lineage.input_split)

            def refresh():
                # Re-partition under the *current* links, so a regeneration
                # racing an adaptive revision still produces the canonical
                # piece layout (identical to the controller's rewrites).
                return route_output(
                    self.graph, stage, descriptor.name.channel, out_batch
                )

            while True:
                epoch = self.adaptive.epoch if self.adaptive is not None else None
                payload: Dict[int, Batch] = refresh()
                yield from self._push_payload(worker, descriptor, payload, refresh=refresh)
                location = yield from self.strategy.persist_output(
                    self, worker, descriptor.name, payload, float(out_batch.nbytes)
                )
                if self.adaptive is None or self.adaptive.epoch == epoch:
                    break
            with self.gcs.transaction() as txn:
                self.gcs.tasks.remove(descriptor.name, txn=txn)
                if location is not None:
                    self.gcs.objects.record(location, txn=txn)
            self.metrics.regenerated_input_tasks += 1
            return True
        finally:
            worker.cpu.release(request)

    def _push_payload(
        self,
        worker: Worker,
        descriptor: TaskDescriptor,
        payload: Dict[int, Batch],
        refresh=None,
    ):
        """Push selected pieces of a stored object to the requesting consumers.

        ``refresh`` re-fetches the payload when an adaptive plan revision
        lands mid-push (the controller rewrites persisted payloads in place,
        so a replay must re-read to deliver the revised piece layout);
        returning None from it aborts the push.
        """
        adaptive = self.adaptive
        while True:
            epoch = adaptive.epoch if adaptive is not None else None
            stale = False
            for consumer_stage_id, consumer_channel in descriptor.replay_consumers:
                if consumer_channel >= self.graph.stage(consumer_stage_id).num_channels:
                    continue  # the channel was coalesced away by a revision
                piece = payload.get(consumer_channel)
                if piece is None:
                    continue
                destination = self.gcs.placement.worker_for(
                    consumer_stage_id, consumer_channel
                )
                destination_worker = self.cluster.worker(destination)
                if not destination_worker.alive:
                    continue
                transfer_bytes = self.cost_model.scaled(piece.nbytes) + self.PIECE_OVERHEAD
                yield from self.cluster.network.transfer(
                    worker.worker_id, destination, transfer_bytes
                )
                if adaptive is not None and adaptive.epoch != epoch:
                    stale = True  # don't put: the channel/layout may be gone
                    break
                if destination_worker.alive:
                    destination_worker.flight.put(
                        (consumer_stage_id, consumer_channel), descriptor.name, piece
                    )
            if adaptive is None or (adaptive.epoch == epoch and not stale):
                return
            if refresh is not None:
                payload = refresh()
                if payload is None:
                    return
