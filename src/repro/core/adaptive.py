"""Adaptive (runtime-feedback) query execution.

The static plan is compiled from ANALYZE-time estimates; a skewed or heavily
filtered intermediate can leave it badly mis-shaped.  The
:class:`AdaptiveController` corrects that at stage boundaries, using the
observed output statistics a :class:`~repro.trace.feedback.StageFeedback`
collector accumulates on the engine's commit path:

* **broadcast revisit** — when a shuffle join's build side completes and its
  *observed* bytes pass the compile-time broadcast gate
  (:func:`~repro.optimizer.cost.broadcast_decision`), the join is converted to
  a broadcast join: the build link replicates, the probe link becomes
  channel-aligned, and the join's channels are re-placed next to the probe
  producer so the (usually dominant) probe push moves zero network bytes;
* **channel re-sizing** — otherwise the join's channel count is re-sized with
  the compiler's own policy
  (:func:`~repro.physical.compiler.sized_channel_count`) over observed build +
  estimated probe bytes, coalescing over-provisioned channels.  Grouped
  aggregations get the same treatment opportunistically when their producer
  finishes before the aggregation consumed anything;
* **skew splitting** — once enough probe bytes have been observed, channels
  receiving disproportionate bytes are split: the probe link scatters the hot
  hash partitions round-robin across all channels while the build link
  replicates the matching build partitions everywhere (every join type here
  is probe-preserving, so this is exact);
* **speculation** — input tasks in flight far beyond the stage's median task
  duration (chaos stragglers) get a speculative duplicate on another worker;
  the first commit wins and the loser defers to the committed lineage.

**Consistency.**  Join stages under revision are *gated* (their tasks — and,
until the size decision, their probe producers' tasks — return without
running), so no revised stage has consumed anything when its inputs are
re-shaped.  Every link revision is expressed in the canonical two-level form
(hash into ``base_parts`` pieces, then compose), and already-pushed flight
pieces and persisted payloads are rewritten with the *same* compose helpers
``partition_for_link`` applies to fresh batches — so a retraced producer
regenerates byte-identical pieces and lineage-based recovery stays exact
across any adaptive decision.  All bookkeeping mutations of one decision are
applied synchronously (no simulation yields) before any network time is
charged, so a concurrent task never observes a half-applied revision.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.data.batch import Batch, concat_batches
from repro.gcs.naming import TaskName
from repro.gcs.tables import TaskDescriptor
from repro.optimizer.cost import broadcast_decision
from repro.physical.compiler import (
    DEFAULT_TARGET_BYTES_PER_CHANNEL,
    sized_channel_count,
)
from repro.physical.stages import (
    Stage,
    UpstreamLink,
    coalesce_pieces,
    replicate_pieces,
    scatter_pieces,
)
from repro.trace.feedback import StageFeedback


class AdaptiveController:
    """Runtime plan revisions for one query execution.

    Created by the :class:`~repro.core.engine.ExecutionContext` when adaptive
    execution is enabled; driven entirely from the engine's commit path
    (:meth:`after_commit`) and the coordinator heartbeat
    (:meth:`maybe_speculate`).
    """

    #: A channel is "hot" when its bytes exceed this multiple of the mean.
    SKEW_FACTOR = 2.0
    #: ... and carries at least this many bytes (noise floor).
    SKEW_MIN_CHANNEL_BYTES = 16_384.0
    #: Decide skew once this many probe bytes were observed (or at the
    #: fraction of the estimated probe size, whichever is larger).
    SKEW_SAMPLE_MIN_BYTES = 32_768.0
    SKEW_SAMPLE_FRACTION = 0.25
    #: Speculate when an input task is in flight longer than
    #: ``max(SPEC_MIN_SECONDS, SPEC_FACTOR * median committed duration)``.
    SPEC_MIN_SECONDS = 0.02
    SPEC_FACTOR = 3.0
    SPEC_MIN_SAMPLES = 3

    def __init__(self, execution, broadcast_threshold_bytes: float):
        self.execution = execution
        self.graph = execution.graph
        self.feedback = StageFeedback()
        self.broadcast_threshold_bytes = float(broadcast_threshold_bytes)
        #: Bumped on every revision; replay/regen pushes re-read their payload
        #: when they observe a bump mid-push.
        self.epoch = 0
        #: Join stages awaiting a decision: stage id -> "size" | "skew".
        self.pending: Dict[int, str] = {}
        #: Producer stage id -> the pending join it feeds (build / probe side).
        self.build_watch: Dict[int, int] = {}
        self.probe_watch: Dict[int, int] = {}
        #: Producer stage id -> the grouped aggregation it feeds.
        self.agg_watch: Dict[int, int] = {}
        self.agg_done: Set[int] = set()
        #: Producer stages whose completion cascade already ran.
        self.completed: Set[int] = set()
        #: Outstanding speculative copies (never in G.T) and every task name
        #: ever speculated on (the commit-race check keys off this).
        self.speculative: Dict[TaskName, TaskDescriptor] = {}
        self.speculated: Set[TaskName] = set()
        self._register()

    # -- registration -------------------------------------------------------------

    def _register(self) -> None:
        for stage in self.graph:
            meta = stage.adaptive
            if not meta:
                continue
            if meta.get("kind") == "join" and len(stage.upstreams) == 2:
                build = self._link(stage, "build")
                probe = self._link(stage, "probe")
                if build is None or probe is None:
                    continue
                if build.mode != "partition" or probe.mode != "partition":
                    continue
                if not build.partition_keys or not probe.partition_keys:
                    continue
                self.pending[stage.stage_id] = "size"
                self.build_watch[build.upstream_id] = stage.stage_id
                self.probe_watch[probe.upstream_id] = stage.stage_id
            elif meta.get("kind") == "agg" and len(stage.upstreams) == 1:
                link = stage.upstreams[0]
                if (
                    link.mode == "partition"
                    and link.partition_keys
                    and stage.num_channels > 1
                ):
                    self.agg_watch[link.upstream_id] = stage.stage_id

    @staticmethod
    def _link(stage: Stage, role: str) -> Optional[UpstreamLink]:
        for link in stage.upstreams:
            if link.role == role:
                return link
        return None

    # -- gating -------------------------------------------------------------------

    def gated(self, stage_id: int) -> bool:
        """True while ``stage_id``'s tasks must hold for a pending decision.

        A join under revision is gated through both phases (it must not
        consume pieces that may still be re-shaped); its probe producers are
        gated only until the size decision, which needs the completed build
        side but unmoved probe bytes.  Build producers are never gated, so
        progress is always possible on a tree-shaped plan.
        """
        if stage_id in self.pending:
            return True
        target = self.probe_watch.get(stage_id)
        return target is not None and self.pending.get(target) == "size"

    def is_speculated(self, name: TaskName) -> bool:
        """True if ``name`` ever had a speculative duplicate launched."""
        return name in self.speculated

    # -- commit-path hook ---------------------------------------------------------

    def after_commit(
        self,
        worker,
        stage: Stage,
        descriptor: TaskDescriptor,
        out_batch: Batch,
        pieces_payload: Dict[int, Batch],
        consumer,
        is_final: bool,
    ):
        """Process: feedback bookkeeping plus any decision this commit triggers."""
        name = descriptor.name
        if descriptor.speculative:
            # The duplicate won the race: the channel effectively migrated to
            # the committing worker (the commit txn queued the next task
            # there), so re-pin the placement to match.
            self.execution.metrics.speculative_wins += 1
            self.execution.gcs.placement.assign(
                stage.stage_id, name.channel, worker.worker_id
            )
        self.speculative.pop(name, None)

        consumer_id = consumer[0].stage_id if consumer is not None else None
        piece_bytes = None
        if consumer_id is not None:
            piece_bytes = tuple(
                float(piece.nbytes)
                for _channel, piece in sorted(pieces_payload.items())
            )
        self.feedback.record_commit(
            name,
            out_batch.num_rows,
            float(out_batch.nbytes),
            worker.worker_id,
            consumer_id,
            piece_bytes,
        )
        if is_final:
            self.feedback.mark_channel_done(stage.stage_id, name.channel)

        stage_id = stage.stage_id
        if stage_id not in self.completed and self.feedback.is_complete(
            stage_id, stage.num_channels
        ):
            self.completed.add(stage_id)
            yield from self._on_stage_complete(stage)
        elif stage_id in self.probe_watch:
            yield from self._maybe_split_skew(stage_id, force=False)

    def _on_stage_complete(self, stage: Stage):
        execution = self.execution
        stage_id = stage.stage_id
        if execution.tracer.enabled:
            execution.tracer.record_observation(
                execution.env.now,
                stage_id,
                self.feedback.stage_rows(stage_id),
                self.feedback.stage_bytes(stage_id),
            )
        target = self.build_watch.get(stage_id)
        if target is not None and self.pending.get(target) == "size":
            yield from self._decide_join(target)
        target = self.probe_watch.get(stage_id)
        if target is not None and self.pending.get(target) == "skew":
            yield from self._maybe_split_skew(stage_id, force=True)
        target = self.agg_watch.get(stage_id)
        if target is not None and target not in self.agg_done:
            yield from self._maybe_coalesce_agg(stage_id, target)

    # -- phase 1: broadcast revisit / channel re-sizing ---------------------------

    def _decide_join(self, join_id: int):
        stage = self.graph.stage(join_id)
        build = self._link(stage, "build")
        probe = self._link(stage, "probe")
        probe_stage = self.graph.stage(probe.upstream_id)
        build_bytes = self.feedback.stage_bytes(build.upstream_id)
        probe_est = float(stage.adaptive["probe_est"])
        filters = self.execution.filters
        if filters is not None:
            # Runtime filters already published into this join's probe subtree
            # shrink the probe traffic below its compile-time estimate; scale
            # by their observed kept/tested ratio so the broadcast revisit and
            # the channel re-sizing see the bytes that will actually arrive.
            probe_est *= filters.probe_scale(join_id)
        if broadcast_decision(
            build_bytes,
            probe_est,
            self.broadcast_threshold_bytes,
            probe_stage.num_channels,
        ):
            self.pending.pop(join_id, None)
            yield from self._convert_to_broadcast(stage, build, probe, probe_stage)
            return
        n_new = sized_channel_count(
            build_bytes + probe_est, DEFAULT_TARGET_BYTES_PER_CHANNEL, stage.num_channels
        )
        if n_new < stage.num_channels:
            yield from self._resize_stage(stage, n_new)
        # Probe producers are released; the join itself stays gated until the
        # skew decision (made once enough probe bytes are in, or the probe
        # side completes).
        self.pending[join_id] = "skew"

    def _convert_to_broadcast(
        self, stage: Stage, build: UpstreamLink, probe: UpstreamLink, probe_stage: Stage
    ):
        execution = self.execution
        gcs = execution.gcs
        n_old = stage.num_channels
        n_new = probe_stage.num_channels
        old_placement = {
            channel: gcs.placement.worker_for(stage.stage_id, channel)
            for channel in range(n_old)
        }
        # Canonical form first: a retraced build producer must regenerate the
        # rewritten pieces byte-for-byte (hash into the old channel count,
        # concatenate in part order, replicate).
        build.base_parts = build.base_parts or n_old
        build.mode = "broadcast"
        build.scatter = None
        build.replicate = None
        probe.mode = "aligned"
        probe.base_parts = None
        probe.scatter = None
        probe.replicate = None
        stage.num_channels = n_new
        # Co-locate each join channel with its aligned probe channel, so the
        # (dominant) probe push becomes worker-local and free.
        new_placement: Dict[int, int] = {}
        for channel in range(n_new):
            worker_id = gcs.placement.worker_for(probe_stage.stage_id, channel)
            if not execution.cluster.worker(worker_id).alive:
                worker_id = self._any_live_worker(channel)
            gcs.placement.assign(stage.stage_id, channel, worker_id)
            new_placement[channel] = worker_id
        for channel in range(n_new, n_old):
            gcs.placement.unassign(stage.stage_id, channel)
        for channel in range(max(n_old, n_new)):
            gcs.tasks.remove(TaskName(stage.stage_id, channel, 0))
            execution.drop_runtime(stage.stage_id, channel)
        for channel in range(n_new):
            gcs.tasks.add(
                TaskDescriptor(TaskName(stage.stage_id, channel, 0), new_placement[channel])
            )
        producer = self.graph.stage(build.upstream_id)
        schema = producer.output_schema

        def compose(pieces: List[Batch]) -> List[Batch]:
            full = concat_batches(pieces, schema=schema)
            return [full] * n_new

        moves = self._rewrite_link_pieces(
            stage, build, n_old, old_placement, n_new, new_placement, compose
        )
        self.epoch += 1
        execution.metrics.adaptive_broadcast_joins += 1
        if execution.tracer.enabled:
            execution.tracer.record_adaptation(
                execution.env.now,
                stage.stage_id,
                "broadcast",
                f"build_bytes={self.feedback.stage_bytes(build.upstream_id):.0f}"
                f" channels={n_old}->{n_new}",
            )
        yield from self._charge_moves(moves)

    def _resize_stage(self, stage: Stage, n_new: int):
        """Coalesce ``stage`` down to ``n_new`` channels (joins and aggs)."""
        execution = self.execution
        gcs = execution.gcs
        n_old = stage.num_channels
        old_placement = {
            channel: gcs.placement.worker_for(stage.stage_id, channel)
            for channel in range(n_old)
        }
        for link in stage.upstreams:
            if link.mode == "partition" and link.partition_keys:
                link.base_parts = link.base_parts or n_old
        stage.num_channels = n_new
        new_placement = {channel: old_placement[channel] for channel in range(n_new)}
        for channel in range(n_new, n_old):
            gcs.placement.unassign(stage.stage_id, channel)
            gcs.tasks.remove(TaskName(stage.stage_id, channel, 0))
        for channel in range(n_old):
            execution.drop_runtime(stage.stage_id, channel)
        moves: List[Tuple[int, int, float]] = []
        for link in stage.upstreams:
            schema = self.graph.stage(link.upstream_id).output_schema

            def compose(pieces: List[Batch], _schema=schema) -> List[Batch]:
                return coalesce_pieces(pieces, n_new, _schema)

            moves.extend(
                self._rewrite_link_pieces(
                    stage, link, n_old, old_placement, n_new, new_placement, compose
                )
            )
        self.epoch += 1
        execution.metrics.adaptive_channel_resizes += 1
        if execution.tracer.enabled:
            execution.tracer.record_adaptation(
                execution.env.now, stage.stage_id, "resize", f"channels={n_old}->{n_new}"
            )
        yield from self._charge_moves(moves)

    # -- phase 2: skew splitting --------------------------------------------------

    def _maybe_split_skew(self, probe_producer_id: int, force: bool):
        join_id = self.probe_watch.get(probe_producer_id)
        if join_id is None or self.pending.get(join_id) != "skew":
            return
        stage = self.graph.stage(join_id)
        num_channels = stage.num_channels
        totals = self.feedback.link_channel_bytes(
            probe_producer_id, join_id, num_channels
        )
        total = sum(totals)
        if not force:
            threshold = max(
                self.SKEW_SAMPLE_MIN_BYTES,
                self.SKEW_SAMPLE_FRACTION * float(stage.adaptive["probe_est"]),
            )
            if total < threshold:
                return
        self.pending.pop(join_id, None)  # decided either way; the join un-gates
        if num_channels == 1 or total <= 0.0:
            return
        mean = total / num_channels
        hot = tuple(
            channel
            for channel in range(num_channels)
            if totals[channel] > self.SKEW_FACTOR * mean
            and totals[channel] > self.SKEW_MIN_CHANNEL_BYTES
        )
        if not hot or len(hot) >= num_channels:
            return
        execution = self.execution
        gcs = execution.gcs
        probe = self._link(stage, "probe")
        build = self._link(stage, "build")
        probe.scatter = hot
        build.replicate = hot
        placement = {
            channel: gcs.placement.worker_for(stage.stage_id, channel)
            for channel in range(num_channels)
        }
        moves: List[Tuple[int, int, float]] = []
        for link, composer in ((probe, scatter_pieces), (build, replicate_pieces)):
            schema = self.graph.stage(link.upstream_id).output_schema

            def compose(pieces: List[Batch], _composer=composer, _schema=schema):
                return _composer(pieces, hot, _schema)

            moves.extend(
                self._rewrite_link_pieces(
                    stage, link, num_channels, placement, num_channels, placement, compose
                )
            )
        self.epoch += 1
        execution.metrics.adaptive_skew_splits += 1
        if execution.tracer.enabled:
            execution.tracer.record_adaptation(
                execution.env.now,
                stage.stage_id,
                "skew",
                f"hot={list(hot)} bytes={[round(t) for t in totals]}",
            )
        yield from self._charge_moves(moves)

    # -- opportunistic aggregation coalesce ---------------------------------------

    def _maybe_coalesce_agg(self, producer_id: int, agg_id: int):
        self.agg_done.add(agg_id)
        stage = self.graph.stage(agg_id)
        # Only safe while the aggregation has not touched any input: no
        # committed tasks and none in flight.
        if self.feedback.outputs.get(agg_id):
            return
        if self.feedback.active.get(agg_id, 0) > 0:
            return
        observed = self.feedback.stage_bytes(producer_id)
        n_new = sized_channel_count(
            observed, DEFAULT_TARGET_BYTES_PER_CHANNEL, stage.num_channels
        )
        if n_new >= stage.num_channels:
            return
        yield from self._resize_stage(stage, n_new)

    # -- shared rewrite machinery ---------------------------------------------------

    def _rewrite_link_pieces(
        self,
        stage: Stage,
        link: UpstreamLink,
        n_old: int,
        old_placement: Dict[int, int],
        n_new: int,
        new_placement: Dict[int, int],
        compose,
    ) -> List[Tuple[int, int, float]]:
        """Re-shape every committed producer output already in flight buffers.

        Applies ``compose`` (the same transform ``partition_for_link`` now
        performs on fresh batches) to each committed task's buffered pieces,
        moves them to the new placement and rewrites the persisted backup
        payload.  Tasks with any piece lost to a dead worker are wiped
        entirely so recovery re-delivers them canonically.  Purely
        synchronous — the returned moves are charged to the network by the
        caller *after* all state is consistent.
        """
        execution = self.execution
        cluster = execution.cluster
        moves: List[Tuple[int, int, float]] = []
        for task in self.feedback.committed_tasks(link.upstream_id):
            pieces: List[Optional[Batch]] = []
            for channel in range(n_old):
                host = cluster.worker(old_placement[channel])
                piece = (
                    host.flight.peek((stage.stage_id, channel), task)
                    if host.alive
                    else None
                )
                pieces.append(piece)
            if any(piece is None for piece in pieces):
                for channel, piece in enumerate(pieces):
                    if piece is not None:
                        cluster.worker(old_placement[channel]).flight.take(
                            (stage.stage_id, channel), task
                        )
                continue
            new_pieces = compose(pieces)
            for channel in range(n_old):
                cluster.worker(old_placement[channel]).flight.take(
                    (stage.stage_id, channel), task
                )
            source = self.feedback.producer_worker(task)
            if source is not None and not cluster.worker(source).alive:
                source = None
            for channel, piece in enumerate(new_pieces):
                destination = new_placement[channel]
                cluster.worker(destination).flight.put(
                    (stage.stage_id, channel), task, piece
                )
                moves.append(
                    (source if source is not None else destination, destination,
                     float(piece.nbytes))
                )
            self._replace_payload(task, dict(enumerate(new_pieces)))
        return moves

    def _replace_payload(self, task: TaskName, payload: Dict[int, Batch]) -> None:
        """Rewrite the persisted backup of ``task`` to the new piece layout."""
        execution = self.execution
        location = execution.gcs.objects.get(task)
        if location is None:
            return
        if location.durable:
            key = ("spool", task)
            for store in (execution.cluster.s3, execution.cluster.hdfs):
                if store.contains(key):
                    store.replace(key, payload)
                    return
            return
        host = execution.cluster.worker(location.worker_id)
        if host.alive and host.disk.contains(task):
            host.disk.replace(task, payload)

    def _charge_moves(self, moves: List[Tuple[int, int, float]]):
        """Process: charge the network for the rewrite's piece movements.

        Modelled as a fresh push of each rewritten piece from its producer's
        worker (worker-local moves are free, like any other push).
        """
        execution = self.execution
        for source, destination, nbytes in moves:
            transfer = execution.cost_model.scaled(nbytes) + execution.PIECE_OVERHEAD
            yield from execution.cluster.network.transfer(source, destination, transfer)

    def _any_live_worker(self, salt: int) -> int:
        live = sorted(
            w.worker_id for w in self.execution.cluster.workers if w.alive
        )
        if not live:
            raise RuntimeError("no live workers for adaptive re-placement")
        return live[salt % len(live)]

    # -- speculation ----------------------------------------------------------------

    def maybe_speculate(self, now: float) -> None:
        """Launch speculative duplicates of straggling input tasks.

        Called from the coordinator heartbeat.  A task qualifies when it has
        been in flight beyond ``max(SPEC_MIN_SECONDS, SPEC_FACTOR * median)``
        of its stage's committed durations (at least ``SPEC_MIN_SAMPLES``
        observed).  The duplicate never enters G.T — it lives here and is
        served to its target worker alongside the regular queue; whichever
        copy commits first wins, and the loser defers to the committed
        lineage (the GCS non-clobbering rule).
        """
        execution = self.execution
        if execution.query_finished:
            return
        cluster = execution.cluster
        live = sorted(w.worker_id for w in cluster.workers if w.alive)
        if len(live) < 2:
            return
        for (name, worker_id), start in sorted(self.feedback.inflight.items()):
            if name in self.speculated:
                continue
            stage = self.graph.stage(name.stage)
            if not stage.is_input:
                continue
            descriptor = execution.gcs.tasks.get(name)
            if (
                descriptor is None
                or descriptor.kind != "execute"
                or descriptor.prescribed
                or descriptor.worker_id != worker_id
            ):
                continue
            samples = self.feedback.durations.get(name.stage, ())
            if len(samples) < self.SPEC_MIN_SAMPLES:
                continue
            median = self.feedback.median_duration(name.stage)
            if now - start <= max(self.SPEC_MIN_SECONDS, self.SPEC_FACTOR * median):
                continue
            targets = [w for w in live if w != worker_id]
            if not targets:
                continue
            target = targets[(worker_id + name.channel) % len(targets)]
            copy = TaskDescriptor(name, target, kind="execute", speculative=True)
            self.speculative[name] = copy
            self.speculated.add(name)
            execution.metrics.speculative_tasks += 1
            if execution.tracer.enabled:
                execution.tracer.record_adaptation(
                    now, name.stage, "speculate", f"{name} w{worker_id}->w{target}"
                )

    def speculative_for(self, worker_id: int) -> List[TaskDescriptor]:
        """Outstanding speculative copies assigned to ``worker_id``.

        Copies whose original committed (the race is over), vanished from G.T
        or was rewound into a prescribed retrace by recovery are pruned — a
        speculative duplicate only ever races a live, free-running original.
        """
        tasks = self.execution.gcs.tasks
        lineage = self.execution.gcs.lineage
        obsolete = []
        for name in self.speculative:
            original = tasks.get(name)
            if (
                lineage.contains(name)
                or original is None
                or original.kind != "execute"
                or original.prescribed
            ):
                obsolete.append(name)
        for name in obsolete:
            self.speculative.pop(name, None)
        return [
            descriptor
            for name, descriptor in sorted(self.speculative.items())
            if descriptor.worker_id == worker_id
        ]
