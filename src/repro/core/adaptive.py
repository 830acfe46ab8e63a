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
  estimated probe bytes, coalescing over-provisioned channels;
* **speculation** — input tasks in flight far beyond the stage's median task
  duration (chaos stragglers) get a speculative duplicate on another worker;
  the first commit wins and the loser defers to the committed lineage.

A shuffle join is revised exactly once, when its build producer completes
(:meth:`AdaptiveController._decide_join`), and that decision un-gates it:
nothing reshapes a link mid-stream, while its producers are still pushing.

**Consistency.**  A join awaiting its decision is *gated* together with its
probe producers (their tasks return without running), so no revised stage has
consumed anything when its inputs are re-shaped.  Every link revision is
expressed in the canonical two-level form (hash into ``base_parts`` pieces,
then coalesce or concatenate), and already-pushed flight pieces and persisted
payloads are rewritten with the *same* composition ``partition_for_link``
applies to fresh batches — so a retraced producer regenerates byte-identical
pieces and lineage-based recovery stays exact across any adaptive decision.
All bookkeeping mutations of one decision are applied synchronously (no
simulation yields) before any network time is charged, so a concurrent task
never observes a half-applied revision.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.common.errors import FaultToleranceError
from repro.data.batch import Batch, concat_batches
from repro.gcs.naming import TaskName
from repro.gcs.tables import TaskDescriptor
from repro.optimizer.cost import broadcast_decision
from repro.physical.compiler import (
    DEFAULT_TARGET_BYTES_PER_CHANNEL,
    sized_channel_count,
)
from repro.physical.stages import Stage, UpstreamLink, coalesce_pieces
from repro.trace.feedback import StageFeedback


class AdaptiveController:
    """Runtime plan revisions for one query execution.

    Created by the :class:`~repro.core.engine.ExecutionContext` when adaptive
    execution is enabled; driven entirely from the engine's commit path
    (:meth:`after_commit`) and the coordinator heartbeat
    (:meth:`maybe_speculate`).
    """

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
        #: Shuffle joins still awaiting their one decision.
        self.pending: Set[int] = set()
        #: Producer stage id -> the pending join it feeds (build / probe side).
        self.build_watch: Dict[int, int] = {}
        self.probe_watch: Dict[int, int] = {}
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
            if not stage.adaptive:
                continue  # the compiler stamps shuffle joins only
            build = self._link(stage, "build")
            probe = self._link(stage, "probe")
            if build is None or probe is None:
                continue
            if build.mode != "partition" or probe.mode != "partition":
                continue
            if not build.partition_keys or not probe.partition_keys:
                continue
            self.pending.add(stage.stage_id)
            self.build_watch[build.upstream_id] = stage.stage_id
            self.probe_watch[probe.upstream_id] = stage.stage_id

    @staticmethod
    def _link(stage: Stage, role: str) -> Optional[UpstreamLink]:
        for link in stage.upstreams:
            if link.role == role:
                return link
        return None

    # -- gating -------------------------------------------------------------------

    def gated(self, stage_id: int) -> bool:
        """True while ``stage_id``'s tasks must hold for a pending decision.

        An undecided join holds (it must not consume pieces that may still be
        re-shaped) and so do its probe producers (the decision needs the
        completed build side but unmoved probe bytes).  Build producers are
        never gated, so progress is always possible on a tree-shaped plan.
        """
        return stage_id in self.pending or self.probe_watch.get(stage_id) in self.pending

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

        self.feedback.record_commit(
            name, out_batch.num_rows, float(out_batch.nbytes), worker.worker_id
        )
        if is_final:
            self.feedback.mark_channel_done(stage.stage_id, name.channel)

        stage_id = stage.stage_id
        if stage_id not in self.completed and self.feedback.is_complete(
            stage_id, stage.num_channels
        ):
            self.completed.add(stage_id)
            yield from self._on_stage_complete(stage)

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
        if target in self.pending:
            yield from self._decide_join(target)

    # -- the one decision per join: broadcast revisit / channel re-sizing ---------

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
        # Decided either way: the join and its probe producers un-gate.  Both
        # revisions below mutate all plan state before their first yield.
        self.pending.discard(join_id)
        if broadcast_decision(
            build_bytes,
            probe_est,
            self.broadcast_threshold_bytes,
            probe_stage.num_channels,
        ):
            yield from self._convert_to_broadcast(stage, build, probe, probe_stage)
            return
        n_new = sized_channel_count(
            build_bytes + probe_est, DEFAULT_TARGET_BYTES_PER_CHANNEL, stage.num_channels
        )
        if n_new < stage.num_channels:
            yield from self._resize_stage(stage, n_new)

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
        probe.mode = "aligned"
        probe.base_parts = None
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
        """Coalesce the join ``stage`` down to ``n_new`` channels."""
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
            raise FaultToleranceError(
                "no live workers remain; cannot re-place adaptive join channels"
            )
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
