"""Pipeline-parallel recovery of one query (Algorithm 2 of the paper).

Failure *detection* lives on the session's head-node coordinator process
(:class:`repro.core.session.Session`): it periodically checks worker liveness;
when a failure is detected it raises the GCS recovery flag, waits for the
surviving TaskManagers to pause (the GCS-level lock of Section IV-B), runs
this module's :class:`RecoveryCoordinator` once per admitted query to
reconcile each query's GCS namespace to a consistent state, and clears the
flag.  Because reconciliation is pure metadata work, the barrier is brief and
recovery of one query never restarts or stalls the others beyond it.

Reconciliation follows the paper exactly:

* every channel hosted by the failed worker is *rewound*: reassigned to a live
  worker (different stages to different workers — pipeline-parallel recovery)
  and restarted from sequence 0 in *prescribed* mode so it retraces its
  committed lineage;
* every input object a rewound channel needs is either **replayed** from a
  surviving local-disk backup / durable spool, **regenerated** by re-running
  the corresponding input-reader task on any live node, or — when neither is
  possible — the producing channel is rewound as well (reverse topological
  traversal).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.common.errors import FaultToleranceError
from repro.gcs.naming import TaskName
from repro.gcs.tables import TaskDescriptor


class RecoveryCoordinator:
    """Per-query recovery logic, invoked by the session's head-node monitor."""

    #: Abort a query if no task commits for this many virtual seconds.
    STALL_TIMEOUT = 1800.0
    #: After this long without progress, run a reconciliation pass that
    #: re-schedules replays/regenerations for channels stuck waiting on inputs
    #: (the Kubernetes-style "reconcile to a consistent state" philosophy of
    #: Section IV-C, applied to gaps left by overlapping failures).
    REPAIR_TIMEOUT = 30.0

    def __init__(self, execution):
        self.execution = execution
        self._last_repair_at = 0.0

    # -- restart (the no-fault-tolerance baseline) --------------------------------------

    def restart_query(self) -> None:
        """Throw away all progress and restart the query on the surviving workers.

        Only *this query's* state is destroyed: its GCS namespace is cleared
        and its stage ids are wiped from the flight buffers and local-disk
        backups, so other queries sharing the session keep their progress.
        """
        execution = self.execution
        live = execution.cluster.live_worker_ids()
        if not live:
            raise FaultToleranceError("no live workers remain; cannot restart query")
        execution.metrics.query_restarts += 1
        stage_ids = set(execution.graph.stages)
        execution.gcs.clear_tables()
        execution.runtimes = {
            worker.worker_id: {} for worker in execution.cluster.workers
        }
        execution.poisoned_channels.clear()
        for worker in execution.cluster.workers:
            worker.flight.wipe_stages(stage_ids)
            if worker.alive:
                worker.disk.wipe_stages(stage_ids)
        execution.setup_placement_and_tasks(live)

    # -- Algorithm 2 ----------------------------------------------------------------------

    def recover_from_failure(self, failed_worker_id: int) -> None:
        """Reconcile the GCS after ``failed_worker_id`` died."""
        execution = self.execution
        gcs = execution.gcs
        live = execution.cluster.live_worker_ids()
        if not live:
            raise FaultToleranceError("no live workers remain; cannot recover query")

        gcs.control.record_failed_worker(failed_worker_id)
        gcs.objects.drop_worker(failed_worker_id)

        lost_channels = set(gcs.placement.channels_on_worker(failed_worker_id))
        lost_channels |= set(execution.poisoned_channels)
        execution.poisoned_channels.clear()

        # Outstanding tasks of the failed worker are gone.  Ordinary channel
        # tasks are re-created by the rewind below; pending replay/regenerate
        # tasks from an *earlier* recovery must be re-dispatched explicitly or
        # their waiting consumers would stall forever.
        orphaned = [
            descriptor
            for descriptor in gcs.tasks.all()
            if descriptor.worker_id == failed_worker_id
        ]
        for descriptor in orphaned:
            gcs.tasks.remove(descriptor.name)
        orphan_replays, orphan_regens, extra_rewinds = self._triage_orphans(orphaned)
        lost_channels |= extra_rewinds

        rewind, replay_requests, regen_requests = self._plan_recovery(lost_channels)

        for obj, consumers in orphan_replays.items():
            if not self._producer_will_repush(obj, rewind):
                replay_requests.setdefault(obj, set()).update(consumers)
        for obj, consumers in orphan_regens.items():
            if not self._producer_will_repush(obj, rewind):
                regen_requests.setdefault(obj, set()).update(consumers)

        self._apply_rewinds(rewind, live)
        self._schedule_replays(replay_requests, live)
        self._schedule_regenerations(regen_requests, live)

    def reconcile_stuck_channels(self) -> int:
        """Re-provision inputs for channels stuck waiting on missing pieces.

        Overlapping failures can leave a live channel waiting for an upstream
        output whose replay task died with another worker.  This pass walks
        every outstanding channel task, finds committed-but-missing inputs and
        schedules a replay (backup exists), a regeneration (input split) or a
        producer rewind for each.  Returns the number of actions scheduled.
        """
        execution = self.execution
        gcs = execution.gcs
        graph = execution.graph
        live = execution.cluster.live_worker_ids()
        if not live:
            return 0
        actions = 0
        for descriptor in gcs.tasks.all():
            if descriptor.kind != "execute":
                continue
            stage = graph.stage(descriptor.name.stage)
            if stage.is_input:
                continue
            consumer_key = (descriptor.name.stage, descriptor.name.channel)
            worker = execution.cluster.worker(descriptor.worker_id)
            runtime = execution.runtimes[descriptor.worker_id].get(consumer_key)
            for link in stage.upstreams:
                upstream = graph.stage(link.upstream_id)
                for upstream_channel in range(upstream.num_channels):
                    committed = gcs.lineage.committed_count(link.upstream_id, upstream_channel)
                    watermark = (
                        runtime.watermark(link.upstream_id, upstream_channel)
                        if runtime is not None
                        else 0
                    )
                    # Is the producer channel itself still being rewound?  If
                    # an execute task for it exists at or below the missing
                    # sequence numbers it will re-push them itself.
                    producer_tasks = [
                        d.name.seq
                        for d in gcs.tasks.for_channel(link.upstream_id, upstream_channel)
                        if d.kind == "execute"
                    ]
                    for seq in range(watermark, committed):
                        obj = TaskName(link.upstream_id, upstream_channel, seq)
                        if worker.flight.peek(consumer_key, obj) is not None:
                            continue
                        if producer_tasks and min(producer_tasks) <= seq:
                            continue
                        existing = gcs.tasks.get(obj)
                        if existing is not None and existing.kind in ("replay", "regen"):
                            consumers = set(existing.replay_consumers) | {consumer_key}
                            gcs.tasks.add(
                                TaskDescriptor(
                                    obj, existing.worker_id, kind=existing.kind,
                                    replay_consumers=tuple(sorted(consumers)),
                                )
                            )
                            actions += 1
                            continue
                        location = gcs.objects.get(obj)
                        if location is not None and (location.durable or location.worker_id in live):
                            owner = location.worker_id if location.worker_id in live else live[0]
                            gcs.tasks.add(
                                TaskDescriptor(
                                    obj, owner, kind="replay",
                                    replay_consumers=((consumer_key),),
                                )
                            )
                            actions += 1
                        elif upstream.is_input:
                            gcs.tasks.add(
                                TaskDescriptor(
                                    obj, live[actions % len(live)], kind="regen",
                                    replay_consumers=((consumer_key),),
                                )
                            )
                            actions += 1
                        else:
                            self._apply_rewinds({(link.upstream_id, upstream_channel)}, live)
                            actions += 1
        return actions

    def _producer_will_repush(self, obj: TaskName, rewind: Set[Tuple[int, int]]) -> bool:
        """True when ``obj``'s producing channel will re-push it by itself.

        A rewound *stateful* producer retraces its committed lineage from
        sequence 0 and re-pushes every output at or above its current task's
        sequence number — scheduling a replay for those objects would be
        redundant and, worse, the replay's task name collides with the
        producer's own execute task in G.T (both are keyed by the object
        name), wiping the channel from the task table.  This covers channels
        rewound in *this* pass (the ``rewind`` set) and channels still
        retracing from an **earlier, overlapping** recovery (their prescribed
        execute task is already in G.T at a sequence ≤ the object's).

        Rewound input channels never retrace (lost splits are regenerated
        individually), so they always return False.
        """
        if self.execution.graph.stage(obj.stage).is_input:
            return False
        if (obj.stage, obj.channel) in rewind:
            return True
        outstanding = [
            descriptor.name.seq
            for descriptor in self.execution.gcs.tasks.for_channel(obj.stage, obj.channel)
            if descriptor.kind == "execute"
        ]
        return bool(outstanding) and min(outstanding) <= obj.seq

    def _triage_orphans(self, orphaned) -> Tuple[Dict, Dict, Set[Tuple[int, int]]]:
        """Decide what to do with recovery tasks stranded on the failed worker."""
        execution = self.execution
        gcs = execution.gcs
        graph = execution.graph
        replays: Dict[TaskName, Set] = {}
        regens: Dict[TaskName, Set] = {}
        extra_rewinds: Set[Tuple[int, int]] = set()
        for descriptor in orphaned:
            if descriptor.kind not in ("replay", "regen"):
                continue
            consumers = set(descriptor.replay_consumers)
            producer_stage = graph.stage(descriptor.name.stage)
            if descriptor.kind == "regen":
                regens.setdefault(descriptor.name, set()).update(consumers)
            elif gcs.objects.get(descriptor.name) is not None:
                replays.setdefault(descriptor.name, set()).update(consumers)
            elif producer_stage.is_input:
                regens.setdefault(descriptor.name, set()).update(consumers)
            else:
                # The backup died with the worker: rewind the producer instead.
                extra_rewinds.add((descriptor.name.stage, descriptor.name.channel))
        return replays, regens, extra_rewinds

    def _plan_recovery(
        self, lost_channels: Set[Tuple[int, int]]
    ) -> Tuple[Set[Tuple[int, int]], Dict[TaskName, Set], Dict[TaskName, Set]]:
        """Traverse stages in reverse topological order and decide what to rewind,
        replay and regenerate (the loop body of Algorithm 2)."""
        execution = self.execution
        gcs = execution.gcs
        graph = execution.graph

        rewind: Set[Tuple[int, int]] = set(lost_channels)
        replay_requests: Dict[TaskName, Set[Tuple[int, int]]] = {}
        regen_requests: Dict[TaskName, Set[Tuple[int, int]]] = {}

        for stage_id in graph.reverse_topological_order():
            stage = graph.stage(stage_id)
            if stage.is_input:
                continue
            for consumer_key in sorted(c for c in rewind if c[0] == stage_id):
                consumer_stage, consumer_channel = consumer_key
                for link in stage.upstreams:
                    upstream = graph.stage(link.upstream_id)
                    for upstream_channel in range(upstream.num_channels):
                        if (link.upstream_id, upstream_channel) in rewind and not upstream.is_input:
                            continue  # the producer itself is rewound and will re-push
                        committed = gcs.lineage.committed_count(
                            link.upstream_id, upstream_channel
                        )
                        if committed == 0:
                            continue
                        objects = [
                            TaskName(link.upstream_id, upstream_channel, seq)
                            for seq in range(committed)
                            if not self._producer_will_repush(
                                TaskName(link.upstream_id, upstream_channel, seq), rewind
                            )
                        ]
                        missing = [o for o in objects if gcs.objects.get(o) is None]
                        if missing and not upstream.is_input:
                            # Cannot replay: rewind the producing channel too.
                            rewind.add((link.upstream_id, upstream_channel))
                            continue
                        for obj in objects:
                            if gcs.objects.get(obj) is not None:
                                replay_requests.setdefault(obj, set()).add(consumer_key)
                            else:
                                regen_requests.setdefault(obj, set()).add(consumer_key)
        return rewind, replay_requests, regen_requests

    def _apply_rewinds(self, rewind: Set[Tuple[int, int]], live: List[int]) -> None:
        """Reassign rewound channels (pipeline-parallel) and restart them at seq 0."""
        execution = self.execution
        gcs = execution.gcs
        placement_mode = execution.engine_config.recovery_placement
        for index, (stage_id, channel) in enumerate(sorted(rewind)):
            # Remove any remaining outstanding execute tasks of the channel.
            for descriptor in gcs.tasks.for_channel(stage_id, channel):
                if descriptor.kind == "execute":
                    gcs.tasks.remove(descriptor.name)
            current_worker = gcs.placement.worker_for(stage_id, channel)
            if current_worker not in live:
                if placement_mode == "pipelined":
                    # Different rewound channels land on different live workers:
                    # this is the pipeline-parallel placement of Figure 3.
                    new_worker = live[index % len(live)]
                else:
                    # Ablation baseline: rebuild every lost channel on one worker,
                    # serialising the recovery of different stages.
                    new_worker = live[0]
                gcs.placement.assign(stage_id, channel, new_worker)
            execution.drop_runtime(stage_id, channel)
            committed = gcs.lineage.committed_count(stage_id, channel)
            target = gcs.placement.worker_for(stage_id, channel)
            stage = execution.graph.stage(stage_id)
            if stage.is_input:
                # Stateless input channels do not retrace their footsteps: the
                # lost-but-needed splits are regenerated data-parallel across
                # the cluster (Figure 5) and the channel itself just continues
                # with its remaining splits.
                remaining = len(stage.splits_for_channel(channel))
                if committed < remaining:
                    gcs.tasks.add(
                        TaskDescriptor(
                            TaskName(stage_id, channel, committed), target, kind="execute"
                        )
                    )
            else:
                gcs.tasks.add(
                    TaskDescriptor(
                        TaskName(stage_id, channel, 0),
                        target,
                        kind="execute",
                        prescribed=committed > 0,
                    )
                )
            execution.metrics.rewound_channels += 1

    def _schedule_replays(self, replay_requests: Dict[TaskName, Set], live: List[int]) -> None:
        """Add replay tasks for objects that still have a backup or durable copy."""
        execution = self.execution
        gcs = execution.gcs
        for index, (obj, consumers) in enumerate(sorted(replay_requests.items())):
            location = gcs.objects.get(obj)
            if location is None:
                continue
            if location.durable:
                owner = live[index % len(live)]
            elif location.worker_id in live:
                owner = location.worker_id
            else:
                continue  # lost after all; the consumer will stall and a later recovery handles it
            existing = gcs.tasks.get(obj)
            if existing is not None:
                if existing.kind == "execute":
                    # The producer channel itself holds this task name (it is
                    # retracing); overwriting it would erase the channel.
                    continue
                consumers = set(consumers) | set(existing.replay_consumers)
            gcs.tasks.add(
                TaskDescriptor(
                    obj,
                    owner,
                    kind="replay",
                    replay_consumers=tuple(sorted(consumers)),
                )
            )

    def _schedule_regenerations(self, regen_requests: Dict[TaskName, Set], live: List[int]) -> None:
        """Add regeneration tasks for lost input-reader outputs (any live node)."""
        execution = self.execution
        gcs = execution.gcs
        for index, (obj, consumers) in enumerate(sorted(regen_requests.items())):
            existing = gcs.tasks.get(obj)
            if existing is not None:
                if existing.kind == "execute":
                    continue  # never clobber the producing channel's own task
                consumers = set(consumers) | set(existing.replay_consumers)
            gcs.tasks.add(
                TaskDescriptor(
                    obj,
                    live[index % len(live)],
                    kind="regen",
                    replay_consumers=tuple(sorted(consumers)),
                )
            )
