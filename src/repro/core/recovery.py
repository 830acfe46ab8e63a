"""Pipeline-parallel recovery of one query (Algorithm 2 of the paper).

Failure *detection* lives on the session's head-node coordinator process
(:class:`repro.core.session.Session`): it periodically checks worker liveness;
when a failure is detected it raises the GCS recovery flag, waits for the
surviving TaskManagers to pause (the GCS-level lock of Section IV-B), runs
this module's :class:`RecoveryCoordinator` once per admitted query to
reconcile each query's GCS namespace to a consistent state, and clears the
flag.  Because reconciliation is pure metadata work, the barrier is brief and
recovery of one query never restarts or stalls the others beyond it.

There is one reconciliation per detection, over *every* worker found dead by
then: all of their objects are dropped before anything is planned, so a pass
never plans a replay from a backup that died in the same heartbeat window,
and a single pass leaves every consumer provisioned.  No repair timer runs
behind it; the only timer is :attr:`RecoveryCoordinator.STALL_TIMEOUT`, which
turns a query that stops committing into a clean ``ExecutionError``.

Reconciliation follows the paper exactly:

* every channel hosted by a failed worker is *rewound*: reassigned to a live
  worker (different stages to different workers — pipeline-parallel recovery)
  and restarted from sequence 0 in *prescribed* mode so it retraces its
  committed lineage;
* every input object a rewound channel needs is either **replayed** from a
  surviving local-disk backup / durable spool, **regenerated** by re-running
  the corresponding input-reader task on any live node, or — when neither is
  possible — the producing channel is rewound as well (reverse topological
  traversal).  :meth:`RecoveryCoordinator._provision` is that rule's one
  home; it also re-provisions recovery tasks stranded on a failed worker.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.common.errors import FaultToleranceError
from repro.gcs.naming import TaskName
from repro.gcs.tables import TaskDescriptor


class RecoveryCoordinator:
    """Per-query recovery logic, invoked by the session's head-node monitor."""

    #: Abort a query if no task commits for this many virtual seconds.
    STALL_TIMEOUT = 1800.0

    def __init__(self, execution):
        self.execution = execution

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

    def recover_from_failure(self, failed_worker_ids: Sequence[int]) -> None:
        """Reconcile the GCS after every worker in ``failed_worker_ids`` died."""
        execution = self.execution
        gcs = execution.gcs
        live = execution.cluster.live_worker_ids()
        if not live:
            raise FaultToleranceError("no live workers remain; cannot recover query")

        lost_channels = set(execution.poisoned_channels)
        execution.poisoned_channels.clear()
        for worker_id in failed_worker_ids:
            gcs.control.record_failed_worker(worker_id)
            gcs.objects.drop_worker(worker_id)
            lost_channels.update(gcs.placement.channels_on_worker(worker_id))

        # Outstanding tasks of the failed workers are gone.  Ordinary channel
        # tasks are re-created by the rewind below; pending replay/regenerate
        # tasks from an *earlier* recovery must be re-provisioned explicitly
        # or their waiting consumers would stall forever.
        orphans: Dict[str, Dict[TaskName, Set]] = {"replay": {}, "regen": {}}
        for descriptor in gcs.tasks.all():
            if descriptor.worker_id not in failed_worker_ids:
                continue
            gcs.tasks.remove(descriptor.name)
            if descriptor.kind == "execute":
                continue
            action = self._provision(descriptor.name, live)
            if action == "rewind":
                lost_channels.add((descriptor.name.stage, descriptor.name.channel))
            else:
                orphans[action].setdefault(descriptor.name, set()).update(
                    descriptor.replay_consumers
                )

        rewind, requests = self._plan_recovery(lost_channels, live)
        for action, objects in orphans.items():
            for obj, consumers in objects.items():
                if not self._producer_will_repush(obj, rewind):
                    requests[action].setdefault(obj, set()).update(consumers)

        self._apply_rewinds(rewind, live)
        for action, objects in requests.items():
            self._schedule(action, objects, live)

    def _provision(self, obj: TaskName, live: List[int]) -> str:
        """How a committed object that a consumer lacks comes back.

        ``"replay"`` when a backup survives on a live worker or in durable
        storage, ``"regen"`` when an input reader produced it (re-read the
        split), otherwise ``"rewind"`` its producing channel.
        """
        location = self.execution.gcs.objects.get(obj)
        if location is not None and (location.durable or location.worker_id in live):
            return "replay"
        return "regen" if self.execution.graph.stage(obj.stage).is_input else "rewind"

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

    def _plan_recovery(
        self, lost_channels: Set[Tuple[int, int]], live: List[int]
    ) -> Tuple[Set[Tuple[int, int]], Dict[str, Dict[TaskName, Set]]]:
        """Traverse stages in reverse topological order and decide what to rewind,
        replay and regenerate (the loop body of Algorithm 2)."""
        execution = self.execution
        gcs = execution.gcs
        graph = execution.graph

        rewind: Set[Tuple[int, int]] = set(lost_channels)
        requests: Dict[str, Dict[TaskName, Set]] = {"replay": {}, "regen": {}}

        for stage_id in graph.reverse_topological_order():
            stage = graph.stage(stage_id)
            if stage.is_input:
                continue
            for consumer_key in sorted(c for c in rewind if c[0] == stage_id):
                for link in stage.upstreams:
                    upstream = graph.stage(link.upstream_id)
                    for upstream_channel in range(upstream.num_channels):
                        producer = (link.upstream_id, upstream_channel)
                        if producer in rewind and not upstream.is_input:
                            continue  # the producer itself is rewound and will re-push
                        actions = {}
                        for seq in range(gcs.lineage.committed_count(*producer)):
                            obj = TaskName(link.upstream_id, upstream_channel, seq)
                            if not self._producer_will_repush(obj, rewind):
                                actions[obj] = self._provision(obj, live)
                        if "rewind" in actions.values():
                            # Cannot replay: rewind the producing channel too.
                            rewind.add(producer)
                            continue
                        for obj, action in actions.items():
                            requests[action].setdefault(obj, set()).add(consumer_key)
        return rewind, requests

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

    def _schedule(self, action: str, requests: Dict[TaskName, Set], live: List[int]) -> None:
        """Add one ``action`` task (``"replay"`` or ``"regen"``) per requested object.

        A replay from a local-disk backup runs where the backup lives; a
        regeneration or a replay from durable storage goes to any live node,
        round-robin.
        """
        gcs = self.execution.gcs
        for index, (obj, consumers) in enumerate(sorted(requests.items())):
            owner = live[index % len(live)]
            if action == "replay":
                location = gcs.objects.get(obj)
                if not location.durable:
                    owner = location.worker_id
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
                    kind=action,
                    replay_consumers=tuple(sorted(consumers)),
                )
            )
