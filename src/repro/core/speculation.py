"""Speculative execution of straggling input tasks.

An input task in flight far beyond its stage's median task duration (a
chaos straggler, a throttled NIC) gets a speculative duplicate on another
worker.  The duplicate never enters G.T: it lives in the
:class:`SpeculationController` and is served to its target worker next to
the regular queue.  Whichever copy commits first wins; the loser finds the
committed lineage at its own commit point and defers to it (the GCS
non-clobbering rule), so the output stays a pure function of the inputs its
lineage names and recovery stays exact.

The controller never revises the plan: links, channel counts and placement
stay as compiled, except that a winning duplicate re-pins its channel to the
worker that committed it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.gcs.naming import TaskName
from repro.gcs.tables import TaskDescriptor


class SpeculationController:
    """Straggler speculation for one query execution.

    Created by the :class:`~repro.core.engine.ExecutionContext` when
    ``QueryOptions.adaptive`` resolves true; fed task durations by the
    engine, driven by the coordinator heartbeat (:meth:`maybe_speculate`)
    and served by the TaskManager loop (:meth:`speculative_for`).
    """

    #: Speculate when an input task is in flight longer than
    #: ``max(SPEC_MIN_SECONDS, SPEC_FACTOR * median committed duration)``.
    SPEC_MIN_SECONDS = 0.02
    SPEC_FACTOR = 3.0
    SPEC_MIN_SAMPLES = 3

    def __init__(self, execution):
        self.execution = execution
        self.graph = execution.graph
        #: stage -> durations of committed execute tasks (speculation baseline).
        self.durations: Dict[int, List[float]] = {}
        #: (task, worker) -> start time of an in-flight execute task.
        self.inflight: Dict[Tuple[TaskName, int], float] = {}
        #: Outstanding speculative copies (never in G.T) and every task name
        #: ever speculated on (the commit-race check keys off this).
        self.speculative: Dict[TaskName, TaskDescriptor] = {}
        self.speculated: Set[TaskName] = set()

    # -- task-duration feedback -------------------------------------------------------

    def task_started(self, name: TaskName, worker_id: int, now: float) -> None:
        """An execute task entered the engine on ``worker_id``."""
        self.inflight[(name, worker_id)] = now

    def task_finished(
        self, name: TaskName, worker_id: int, now: float, committed: bool
    ) -> None:
        """The matching exit hook (runs in a ``finally``, so crashes count too)."""
        start = self.inflight.pop((name, worker_id), None)
        if committed and start is not None:
            self.durations.setdefault(name.stage, []).append(now - start)

    def median_duration(self, stage: int) -> Optional[float]:
        """Median committed-task duration of ``stage`` (None without samples)."""
        samples = self.durations.get(stage)
        if not samples:
            return None
        ordered = sorted(samples)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0

    # -- the race -----------------------------------------------------------------------

    def is_speculated(self, name: TaskName) -> bool:
        """True if ``name`` ever had a speculative duplicate launched."""
        return name in self.speculated

    def after_commit(self, worker, descriptor: TaskDescriptor) -> None:
        """Close the race of a committed task; re-pin a winning duplicate."""
        name = descriptor.name
        if descriptor.speculative:
            # The duplicate won the race: the channel effectively migrated to
            # the committing worker (the commit txn queued the next task
            # there), so re-pin the placement to match.
            self.execution.metrics.speculative_wins += 1
            self.execution.gcs.placement.assign(name.stage, name.channel, worker.worker_id)
        self.speculative.pop(name, None)

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
        for (name, worker_id), start in sorted(self.inflight.items()):
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
            samples = self.durations.get(name.stage, ())
            if len(samples) < self.SPEC_MIN_SAMPLES:
                continue
            median = self.median_duration(name.stage)
            if now - start <= max(self.SPEC_MIN_SECONDS, self.SPEC_FACTOR * median):
                continue
            targets = [w for w in live if w != worker_id]
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
