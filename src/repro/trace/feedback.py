"""Observed per-stage output statistics (the adaptive-execution feedback loop).

:class:`StageFeedback` is the collector the engine feeds from its commit path:
for every *committed* task it records the output rows/bytes and the producing
worker.  Everything is keyed by :class:`~repro.gcs.naming.TaskName`, so a
retraced task overwrites its own record with identical values instead of
double-counting — the collector is idempotent under recovery by construction.

The :class:`~repro.core.adaptive.AdaptiveController` reads these observations
to re-run physical decisions (broadcast-vs-shuffle, channel sizing) with
actual instead of estimated bytes, and to spot straggling tasks worth
speculating on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.gcs.naming import TaskName


@dataclass(frozen=True)
class OutputObservation:
    """One committed task's observed output."""

    rows: int
    nbytes: float
    worker_id: int


@dataclass
class StageFeedback:
    """Committed-output observations of one query run, keyed by task name."""

    #: stage -> task -> observation (idempotent: retraces overwrite equal values).
    outputs: Dict[int, Dict[TaskName, OutputObservation]] = field(default_factory=dict)
    #: stage -> channels that committed their final task.
    done_channels: Dict[int, Set[int]] = field(default_factory=dict)
    #: stage -> durations of committed input tasks (speculation baseline).
    durations: Dict[int, List[float]] = field(default_factory=dict)
    #: (task, worker) -> start time of an in-flight input execute task.
    inflight: Dict[Tuple[TaskName, int], float] = field(default_factory=dict)

    # -- engine hooks -------------------------------------------------------------

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

    def record_commit(
        self, name: TaskName, rows: int, nbytes: float, worker_id: int
    ) -> None:
        """Record one committed task output."""
        self.outputs.setdefault(name.stage, {})[name] = OutputObservation(
            rows, nbytes, worker_id
        )

    def mark_channel_done(self, stage: int, channel: int) -> None:
        """A channel committed its final task."""
        self.done_channels.setdefault(stage, set()).add(channel)

    # -- controller queries -------------------------------------------------------

    def is_complete(self, stage: int, num_channels: int) -> bool:
        """True once every channel of ``stage`` committed its final task."""
        return len(self.done_channels.get(stage, ())) >= num_channels

    def stage_rows(self, stage: int) -> int:
        """Total observed output rows of ``stage`` so far."""
        return sum(o.rows for o in self.outputs.get(stage, {}).values())

    def stage_bytes(self, stage: int) -> float:
        """Total observed output bytes of ``stage`` so far."""
        return sum(o.nbytes for o in self.outputs.get(stage, {}).values())

    def committed_tasks(self, stage: int) -> List[TaskName]:
        """Committed task names of ``stage`` in deterministic (sorted) order."""
        return sorted(self.outputs.get(stage, {}))

    def producer_worker(self, name: TaskName) -> Optional[int]:
        """The worker that committed ``name``, if observed."""
        observation = self.outputs.get(name.stage, {}).get(name)
        return observation.worker_id if observation is not None else None

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
