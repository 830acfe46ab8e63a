"""Trace event collection."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.gcs.naming import TaskName


@dataclass(frozen=True)
class TaskSpan:
    """One executed task: who ran it, what kind it was, and when."""

    task: TaskName
    worker_id: int
    kind: str  # "input", "channel", "replay", "regen"
    start: float
    end: float
    committed: bool

    @property
    def duration(self) -> float:
        """Virtual seconds the task occupied its TaskManager."""
        return self.end - self.start


@dataclass(frozen=True)
class RecoveryEvent:
    """One coordinator recovery pass."""

    time: float
    failed_workers: Tuple[int, ...]
    rewound_channels: int


@dataclass(frozen=True)
class ChaosRecord:
    """One injected chaos primitive (crash, straggler, outage, brownout)."""

    time: float
    kind: str
    detail: str


@dataclass(frozen=True)
class SpillRecord:
    """One spill-store operation performed on an operator's behalf."""

    time: float
    stage: int
    channel: int
    label: str
    seq: int
    kind: str  # "write", "read", "delete" or "rehit"
    target: str  # "local", "s3" or "hdfs"
    nbytes: int


@dataclass(frozen=True)
class ObservationRecord:
    """Observed output of one completed stage (adaptive feedback input)."""

    time: float
    stage: int
    rows: int
    nbytes: float


@dataclass(frozen=True)
class FilterRecord:
    """One runtime semi-join filter published after its build side completed."""

    time: float
    filter_id: int
    join_stage: int
    source_stage: int
    target_stage: int
    build_key: str
    probe_key: str
    kind: str  # "exact" or "bloom"
    nbytes: int
    build_rows: int


@dataclass(frozen=True)
class AdaptationRecord:
    """One runtime plan revision made by the adaptive controller."""

    time: float
    stage: int
    kind: str  # "broadcast", "resize" or "speculate"
    detail: str


@dataclass
class TraceRecorder:
    """Collects task spans, recovery events and chaos records of one query run."""

    spans: List[TaskSpan] = field(default_factory=list)
    recoveries: List[RecoveryEvent] = field(default_factory=list)
    chaos: List[ChaosRecord] = field(default_factory=list)
    spills: List[SpillRecord] = field(default_factory=list)
    observations: List[ObservationRecord] = field(default_factory=list)
    adaptations: List[AdaptationRecord] = field(default_factory=list)
    filters: List[FilterRecord] = field(default_factory=list)
    enabled: bool = True

    def record_task(
        self,
        task: TaskName,
        worker_id: int,
        kind: str,
        start: float,
        end: float,
        committed: bool,
    ) -> None:
        """Record one executed (or attempted-and-uncommitted) task."""
        self.spans.append(TaskSpan(task, worker_id, kind, start, end, committed))

    def record_recovery(
        self, time: float, failed_workers: Tuple[int, ...], rewound_channels: int
    ) -> None:
        """Record one coordinator recovery pass."""
        self.recoveries.append(RecoveryEvent(time, failed_workers, rewound_channels))

    def record_chaos(self, time: float, kind: str, detail: str) -> None:
        """Record one injected chaos primitive (from the chaos injector)."""
        self.chaos.append(ChaosRecord(time, kind, detail))

    def record_spill(
        self,
        time: float,
        stage: int,
        channel: int,
        label: str,
        seq: int,
        kind: str,
        target: str,
        nbytes: int,
    ) -> None:
        """Record one spill-store operation (engine drain of operator I/O)."""
        self.spills.append(
            SpillRecord(time, stage, channel, label, seq, kind, target, nbytes)
        )

    def record_observation(
        self, time: float, stage: int, rows: int, nbytes: float
    ) -> None:
        """Record the observed output of a completed stage."""
        self.observations.append(ObservationRecord(time, stage, rows, nbytes))

    def record_adaptation(self, time: float, stage: int, kind: str, detail: str) -> None:
        """Record one runtime plan revision (adaptive controller decision)."""
        self.adaptations.append(AdaptationRecord(time, stage, kind, detail))

    def record_filter(
        self,
        time: float,
        filter_id: int,
        join_stage: int,
        source_stage: int,
        target_stage: int,
        build_key: str,
        probe_key: str,
        kind: str,
        nbytes: int,
        build_rows: int,
    ) -> None:
        """Record one published runtime semi-join filter."""
        self.filters.append(
            FilterRecord(
                time, filter_id, join_stage, source_stage, target_stage,
                build_key, probe_key, kind, nbytes, build_rows,
            )
        )

    # -- simple accessors used by the report and by tests -------------------------

    def spans_for_worker(self, worker_id: int) -> List[TaskSpan]:
        """All spans executed on ``worker_id``, in start order.

        Ties (zero-duration spans, equal starts) break on ``(end, task)`` so
        the order — and anything derived from it, like feedback or digests —
        is reproducible across runs.
        """
        return sorted(
            (span for span in self.spans if span.worker_id == worker_id),
            key=lambda span: (span.start, span.end, span.task),
        )

    def busy_time(self, worker_id: int) -> float:
        """Total virtual seconds ``worker_id`` spent inside tasks."""
        return sum(span.duration for span in self.spans if span.worker_id == worker_id)

    def makespan(self) -> float:
        """Virtual time between the first task start and the last task end."""
        if not self.spans:
            return 0.0
        return max(span.end for span in self.spans) - min(span.start for span in self.spans)

    def worker_ids(self) -> List[int]:
        """Workers that executed at least one task."""
        return sorted({span.worker_id for span in self.spans})


class NullTracer:
    """No-op recorder used when tracing is disabled (the default)."""

    enabled = False

    def record_task(self, *args, **kwargs) -> None:  # noqa: D102 - interface stub
        return None

    def record_recovery(self, *args, **kwargs) -> None:  # noqa: D102 - interface stub
        return None

    def record_chaos(self, *args, **kwargs) -> None:  # noqa: D102 - interface stub
        return None

    def record_spill(self, *args, **kwargs) -> None:  # noqa: D102 - interface stub
        return None

    def record_observation(self, *args, **kwargs) -> None:  # noqa: D102 - interface stub
        return None

    def record_adaptation(self, *args, **kwargs) -> None:  # noqa: D102 - interface stub
        return None

    def record_filter(self, *args, **kwargs) -> None:  # noqa: D102 - interface stub
        return None
