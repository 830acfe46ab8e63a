"""Metrics collected for every query run."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from repro.data.batch import Batch


@dataclass
class QueryMetrics:
    """Counters describing one query execution on the simulated cluster."""

    runtime_seconds: float = 0.0
    tasks_executed: int = 0
    input_tasks: int = 0
    replay_tasks: int = 0
    regenerated_input_tasks: int = 0
    rewound_channels: int = 0
    failures_injected: int = 0
    query_restarts: int = 0
    recovery_events: int = 0
    #: Chaos primitives (crashes, stragglers, outages, brownouts) that fired
    #: while this query was admitted and unfinished.
    chaos_events: int = 0

    network_bytes: float = 0.0
    local_disk_write_bytes: float = 0.0
    local_disk_read_bytes: float = 0.0
    s3_read_bytes: float = 0.0
    s3_write_bytes: float = 0.0
    hdfs_write_bytes: float = 0.0
    hdfs_read_bytes: float = 0.0

    lineage_records: int = 0
    lineage_bytes: float = 0.0
    gcs_transactions: int = 0
    gcs_logged_bytes: float = 0.0

    checkpoints_taken: int = 0
    checkpoint_bytes: float = 0.0

    #: Out-of-core execution: operator state written to / read back from the
    #: spill store, and writes skipped because a retraced channel found its
    #: durable spill chunk already present (recovery re-read instead of
    #: recomputing the write).
    spill_writes: int = 0
    spill_reads: int = 0
    spill_bytes_written: int = 0
    spill_bytes_read: int = 0
    spill_write_rehits: int = 0
    #: High-water mark of tracked operator state across workers, and how often
    #: an operator exceeded its quota with nothing left to spill.
    memory_peak_bytes: int = 0
    forced_memory_grants: int = 0

    #: True when the whole result was served from the session's result cache
    #: (no tasks were admitted at all).
    result_from_cache: bool = False

    #: Always 0 (runtime plan revision was removed); benchmarks/e2e still
    #: reads them.
    adaptive_broadcast_joins: int = 0
    adaptive_channel_resizes: int = 0
    adaptive_skew_splits: int = 0
    #: Speculative copies launched against stragglers, and races they won.
    speculative_tasks: int = 0
    speculative_wins: int = 0

    #: Runtime semi-join filters: filters published after build completion,
    #: their shipped bytes, probe rows tested against / dropped by them, and
    #: scan splits skipped outright by zone-map pruning.
    filters_published: int = 0
    filter_bytes: float = 0.0
    filter_rows_tested: int = 0
    filter_rows_dropped: int = 0
    splits_pruned: int = 0

    def summary(self) -> str:
        """Short multi-line human-readable summary.

        The body is generated from :func:`dataclasses.fields` so that every
        counter on this dataclass appears by name — a new field can never be
        silently dropped from the summary again (pinned by a regression test).
        """
        lines = [f"runtime_seconds          : {self.runtime_seconds:.3f}s (virtual)"]
        for spec in fields(self):
            if spec.name == "runtime_seconds":
                continue
            value = getattr(self, spec.name)
            if isinstance(value, bool):
                rendered = str(value)
            elif isinstance(value, float):
                rendered = f"{value:,.0f}"
            else:
                rendered = f"{value:,}"
            lines.append(f"{spec.name:<25}: {rendered}")
        return "\n".join(lines)


@dataclass
class QueryResult:
    """The final batch plus metrics for one query run."""

    batch: Optional[Batch]
    metrics: QueryMetrics
    query_name: str = ""

    @property
    def runtime(self) -> float:
        """Virtual runtime in seconds."""
        return self.metrics.runtime_seconds
