"""Execution tracing.

A :class:`TraceRecorder` collects one :class:`TaskSpan` per executed task and
one :class:`RecoveryEvent` per coordinator recovery pass while a query runs on
the simulated cluster, and :mod:`repro.trace.report` turns them into
human-readable summaries: per-worker utilisation, per-stage task breakdowns
and a coarse text timeline.

Tracing is off by default (the engine uses a :class:`NullTracer`); enable it
by passing a recorder in :class:`~repro.core.options.QueryOptions` or with
``python -m repro tpch --trace``::

    from repro.trace import TraceRecorder

    tracer = TraceRecorder()
    batch = frame.collect(tracer=tracer)
    print(render_trace_report(tracer))
"""

from repro.trace.digest import trace_digest
from repro.trace.recorder import (
    AdaptationRecord,
    ChaosRecord,
    FilterRecord,
    NullTracer,
    RecoveryEvent,
    SpillRecord,
    TaskSpan,
    TraceRecorder,
)
from repro.trace.report import (
    render_timeline,
    render_trace_report,
    stage_breakdown,
    worker_utilisation,
)

__all__ = [
    "AdaptationRecord",
    "ChaosRecord",
    "FilterRecord",
    "NullTracer",
    "RecoveryEvent",
    "SpillRecord",
    "TaskSpan",
    "TraceRecorder",
    "render_timeline",
    "render_trace_report",
    "stage_breakdown",
    "trace_digest",
    "worker_utilisation",
]
