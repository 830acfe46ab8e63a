"""Stable digests over execution traces.

The chaos replay workflow needs a compact, order-insensitive fingerprint of
"what the engine did" so that two runs of the same seed can be compared
without diffing thousands of spans: :func:`trace_digest` hashes a canonical
serialisation of every task span, recovery pass and chaos record.  The
simulation is deterministic, so *same seed ⇒ same digest*; a digest change
between two runs of one seed means real nondeterminism crept into the engine
(the property ``tests/test_chaos_plan.py`` locks down).

Floats are serialised with ``repr`` (shortest round-trip form), so the digest
is exact — not a tolerance-based comparison.  That is deliberate: replay
equality is a determinism check, unlike result comparison, which tolerates
float reassociation across different schedules.
"""

from __future__ import annotations

import hashlib
from typing import Iterable


def _span_key(span) -> tuple:
    task = span.task
    return (span.start, span.end, task.stage, task.channel, task.seq, span.worker_id)


def _canonical_lines(recorder) -> Iterable[str]:
    for span in sorted(recorder.spans, key=_span_key):
        task = span.task
        yield (
            f"task|{task.stage}|{task.channel}|{task.seq}|{span.worker_id}|{span.kind}"
            f"|{span.start!r}|{span.end!r}|{int(span.committed)}"
        )
    for recovery in sorted(recorder.recoveries, key=lambda r: r.time):
        workers = ",".join(str(w) for w in recovery.failed_workers)
        yield f"recovery|{recovery.time!r}|{workers}|{recovery.rewound_channels}"
    for record in sorted(getattr(recorder, "chaos", ()), key=lambda c: (c.time, c.kind)):
        yield f"chaos|{record.time!r}|{record.kind}|{record.detail}"
    for record in sorted(
        getattr(recorder, "spills", ()),
        key=lambda s: (s.time, s.stage, s.channel, s.label, s.seq, s.kind),
    ):
        yield (
            f"spill|{record.time!r}|{record.stage}|{record.channel}|{record.label}"
            f"|{record.seq}|{record.kind}|{record.target}|{record.nbytes}"
        )
    for record in sorted(
        getattr(recorder, "adaptations", ()), key=lambda a: (a.time, a.stage, a.kind)
    ):
        yield f"adapt|{record.time!r}|{record.stage}|{record.kind}|{record.detail}"
    for record in sorted(
        getattr(recorder, "filters", ()), key=lambda f: (f.time, f.filter_id)
    ):
        yield (
            f"filter|{record.time!r}|{record.filter_id}|{record.join_stage}"
            f"|{record.source_stage}|{record.target_stage}|{record.build_key}"
            f"|{record.probe_key}|{record.kind}|{record.nbytes}|{record.build_rows}"
        )


def trace_digest(recorder) -> str:
    """SHA-256 fingerprint of a :class:`~repro.trace.TraceRecorder`'s contents."""
    hasher = hashlib.sha256()
    for line in _canonical_lines(recorder):
        hasher.update(line.encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()
