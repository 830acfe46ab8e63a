"""Strategy interface used by the engine's task loop."""

from __future__ import annotations

from typing import Any

from repro.gcs.naming import TaskName


class FaultToleranceStrategy:
    """Hooks invoked by the engine during normal execution.

    Both hooks are simulation *process generators*: they may yield simulation
    events to charge disk / network / object-storage time, and the engine
    drives them with ``yield from``.
    """

    #: Short name used in configuration and reports.
    name = "abstract"

    #: True when the strategy leaves enough information behind to recover a
    #: query without restarting it from scratch.
    supports_intra_query_recovery = True

    #: Durable store name ("s3" / "hdfs") this strategy already funnels task
    #: outputs to, or None.  Out-of-core operators spill to this store when
    #: set — spilled operator state then survives worker failures and
    #: recovery re-reads it instead of recomputing — and to the worker-local
    #: disk otherwise.
    durable_store = None

    def persist_output(self, engine, worker, task_name: TaskName, payload: Any,
                       nbytes: float) -> Any:
        """Persist one task output object; return an :class:`ObjectLocation` or None.

        ``payload`` is the mapping of consumer channel to output piece that a
        replay task would need to re-push.
        """
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator in subclasses' image

    def after_task_commit(self, engine, worker, runtime) -> Any:
        """Hook running after a task's lineage commit (e.g. periodic checkpoints)."""
        return
        yield  # pragma: no cover

    def describe(self) -> str:
        """Human-readable one-liner for logs and benchmark output."""
        return self.name
