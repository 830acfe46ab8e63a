"""Strategy interface used by the engine's task loop."""

from __future__ import annotations

from typing import Any

from repro.gcs.naming import ObjectLocation, TaskName


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

    def store(self, cluster, worker_id: int):
        """The :class:`~repro.cluster.storage.ObjectStore` that holds this
        strategy's task backups and spilled operator chunks for ``worker_id``.

        The worker's own disk by default.  A strategy that names a durable
        store makes both survive worker failures: replays re-read the
        backups and a retraced channel re-reads its spilled chunks instead of
        recomputing them.
        """
        return cluster.worker(worker_id).disk

    def persist_output(self, engine, worker, task_name: TaskName, payload: Any,
                       nbytes: float) -> Any:
        """Persist one task output object; return an :class:`ObjectLocation` or None.

        ``payload`` is the mapping of consumer channel to output piece that a
        replay task would need to re-push; it is stored under ``task_name``.
        """
        store = self.store(engine.cluster, worker.worker_id)
        yield from store.write(task_name, payload, engine.cost_model.scaled(nbytes))
        return ObjectLocation(task=task_name, worker_id=worker.worker_id,
                              nbytes=nbytes, durable=store.durable)

    def after_task_commit(self, engine, worker, runtime) -> Any:
        """Hook running after a task's lineage commit (e.g. periodic checkpoints)."""
        return
        yield  # pragma: no cover

    def describe(self) -> str:
        """Human-readable one-liner for logs and benchmark output."""
        return self.name
