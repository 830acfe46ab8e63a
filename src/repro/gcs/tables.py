"""Typed views over the GCS tables used by the engine.

The raw :class:`~repro.gcs.store.GCSStore` only knows about tables, keys and
values; these wrappers give each logical table (lineage, outstanding tasks,
object directory, channel placement, control flags) a small, intention-
revealing API, while still allowing several updates to be bundled into one
transaction — the pattern Algorithm 1 relies on ("Set τ to I in G.L, remove τ
from G.T in a single transaction").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.gcs.naming import Lineage, ObjectLocation, TaskName, namespaced_table
from repro.gcs.store import GCSStore, Transaction

#: Table names inside the store.
LINEAGE_TABLE = "lineage"
TASK_TABLE = "tasks"
OBJECT_TABLE = "objects"
PLACEMENT_TABLE = "placement"
CONTROL_TABLE = "control"
CHANNEL_DONE_TABLE = "channel_done"


@dataclass(frozen=True)
class TaskDescriptor:
    """An outstanding task assigned to a worker (one row of G.T).

    ``kind`` is ``"execute"`` for ordinary channel tasks, or ``"replay"`` for
    recovery tasks that re-push an already-produced object from a surviving
    worker's local backup.  ``prescribed`` marks rewound tasks that must follow
    the committed lineage exactly instead of choosing inputs dynamically.
    """

    name: TaskName
    worker_id: int
    kind: str = "execute"
    prescribed: bool = False
    replay_consumers: Tuple[Tuple[int, int], ...] = ()
    #: Speculative duplicate of an in-flight straggler task (adaptive
    #: execution); lives only in the controller, never in G.T, and defers to
    #: an already-committed lineage instead of re-committing.
    speculative: bool = False


class LineageTable:
    """G.L — committed lineages, keyed by task name."""

    def __init__(self, store: GCSStore, table: str = LINEAGE_TABLE):
        self._store = store
        self._table = table

    def commit(self, lineage: Lineage, txn: Optional[Transaction] = None) -> None:
        """Record a committed lineage (optionally as part of a larger transaction)."""
        if txn is None:
            self._store.put(self._table, lineage.task, lineage)
        else:
            txn.put(self._table, lineage.task, lineage)

    def contains(self, task: TaskName) -> bool:
        """True once ``task``'s lineage has been committed."""
        return self._store.contains(self._table, task)

    def get(self, task: TaskName) -> Optional[Lineage]:
        """The committed lineage of ``task``, or None."""
        return self._store.get(self._table, task)

    def for_channel(self, stage: int, channel: int) -> List[Lineage]:
        """All committed lineages of a channel, ordered by sequence number."""
        records = [
            lineage
            for task, lineage in self._store.items(self._table)
            if task.stage == stage and task.channel == channel
        ]
        return sorted(records, key=lambda lin: lin.task.seq)

    def committed_count(self, stage: int, channel: int) -> int:
        """Number of committed outputs of a channel."""
        return len(self.for_channel(stage, channel))

    def __len__(self) -> int:
        return self._store.table_size(self._table)

    def total_nbytes(self) -> int:
        """Total serialised size of all committed lineage — the paper's KB-scale log."""
        return sum(lineage.nbytes() for _task, lineage in self._store.items(self._table))


class TaskTable:
    """G.T — outstanding tasks, keyed by task name."""

    def __init__(self, store: GCSStore, table: str = TASK_TABLE):
        self._store = store
        self._table = table

    def add(self, descriptor: TaskDescriptor, txn: Optional[Transaction] = None) -> None:
        """Assign a task to a worker."""
        if txn is None:
            self._store.put(self._table, descriptor.name, descriptor)
        else:
            txn.put(self._table, descriptor.name, descriptor)

    def remove(self, task: TaskName, txn: Optional[Transaction] = None) -> None:
        """Remove a finished (or superseded) task."""
        if txn is None:
            self._store.delete(self._table, task)
        else:
            txn.delete(self._table, task)

    def get(self, task: TaskName) -> Optional[TaskDescriptor]:
        """Look up one outstanding task."""
        return self._store.get(self._table, task)

    def for_worker(self, worker_id: int) -> List[TaskDescriptor]:
        """Outstanding tasks assigned to ``worker_id``, replay tasks first."""
        tasks = [
            desc
            for _name, desc in self._store.items(self._table)
            if desc.worker_id == worker_id
        ]
        return sorted(tasks, key=lambda d: (d.kind != "replay", d.name))

    def all(self) -> List[TaskDescriptor]:
        """Every outstanding task."""
        return [desc for _name, desc in self._store.items(self._table)]

    def for_channel(self, stage: int, channel: int) -> List[TaskDescriptor]:
        """Outstanding tasks of one channel."""
        return [
            desc
            for name, desc in self._store.items(self._table)
            if name.stage == stage and name.channel == channel
        ]

    def __len__(self) -> int:
        return self._store.table_size(self._table)


class ObjectDirectory:
    """Which task outputs are currently available, and where.

    An entry means the object can be replayed: either from the owner worker's
    local-disk backup (``durable=False``) or from durable storage regardless
    of worker failures (``durable=True``, the spooling strategy).
    """

    def __init__(self, store: GCSStore, table: str = OBJECT_TABLE):
        self._store = store
        self._table = table

    def record(self, location: ObjectLocation, txn: Optional[Transaction] = None) -> None:
        """Record that an object is stored at a location."""
        if txn is None:
            self._store.put(self._table, location.task, location)
        else:
            txn.put(self._table, location.task, location)

    def get(self, task: TaskName) -> Optional[ObjectLocation]:
        """Location of an object, or None if it is not available anywhere."""
        return self._store.get(self._table, task)

    def remove(self, task: TaskName) -> None:
        """Forget an object (e.g. after garbage collection)."""
        self._store.delete(self._table, task)

    def drop_worker(self, worker_id: int) -> List[TaskName]:
        """Drop every non-durable object owned by a failed worker.

        Returns the names of the objects that were lost.
        """
        lost = [
            task
            for task, location in self._store.items(self._table)
            if location.worker_id == worker_id and not location.durable
        ]
        for task in lost:
            self._store.delete(self._table, task)
        return lost

    def __len__(self) -> int:
        return self._store.table_size(self._table)


class ChannelPlacement:
    """Mapping of ``(stage, channel)`` to the worker currently hosting it."""

    def __init__(self, store: GCSStore, table: str = PLACEMENT_TABLE):
        self._store = store
        self._table = table

    def assign(self, stage: int, channel: int, worker_id: int,
               txn: Optional[Transaction] = None) -> None:
        """Pin a channel to a worker."""
        if txn is None:
            self._store.put(self._table, (stage, channel), worker_id)
        else:
            txn.put(self._table, (stage, channel), worker_id)

    def unassign(self, stage: int, channel: int) -> None:
        """Drop a channel's placement (adaptive channel-count shrink)."""
        self._store.delete(self._table, (stage, channel))

    def worker_for(self, stage: int, channel: int) -> int:
        """The worker hosting a channel."""
        worker = self._store.get(self._table, (stage, channel))
        if worker is None:
            raise KeyError(f"channel ({stage},{channel}) has no placement")
        return worker

    def channels_on_worker(self, worker_id: int) -> List[Tuple[int, int]]:
        """Channels hosted by ``worker_id``."""
        return sorted(
            key for key, worker in self._store.items(self._table) if worker == worker_id
        )

    def all(self) -> Dict[Tuple[int, int], int]:
        """The full placement map."""
        return dict(self._store.items(self._table))


class ChannelDoneTable:
    """Completion markers: ``(stage, channel)`` -> total number of outputs produced.

    The marker is written in the same transaction as the channel's last
    output's lineage, so a consumer that has consumed ``total`` outputs is
    guaranteed to see the marker — the invariant that makes the
    "upstream exhausted" decision replay-deterministic.
    """

    def __init__(self, store: GCSStore, table: str = CHANNEL_DONE_TABLE):
        self._store = store
        self._table = table

    def mark_done(self, stage: int, channel: int, total_outputs: int,
                  txn: Optional[Transaction] = None) -> None:
        """Record that a channel has produced its final output."""
        if txn is None:
            self._store.put(self._table, (stage, channel), total_outputs)
        else:
            txn.put(self._table, (stage, channel), total_outputs)

    def total_outputs(self, stage: int, channel: int) -> Optional[int]:
        """Total outputs of a finished channel, or None while it is running."""
        return self._store.get(self._table, (stage, channel))

    def is_done(self, stage: int, channel: int) -> bool:
        """True once the channel has produced its final output."""
        return self._store.contains(self._table, (stage, channel))

    def done_channels(self) -> Dict[Tuple[int, int], int]:
        """All completion markers."""
        return dict(self._store.items(self._table))


class ControlFlags:
    """Control-plane flags (recovery barrier, query completion, failures)."""

    def __init__(self, store: GCSStore, table: str = CONTROL_TABLE):
        self._store = store
        self._table = table

    def set_recovery_in_progress(self, value: bool) -> None:
        """Raise or clear the recovery barrier flag polled by TaskManagers."""
        self._store.put(self._table, "recovery_in_progress", value)

    def recovery_in_progress(self) -> bool:
        """True while the coordinator holds the recovery barrier."""
        return bool(self._store.get(self._table, "recovery_in_progress", False))

    def mark_query_done(self) -> None:
        """Mark query completion (the result stage finished)."""
        self._store.put(self._table, "query_done", True)

    def query_done(self) -> bool:
        """True once the result stage has produced the final output."""
        return bool(self._store.get(self._table, "query_done", False))

    def record_failed_worker(self, worker_id: int) -> None:
        """Append a worker to the failed-workers list."""
        failed = list(self._store.get(self._table, "failed_workers", []))
        if worker_id not in failed:
            failed.append(worker_id)
        self._store.put(self._table, "failed_workers", failed)

    def failed_workers(self) -> List[int]:
        """All workers recorded as failed so far."""
        return list(self._store.get(self._table, "failed_workers", []))


@dataclass
class GlobalControlStore:
    """Facade bundling the raw store and every typed table view.

    A facade is *scoped* to one query when ``query_id`` is set: every table
    name is then prefixed with that query's namespace (``q<id>/lineage`` and so
    on), which is how a long-lived :class:`~repro.core.session.Session` keeps
    the rows of concurrently running queries disjoint inside one shared store.
    The root facade (``query_id=None``) additionally carries the session-wide
    control flags — most importantly the recovery barrier, which must pause
    every TaskManager regardless of which query it is currently serving.
    """

    store: GCSStore = field(default_factory=GCSStore)
    query_id: Optional[int] = None

    def __post_init__(self):
        def scoped(table: str) -> str:
            return namespaced_table(self.query_id, table)

        self.lineage = LineageTable(self.store, scoped(LINEAGE_TABLE))
        self.tasks = TaskTable(self.store, scoped(TASK_TABLE))
        self.objects = ObjectDirectory(self.store, scoped(OBJECT_TABLE))
        self.placement = ChannelPlacement(self.store, scoped(PLACEMENT_TABLE))
        self.control = ControlFlags(self.store, scoped(CONTROL_TABLE))
        self.channel_done = ChannelDoneTable(self.store, scoped(CHANNEL_DONE_TABLE))

    def for_query(self, query_id: int) -> "GlobalControlStore":
        """A view over the same store scoped to ``query_id``'s namespace.

        The view shares the underlying :class:`GCSStore` (and therefore its
        write-ahead log, statistics and transactions) with every other view.
        """
        return GlobalControlStore(store=self.store, query_id=query_id)

    def transaction(self) -> Transaction:
        """Start a transaction spanning any of the tables (of any namespace)."""
        return self.store.transaction()

    def clear_tables(self) -> None:
        """Delete every row of this namespace's tables.

        Used when a query is restarted from scratch (the no-fault-tolerance
        baseline) inside a session whose store must keep serving other queries,
        and when a finished query's metadata is garbage-collected.
        """
        for table in (
            LINEAGE_TABLE,
            TASK_TABLE,
            OBJECT_TABLE,
            PLACEMENT_TABLE,
            CONTROL_TABLE,
            CHANNEL_DONE_TABLE,
        ):
            name = namespaced_table(self.query_id, table)
            for key in self.store.keys(name):
                self.store.delete(name, key)
