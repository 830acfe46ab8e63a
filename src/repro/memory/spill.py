"""The spill protocol: staged payloads plus an I/O record log.

Out-of-core operators run synchronously inside an engine task, but storage
traffic must be charged simulated time, ride out outage windows and show up
in :class:`~repro.cluster.storage.StorageStats`.  The protocol splits the
two concerns:

* the *operator* — any :class:`~repro.physical.operators.Operator` built with
  a memory quota; it publishes the context as ``operator.spill``, which is
  ``None`` on resident operators — stages spilled payloads in its
  :class:`SpillContext` and appends :class:`SpillIORecord` entries describing
  each write / read / delete, in chronological order;
* the *engine* attaches the context to the channel's host worker when it
  creates the channel runtime and drains those records after every operator
  step, performing the real store transfers (time, retries, stats, trace
  spans) and calling :meth:`SpillContext.mark_flushed` once a payload is
  durably parked.

Because a write record always precedes any read of the same key, a restore
issued mid-task can return the payload synchronously — from the staging
area if the engine has not flushed it yet, or via the store's time-free
``peek`` accessor otherwise — while the time cost lands when the records
drain.  Spill *keys* are deterministic (per-label sequence numbers starting
from zero), so a channel retraced by fault recovery regenerates the exact
same keys and payloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.config import DEFAULT_SPILL_PARTITIONS
from repro.common.errors import ExecutionError
from repro.memory.manager import MemoryManager


@dataclass(frozen=True)
class SpillKey:
    """Identity of one spilled chunk.

    Carries the owning stage id so :meth:`ObjectStore.wipe_stages` drops a
    restarted query's spill chunks together with its task backups.
    """

    stage: int
    channel: int
    label: str
    seq: int


@dataclass(frozen=True)
class SpillIORecord:
    """One storage operation the engine must perform on the operator's behalf."""

    kind: str  #: "write", "read" or "delete"
    key: SpillKey
    nbytes: int


class SpillContext:
    """Per-operator spill state: quota, staged payloads, pending I/O records.

    Unbound contexts (no manager, no store accessor — e.g. the local
    interpreter or kernel-level tests) are self-contained: staged payloads
    are simply never flushed, so restores always hit the staging area and
    no simulated time is ever charged.
    """

    def __init__(
        self,
        stage: int,
        channel: int,
        quota: Optional[float] = None,
        partitions: int = DEFAULT_SPILL_PARTITIONS,
    ) -> None:
        self.stage = stage
        self.channel = channel
        self.quota = quota
        self.partitions = max(1, int(partitions))
        self.op_id = (stage, channel)
        self._manager = MemoryManager(None)
        self._peek: Optional[Callable[[SpillKey], Any]] = None
        self._staged: Dict[SpillKey, Any] = {}
        self._sizes: Dict[SpillKey, int] = {}
        self._seqs: Dict[str, int] = {}
        self._io: List[SpillIORecord] = []

    def attach(
        self,
        stage: int,
        channel: int,
        manager: MemoryManager,
        peek: Callable[[SpillKey], Any],
    ) -> None:
        """Adopt the channel identity, the worker's manager and its store's peek.

        Operator factories do not know their channel number, so contexts are
        created with placeholder coordinates and re-keyed here when the engine
        instantiates the channel runtime — before any key is minted.
        """
        self.stage = stage
        self.channel = channel
        self.op_id = (stage, channel)
        self._manager = manager
        self._peek = peek

    @property
    def manager(self) -> MemoryManager:
        """The memory manager this context reports usage to."""
        return self._manager

    def new_key(self, label: str) -> SpillKey:
        """Mint the next deterministic key for ``label``."""
        seq = self._seqs.get(label, 0)
        self._seqs[label] = seq + 1
        return SpillKey(self.stage, self.channel, label, seq)

    def needs_spill(self, resident_nbytes: float) -> bool:
        """True when ``resident_nbytes`` exceeds the operator's fixed quota."""
        return self.quota is not None and resident_nbytes > self.quota

    def note_usage(self, resident_nbytes: float) -> None:
        """Report the operator's current resident state to the manager."""
        self._manager.update(self.op_id, int(resident_nbytes))

    def note_forced_grant(self) -> None:
        """Record an over-quota reservation (operator had nothing to spill)."""
        self._manager.note_forced_grant()

    def spill(self, key: SpillKey, payload: Any, nbytes: float) -> None:
        """Stage ``payload`` for write-out and log the write."""
        size = int(nbytes)
        self._staged[key] = payload
        self._sizes[key] = size
        self._io.append(SpillIORecord("write", key, size))

    def restore(self, key: SpillKey) -> Any:
        """Return a spilled payload and log the (charged-later) read."""
        if key not in self._sizes:
            raise ExecutionError(f"spill chunk {key!r} was never written")
        if key in self._staged:
            payload = self._staged[key]
        elif self._peek is not None:
            payload = self._peek(key)
        else:
            raise ExecutionError(f"spill chunk {key!r} not staged and no store bound")
        self._io.append(SpillIORecord("read", key, self._sizes[key]))
        return payload

    def discard(self, key: SpillKey) -> None:
        """Log that a spilled chunk will never be read again.

        The staged payload and size are kept until the engine drains the
        delete record (:meth:`forget`): the chunk's pending *write* record
        precedes the delete chronologically and still needs the payload.
        """
        self._io.append(SpillIORecord("delete", key, self._sizes.get(key, 0)))

    def forget(self, key: SpillKey) -> None:
        """Engine callback: the delete record has been processed."""
        self._staged.pop(key, None)
        self._sizes.pop(key, None)

    def mark_flushed(self, key: SpillKey) -> None:
        """Engine callback: the payload now lives in the store."""
        self._staged.pop(key, None)

    def take_io(self) -> List[SpillIORecord]:
        """Drain the pending I/O records (chronological order)."""
        records, self._io = self._io, []
        return records

    def staged_payload(self, key: SpillKey) -> Tuple[Any, int]:
        """Payload and size of a staged-but-unflushed chunk (engine drain)."""
        return self._staged[key], self._sizes[key]

    def __deepcopy__(self, memo) -> "SpillContext":
        # Checkpoint snapshots deep-copy operators; share the manager and the
        # store accessor by reference (they are worker infrastructure, not
        # operator state) and keep payloads by reference — batches are never
        # mutated after construction.
        clone = SpillContext(self.stage, self.channel, self.quota, self.partitions)
        clone._manager = self._manager
        clone._peek = self._peek
        clone._staged = dict(self._staged)
        clone._sizes = dict(self._sizes)
        clone._seqs = dict(self._seqs)
        clone._io = list(self._io)
        memo[id(self)] = clone
        return clone
