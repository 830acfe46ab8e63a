"""Session-level reuse of committed work: result cache and shared scans.

The write-ahead-lineage protocol names every committed output after the
deterministic computation that produced it, which makes outputs *reusable*.
The session reuses at two points:

* **Whole-query results** (:func:`plan_key`): the final batch of a committed
  query, kept in a byte-bounded LRU (:class:`OutputCache`) keyed by the
  lossless canonical text of its logical plan.  A repeated query returns
  instantly without admitting any tasks, and a duplicate of an in-flight
  query coalesces onto it.
* **Concurrent scans** (:class:`SharedScanPool`): queries reading the same
  base-table split at the same time share one physical object-store read.

The cache holds *committed* results only, so a hit can never observe a result
that a failed worker might retract.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Optional, Tuple


def plan_fingerprint(plan) -> Optional[str]:
    """Lossless canonical text of a logical plan tree, or None if unknown.

    Unlike ``plan.explain()`` (human-readable, elides projection and
    aggregate expressions), this includes every expression, key list and
    option, so two plans share a fingerprint only if they compute the same
    thing.  A tree containing a node type this module cannot serialise
    losslessly yields None — such a query is simply never cached.
    """
    from repro.plan import nodes

    if isinstance(plan, nodes.TableScan):
        table = plan.table
        return (
            f"scan({table.name},rows={table.num_rows},"
            f"nbytes={table.nbytes},splits={table.num_splits})"
        )

    if isinstance(plan, (nodes.Filter, nodes.Project, nodes.Aggregate,
                         nodes.Sort, nodes.Limit)):
        child = plan_fingerprint(plan.child)
        if child is None:
            return None
        if isinstance(plan, nodes.Filter):
            return f"filter({plan.predicate!r})<-{child}"
        if isinstance(plan, nodes.Project):
            cols = ",".join(f"{name}={expr!r}" for name, expr in plan.projections)
            return f"project({cols})<-{child}"
        if isinstance(plan, nodes.Aggregate):
            specs = ",".join(
                f"{spec.name}={spec.function.value}({spec.expression!r})"
                for spec in plan.aggregates
            )
            return f"agg(by={plan.group_keys},{specs})<-{child}"
        if isinstance(plan, nodes.Sort):
            return f"sort(by={plan.keys},descending={plan.descending})<-{child}"
        return f"limit({plan.n})<-{child}"

    if isinstance(plan, nodes.Join):
        left = plan_fingerprint(plan.left)
        right = plan_fingerprint(plan.right)
        if left is None or right is None:
            return None
        return (
            f"join({plan.join_type.value},left={plan.left_keys},"
            f"right={plan.right_keys},suffix={plan.suffix!r})<-[{left}|{right}]"
        )
    return None


def plan_key(plan) -> Optional[Tuple[Hashable, ...]]:
    """Cache key of a whole query, or None when the plan is uncacheable."""
    fingerprint = plan_fingerprint(plan)
    if fingerprint is None:
        return None
    return ("result", fingerprint)


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one :class:`OutputCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0


class OutputCache:
    """A byte-bounded LRU mapping plan keys to committed query results."""

    def __init__(self, capacity_bytes: float = 256e6):
        self.capacity_bytes = float(capacity_bytes)
        self._entries: "OrderedDict[Hashable, Tuple[Any, float]]" = OrderedDict()
        self._used_bytes = 0.0
        self.stats = CacheStats()

    @property
    def used_bytes(self) -> float:
        """Bytes currently held."""
        return self._used_bytes

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value for ``key`` (refreshing its recency), or None."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry[0]

    def put(self, key: Hashable, value: Any, nbytes: float) -> None:
        """Insert ``value`` under ``key``, evicting LRU entries if needed.

        Values larger than the whole cache are silently not cached.
        """
        nbytes = float(nbytes)
        if nbytes > self.capacity_bytes:
            return
        old = self._entries.pop(key, None)
        if old is not None:
            self._used_bytes -= old[1]
        self._entries[key] = (value, nbytes)
        self._used_bytes += nbytes
        while self._used_bytes > self.capacity_bytes and len(self._entries) > 1:
            _evicted_key, (_value, evicted_bytes) = self._entries.popitem(last=False)
            self._used_bytes -= evicted_bytes
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._entries.clear()
        self._used_bytes = 0.0


class _ScanAborted(Exception):
    """Internal: wakes followers of a shared scan whose leader died mid-read."""


@dataclass
class SharedScanStats:
    """Counters of one :class:`SharedScanPool`."""

    physical_reads: int = 0
    coalesced_reads: int = 0


class SharedScanPool:
    """Coalesces concurrent reads of the same base-table split (shared scans).

    When several queries scan the same table at the same time, each split is
    fetched from the object store once: the first task to ask becomes the
    *leader* and performs the physical read; every other task arriving while
    the read is in flight waits on the same event and receives the payload
    without issuing a second transfer.  Nothing is retained after the read
    completes — this shares bandwidth, not memory (that is the
    :class:`OutputCache`'s job).

    If the leader's worker dies mid-read, the waiters are woken with an
    internal retry signal and the first of them becomes the new leader.
    """

    def __init__(self, env):
        self.env = env
        self._inflight: dict = {}
        self.stats = SharedScanStats()

    def read(self, store, key):
        """Process generator: fetch ``key`` from ``store``, coalescing duplicates."""
        while True:
            inflight = self._inflight.get(key)
            if inflight is None:
                event = self.env.event()
                self._inflight[key] = event
                try:
                    payload = yield from store.get(key)
                except BaseException:
                    self._inflight.pop(key, None)
                    if not event.triggered:
                        event.fail(_ScanAborted(key))
                    raise
                self._inflight.pop(key, None)
                event.succeed(payload)
                self.stats.physical_reads += 1
                return payload
            try:
                payload = yield inflight
            except _ScanAborted:
                continue  # the leader died mid-read; take over (or re-wait)
            self.stats.coalesced_reads += 1
            return payload
