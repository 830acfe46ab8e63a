"""Session-level LRU cache of committed task outputs, keyed by lineage.

The write-ahead-lineage protocol names every committed task output after the
deterministic computation that produced it, which makes outputs *reusable*:
when a second query asks for the same scan split (same table, same fused
post-ops) — or repeats an entire earlier query — the session can serve the
committed output from memory instead of re-reading S3 and re-running the
kernels.  This is the engine-level counterpart of the paper's observation that
lineage is cheap to keep around precisely because it identifies outputs
exactly.

Two granularities are cached:

* **Scan-task outputs** (:func:`scan_task_key`): the post-op-processed batch
  of one input split.  Overlapping queries (the same TPC-H table with the same
  pushed-down filter) hit this cache and skip the simulated S3 read and the
  post-op CPU time.
* **Whole-query results** (:func:`plan_key`): the final batch of a committed
  query, keyed by the canonical text of its logical plan.  A repeated query
  returns instantly without admitting any tasks.

The cache holds *committed* outputs only, so a cache hit can never observe a
result that a failed worker might retract; eviction is plain LRU bounded by
``capacity_bytes``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Optional, Tuple

from repro.physical.stages import FilterOp, PartialAggregateOp, ProjectOp, Stage


def _agg_specs_fingerprint(specs) -> str:
    return ",".join(
        f"{spec.name}={spec.function.value}({spec.expression!r})" for spec in specs
    )


def _op_fingerprint(op) -> Optional[str]:
    """Lossless canonical text of one fused post-op, or None if unknown.

    ``describe()`` is for humans and elides expressions (``project(['x'])``),
    which would let semantically different scans collide; this serialisation
    includes every expression verbatim.  An op type this module cannot
    serialise losslessly yields None, which disables caching for its stage —
    a construct that *might* collide must never be cached.
    """
    if isinstance(op, FilterOp):
        return f"filter({op.predicate!r})"
    if isinstance(op, ProjectOp):
        cols = ",".join(f"{name}={expr!r}" for name, expr in op.projections)
        return f"project({cols})"
    if isinstance(op, PartialAggregateOp):
        return f"partial_agg(by={op.group_keys},{_agg_specs_fingerprint(op.partial_specs)})"
    return None


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
            return (
                f"agg(by={plan.group_keys},"
                f"{_agg_specs_fingerprint(plan.aggregates)})<-{child}"
            )
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


def scan_task_key(stage: Stage, split_index: int) -> Optional[Tuple[Hashable, ...]]:
    """Cache key of one input-reader task output, or None if uncacheable.

    The key captures everything that determines the output batch: the table,
    the split and the fused post-ops (serialised losslessly).  Stage ids and
    query ids are deliberately excluded — they differ across queries while the
    computed batch does not.  A stage with an unserialisable post-op is never
    cached (None).
    """
    ops = []
    for op in stage.post_ops:
        fingerprint = _op_fingerprint(op)
        if fingerprint is None:
            return None
        ops.append(fingerprint)
    return ("scan", stage.table.name, split_index, tuple(ops))


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
    """A byte-bounded LRU mapping lineage keys to committed outputs."""

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
