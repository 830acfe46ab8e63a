"""Out-of-core state kernels: grace hash join, spilling aggregation and buffer.

Each kernel wraps the resident kernel it falls back from
(:class:`~repro.kernels.join.HashJoin`,
:class:`~repro.kernels.aggregate.ColumnarGroupTable`,
:class:`~repro.kernels.buffer.RowBuffer`), exposes the same methods, and adds
a spill discipline driven by a :class:`~repro.memory.SpillContext`: cold state
moves to simulated storage when the operator's fixed quota is exceeded and is
re-streamed when needed.  The operators of :mod:`repro.physical.operators`
pick one or the other once, at construction, from whether the plan carries a
memory quota; no other module outside ``kernels/`` imports this one.

Spill decisions depend only on the operator's own input history (quota is
fixed at plan time, spill keys are per-label sequence numbers), so a channel
retraced by fault recovery reproduces the identical spill schedule and
byte-identical outputs — the property write-ahead lineage replay relies on.

Exactness contracts (all bit-exact — float accumulation order is preserved,
not merely the result multiset):

* ``GraceHashJoin.probe`` returns for every batch exactly the rows the
  resident join would return, in the resident row order.  Rows of spilled
  partitions are never deferred: the partition's build chunks are re-read
  and probed transiently per probe batch (the repeated reads are the honest
  I/O price of the strategy and are charged through the spill records).
* ``SpillingAggregation`` freezes the group table once the quota is hit —
  the prefix state is spilled whole, every later input batch is spilled raw —
  and finalize replays the raw batches sequentially into a copy of the
  prefix.  The accumulation association is identical to the resident state's,
  so float sums match to the last ULP.
* ``SpillingRowBuffer`` parks the whole buffer as one chunk whenever it
  outgrows the quota; finalize restores the chunks in spill order followed by
  the in-memory tail, which is arrival order.

The intra-operator partition of a row uses the *high* bits of the same row
hash the shuffle layer uses for channel routing (which consumes the low bits
via modulo), so the spill partitions stay well-populated instead of aliasing
the channel partitioning.
"""

from __future__ import annotations

import copy
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ExecutionError
from repro.data.batch import Batch, concat_batches
from repro.data.partition import hash_rows
from repro.data.schema import Schema
from repro.kernels.aggregate import AggregateSpec, ColumnarGroupTable
from repro.kernels.buffer import RowBuffer
from repro.kernels.join import HashJoin, JoinType, _merge_columns, _null_batch
from repro.memory.spill import SpillContext


def spill_partition_indices(
    batch: Batch, keys: Sequence[str], num_partitions: int
) -> List[np.ndarray]:
    """Per-partition row-index arrays (ascending within each partition).

    Uses the high 32 bits of the combined row hash so the assignment is
    independent of the shuffle layer's ``hash % num_channels`` routing.
    """
    if num_partitions == 1 or batch.num_rows == 0:
        return [np.arange(batch.num_rows, dtype=np.int64)] + [
            np.empty(0, dtype=np.int64) for _ in range(num_partitions - 1)
        ]
    hashes = hash_rows(batch, keys)
    assignment = ((hashes >> np.uint64(32)) % np.uint64(num_partitions)).astype(np.int64)
    order = np.argsort(assignment, kind="stable")
    counts = np.bincount(assignment, minlength=num_partitions)
    bounds = np.cumsum(counts)[:-1]
    return np.split(order, bounds)


class GraceHashJoin:
    """Hybrid grace hash join with exact in-order probing of every partition.

    The build side is hash-partitioned; under quota pressure the largest
    in-memory pool (a build partition or the pending-probe buffer) is written
    out as one chunk.  Chunks of one pool are contiguous arrival segments, so
    restoring them in spill order followed by the in-memory remainder
    reproduces build arrival order exactly.  Spilled partitions are probed
    transiently — their chunks are re-read and a throwaway hash table built
    per probe batch — so each probe batch's output is byte-identical to the
    resident join's, preserving downstream float-accumulation order.
    """

    def __init__(
        self,
        build_keys: Sequence[str],
        probe_keys: Sequence[str],
        join_type: JoinType,
        build_suffix: str,
        spill: SpillContext,
        build_schema: Optional[Schema] = None,
    ):
        self.build_keys = list(build_keys)
        self.probe_keys = list(probe_keys)
        self.join_type = join_type
        self.build_suffix = build_suffix
        self.spill = spill
        partitions = spill.partitions
        self.partitions = partitions
        self._build_schema: Optional[Schema] = None
        #: Schema-only join used for output-schema and rename helpers.
        self._template: Optional[HashJoin] = None
        self._build_mem: List[List[Batch]] = [[] for _ in range(partitions)]
        self._build_mem_nbytes: List[int] = [0] * partitions
        self._build_chunks: List[List] = [[] for _ in range(partitions)]
        self._spilled: List[bool] = [False] * partitions
        self._joins: List[Optional[HashJoin]] = [None] * partitions
        self._build_done = False
        self._pending: List[Batch] = []
        self._pending_nbytes = 0
        self._pending_chunks: List = []
        if build_schema is not None:
            self._register_schema(build_schema)

    def _register_schema(self, schema: Schema) -> None:
        if self._build_schema is None:
            self._build_schema = schema
            self._template = self._new_join()

    def _new_join(self) -> HashJoin:
        """An empty resident join over this join's keys and build schema."""
        return HashJoin(
            self.build_keys, self.probe_keys, self.join_type, self.build_suffix,
            build_schema=self._build_schema,
        )

    # -- build phase ------------------------------------------------------------

    def build(self, batch: Batch) -> None:
        """Partition one build-side batch into the in-memory pools."""
        self._register_schema(batch.schema)
        if batch.num_rows == 0:
            return
        for p, idx in enumerate(
            spill_partition_indices(batch, self.build_keys, self.partitions)
        ):
            if len(idx) == 0:
                continue
            sub = batch.take(idx)
            self._build_mem[p].append(sub)
            self._build_mem_nbytes[p] += sub.nbytes
        self._report_and_relieve()

    def pending(self, batch: Batch) -> None:
        """Buffer a probe batch that arrived before the build side completed."""
        self._pending.append(batch)
        self._pending_nbytes += batch.nbytes
        self._report_and_relieve()

    def build_done(self) -> List[Batch]:
        """Seal the build side and flush the pending probe buffer."""
        self._build_done = True
        for p in range(self.partitions):
            if self._spilled[p]:
                continue  # stays on disk; restored transiently per probe batch
            join = self._new_join()
            for sub in self._build_mem[p]:
                join.build(sub)
            self._joins[p] = join
            self._build_mem[p] = []
            self._build_mem_nbytes[p] = 0
        pieces: List[Batch] = []
        for key in self._pending_chunks:
            pieces.extend(self.spill.restore(key))
            self.spill.discard(key)
        self._pending_chunks = []
        pieces.extend(self._pending)
        self._pending = []
        self._pending_nbytes = 0
        outputs = [self.probe(piece) for piece in pieces if piece.num_rows]
        self._report_and_relieve()
        return [out for out in outputs if out.num_rows]

    # -- probe phase ------------------------------------------------------------

    def probe(self, batch: Batch) -> Batch:
        """Probe one batch, byte-identically to the resident join."""
        if not self._build_done:
            raise ExecutionError("probe called before the build side completed")
        if self._template is None:
            raise ExecutionError("probe called before any build batch arrived")
        if self.join_type in (JoinType.SEMI, JoinType.ANTI):
            out = self._probe_existence(batch)
        else:
            out = self._probe_materialising(batch)
        self._report_and_relieve()
        return out

    def _partition_join(self, p: int) -> HashJoin:
        """The partition's resident join, or a transient one re-read from disk.

        The chunks are *not* discarded: later probe batches (and a retraced
        channel) re-read them, each read charged through the spill records.
        """
        join = self._joins[p]
        if join is not None:
            return join
        join = self._new_join()
        for key in self._build_chunks[p]:
            for sub in self.spill.restore(key):
                join.build(sub)
        for sub in self._build_mem[p]:
            join.build(sub)
        if join.build_row_count:
            join._ensure_table()
        transient = join.state_nbytes
        self.spill.note_usage(self.state_nbytes + transient)
        if self.spill.needs_spill(self.state_nbytes + transient):
            # One partition is supposed to fit the quota; if it does not
            # (extreme skew), the reservation is forced rather than
            # recursively re-partitioned.
            self.spill.note_forced_grant()
        return join

    def _probe_existence(self, batch: Batch) -> Batch:
        keep = np.zeros(batch.num_rows, dtype=bool)
        for p, idx in enumerate(
            spill_partition_indices(batch, self.probe_keys, self.partitions)
        ):
            if len(idx) == 0:
                continue
            keep[idx] = self._existence_mask(self._partition_join(p), batch.take(idx))
        return batch.filter(keep)

    def _existence_mask(self, join: HashJoin, sub: Batch) -> np.ndarray:
        if join.build_row_count == 0 or sub.num_rows == 0:
            keep = np.zeros(sub.num_rows, dtype=bool)
        else:
            join._ensure_table()
            codes = join._probe_codes(sub)
            counts = np.append(join._group_counts, 0)
            keep = counts[codes] > 0
        if self.join_type is JoinType.ANTI:
            keep = ~keep
        return keep

    def _probe_materialising(self, batch: Batch) -> Batch:
        out_schema = self.output_schema(batch.schema)
        matched_parts: List[Batch] = []
        matched_prov: List[np.ndarray] = []
        unmatched_parts: List[np.ndarray] = []
        for p, idx in enumerate(
            spill_partition_indices(batch, self.probe_keys, self.partitions)
        ):
            if len(idx) == 0:
                continue
            join = self._partition_join(p)
            sub = batch.take(idx)
            if join.build_row_count:
                join._ensure_table()
            probe_idx, build_idx, match_counts = join._match_indices(sub)
            if len(probe_idx):
                joined = join._combine(
                    sub.take(probe_idx), join._build_side().take(build_idx)
                )
                matched_parts.append(joined)
                matched_prov.append(idx[probe_idx])
            if self.join_type is JoinType.LEFT:
                unmatched = idx[match_counts == 0]
                if len(unmatched):
                    unmatched_parts.append(unmatched)
        if matched_parts:
            matched = concat_batches(matched_parts, schema=out_schema)
            prov = np.concatenate(matched_prov)
            # Stable sort on the original row index reproduces the resident
            # output order exactly: within one probe row all matches come from
            # one partition and stay in build-arrival order.
            matched = matched.take(np.argsort(prov, kind="stable"))
        else:
            matched = Batch.empty(out_schema)
        if self.join_type is JoinType.LEFT and unmatched_parts:
            unmatched = np.sort(np.concatenate(unmatched_parts))
            probe_unmatched = batch.take(unmatched)
            null_build = _null_batch(
                self._template._rename_conflicts(batch.schema), len(unmatched)
            )
            matched = concat_batches(
                [matched, _merge_columns(probe_unmatched, null_build)],
                schema=out_schema,
            )
        return matched

    def output_schema(self, probe_schema: Schema) -> Schema:
        """Joined output schema for a probe-side schema."""
        if self._template is None:
            raise ExecutionError("build schema unknown")
        return self._template.output_schema(probe_schema)

    # -- finalize ---------------------------------------------------------------

    def finalize(self) -> List[Batch]:
        """Drop the spill chunks; all probing already happened in order."""
        for p in range(self.partitions):
            for key in self._build_chunks[p]:
                self.spill.discard(key)
            self._build_chunks[p] = []
            self._build_mem[p] = []
            self._build_mem_nbytes[p] = 0
        self.spill.note_usage(0)
        return []

    # -- memory accounting -------------------------------------------------------

    @property
    def state_nbytes(self) -> int:
        """Resident bytes: partition pools, buffers and built hash tables."""
        total = sum(self._build_mem_nbytes) + self._pending_nbytes
        for join in self._joins:
            if join is not None:
                total += join.state_nbytes
        return total

    def _report_and_relieve(self) -> None:
        self.spill.note_usage(self.state_nbytes)
        while self.spill.needs_spill(self.state_nbytes):
            if not self._spill_largest_pool():
                self.spill.note_forced_grant()
                break
            self.spill.note_usage(self.state_nbytes)

    def _spill_largest_pool(self) -> bool:
        """Spill the single largest spillable pool; False if nothing is left."""
        best_kind: Optional[Tuple[str, int]] = None
        best_nbytes = 0
        for p in range(self.partitions):
            # After build_done only spilled partitions keep spillable build
            # remainders; resident partitions live inside their hash table.
            if (not self._build_done or self._spilled[p]) and (
                self._build_mem_nbytes[p] > best_nbytes
            ):
                best_kind, best_nbytes = ("build", p), self._build_mem_nbytes[p]
        if self._pending_nbytes > best_nbytes:
            best_kind, best_nbytes = ("pending", 0), self._pending_nbytes
        if best_kind is None:
            return False
        kind, p = best_kind
        if kind == "build":
            key = self.spill.new_key(f"build{p}")
            self.spill.spill(key, list(self._build_mem[p]), self._build_mem_nbytes[p])
            self._build_chunks[p].append(key)
            self._spilled[p] = True
            self._build_mem[p] = []
            self._build_mem_nbytes[p] = 0
        else:
            key = self.spill.new_key("pending")
            self.spill.spill(key, list(self._pending), self._pending_nbytes)
            self._pending_chunks.append(key)
            self._pending = []
            self._pending_nbytes = 0
        return True


class SpillingAggregation:
    """Freeze-and-replay aggregation: exact out-of-core group-by.

    The live :class:`~repro.kernels.aggregate.ColumnarGroupTable` accumulates
    exactly as the resident operator would (reading ``state_nbytes`` after
    every batch interns it, so the frozen prefix is fully folded).  When it
    outgrows the quota it is *frozen*: the state is spilled whole (the
    accumulation prefix) and every later input batch is spilled raw without
    touching any accumulator.  Finalize restores the prefix, copies it, and
    replays the raw batches sequentially into the same kernel — the same
    arrival-order fold the resident state performs, so float sums are
    bit-identical and group order (first-seen interning) is exact.

    Combining partial aggregation states would re-associate float
    additions; this design trades finalize-time memory (the replayed state
    grows back to resident size, reported as a forced grant when over quota)
    for exactness.
    """

    def __init__(
        self,
        group_keys: Sequence[str],
        aggregates: Sequence[AggregateSpec],
        spill: SpillContext,
    ):
        self.group_keys = list(group_keys)
        self.aggregates = list(aggregates)
        self.spill = spill
        self._state: Optional[ColumnarGroupTable] = ColumnarGroupTable(
            self.group_keys, self.aggregates
        )
        self._frozen_key = None
        self._raw_keys: List = []

    def update(self, batch: Batch) -> None:
        """Fold one input batch in, or park it raw once the table is frozen."""
        if batch.num_rows == 0:
            return
        if self._state is None:
            key = self.spill.new_key("aggraw")
            self.spill.spill(key, batch, batch.nbytes)
            self._raw_keys.append(key)
            return
        self._state.update(batch)
        nbytes = self._state.state_nbytes
        self.spill.note_usage(nbytes)
        if self.spill.needs_spill(nbytes):
            key = self.spill.new_key("aggstate")
            self.spill.spill(key, self._state, nbytes)
            self._frozen_key = key
            self._state = None
            self.spill.note_usage(0)

    @property
    def state_nbytes(self) -> int:
        """Resident bytes of the live group table (zero once frozen)."""
        return self._state.state_nbytes if self._state is not None else 0

    def finalize(self, input_schema: Optional[Schema] = None) -> Batch:
        """Replay the frozen prefix plus raw batches, exactly in order."""
        if self._frozen_key is None:
            state = self._state
            self._state = ColumnarGroupTable(self.group_keys, self.aggregates)
            return state.finalize(input_schema=input_schema)
        # Copy before mutating: the spilled prefix object may be shared with
        # the durable store, and a retraced channel can re-read it after a
        # rehit skipped re-writing it.
        working = copy.deepcopy(self.spill.restore(self._frozen_key))
        over_quota = False
        for key in self._raw_keys:
            working.update(self.spill.restore(key))
            nbytes = working.state_nbytes
            self.spill.note_usage(nbytes)
            over_quota = over_quota or self.spill.needs_spill(nbytes)
        if over_quota:
            # The replayed table grows back to its resident size; exactness
            # forbids merging partial tables, so the overrun is reported
            # rather than hidden.
            self.spill.note_forced_grant()
        self.spill.discard(self._frozen_key)
        for key in self._raw_keys:
            self.spill.discard(key)
        self._frozen_key = None
        self._raw_keys = []
        self._state = ColumnarGroupTable(self.group_keys, self.aggregates)
        self.spill.note_usage(0)
        return working.finalize(input_schema=input_schema)


class SpillingRowBuffer(RowBuffer):
    """Row buffer that parks itself on storage whenever it outgrows the quota.

    A consumer that sorts needs the whole input back, so ``finalize`` restores
    every chunk; exceeding the quota at that point is reported as a forced
    grant rather than hidden.
    """

    def __init__(self, spill: SpillContext) -> None:
        super().__init__()
        self.spill = spill
        self._chunks: List = []

    def append(self, batch: Batch) -> None:
        """Buffer one non-empty input batch, spilling the buffer if over quota."""
        super().append(batch)
        self.spill.note_usage(self.state_nbytes)
        if self.spill.needs_spill(self.state_nbytes):
            key = self.spill.new_key("collect")
            self.spill.spill(key, self._batches, self.state_nbytes)
            self._chunks.append(key)
            self._batches = []
            self.state_nbytes = 0
            self.spill.note_usage(0)

    def finalize(self) -> List[Batch]:
        """Restore every chunk; the rows (and their bytes) pass to the caller."""
        restored: List[Batch] = []
        for key in self._chunks:
            restored.extend(self.spill.restore(key))
            self.spill.discard(key)
        restored.extend(self._batches)
        self._chunks = []
        self._batches = []
        self.state_nbytes = 0
        nbytes = sum(batch.nbytes for batch in restored)
        self.spill.note_usage(nbytes)
        if self.spill.needs_spill(nbytes):
            self.spill.note_forced_grant()
        self.spill.note_usage(0)
        return restored
