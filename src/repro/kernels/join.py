"""Vectorized hash join kernel.

The kernel mirrors how Quokka's join executors behave in the paper: the build
side is accumulated incrementally (this accumulated state is the channel's
*state variable* from Figure 1), and probe-side batches are joined against the
completed table.

Instead of a Python ``dict`` keyed by per-row tuples, the build side is
factorized to dense ``int64`` key codes (:mod:`repro.kernels.factorize`) and
grouped with one stable argsort; probing encodes the probe keys against the
build vocabulary and expands matches with pure array arithmetic, producing
``(probe_indices, build_indices)`` with no Python-level row loop.  The output
row order is identical to the original tuple-dict implementation (probe rows
ascending, build matches in build-arrival order within each probe row), which
lineage replay and trace digests rely on.  The original implementation is
preserved in :mod:`repro.kernels.reference` as the property-test oracle.

Supported join types: inner, left (outer on the probe side), semi and anti
(both filtering the probe side by existence in the build side).

:func:`join_output_names` is the one naming rule for a join's output: the
logical ``Join`` node, the optimizer, the estimator, the SQL planner and every
join kernel call it, so a plan's schema and its executed batches agree.
"""

from __future__ import annotations

from enum import Enum
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ExecutionError, SchemaError
from repro.data.batch import Batch, concat_batches
from repro.data.schema import DataType, Field, Schema
from repro.kernels.factorize import KeyEncoder, factorize_key, gather_pylist, group_sort


#: Appended to a build-side column whose name the output already holds.
JOIN_SUFFIX = "_right"


def join_output_names(
    probe_names: Sequence[str], build_names: Sequence[str], suffix: str = JOIN_SUFFIX
) -> List[str]:
    """Output names of the build columns of a join, in build order.

    The probe columns keep their names.  A build column keeps its own unless
    a probe column or an earlier build column already holds it; then
    ``suffix`` is appended until the name is free, so build columns ``a`` and
    ``a_right`` under a probe ``a`` come out as ``a_right`` and
    ``a_right_right``.
    """
    taken = set(probe_names)
    names = []
    for name in build_names:
        while name in taken:
            if not suffix:
                raise SchemaError(f"join output column {name!r} collides and the suffix is empty")
            name += suffix
        taken.add(name)
        names.append(name)
    return names


class JoinType(Enum):
    """Join semantics supported by :class:`HashJoin`."""

    INNER = "inner"
    LEFT = "left"
    SEMI = "semi"
    ANTI = "anti"


class HashJoin:
    """Stateful build-probe hash join.

    ``build`` may be called many times (once per arriving build-side batch);
    ``probe`` joins a probe-side batch against everything built so far.  The
    engine only calls ``probe`` after the build side is complete, which gives
    standard hash-join semantics: probe batches that arrive earlier are
    parked with ``pending`` and joined, in arrival order, by ``build_done``.
    The code table derived from the build rows is built lazily on first probe
    (or ``state_nbytes``) and invalidated by further ``build`` calls.

    ``build_schema`` registers the build-side schema up front, so a join whose
    build side turns out empty can still probe.
    """

    def __init__(
        self,
        build_keys: Sequence[str],
        probe_keys: Sequence[str],
        join_type: JoinType = JoinType.INNER,
        build_suffix: str = JOIN_SUFFIX,
        build_schema: Optional[Schema] = None,
    ):
        if len(build_keys) != len(probe_keys):
            raise SchemaError("build and probe key lists must have the same length")
        if not build_keys:
            raise SchemaError("join requires at least one key column")
        self.build_keys = list(build_keys)
        self.probe_keys = list(probe_keys)
        self.join_type = join_type
        self.build_suffix = build_suffix
        self._build_batches: List[Batch] = []
        self._build_row_offset = 0
        # Registered without seeding an empty batch: a zero-row part would
        # make ``concat_columns`` materialise every dictionary column.
        self._build_schema: Schema | None = build_schema
        self._build_nbytes = 0
        # Lazily-built code table: (encoder, row order, group starts, counts)
        # over the concatenated build side.
        self._encoder: Optional[KeyEncoder] = None
        self._row_order: Optional[np.ndarray] = None
        self._group_starts: Optional[np.ndarray] = None
        self._group_counts: Optional[np.ndarray] = None
        self._build_concat: Optional[Batch] = None
        # Distinct-key directory for state accounting, maintained
        # incrementally (per arriving batch) so checkpoint costing between
        # build batches never has to rebuild the probe table.
        self._distinct_keys: set = set()
        self._unindexed_batches: List[Batch] = []
        self._pending: List[Batch] = []
        self._pending_nbytes = 0

    # -- build side -------------------------------------------------------------

    def build(self, batch: Batch) -> None:
        """Add a build-side batch to the (lazily factorized) hash table."""
        if self._build_schema is None:
            self._build_schema = batch.schema
        elif batch.schema.names != self._build_schema.names:
            raise SchemaError("build-side schema changed between batches")
        for key in self.build_keys:
            batch.schema.field(key)  # surface missing key columns eagerly
        self._build_batches.append(batch)
        self._build_row_offset += batch.num_rows
        self._build_nbytes += batch.nbytes
        self._unindexed_batches.append(batch)
        self._encoder = None
        self._build_concat = None

    def pending(self, batch: Batch) -> None:
        """Buffer a probe batch that arrived before the build side completed."""
        self._pending.append(batch)
        self._pending_nbytes += batch.nbytes

    def build_done(self) -> List[Batch]:
        """The build side is complete: join the pending probe batches in order."""
        pending, self._pending, self._pending_nbytes = self._pending, [], 0
        flushed = [self.probe(batch) for batch in pending if batch.num_rows]
        return [out for out in flushed if out.num_rows]

    def finalize(self) -> List[Batch]:
        """Nothing is deferred: every probe batch was answered when it arrived."""
        return []

    @property
    def build_row_count(self) -> int:
        """Number of rows accumulated on the build side."""
        return self._build_row_offset

    @property
    def state_nbytes(self) -> int:
        """Approximate size of the hash-table state (for checkpoint costing).

        Matches the original kernel byte for byte: accumulated batch bytes
        plus 48 bytes per distinct key, plus the pending probe buffer.  Batch
        bytes are a running total, and the distinct-key directory is
        maintained incrementally (only batches that arrived since the last
        call are factorized, each once) — polling between build batches never
        rebuilds the probe table.
        """
        for batch in self._unindexed_batches:
            if batch.num_rows == 0:
                continue
            key_data = [batch.column_data(k) for k in self.build_keys]
            _codes, _num, first = factorize_key(key_data)
            self._distinct_keys.update(
                zip(*[gather_pylist(col, first) for col in key_data])
            )
        self._unindexed_batches = []
        return self._build_nbytes + 48 * len(self._distinct_keys) + self._pending_nbytes

    def _build_side(self) -> Batch:
        if self._build_schema is None:
            raise ExecutionError("probe called before any build batch arrived")
        if self._build_concat is None:
            self._build_concat = concat_batches(
                self._build_batches, schema=self._build_schema
            )
        return self._build_concat

    def _ensure_table(self) -> None:
        """Factorize the build keys into dense codes + per-code row segments."""
        if self._encoder is not None:
            return
        build_side = self._build_side()
        self._encoder = KeyEncoder(
            [build_side.column_data(k) for k in self.build_keys]
        )
        # Stable sort keeps each code's rows in build-arrival order, exactly
        # like the per-key append lists of the original dict-based table.
        self._row_order, self._group_starts, self._group_counts = group_sort(
            self._encoder.codes, self._encoder.num_codes
        )

    def _probe_codes(self, batch: Batch) -> np.ndarray:
        assert self._encoder is not None
        return self._encoder.encode(
            [batch.column_data(k) for k in self.probe_keys]
        )

    # -- probe side -------------------------------------------------------------

    def probe(self, batch: Batch) -> Batch:
        """Join a probe-side batch against the accumulated build table."""
        if self.join_type in (JoinType.SEMI, JoinType.ANTI):
            return self._probe_existence(batch)
        return self._probe_materialising(batch)

    def _probe_existence(self, batch: Batch) -> Batch:
        if self._build_row_offset == 0 or batch.num_rows == 0:
            keep = np.zeros(batch.num_rows, dtype=bool)
        else:
            self._ensure_table()
            codes = self._probe_codes(batch)
            counts = np.append(self._group_counts, 0)  # sentinel code -> 0 rows
            keep = counts[codes] > 0
        if self.join_type is JoinType.ANTI:
            keep = ~keep
        return batch.filter(keep)

    def _match_indices(self, batch: Batch) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized probe: ``(probe_indices, build_indices, match_counts)``.

        ``match_counts[r]`` is the number of build matches of probe row ``r``;
        the index arrays expand every probe row by its matches, with build
        rows in build-arrival order (the original dict semantics).
        """
        num_rows = batch.num_rows
        if self._build_row_offset == 0 or num_rows == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.zeros(num_rows, dtype=np.int64)
        codes = self._probe_codes(batch)
        counts = np.append(self._group_counts, 0)
        starts = np.append(self._group_starts, 0)
        match_counts = counts[codes]
        total = int(match_counts.sum())
        probe_indices = np.repeat(np.arange(num_rows, dtype=np.int64), match_counts)
        # For probe row r with c matches starting at build segment s, the
        # output slots [o, o+c) map to row_order[s .. s+c): subtract each
        # slot's running output offset, add its segment start.
        out_offsets = np.cumsum(match_counts) - match_counts
        slot = np.arange(total, dtype=np.int64)
        segment_pos = slot - np.repeat(out_offsets, match_counts) + np.repeat(
            starts[codes], match_counts
        )
        build_indices = self._row_order[segment_pos]
        return probe_indices, build_indices, match_counts

    def _probe_materialising(self, batch: Batch) -> Batch:
        build_side = self._build_side()
        self._ensure_table()
        probe_indices, build_indices, match_counts = self._match_indices(batch)

        probe_part = batch.take(probe_indices)
        build_part = build_side.take(build_indices)
        joined = self._combine(probe_part, build_part)

        if self.join_type is JoinType.LEFT:
            unmatched = np.nonzero(match_counts == 0)[0]
            if len(unmatched):
                probe_unmatched = batch.take(unmatched)
                null_build = _null_batch(
                    self._rename_conflicts(batch.schema), len(unmatched)
                )
                joined = concat_batches(
                    [joined, _merge_columns(probe_unmatched, null_build)]
                )
        return joined

    def output_schema(self, probe_schema: Schema) -> Schema:
        """Schema of the joined output for a given probe-side schema."""
        if self.join_type in (JoinType.SEMI, JoinType.ANTI):
            return probe_schema
        return probe_schema.merge(self._rename_conflicts(probe_schema))

    # -- internals ---------------------------------------------------------------

    def _output_build_schema(self) -> Schema:
        if self._build_schema is None:
            raise ExecutionError("build schema unknown")
        return self._build_schema

    def _rename_conflicts(self, probe_schema: Schema) -> Schema:
        build_schema = self._output_build_schema()
        names = join_output_names(probe_schema.names, build_schema.names, self.build_suffix)
        return Schema(Field(name, field.dtype) for name, field in zip(names, build_schema))

    def _combine(self, probe_part: Batch, build_part: Batch) -> Batch:
        build_schema = self._rename_conflicts(probe_part.schema)
        renamed = {}
        for original, renamed_field in zip(self._output_build_schema(), build_schema):
            # column_data keeps dictionary-encoded string columns encoded
            # through the join instead of materialising them.
            renamed[renamed_field.name] = build_part.column_data(original.name)
        combined_schema = probe_part.schema.merge(build_schema)
        columns = dict(probe_part.columns())
        columns.update(renamed)
        return Batch(combined_schema, columns)


def _null_batch(schema: Schema, num_rows: int) -> Batch:
    """A batch of ``num_rows`` "null" rows (zero / empty-string placeholders)."""
    columns = {}
    for field in schema:
        if field.dtype is DataType.STRING:
            columns[field.name] = np.array([""] * num_rows, dtype=object)
        elif field.dtype is DataType.BOOL:
            columns[field.name] = np.zeros(num_rows, dtype=bool)
        elif field.dtype is DataType.FLOAT64:
            columns[field.name] = np.zeros(num_rows, dtype=np.float64)
        else:
            columns[field.name] = np.zeros(num_rows, dtype=np.int64)
    return Batch(schema, columns)


def _merge_columns(left: Batch, right: Batch) -> Batch:
    """Merge two batches with the same row count and disjoint column names."""
    if left.num_rows != right.num_rows:
        raise SchemaError("cannot merge batches with different row counts")
    schema = left.schema.merge(right.schema)
    columns = dict(left.columns())
    columns.update(right.columns())
    return Batch(schema, columns)
