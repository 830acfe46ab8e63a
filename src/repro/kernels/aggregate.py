"""Incremental hash aggregation kernel (vectorized, columnar state).

Aggregation in a pipelined engine is stateful: each arriving batch updates the
group table, and the final result is emitted once all upstream channels are
done.  The group table is the channel's *state variable*; its byte size is
reported so the checkpointing fault-tolerance strategy can cost snapshots.

The state is structure-of-arrays: one dense row per group across NumPy
accumulator arrays (counts, sums, mins, maxs), instead of one Python
``_Accumulator`` object per (group, aggregate).  Each input batch is
factorized to dense group codes (:mod:`repro.kernels.factorize`) and folded in
with segment reductions (``np.add.reduceat`` / ``np.minimum.reduceat`` over a
stable group sort), so per-row work is pure array arithmetic; Python-level
work is proportional to the number of *distinct groups* per batch.  The
original row-at-a-time implementation is preserved in
:mod:`repro.kernels.reference` as the property-test oracle.

The state is also *mergeable* (``merge``): the parallel backend folds the
shards of a starved aggregation channel together with it.  Merging
re-associates float sums, so the out-of-core aggregation never uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.common.errors import ExecutionError, SchemaError
from repro.data.batch import Batch
from repro.data.schema import DataType, Field, Schema
from repro.expr.eval import evaluate, infer_dtype
from repro.expr.nodes import Expr
from repro.kernels.factorize import factorize_key, gather_pylist, group_sort


class AggregateFunction(Enum):
    """Aggregate functions supported by the engine."""

    SUM = "sum"
    COUNT = "count"
    MIN = "min"
    MAX = "max"
    AVG = "avg"
    COUNT_DISTINCT = "count_distinct"


@dataclass(frozen=True)
class AggregateSpec:
    """One output aggregate: ``function(expression) AS name``.

    ``expression`` may be ``None`` only for ``COUNT`` (i.e. ``COUNT(*)``).
    """

    name: str
    function: AggregateFunction
    expression: Optional[Expr] = None

    def __post_init__(self):
        if self.expression is None and self.function not in (
            AggregateFunction.COUNT,
        ):
            raise SchemaError(
                f"aggregate {self.function.value} requires an input expression"
            )


def _promote(array: np.ndarray, other_dtype: np.dtype) -> np.ndarray:
    if array.dtype == other_dtype:
        return array
    try:
        target = np.result_type(array.dtype, other_dtype)
    except TypeError:
        target = np.dtype(object)
    return array.astype(target)


class GroupedAggregationState:
    """The mutable, columnar group table built up batch by batch."""

    def __init__(self, group_keys: Sequence[str], aggregates: Sequence[AggregateSpec]):
        if not aggregates:
            raise SchemaError("aggregation requires at least one aggregate")
        self.group_keys = list(group_keys)
        self.aggregates = list(aggregates)
        self._key_dtypes: Optional[List[DataType]] = None
        self._result_dtypes: Optional[List[DataType]] = None
        # Group directory: key tuple -> dense group index, plus the key
        # tuples in first-seen order (matching the dict insertion order of
        # the original implementation).
        self._index: Dict[tuple, int] = {}
        self._key_tuples: List[tuple] = []
        self._key_str_nbytes = 0
        # Accumulator arrays, one dense row per group.
        self._counts = np.zeros(0, dtype=np.int64)
        self._sums: List[Optional[np.ndarray]] = [
            np.zeros(0, dtype=np.float64)
            if spec.function in (AggregateFunction.SUM, AggregateFunction.AVG)
            else None
            for spec in self.aggregates
        ]
        self._mins: List[Optional[np.ndarray]] = [None] * len(self.aggregates)
        self._maxs: List[Optional[np.ndarray]] = [None] * len(self.aggregates)
        self._distinct: List[Optional[List[Set]]] = [
            [] if spec.function is AggregateFunction.COUNT_DISTINCT else None
            for spec in self.aggregates
        ]

    def __len__(self) -> int:
        return len(self._key_tuples)

    @property
    def state_nbytes(self) -> int:
        """Approximate size of the group table (for checkpoint costing).

        Byte-identical to the original per-object accounting (64 bytes per
        group + key string length, 64 per accumulator, 32 per distinct
        value), but computed from array sizes and cached string lengths in
        O(groups) instead of re-stringifying every key per call.
        """
        num_groups = len(self._key_tuples)
        distinct_total = sum(
            len(group_set)
            for sets in self._distinct
            if sets is not None
            for group_set in sets
        )
        return (
            64 * num_groups
            + self._key_str_nbytes
            + 64 * num_groups * len(self.aggregates)
            + 32 * distinct_total
        )

    # -- ingest -----------------------------------------------------------------

    def _intern_groups(self, keys: Sequence[tuple]) -> Tuple[np.ndarray, np.ndarray]:
        """Map key tuples to dense group indices, appending unseen groups.

        Returns ``(group_indices, is_new)`` over the input keys.  Python-level
        work here is per *group*, not per row.
        """
        group_indices = np.empty(len(keys), dtype=np.int64)
        is_new = np.zeros(len(keys), dtype=bool)
        for i, key in enumerate(keys):
            index = self._index.get(key)
            if index is None:
                index = len(self._key_tuples)
                self._index[key] = index
                self._key_tuples.append(key)
                self._key_str_nbytes += sum(len(str(part)) for part in key)
                is_new[i] = True
            group_indices[i] = index
        return group_indices, is_new

    def _grow(self, num_new: int) -> None:
        if num_new <= 0:
            return
        self._counts = np.concatenate(
            [self._counts, np.zeros(num_new, dtype=np.int64)]
        )
        for j, sums in enumerate(self._sums):
            if sums is not None:
                self._sums[j] = np.concatenate(
                    [sums, np.zeros(num_new, dtype=np.float64)]
                )
        for j, mins in enumerate(self._mins):
            if mins is not None:
                self._mins[j] = np.concatenate(
                    [mins, np.empty(num_new, dtype=mins.dtype)]
                )
        for j, maxs in enumerate(self._maxs):
            if maxs is not None:
                self._maxs[j] = np.concatenate(
                    [maxs, np.empty(num_new, dtype=maxs.dtype)]
                )
        for sets in self._distinct:
            if sets is not None:
                sets.extend(set() for _ in range(num_new))

    def _batch_codes(self, batch: Batch) -> Tuple[np.ndarray, int, np.ndarray]:
        """Dense per-row group codes in first-occurrence order, plus the
        first row of each batch-local group."""
        if not self.group_keys:
            return (
                np.zeros(batch.num_rows, dtype=np.int64),
                1,
                np.zeros(1, dtype=np.int64),
            )
        key_data = [batch.column_data(k) for k in self.group_keys]
        codes, num_groups, first = factorize_key(key_data)
        # factorize_key assigns codes lexicographically; re-rank them by first
        # occurrence so group insertion order matches the original dict-based
        # implementation exactly.
        perm = np.argsort(first, kind="stable")
        inverse = np.empty(num_groups, dtype=np.int64)
        inverse[perm] = np.arange(num_groups, dtype=np.int64)
        return inverse[codes], num_groups, first[perm]

    def update(self, batch: Batch) -> None:
        """Fold one input batch into the group table (segment reductions)."""
        if batch.num_rows == 0:
            return
        if self._key_dtypes is None:
            self._key_dtypes = [batch.schema.dtype(k) for k in self.group_keys]
            self._result_dtypes = self._infer_result_dtypes(batch.schema)

        codes, num_groups, first_rows = self._batch_codes(batch)
        if self.group_keys:
            key_data = [batch.column_data(k) for k in self.group_keys]
            reps = list(zip(*[gather_pylist(col, first_rows) for col in key_data]))
        else:
            reps = [()]

        value_arrays = []
        for spec in self.aggregates:
            if spec.expression is None:
                value_arrays.append(np.ones(batch.num_rows))
            else:
                value_arrays.append(np.asarray(evaluate(spec.expression, batch)))

        before = len(self._key_tuples)
        group_indices, is_new = self._intern_groups(reps)
        self._grow(len(self._key_tuples) - before)

        order, starts, seg_counts = group_sort(codes, num_groups)
        self._counts[group_indices] += seg_counts
        existing = ~is_new
        for j, spec in enumerate(self.aggregates):
            function = spec.function
            if function is AggregateFunction.COUNT:
                continue
            ordered = value_arrays[j][order]
            if function in (AggregateFunction.SUM, AggregateFunction.AVG):
                seg = np.add.reduceat(
                    ordered.astype(np.float64, copy=False), starts
                )
                self._sums[j][group_indices] += seg
            elif function in (AggregateFunction.MIN, AggregateFunction.MAX):
                store = self._mins if function is AggregateFunction.MIN else self._maxs
                combine = np.minimum if function is AggregateFunction.MIN else np.maximum
                seg = combine.reduceat(ordered, starts)
                array = store[j]
                if array is None:
                    array = np.empty(len(self._key_tuples), dtype=ordered.dtype)
                else:
                    array = _promote(array, ordered.dtype)
                new_idx = group_indices[is_new]
                array[new_idx] = seg[is_new]
                if existing.any():
                    old_idx = group_indices[existing]
                    array[old_idx] = combine(array[old_idx], seg[existing])
                store[j] = array
            elif function is AggregateFunction.COUNT_DISTINCT:
                sets = self._distinct[j]
                ends = starts + seg_counts
                for i in range(num_groups):
                    sets[group_indices[i]].update(
                        ordered[starts[i]:ends[i]].tolist()
                    )

    def merge(self, other: "GroupedAggregationState") -> None:
        """Merge another partial aggregation state into this one."""
        if other._key_dtypes is not None and self._key_dtypes is None:
            self._key_dtypes = other._key_dtypes
            self._result_dtypes = other._result_dtypes
        if not other._key_tuples:
            return
        before = len(self._key_tuples)
        group_indices, is_new = self._intern_groups(other._key_tuples)
        self._grow(len(self._key_tuples) - before)
        existing = ~is_new

        self._counts[group_indices] += other._counts
        for j, spec in enumerate(self.aggregates):
            function = spec.function
            if function in (AggregateFunction.SUM, AggregateFunction.AVG):
                self._sums[j][group_indices] += other._sums[j]
            elif function in (AggregateFunction.MIN, AggregateFunction.MAX):
                store = self._mins if function is AggregateFunction.MIN else self._maxs
                combine = np.minimum if function is AggregateFunction.MIN else np.maximum
                theirs = (other._mins if function is AggregateFunction.MIN
                          else other._maxs)[j]
                if theirs is None:
                    continue
                array = store[j]
                if array is None:
                    array = np.empty(len(self._key_tuples), dtype=theirs.dtype)
                else:
                    array = _promote(array, theirs.dtype)
                new_idx = group_indices[is_new]
                array[new_idx] = theirs[is_new]
                if existing.any():
                    old_idx = group_indices[existing]
                    array[old_idx] = combine(array[old_idx], theirs[existing])
                store[j] = array
            elif function is AggregateFunction.COUNT_DISTINCT:
                sets = self._distinct[j]
                for i, other_set in enumerate(other._distinct[j]):
                    sets[group_indices[i]] |= other_set

    # -- output -----------------------------------------------------------------

    def output_schema(self, input_schema: Schema) -> Schema:
        """Schema of the finalised aggregation result."""
        fields = [Field(k, input_schema.dtype(k)) for k in self.group_keys]
        for spec, dtype in zip(self.aggregates, self._infer_result_dtypes(input_schema)):
            fields.append(Field(spec.name, dtype))
        return Schema(fields)

    def finalize(self, input_schema: Optional[Schema] = None) -> Batch:
        """Produce the final one-row-per-group result batch."""
        if self._key_dtypes is None:
            if input_schema is None:
                raise ExecutionError(
                    "cannot finalise an empty aggregation without the input schema"
                )
            self._key_dtypes = [input_schema.dtype(k) for k in self.group_keys]
            self._result_dtypes = self._infer_result_dtypes(input_schema)

        # Same output order as the original implementation: sorted by the
        # stringified key tuple, ties broken by first-seen order.
        order = np.asarray(
            sorted(
                range(len(self._key_tuples)),
                key=lambda i: tuple(map(str, self._key_tuples[i])),
            ),
            dtype=np.int64,
        )
        columns: Dict[str, np.ndarray] = {}
        fields: List[Field] = []
        for i, key_name in enumerate(self.group_keys):
            dtype = self._key_dtypes[i]
            values = [self._key_tuples[g][i] for g in order]
            columns[key_name] = np.asarray(values, dtype=dtype.numpy_dtype)
            fields.append(Field(key_name, dtype))
        counts = self._counts[order]
        for j, spec in enumerate(self.aggregates):
            dtype = self._result_dtypes[j]
            function = spec.function
            if function is AggregateFunction.SUM:
                values = self._sums[j][order]
            elif function is AggregateFunction.COUNT:
                values = counts
            elif function is AggregateFunction.AVG:
                values = np.where(
                    counts > 0, self._sums[j][order] / np.maximum(counts, 1), 0.0
                )
            elif function is AggregateFunction.MIN:
                values = self._take_extreme(self._mins[j], order)
            elif function is AggregateFunction.MAX:
                values = self._take_extreme(self._maxs[j], order)
            elif function is AggregateFunction.COUNT_DISTINCT:
                sets = self._distinct[j]
                values = np.asarray([len(sets[g]) for g in order], dtype=np.int64)
            else:
                raise ExecutionError(f"unknown aggregate function {function}")
            columns[spec.name] = np.asarray(values).astype(
                dtype.numpy_dtype, copy=False
            )
            fields.append(Field(spec.name, dtype))
        if not self._key_tuples and not self.group_keys:
            # A scalar aggregation over zero rows still yields one row of
            # zero-valued aggregates (matching SQL COUNT/SUM semantics used
            # by the reference executor).
            for j, spec in enumerate(self.aggregates):
                dtype = self._result_dtypes[j]
                columns[spec.name] = np.asarray(
                    [0 if spec.function is AggregateFunction.COUNT else 0.0],
                    dtype=dtype.numpy_dtype,
                )
        return Batch(Schema(fields), columns)

    @staticmethod
    def _take_extreme(array: Optional[np.ndarray], order: np.ndarray) -> np.ndarray:
        if array is None:
            return np.empty(0, dtype=np.float64)
        return array[order]

    def _infer_result_dtypes(self, input_schema: Schema) -> List[DataType]:
        dtypes = []
        for spec in self.aggregates:
            if spec.function in (AggregateFunction.COUNT, AggregateFunction.COUNT_DISTINCT):
                dtypes.append(DataType.INT64)
            elif spec.function is AggregateFunction.AVG:
                dtypes.append(DataType.FLOAT64)
            elif spec.function is AggregateFunction.SUM:
                dtypes.append(DataType.FLOAT64)
            else:  # MIN / MAX keep their input type
                assert spec.expression is not None
                dtypes.append(infer_dtype(spec.expression, input_schema))
        return dtypes
