"""Incremental hash aggregation kernel (vectorized, columnar state).

Aggregation in a pipelined engine is stateful: each arriving batch updates the
group table, and the final result is emitted once all upstream channels are
done.  The group table is the channel's *state variable*; its byte size is
reported so the checkpointing fault-tolerance strategy can cost snapshots.

The state is structure-of-arrays: one dense row per group across NumPy
accumulator arrays (counts, sums, mins, maxs), instead of one Python
``_Accumulator`` object per (group, aggregate).  The per-batch work is one
stateless function, :func:`reduce_batch`: it factorizes the keys to dense
group codes (:mod:`repro.kernels.factorize`) and collapses the batch with
segment reductions (``np.add.reduceat`` / ``np.minimum.reduceat`` over a
stable group sort), so per-row work is pure array arithmetic.  Three kernels
consume it:

* the partial aggregate of a producing stage
  (:class:`repro.physical.stages.PartialAggregateOp`) emits the reduction
  directly as a batch and never builds a group table;
* :class:`ColumnarGroupTable`, the engine's final aggregate (the resident
  kernel of :class:`repro.physical.operators.AggregateOperator` and the one
  :class:`repro.kernels.outofcore.SpillingAggregation` freezes and replays),
  keeps the reductions columnar and interns them in one vectorised pass;
* :class:`GroupedAggregationState` interns each reduction into a ``dict``
  keyed by Python key tuples.  It is the reference interpreter's kernel and
  only :mod:`repro.plan.interpreter` builds it, so every engine-vs-reference
  check compares two implementations.

The original row-at-a-time implementation is preserved in
:mod:`repro.kernels.reference` as the property-test oracle.

Every executor folds one channel's inputs into one state, in one order;
states are never merged, so a given input order associates float sums one
way.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.common.errors import ExecutionError, SchemaError
from repro.data.batch import Batch, concat_columns
from repro.data.dictionary import DictionaryArray
from repro.data.schema import DataType, Field, Schema
from repro.expr.eval import evaluate, infer_dtype
from repro.expr.nodes import Expr
from repro.kernels.factorize import KeyEncoder, gather_pylist, group_sort


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


@dataclass(frozen=True)
class BatchReduction:
    """One batch collapsed to one entry per group, groups in key-code order.

    ``first_rows[g]`` is the first input row of group ``g`` and ``counts[g]``
    its row count.  ``segments[j]`` is aggregate ``j``'s per-group result:
    the float64 sum for SUM and AVG, the minimum or maximum in the input's
    dtype for MIN and MAX, ``None`` for COUNT (it is ``counts``), and a list
    of per-group Python value lists for COUNT_DISTINCT.
    """

    first_rows: np.ndarray
    counts: np.ndarray
    segments: List[object]


def reduce_batch(
    batch: Batch, group_keys: Sequence[str], specs: Sequence[AggregateSpec]
) -> BatchReduction:
    """Collapse one non-empty batch to one entry per group.

    The keys are factorized once and the rows stably sorted by code, so each
    group's rows form one segment in their original relative order; every
    aggregate is then one segment reduction over it.  Groups come out in the
    factorizer's (lexicographic) code order.  Apart from COUNT_DISTINCT's
    value lists, no Python object is made per group.  With no group keys the
    whole batch is one group.
    """
    if group_keys:
        encoder = KeyEncoder([batch.column_data(k) for k in group_keys])
        codes, num_groups = encoder.codes, encoder.num_codes
    else:
        codes, num_groups = np.zeros(batch.num_rows, dtype=np.int64), 1
    order, starts, counts = group_sort(codes, num_groups)
    segments: List[object] = []
    for spec in specs:
        function = spec.function
        if function is AggregateFunction.COUNT:
            segments.append(None)
            continue
        ordered = np.asarray(evaluate(spec.expression, batch))[order]
        if function in (AggregateFunction.SUM, AggregateFunction.AVG):
            segments.append(
                np.add.reduceat(ordered.astype(np.float64, copy=False), starts)
            )
        elif function is AggregateFunction.MIN:
            segments.append(np.minimum.reduceat(ordered, starts))
        elif function is AggregateFunction.MAX:
            segments.append(np.maximum.reduceat(ordered, starts))
        else:  # COUNT_DISTINCT
            ends = starts + counts
            segments.append(
                [ordered[start:end].tolist() for start, end in zip(starts, ends)]
            )
    return BatchReduction(order[starts], counts, segments)


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

    def update(self, batch: Batch) -> None:
        """Fold one input batch into the group table.

        The batch is collapsed by :func:`reduce_batch`; its groups are then
        interned in first-occurrence order (the dict insertion order of the
        original implementation) and their segment results folded in.
        """
        if batch.num_rows == 0:
            return
        if self._key_dtypes is None:
            self._key_dtypes = [batch.schema.dtype(k) for k in self.group_keys]
            self._result_dtypes = result_dtypes(self.aggregates, batch.schema)

        reduction = reduce_batch(batch, self.group_keys, self.aggregates)
        num_groups = len(reduction.counts)
        by_first = np.argsort(reduction.first_rows)
        if self.group_keys:
            first_rows = reduction.first_rows[by_first]
            reps = list(zip(*[
                gather_pylist(batch.column_data(k), first_rows)
                for k in self.group_keys
            ]))
        else:
            reps = [()]

        before = len(self._key_tuples)
        interned, interned_new = self._intern_groups(reps)
        self._grow(len(self._key_tuples) - before)
        # Back to the reduction's code order, which its segments follow.
        group_indices = np.empty(num_groups, dtype=np.int64)
        group_indices[by_first] = interned
        is_new = np.empty(num_groups, dtype=bool)
        is_new[by_first] = interned_new

        self._counts[group_indices] += reduction.counts
        existing = ~is_new
        for j, spec in enumerate(self.aggregates):
            function = spec.function
            seg = reduction.segments[j]
            if function in (AggregateFunction.SUM, AggregateFunction.AVG):
                self._sums[j][group_indices] += seg
            elif function in (AggregateFunction.MIN, AggregateFunction.MAX):
                store = self._mins if function is AggregateFunction.MIN else self._maxs
                combine = np.minimum if function is AggregateFunction.MIN else np.maximum
                array = store[j]
                if array is None:
                    array = np.empty(len(self._key_tuples), dtype=seg.dtype)
                else:
                    array = _promote(array, seg.dtype)
                new_idx = group_indices[is_new]
                array[new_idx] = seg[is_new]
                if existing.any():
                    old_idx = group_indices[existing]
                    array[old_idx] = combine(array[old_idx], seg[existing])
                store[j] = array
            elif function is AggregateFunction.COUNT_DISTINCT:
                sets = self._distinct[j]
                for i, values in enumerate(seg):
                    sets[group_indices[i]].update(values)

    # -- output -----------------------------------------------------------------

    def finalize(self, input_schema: Optional[Schema] = None) -> Batch:
        """Produce the final one-row-per-group result batch."""
        if self._key_dtypes is None:
            if input_schema is None:
                raise ExecutionError(
                    "cannot finalise an empty aggregation without the input schema"
                )
            self._key_dtypes = [input_schema.dtype(k) for k in self.group_keys]
            self._result_dtypes = result_dtypes(self.aggregates, input_schema)

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


# -- result types (the one rule every aggregation path and the planner use) ------


def result_dtypes(
    specs: Sequence[AggregateSpec], input_schema: Schema
) -> List[DataType]:
    """Result type of every aggregate over an input with ``input_schema``.

    COUNT and COUNT_DISTINCT are INT64, SUM and AVG FLOAT64, and MIN and MAX
    keep their input's type.
    """
    dtypes = []
    for spec in specs:
        if spec.function in (AggregateFunction.COUNT, AggregateFunction.COUNT_DISTINCT):
            dtypes.append(DataType.INT64)
        elif spec.function in (AggregateFunction.SUM, AggregateFunction.AVG):
            dtypes.append(DataType.FLOAT64)
        else:
            assert spec.expression is not None
            dtypes.append(infer_dtype(spec.expression, input_schema))
    return dtypes


def aggregate_schema(
    group_keys: Sequence[str], specs: Sequence[AggregateSpec], input_schema: Schema
) -> Schema:
    """Schema of an aggregation's result: the keys, then one column per spec."""
    fields = [Field(k, input_schema.dtype(k)) for k in group_keys]
    for spec, dtype in zip(specs, result_dtypes(specs, input_schema)):
        fields.append(Field(spec.name, dtype))
    return Schema(fields)


# -- the engine's final aggregate -------------------------------------------------


def _take(column, rows: np.ndarray):
    if isinstance(column, DictionaryArray):
        return column.take(rows)
    return column[rows]


def _concat_values(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate segment arrays, promoting like :func:`_promote`."""
    dtype = parts[0].dtype
    for part in parts[1:]:
        if part.dtype != dtype:
            try:
                dtype = np.result_type(dtype, part.dtype)
            except TypeError:
                dtype = np.dtype(object)
    return np.concatenate([part.astype(dtype, copy=False) for part in parts])


#: ``10 ** i`` for ``i = 0 .. 19``: every decimal width an int64 magnitude has.
_POWERS_OF_TEN = 10 ** np.arange(20, dtype=np.uint64)


def _decimal_digits(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(negative, magnitude, digits)`` of int64 ``values``: sign, absolute
    value as uint64 (exact for the int64 minimum) and its decimal width."""
    negative = values < 0
    magnitude = values.astype(np.uint64)
    magnitude[negative] = (~values[negative]).astype(np.uint64) + np.uint64(1)
    digits = np.maximum(np.searchsorted(_POWERS_OF_TEN, magnitude, side="right"), 1)
    return negative, magnitude, digits


def _str_lengths(column) -> np.ndarray:
    """``len(str(v))`` for every value of a key column, without a Python
    ``str`` per numeric value."""
    if isinstance(column, DictionaryArray):
        values, codes = column.used_vocabulary()
        lengths = np.fromiter(map(len, values), dtype=np.int64, count=len(values))
        return lengths[codes]
    if column.dtype == object:
        return np.fromiter(
            (len(str(v)) for v in column), dtype=np.int64, count=len(column)
        )
    if column.dtype.kind == "b":
        return np.where(column, 4, 5)
    if column.dtype.kind == "i":
        negative, _, digits = _decimal_digits(column.astype(np.int64, copy=False))
        return digits + negative
    return np.char.str_len(column.astype(str))


def _str_sort_keys(column) -> List[np.ndarray]:
    """Sort keys, most significant first, ordering a key column as the
    ``str()`` of its values orders.

    A string's own order is its stringified order, and a dictionary's
    vocabulary is sorted, so its codes are the ranks.  Booleans sort as
    ``"False" < "True"``.  An integer's digit string is ordered by sign (``-``
    sorts before every digit), then by its digits scaled to a fixed width
    (``"1"``, ``"10"`` and ``"100"`` tie there), then by width (a prefix sorts
    first).  Other types are stringified.
    """
    if isinstance(column, DictionaryArray):
        return [column.used_vocabulary()[1]]
    if column.dtype == object:
        return [np.unique(column, return_inverse=True)[1].reshape(-1)]
    if column.dtype.kind == "b":
        return [column]
    if column.dtype.kind == "i":
        negative, magnitude, digits = _decimal_digits(column.astype(np.int64, copy=False))
        scaled = magnitude * _POWERS_OF_TEN[19 - digits]
        return [~negative, scaled, digits]
    return [column.astype(str)]


class ColumnarGroupTable:
    """The engine's final group table: columnar keys, folded in one pass.

    It returns what :class:`GroupedAggregationState` returns for the same
    input batches, in the same order and to the bit: group order, float sums
    and ``state_nbytes``.  The one difference is NaN keys.  The ``dict``
    table makes a new group for each batch's NaN key, because every NaN
    float object is a new key; here all NaN keys are one group, as in a
    single-batch run.  :class:`GroupedAggregationState` stays the reference
    interpreter's kernel, so engine-vs-reference checks compare two
    implementations.

    ``update`` calls :func:`reduce_batch` and keeps the reduction columnar:
    each group's keys gathered from the batch's own storage at its first row
    (dictionary keys stay encoded), in first-seen order, with its count and
    segment results.  No tuple or ``dict`` is built.  The kept rows are
    interned later, in one :class:`~repro.kernels.factorize.KeyEncoder` pass
    over the consolidated groups plus everything kept since (string keys stay
    codes when every part shares one vocabulary).  ``finalize``
    runs that pass, and so does reading ``state_nbytes``, whose answer then
    stands until the next ``update``.  The pass numbers the groups in
    first-seen order and folds with ``np.add.at`` (SUM, AVG, COUNT) and
    ``np.minimum.at`` / ``np.maximum.at`` (MIN, MAX) in arrival order.  That is
    the dict table's left fold from 0.0, so sums agree bit for bit however
    the passes fall.  ``finalize`` orders the groups with one ``np.lexsort``
    by the stringified key tuple, ties by first-seen rank.
    """

    def __init__(self, group_keys: Sequence[str], aggregates: Sequence[AggregateSpec]):
        if not aggregates:
            raise SchemaError("aggregation requires at least one aggregate")
        self.group_keys = list(group_keys)
        self.aggregates = list(aggregates)
        self._schema: Optional[Schema] = None
        # Interned groups in first-seen order: one column per key, one row of
        # accumulators per group.
        self._num_groups = 0
        self._keys: List[object] = []
        self._key_str_nbytes = 0
        self._counts = np.zeros(0, dtype=np.int64)
        self._sums: List[Optional[np.ndarray]] = [
            np.zeros(0, dtype=np.float64)
            if spec.function in (AggregateFunction.SUM, AggregateFunction.AVG)
            else None
            for spec in self.aggregates
        ]
        self._extremes: List[Optional[np.ndarray]] = [None] * len(self.aggregates)
        self._distinct: List[Optional[List[Set]]] = [
            [] if spec.function is AggregateFunction.COUNT_DISTINCT else None
            for spec in self.aggregates
        ]
        self._distinct_total = 0
        # Batches reduced since the last pass: (key columns, counts,
        # segments), one entry per group in first-seen order.
        self._pending: List[Tuple[List[object], np.ndarray, List[object]]] = []

    def __len__(self) -> int:
        self._intern()
        return self._num_groups

    @property
    def state_nbytes(self) -> int:
        """Size of the group table, by :attr:`GroupedAggregationState.state_nbytes`'
        formula: 64 bytes per group plus its keys' string length, 64 per
        accumulator, 32 per distinct value."""
        self._intern()
        return (
            64 * self._num_groups
            + self._key_str_nbytes
            + 64 * self._num_groups * len(self.aggregates)
            + 32 * self._distinct_total
        )

    def update(self, batch: Batch) -> None:
        """Reduce one input batch and keep the reduction for the next pass."""
        if batch.num_rows == 0:
            return
        if self._schema is None:
            self._schema = aggregate_schema(self.group_keys, self.aggregates, batch.schema)
        reduction = reduce_batch(batch, self.group_keys, self.aggregates)
        by_first = np.argsort(reduction.first_rows)
        first_rows = reduction.first_rows[by_first]
        keys = [_take(batch.column_data(k), first_rows) for k in self.group_keys]
        segments: List[object] = []
        for segment in reduction.segments:
            if isinstance(segment, list):  # COUNT_DISTINCT's value lists
                segment = [segment[i] for i in by_first]
            elif segment is not None:
                segment = segment[by_first]
            segments.append(segment)
        self._pending.append((keys, reduction.counts[by_first], segments))

    def _intern(self) -> None:
        """Intern everything kept since the last pass and fold it in."""
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        old = self._num_groups
        counts = np.concatenate([entry[1] for entry in pending])
        total = old + len(counts)
        if self.group_keys:
            columns = [
                concat_columns(self._keys[i:i + 1] + [entry[0][i] for entry in pending])
                for i in range(len(self.group_keys))
            ]
            encoder = KeyEncoder(columns)
            codes, num_groups = encoder.codes, encoder.num_codes
        else:
            columns, codes, num_groups = [], np.zeros(total, dtype=np.int64), 1
        first = np.full(num_groups, total, dtype=np.int64)
        np.minimum.at(first, codes, np.arange(total, dtype=np.int64))
        by_first = np.argsort(first)
        first = first[by_first]
        group_of_code = np.empty(num_groups, dtype=np.int64)
        group_of_code[by_first] = np.arange(num_groups, dtype=np.int64)
        # The old groups are the first ``old`` kept rows and open their own
        # groups, so they keep their numbers.
        groups = group_of_code[codes[old:]]
        opens = np.zeros(total - old, dtype=bool)
        opens[first[old:] - old] = True

        self._keys = [_take(column, first) for column in columns]
        self._key_str_nbytes += sum(
            int(_str_lengths(_take(column, first[old:])).sum()) for column in columns
        )
        self._num_groups = num_groups
        grown = num_groups - old
        self._counts = np.concatenate([self._counts, np.zeros(grown, dtype=np.int64)])
        np.add.at(self._counts, groups, counts)
        for j, spec in enumerate(self.aggregates):
            function = spec.function
            if function is AggregateFunction.COUNT:
                continue
            if function is AggregateFunction.COUNT_DISTINCT:
                sets = self._distinct[j]
                sets.extend(set() for _ in range(grown))
                values = [v for entry in pending for v in entry[2][j]]
                for group, group_values in zip(groups.tolist(), values):
                    sets[group].update(group_values)
                continue
            segment = _concat_values([entry[2][j] for entry in pending])
            if function in (AggregateFunction.SUM, AggregateFunction.AVG):
                sums = np.concatenate([self._sums[j], np.zeros(grown, dtype=np.float64)])
                np.add.at(sums, groups, segment)
                self._sums[j] = sums
                continue
            previous = self._extremes[j]
            if previous is not None:
                segment = _concat_values([previous[:0], segment])
            extremes = np.empty(num_groups, dtype=segment.dtype)
            if previous is not None:
                extremes[:old] = previous
            extremes[groups[opens]] = segment[opens]
            combine = np.minimum if function is AggregateFunction.MIN else np.maximum
            combine.at(extremes, groups[~opens], segment[~opens])
            self._extremes[j] = extremes
        self._distinct_total = sum(
            len(group_set)
            for sets in self._distinct
            if sets is not None
            for group_set in sets
        )

    def _output_order(self) -> np.ndarray:
        """Groups sorted by the stringified key tuple, ties by first seen."""
        keys: List[np.ndarray] = [np.arange(self._num_groups, dtype=np.int64)]
        if self._num_groups:
            for column in reversed(self._keys):
                keys.extend(reversed(_str_sort_keys(column)))
        return np.lexsort(keys)

    def finalize(self, input_schema: Optional[Schema] = None) -> Batch:
        """Produce the final one-row-per-group result batch."""
        self._intern()
        if self._schema is None:
            if input_schema is None:
                raise ExecutionError(
                    "cannot finalise an empty aggregation without the input schema"
                )
            self._schema = aggregate_schema(self.group_keys, self.aggregates, input_schema)
        schema = self._schema
        order = self._output_order()
        columns: Dict[str, np.ndarray] = {}
        for i, key_name in enumerate(self.group_keys):
            dtype = schema.dtype(key_name).numpy_dtype
            if self._num_groups:
                column = self._keys[i]
                if isinstance(column, DictionaryArray):
                    column = column.materialize()
                columns[key_name] = column[order].astype(dtype, copy=False)
            else:
                columns[key_name] = np.empty(0, dtype=dtype)
        counts = self._counts[order]
        for j, spec in enumerate(self.aggregates):
            function = spec.function
            if function is AggregateFunction.SUM:
                values = self._sums[j][order]
            elif function is AggregateFunction.COUNT:
                values = counts
            elif function is AggregateFunction.AVG:
                values = np.where(
                    counts > 0, self._sums[j][order] / np.maximum(counts, 1), 0.0
                )
            elif function in (AggregateFunction.MIN, AggregateFunction.MAX):
                extremes = self._extremes[j]
                values = np.empty(0) if extremes is None else extremes[order]
            else:  # COUNT_DISTINCT
                sets = self._distinct[j]
                values = np.asarray([len(sets[g]) for g in order], dtype=np.int64)
            columns[spec.name] = np.asarray(values).astype(
                schema.dtype(spec.name).numpy_dtype, copy=False
            )
        if not self._num_groups and not self.group_keys:
            # A scalar aggregation over zero rows still yields one row of
            # zero-valued aggregates (SQL COUNT/SUM semantics).
            for spec in self.aggregates:
                columns[spec.name] = np.asarray(
                    [0 if spec.function is AggregateFunction.COUNT else 0.0],
                    dtype=schema.dtype(spec.name).numpy_dtype,
                )
        return Batch(schema, columns)
