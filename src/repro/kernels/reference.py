"""Row-at-a-time reference kernels.

These are the original (pre-vectorization) implementations of the hot
kernels, preserved verbatim in behaviour: a tuple-keyed hash join, a
per-group-object aggregation state, a per-character FNV-1a string hash and a
boolean-scan partitioner.  They exist for two reasons:

* **Oracle** — the Hypothesis property suites assert that the vectorized
  kernels in :mod:`repro.kernels.join`, :mod:`repro.kernels.aggregate` and
  :mod:`repro.data.partition` produce identical results (identical row
  *order* included) on random schemas, keys and dtypes.
* **Baseline** — ``benchmarks/bench_kernels.py`` times the vectorized kernels
  against these to record the speedup trajectory in ``BENCH_kernels.json``;
  the CI ``perf-smoke`` job fails if vectorized ever regresses below naive.

Do not "optimise" this module: its value is bug-for-bug fidelity to the
original kernels.

Known, intentional divergence: ``NaN``.  The original kernels keyed groups
and join rows by boxed Python floats, so every NaN value was its own group /
join key (``hash`` by object identity since Python 3.10), and ``min``/``max``
skipped NaN or not depending on arrival order.  The vectorized kernels use
``np.unique`` (all NaNs collapse into one group) and ``np.minimum`` /
``np.maximum`` (NaN propagates).  TPC-H produces no NaNs, but a division by
zero makes one (``0.0 / 0.0``); the vectorized semantics (one NaN group) are
what real columnar engines do, so the property suites draw NaN-free floats
against these oracles and check NaN keys against a single-batch run.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence

import numpy as np

from repro.common.errors import ExecutionError, SchemaError
from repro.data.batch import Batch, concat_batches
from repro.data.schema import DataType
from repro.kernels.aggregate import AggregateFunction, AggregateSpec, result_dtypes
from repro.kernels.join import JOIN_SUFFIX, JoinType, _merge_columns, _null_batch
from repro.expr.eval import evaluate


def naive_hash_column(array: np.ndarray, dtype: DataType) -> np.ndarray:
    """Per-character FNV-1a string hashing (integer paths match the fast one)."""
    if dtype is DataType.STRING:
        out = np.empty(len(array), dtype=np.uint64)
        mask = (1 << 64) - 1
        for i, value in enumerate(array):
            h = 0xCBF29CE484222325
            for ch in str(value).encode("utf-8"):
                h = ((h ^ ch) * 0x100000001B3) & mask
            out[i] = h
        return out
    from repro.data.partition import hash_column

    return hash_column(np.asarray(array), dtype)


def naive_hash_rows(batch: Batch, keys: Sequence[str]) -> np.ndarray:
    """Row hashes built from :func:`naive_hash_column`."""
    if not keys:
        raise ValueError("at least one key column is required")
    combined = np.zeros(batch.num_rows, dtype=np.uint64)
    for key in keys:
        dtype = batch.schema.dtype(key)
        combined = combined * np.uint64(31) + naive_hash_column(batch.column(key), dtype)
    return combined


def naive_hash_partition(batch: Batch, keys: Sequence[str], num_partitions: int) -> List[Batch]:
    """One boolean scan per partition, exactly like the original kernel."""
    if num_partitions < 1:
        raise ValueError("num_partitions must be at least 1")
    if num_partitions == 1:
        assignment = np.zeros(batch.num_rows, dtype=np.int64)
    else:
        assignment = (naive_hash_rows(batch, keys) % np.uint64(num_partitions)).astype(np.int64)
    return [
        batch.take(np.nonzero(assignment == p)[0]) for p in range(num_partitions)
    ]


def _key_rows(batch: Batch, keys: Sequence[str]) -> List[tuple]:
    columns = [batch.column(k).tolist() for k in keys]
    return list(zip(*columns)) if columns else []


class NaiveHashJoin:
    """The original tuple-keyed, Python-loop build/probe hash join."""

    def __init__(
        self,
        build_keys: Sequence[str],
        probe_keys: Sequence[str],
        join_type: JoinType = JoinType.INNER,
        build_suffix: str = JOIN_SUFFIX,
    ):
        if len(build_keys) != len(probe_keys):
            raise SchemaError("build and probe key lists must have the same length")
        if not build_keys:
            raise SchemaError("join requires at least one key column")
        self.build_keys = list(build_keys)
        self.probe_keys = list(probe_keys)
        self.join_type = join_type
        self.build_suffix = build_suffix
        self._table: Dict[tuple, List[int]] = defaultdict(list)
        self._build_batches: List[Batch] = []
        self._build_row_offset = 0
        self._build_schema = None

    def build(self, batch: Batch) -> None:
        if self._build_schema is None:
            self._build_schema = batch.schema
        elif batch.schema.names != self._build_schema.names:
            raise SchemaError("build-side schema changed between batches")
        for offset, key in enumerate(_key_rows(batch, self.build_keys)):
            self._table[key].append(self._build_row_offset + offset)
        self._build_batches.append(batch)
        self._build_row_offset += batch.num_rows

    @property
    def state_nbytes(self) -> int:
        return sum(batch.nbytes for batch in self._build_batches) + 48 * len(self._table)

    def _build_side(self) -> Batch:
        if self._build_schema is None:
            raise ExecutionError("probe called before any build batch arrived")
        return concat_batches(self._build_batches, schema=self._build_schema)

    def probe(self, batch: Batch) -> Batch:
        from repro.kernels.join import HashJoin

        if self.join_type in (JoinType.SEMI, JoinType.ANTI):
            keep = np.zeros(batch.num_rows, dtype=bool)
            for row, key in enumerate(_key_rows(batch, self.probe_keys)):
                keep[row] = key in self._table
            if self.join_type is JoinType.ANTI:
                keep = ~keep
            return batch.filter(keep)

        build_side = self._build_side()
        probe_indices: List[int] = []
        build_indices: List[int] = []
        unmatched: List[int] = []
        for row, key in enumerate(_key_rows(batch, self.probe_keys)):
            matches = self._table.get(key)
            if matches:
                probe_indices.extend([row] * len(matches))
                build_indices.extend(matches)
            elif self.join_type is JoinType.LEFT:
                unmatched.append(row)

        # Schema bookkeeping (suffixing, null placeholders) is shared with the
        # vectorized kernel; only row matching is the point of this oracle.
        helper = HashJoin(self.build_keys, self.probe_keys, self.join_type, self.build_suffix)
        helper._build_schema = self._build_schema

        probe_part = batch.take(np.asarray(probe_indices, dtype=np.int64))
        build_part = build_side.take(np.asarray(build_indices, dtype=np.int64))
        joined = helper._combine(probe_part, build_part)

        if self.join_type is JoinType.LEFT and unmatched:
            probe_unmatched = batch.take(np.asarray(unmatched, dtype=np.int64))
            null_build = _null_batch(helper._rename_conflicts(batch.schema), len(unmatched))
            joined = concat_batches([joined, _merge_columns(probe_unmatched, null_build)])
        return joined


class _Accumulator:
    """Per-group accumulator for one aggregate spec (original implementation)."""

    __slots__ = ("function", "total", "count", "minimum", "maximum", "distinct")

    def __init__(self, function: AggregateFunction):
        self.function = function
        self.total = 0.0
        self.count = 0
        self.minimum = None
        self.maximum = None
        self.distinct = set() if function is AggregateFunction.COUNT_DISTINCT else None

    def update(self, value) -> None:
        self.count += 1
        if self.function in (AggregateFunction.SUM, AggregateFunction.AVG):
            self.total += value
        elif self.function is AggregateFunction.MIN:
            self.minimum = value if self.minimum is None else min(self.minimum, value)
        elif self.function is AggregateFunction.MAX:
            self.maximum = value if self.maximum is None else max(self.maximum, value)
        elif self.function is AggregateFunction.COUNT_DISTINCT:
            self.distinct.add(value)

    def result(self):
        if self.function is AggregateFunction.SUM:
            return self.total
        if self.function is AggregateFunction.COUNT:
            return self.count
        if self.function is AggregateFunction.AVG:
            return self.total / self.count if self.count else 0.0
        if self.function is AggregateFunction.MIN:
            return self.minimum
        if self.function is AggregateFunction.MAX:
            return self.maximum
        if self.function is AggregateFunction.COUNT_DISTINCT:
            return len(self.distinct)
        raise ExecutionError(f"unknown aggregate function {self.function}")

    def nbytes(self) -> int:
        base = 64
        if self.distinct is not None:
            base += 32 * len(self.distinct)
        return base


class NaiveGroupedAggregation:
    """The original per-row, per-group-object aggregation state."""

    def __init__(self, group_keys: Sequence[str], aggregates: Sequence[AggregateSpec]):
        if not aggregates:
            raise SchemaError("aggregation requires at least one aggregate")
        self.group_keys = list(group_keys)
        self.aggregates = list(aggregates)
        self._groups: Dict[tuple, List[_Accumulator]] = {}
        self._key_dtypes = None
        self._result_dtypes = None

    def __len__(self) -> int:
        return len(self._groups)

    @property
    def state_nbytes(self) -> int:
        total = 0
        for key, accumulators in self._groups.items():
            total += 64 + sum(len(str(part)) for part in key)
            total += sum(acc.nbytes() for acc in accumulators)
        return total

    def update(self, batch: Batch) -> None:
        if batch.num_rows == 0:
            return
        if self._key_dtypes is None:
            self._key_dtypes = [batch.schema.dtype(k) for k in self.group_keys]
            self._result_dtypes = result_dtypes(self.aggregates, batch.schema)

        if self.group_keys:
            key_columns = [batch.column(k).tolist() for k in self.group_keys]
            keys = list(zip(*key_columns))
        else:
            keys = [()] * batch.num_rows

        value_arrays = []
        for spec in self.aggregates:
            if spec.expression is None:
                value_arrays.append(np.ones(batch.num_rows))
            else:
                value_arrays.append(np.asarray(evaluate(spec.expression, batch)))

        for row, key in enumerate(keys):
            accumulators = self._groups.get(key)
            if accumulators is None:
                accumulators = [_Accumulator(spec.function) for spec in self.aggregates]
                self._groups[key] = accumulators
            for acc, values in zip(accumulators, value_arrays):
                acc.update(values[row])

    def finalize(self, input_schema=None) -> Batch:
        from repro.data.schema import Field, Schema

        if self._key_dtypes is None:
            if input_schema is None:
                raise ExecutionError(
                    "cannot finalise an empty aggregation without the input schema"
                )
            self._key_dtypes = [input_schema.dtype(k) for k in self.group_keys]
            self._result_dtypes = result_dtypes(self.aggregates, input_schema)

        keys_sorted = sorted(self._groups.keys(), key=lambda k: tuple(map(str, k)))
        columns: Dict[str, np.ndarray] = {}
        fields = []
        for i, key_name in enumerate(self.group_keys):
            dtype = self._key_dtypes[i]
            values = [key[i] for key in keys_sorted]
            columns[key_name] = np.asarray(values, dtype=dtype.numpy_dtype)
            fields.append(Field(key_name, dtype))
        for j, spec in enumerate(self.aggregates):
            dtype = self._result_dtypes[j]
            values = [self._groups[key][j].result() for key in keys_sorted]
            columns[spec.name] = np.asarray(values, dtype=dtype.numpy_dtype)
            fields.append(Field(spec.name, dtype))
        if not self._groups and not self.group_keys:
            for j, spec in enumerate(self.aggregates):
                dtype = self._result_dtypes[j]
                columns[spec.name] = np.asarray(
                    [0 if spec.function is AggregateFunction.COUNT else 0.0],
                    dtype=dtype.numpy_dtype,
                )
        return Batch(Schema(fields), columns)
