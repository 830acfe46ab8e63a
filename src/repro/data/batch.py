"""The :class:`Batch` columnar container.

A Batch is an immutable-by-convention set of equally sized NumPy arrays, one
per column of its :class:`~repro.data.schema.Schema`.  It is the paper's
"data partition": the unit pushed between tasks, backed up to local disk, and
(under the spooling strategy) persisted to durable storage.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.common.errors import SchemaError
from repro.data.dictionary import DictionaryArray, concat_dictionary
from repro.data.schema import DataType, Field, Schema

#: A column as stored inside a batch: a plain NumPy array, or a
#: dictionary-encoded string column.
ColumnData = Union[np.ndarray, DictionaryArray]


class Batch:
    """A set of named, equally sized columns.

    String columns may be stored either as plain object arrays or as
    :class:`~repro.data.dictionary.DictionaryArray` (codes + vocabulary).
    :meth:`column` always returns a plain array (materialising lazily);
    :meth:`column_data` exposes the raw storage for kernels that fast-path
    dictionary codes.
    """

    def __init__(self, schema: Schema, columns: Mapping[str, ColumnData]):
        if set(columns.keys()) != set(schema.names):
            raise SchemaError(
                f"columns {sorted(columns)} do not match schema {schema.names}"
            )
        arrays: Dict[str, ColumnData] = {}
        length: Optional[int] = None
        for field in schema:
            array = columns[field.name]
            if isinstance(array, DictionaryArray):
                if field.dtype is not DataType.STRING:
                    raise SchemaError(
                        f"column {field.name!r}: dictionary encoding requires a "
                        f"STRING field, got {field.dtype.value}"
                    )
            else:
                array = np.asarray(array)
                expected = field.dtype.numpy_dtype
                if array.dtype != expected:
                    array = array.astype(expected)
            if length is None:
                length = len(array)
            elif len(array) != length:
                raise SchemaError(
                    f"column {field.name!r} has {len(array)} rows, expected {length}"
                )
            arrays[field.name] = array
        self._schema = schema
        self._columns = arrays
        self._num_rows = length if length is not None else 0
        self._nbytes: Optional[int] = None

    def __reduce__(self):
        """Lean pickling: ship the raw column storage plus the cached ``nbytes``.

        Reconstruction goes through :meth:`_from_parts`, skipping the
        constructor's per-column validation and dtype coercion (the columns
        were validated when this batch was built) and preserving the cached
        byte count instead of recomputing it — for string columns that
        recomputation walks every value.  Dictionary-encoded columns compact
        themselves via :meth:`DictionaryArray.__reduce__`.
        """
        return (
            Batch._from_parts,
            (self._schema, self._columns, self._num_rows, self._nbytes),
        )

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _from_parts(
        cls,
        schema: Schema,
        columns: Dict[str, ColumnData],
        num_rows: int,
        nbytes: Optional[int] = None,
    ) -> "Batch":
        """Rebuild a batch from already-validated parts (serde fast path).

        Used by pickling and by the shared-memory reader in
        :mod:`repro.parallel.shm`; callers guarantee the columns match the
        schema and are equally sized.
        """
        batch = cls.__new__(cls)
        batch._schema = schema
        batch._columns = columns
        batch._num_rows = num_rows
        batch._nbytes = nbytes
        return batch

    @classmethod
    def from_pydict(cls, data: Mapping[str, Sequence], schema: Optional[Schema] = None) -> "Batch":
        """Build a batch from a mapping of column name to Python sequence."""
        columns = {name: np.asarray(list(values)) for name, values in data.items()}
        if schema is None:
            schema = Schema(
                Field(name, DataType.from_numpy(array.dtype))
                for name, array in columns.items()
            )
        return cls(schema, columns)

    @classmethod
    def empty(cls, schema: Schema) -> "Batch":
        """Build a zero-row batch with the given schema."""
        columns = {
            field.name: np.empty(0, dtype=field.dtype.numpy_dtype) for field in schema
        }
        return cls(schema, columns)

    # -- basic accessors -------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The batch's schema."""
        return self._schema

    @property
    def num_rows(self) -> int:
        """Number of rows."""
        return self._num_rows

    @property
    def num_columns(self) -> int:
        """Number of columns."""
        return len(self._schema)

    def __len__(self) -> int:
        return self._num_rows

    def __repr__(self) -> str:
        return f"Batch({self._num_rows} rows, {self._schema!r})"

    def column(self, name: str) -> np.ndarray:
        """Return the column array named ``name`` (materialised if encoded)."""
        self._schema.field(name)
        array = self._columns[name]
        if isinstance(array, DictionaryArray):
            return array.materialize()
        return array

    def column_data(self, name: str) -> ColumnData:
        """Return the raw storage of column ``name``.

        Unlike :meth:`column` this may be a
        :class:`~repro.data.dictionary.DictionaryArray`; hash/factorization
        kernels use it to work on codes instead of string objects.
        """
        self._schema.field(name)
        return self._columns[name]

    def columns(self) -> Dict[str, ColumnData]:
        """Return a shallow copy of the (raw) column mapping."""
        return dict(self._columns)

    def dictionary_encode(self, names: Optional[Sequence[str]] = None) -> "Batch":
        """Return a batch with the given STRING columns dictionary-encoded.

        ``names`` defaults to every STRING column.  Already-encoded columns
        are left as they are.
        """
        if names is None:
            names = [f.name for f in self._schema if f.dtype is DataType.STRING]
        columns = dict(self._columns)
        for name in names:
            if self._schema.dtype(name) is not DataType.STRING:
                raise SchemaError(f"cannot dictionary-encode non-string column {name!r}")
            if not isinstance(columns[name], DictionaryArray):
                columns[name] = DictionaryArray.encode(columns[name])
        return Batch(self._schema, columns)

    @property
    def nbytes(self) -> int:
        """Approximate in-memory footprint in bytes (cached after first call).

        Object (string) columns are costed at the total encoded string length
        plus pointer overhead, which is what matters for shuffle sizing.
        Dictionary-encoded columns report the same logical footprint as their
        materialised form, so encoding never changes simulated costs.
        """
        if self._nbytes is None:
            total = 0
            for field in self._schema:
                array = self._columns[field.name]
                if isinstance(array, DictionaryArray):
                    total += array.nbytes
                elif field.dtype is DataType.STRING:
                    total += sum(len(str(v)) for v in array) + 8 * len(array)
                else:
                    total += array.nbytes
            self._nbytes = total
        return self._nbytes

    # -- row-wise manipulation -------------------------------------------------

    def take(self, indices: np.ndarray) -> "Batch":
        """Return a batch containing the rows at ``indices`` (in that order)."""
        indices = np.asarray(indices)
        columns = {name: array.take(indices) if isinstance(array, DictionaryArray)
                   else array[indices]
                   for name, array in self._columns.items()}
        return Batch(self._schema, columns)

    def filter(self, mask: np.ndarray) -> "Batch":
        """Return a batch with only the rows where ``mask`` is True."""
        mask = np.asarray(mask, dtype=bool)
        if len(mask) != self._num_rows:
            raise SchemaError(
                f"mask length {len(mask)} does not match row count {self._num_rows}"
            )
        indices = np.nonzero(mask)[0]
        columns = {name: array.take(indices) if isinstance(array, DictionaryArray)
                   else array[mask]
                   for name, array in self._columns.items()}
        return Batch(self._schema, columns)

    def slice(self, start: int, length: int) -> "Batch":
        """Return rows ``[start, start+length)``."""
        stop = start + length
        columns = {name: array.slice(start, stop) if isinstance(array, DictionaryArray)
                   else array[start:stop]
                   for name, array in self._columns.items()}
        return Batch(self._schema, columns)

    def split(self, max_rows: int) -> List["Batch"]:
        """Split into consecutive chunks of at most ``max_rows`` rows."""
        if max_rows < 1:
            raise SchemaError("max_rows must be at least 1")
        if self._num_rows == 0:
            return [self]
        return [
            self.slice(start, min(max_rows, self._num_rows - start))
            for start in range(0, self._num_rows, max_rows)
        ]

    # -- column-wise manipulation ----------------------------------------------

    def select(self, names: Sequence[str]) -> "Batch":
        """Return a batch with only ``names``, in the given order."""
        schema = self._schema.select(names)
        columns = {name: self._columns[name] for name in names}
        return Batch(schema, columns)

    def rename(self, mapping: Mapping[str, str]) -> "Batch":
        """Return a batch with columns renamed according to ``mapping``."""
        schema = self._schema.rename(dict(mapping))
        columns = {
            mapping.get(name, name): array for name, array in self._columns.items()
        }
        return Batch(schema, columns)

    def with_column(self, name: str, dtype: DataType, values: np.ndarray) -> "Batch":
        """Return a batch with column ``name`` added or replaced."""
        values = np.asarray(values)
        if len(values) != self._num_rows:
            raise SchemaError(
                f"new column {name!r} has {len(values)} rows, expected {self._num_rows}"
            )
        if name in self._schema:
            fields = [
                Field(name, dtype) if field.name == name else field
                for field in self._schema
            ]
        else:
            fields = list(self._schema.fields) + [Field(name, dtype)]
        columns = dict(self._columns)
        columns[name] = values
        return Batch(Schema(fields), columns)

    def drop(self, names: Sequence[str]) -> "Batch":
        """Return a batch without the given columns."""
        schema = self._schema.drop(names)
        columns = {name: self._columns[name] for name in schema.names}
        return Batch(schema, columns)

    # -- conversion / comparison -----------------------------------------------

    def to_pydict(self) -> Dict[str, list]:
        """Return the batch as a mapping of column name to Python list."""
        return {name: self.column(name).tolist() for name in self._schema.names}

    def to_rows(self) -> List[tuple]:
        """Return the batch as a list of row tuples (column order)."""
        arrays = [self.column(name) for name in self._schema.names]
        return list(zip(*[a.tolist() for a in arrays])) if arrays else []

    def sort_by(self, keys: Sequence[str], descending: Optional[Sequence[bool]] = None) -> "Batch":
        """Return a batch sorted by ``keys`` (stable, last key least significant)."""
        if not keys:
            return self
        if descending is None:
            descending = [False] * len(keys)
        if len(descending) != len(keys):
            raise SchemaError("descending flags must match number of sort keys")
        order = np.arange(self._num_rows)
        # numpy lexsort-style: apply stable argsort from the least significant
        # key to the most significant.
        for key, desc in reversed(list(zip(keys, descending))):
            column = self.column(key)[order]
            ranks = np.argsort(column, kind="stable")
            if desc:
                ranks = ranks[::-1]
            order = order[ranks]
        return self.take(order)

    def equals(self, other: "Batch", sort_keys: Optional[Sequence[str]] = None,
               float_tolerance: float = 1e-6) -> bool:
        """Structural equality, optionally after sorting both sides by ``sort_keys``."""
        if self._schema.names != other.schema.names:
            return False
        if self._num_rows != other.num_rows:
            return False
        left, right = self, other
        if sort_keys:
            left = left.sort_by(sort_keys)
            right = right.sort_by(sort_keys)
        for field in self._schema:
            a = left.column(field.name)
            b = right.column(field.name)
            if field.dtype is DataType.FLOAT64:
                if not np.allclose(a, b, rtol=float_tolerance, atol=float_tolerance):
                    return False
            else:
                if not np.array_equal(a, b):
                    return False
        return True


def concat_batches(batches: Iterable[Batch], schema: Optional[Schema] = None) -> Batch:
    """Concatenate batches with identical schemas into one batch.

    ``schema`` must be provided when ``batches`` may be empty.  When given, it
    also becomes the result schema (columns are coerced to its dtypes) instead
    of being silently ignored in favour of the first batch's schema.
    """
    batch_list = [b for b in batches if b is not None]
    if not batch_list:
        if schema is None:
            raise SchemaError("cannot concatenate zero batches without a schema")
        return Batch.empty(schema)
    if schema is None:
        schema = batch_list[0].schema
    for batch in batch_list:
        if batch.schema.names != schema.names:
            raise SchemaError(
                f"schema mismatch in concat: {batch.schema.names} vs {schema.names}"
            )
    if len(batch_list) == 1:
        only = batch_list[0]
        return only if only.schema == schema else Batch(schema, only.columns())
    columns = {
        name: concat_columns([b.column_data(name) for b in batch_list])
        for name in schema.names
    }
    return Batch(schema, columns)


def concat_columns(parts: Sequence[ColumnData]) -> ColumnData:
    """One column out of ``parts``: dictionary codes when every part shares
    one vocabulary, plain values otherwise."""
    if all(isinstance(p, DictionaryArray) for p in parts):
        merged = concat_dictionary(parts)
        if merged is not None:
            return merged
    return np.concatenate(
        [p.materialize() if isinstance(p, DictionaryArray) else p for p in parts]
    )
