"""Dictionary-encoded string columns.

A :class:`DictionaryArray` stores a string column as dense ``int64`` codes
into a (sorted, unique) ``values`` vocabulary.  Row-wise operations — take,
filter, slice, concatenation of slices of one source column — move only the
8-byte codes; the Python string objects are touched once at encode time and
once more if a consumer asks for the materialised column.

The representation is transparent: :meth:`Batch.column
<repro.data.batch.Batch.column>` materialises on demand, so kernels that do
not know about dictionaries keep working, while the vectorized hash /
factorization kernels fast-path the codes (object-level work proportional to
the vocabulary, not the row count).

``nbytes`` intentionally reports the *logical* string footprint (total
encoded string length plus pointer overhead, exactly what a plain object
column reports) rather than the physical codes+vocabulary size: the simulated
cost model charges for shuffling strings, and encoding a column must not
change simulated timings or trace digests.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.common.errors import SchemaError


#: :meth:`DictionaryArray.used_vocabulary` counts codes over the whole
#: vocabulary when it holds at most this many entries per row, and sorts the
#: codes otherwise.
_BINCOUNT_SPAN_FACTOR = 16


class DictionaryArray:
    """An ``int64``-coded view of a string column.

    ``values`` is the vocabulary (unique strings, object dtype); ``codes``
    maps every row to its vocabulary entry.  Instances are immutable by
    convention, like the column arrays inside a :class:`Batch`.
    """

    __slots__ = (
        "codes",
        "values",
        "_value_lengths",
        "_nbytes",
        "_materialized",
        "_compact",
    )

    def __init__(self, codes: np.ndarray, values: np.ndarray):
        codes = np.asarray(codes)
        if codes.dtype != np.int64:
            codes = codes.astype(np.int64)
        values = np.asarray(values, dtype=object)
        if len(codes) and len(values) == 0:
            raise SchemaError("dictionary array has codes but an empty vocabulary")
        self.codes = codes
        self.values = values
        self._value_lengths: Optional[np.ndarray] = None
        self._nbytes: Optional[int] = None
        self._materialized: Optional[np.ndarray] = None
        self._compact: Optional[tuple] = None

    def __reduce__(self):
        """Lean pickling: compact to the used vocabulary, drop derived caches.

        Default (slot-based) pickling shipped the *full* source vocabulary of
        every slice plus the ``_materialized`` object array — for a small
        partition piece of a big column that re-encoded the whole vocabulary
        and doubled the payload.  Instead we serialise the cached
        :meth:`used_vocabulary` view (codes remapped to the entries this piece
        references, no re-encoding) together with the cached logical
        ``nbytes``, which compaction does not change.  ``value_lengths`` ride
        along only when no compaction happened (they are keyed to the full
        vocabulary); everything else is re-derived lazily on the other side.
        """
        values, codes = self.used_vocabulary()
        lengths = self._value_lengths if values is self.values else None
        return (_rebuild_dictionary, (codes, values, lengths, self._nbytes))

    @classmethod
    def encode(cls, array: np.ndarray) -> "DictionaryArray":
        """Dictionary-encode an object array of strings."""
        array = np.asarray(array, dtype=object)
        if len(array) == 0:
            return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=object))
        values, codes = np.unique(array, return_inverse=True)
        return cls(codes.astype(np.int64, copy=False), values.astype(object))

    def __len__(self) -> int:
        return len(self.codes)

    def __repr__(self) -> str:
        return f"DictionaryArray({len(self.codes)} rows, {len(self.values)} values)"

    # -- row-wise ops (code-only, no string objects touched) -------------------

    def take(self, indices: np.ndarray) -> "DictionaryArray":
        """Rows at ``indices`` (in that order), sharing this vocabulary."""
        out = DictionaryArray(self.codes[np.asarray(indices)], self.values)
        out._value_lengths = self._value_lengths
        return out

    def slice(self, start: int, stop: int) -> "DictionaryArray":
        """Rows ``[start, stop)``, sharing this vocabulary."""
        out = DictionaryArray(self.codes[start:stop], self.values)
        out._value_lengths = self._value_lengths
        return out

    # -- materialisation -------------------------------------------------------

    def materialize(self) -> np.ndarray:
        """The plain object-dtype column (cached)."""
        if self._materialized is None:
            if len(self.codes) == 0:
                self._materialized = np.empty(0, dtype=object)
            else:
                self._materialized = self.values[self.codes]
        return self._materialized

    def used_vocabulary(self):
        """``(values, codes)`` restricted to vocabulary entries actually used.

        Slices and partition pieces share their source column's full
        vocabulary; hash and factorization kernels call this so object-level
        work stays proportional to the values *referenced by this piece*, not
        the whole source vocabulary.  Cached (codes are immutable).
        """
        if self._compact is None:
            if len(self.codes) == 0:
                self._compact = (np.empty(0, dtype=object), self.codes)
            elif len(self.values) <= _BINCOUNT_SPAN_FACTOR * len(self.codes):
                # One counting pass over the vocabulary; a code's new value
                # is the number of used entries below it.
                present = np.bincount(self.codes, minlength=len(self.values)) > 0
                if present.all():
                    self._compact = (self.values, self.codes)
                else:
                    ranks = np.cumsum(present) - 1
                    self._compact = (self.values[present], ranks[self.codes])
            else:
                used = np.unique(self.codes)
                if len(used) == len(self.values):
                    self._compact = (self.values, self.codes)
                else:
                    self._compact = (
                        self.values[used],
                        np.searchsorted(used, self.codes).astype(np.int64),
                    )
        return self._compact

    def value_lengths(self) -> np.ndarray:
        """``len(str(v))`` for every vocabulary entry (cached)."""
        if self._value_lengths is None:
            self._value_lengths = np.fromiter(
                (len(str(v)) for v in self.values),
                dtype=np.int64,
                count=len(self.values),
            )
        return self._value_lengths

    @property
    def nbytes(self) -> int:
        """Logical footprint: total string length + 8 bytes/row, like a plain
        object column (keeps the simulated cost model byte-identical)."""
        if self._nbytes is None:
            if len(self.codes) == 0:
                self._nbytes = 0
            else:
                lengths = self.value_lengths()
                self._nbytes = int(lengths[self.codes].sum()) + 8 * len(self.codes)
        return self._nbytes


def _rebuild_dictionary(codes, values, value_lengths, nbytes) -> DictionaryArray:
    """Reconstruct a pickled :class:`DictionaryArray` (see ``__reduce__``).

    The serialised form is already compact (every vocabulary entry is used),
    so the used-vocabulary cache is the array itself — no ``np.unique`` pass
    on the receiving side.
    """
    out = DictionaryArray(codes, values)
    out._value_lengths = value_lengths
    out._nbytes = nbytes
    out._compact = (values, codes)
    return out


def concat_dictionary(parts) -> Optional[DictionaryArray]:
    """Concatenate dictionary arrays that share one vocabulary object.

    Returns ``None`` when the parts do not share a vocabulary (the caller
    should materialise and concatenate as plain object arrays instead).
    """
    parts = list(parts)
    if not parts:
        return None
    values = parts[0].values
    for part in parts[1:]:
        if part.values is not values:
            return None
    out = DictionaryArray(np.concatenate([p.codes for p in parts]), values)
    out._value_lengths = parts[0]._value_lengths
    return out
