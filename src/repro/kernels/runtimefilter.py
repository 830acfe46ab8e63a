"""Runtime semi-join filter values: accumulate build keys, test probe rows.

When a hash join's build side completes, the engine derives a compact summary
of each build key column and pushes it *sideways* to the stages feeding the
probe side (sideways information passing).  Probe rows whose key cannot match
any build row are dropped before they are partitioned and shuffled — the join
would discard them anyway, so results are unchanged while the probe-side
network traffic shrinks by the join's selectivity.

Two finalized representations:

* **exact** — the sorted distinct build-key values (capped at
  :data:`EXACT_VALUE_LIMIT`).  Membership is precise: the filter drops exactly
  the rows the join would drop on that column.
* **bloom** — a fixed-size Bloom filter over the 64-bit key hashes of
  :func:`repro.data.partition.hash_column` (the FNV-1a / splitmix kernels that
  already define shuffle placement), plus a min/max range for numeric keys.
  One-sided error: false positives ride through to the join, false negatives
  are impossible.

**Order independence.**  Filters are built incrementally from build-side task
outputs that may commit in any order (chaos, retrace, speculation,
parallel workers).  Every ingredient is a commutative, idempotent reduction
over the build *value set*: the distinct-set union, the Bloom bit OR, min/max,
and the NaN flag.  The exact-vs-bloom decision is order-independent too: the
running distinct union grows monotonically toward the same final set in every
order, so it crosses the cap in some prefix iff the final distinct count
exceeds the cap.  A finalized filter is therefore a pure function of the build
value set — byte-identical across backends and across any failure schedule.

Float NaN keys get explicit treatment: the factorizing join kernels group NaN
keys together (``np.unique`` collapses NaNs), so a build-side NaN matches
probe-side NaNs.  Builders record ``has_nan`` and masks keep NaN probe rows
whenever the build side contained one.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.data.dictionary import DictionaryArray
from repro.data.partition import hash_column
from repro.data.schema import DataType

__all__ = [
    "BLOOM_BITS",
    "BLOOM_PROBES",
    "EXACT_VALUE_LIMIT",
    "RuntimeFilter",
    "RuntimeFilterBuilder",
]

#: Distinct-value cap above which an exact filter degrades to a Bloom filter.
#: 4096 int64 values (32 KiB) is the crossover where shipping the exact set
#: stops being competitive with the fixed 16 KiB Bloom bitmap; dictionary
#: vocabularies (the case exactness matters most for) stay far below it.
EXACT_VALUE_LIMIT = 4_096

#: Bloom filter size in bits (power of two; 16 KiB of bit state).
BLOOM_BITS = 1 << 17

#: Probes per value (Kirsch-Mitzenmacher double hashing of the 64-bit hash).
BLOOM_PROBES = 2

_NUMERIC_DTYPES = (DataType.INT64, DataType.FLOAT64, DataType.DATE, DataType.BOOL)


def _distinct_values(column_data, dtype: DataType) -> np.ndarray:
    """Sorted distinct values of one column piece (NaNs stripped by callers)."""
    if isinstance(column_data, DictionaryArray):
        values, _codes = column_data.used_vocabulary()
        return np.unique(values)
    array = np.asarray(column_data)
    if dtype is DataType.STRING:
        array = array.astype(object, copy=False)
    return np.unique(array)


def _bloom_probe_hashes(values: np.ndarray, dtype: DataType):
    """The double-hash pair ``(h1, h2)`` for every value, from ``hash_column``."""
    hashes = hash_column(values, dtype)
    h1 = hashes
    h2 = (hashes >> np.uint64(33)) | np.uint64(1)
    return h1, h2


def _bloom_or(bits: np.ndarray, values: np.ndarray, dtype: DataType, num_bits: int):
    """OR the bit pattern of every value into ``bits`` (in place)."""
    if len(values) == 0:
        return
    m = np.uint64(num_bits)
    h1, h2 = _bloom_probe_hashes(values, dtype)
    for probe in range(BLOOM_PROBES):
        pos = (h1 + np.uint64(probe) * h2) % m
        np.bitwise_or.at(
            bits,
            (pos >> np.uint64(6)).astype(np.int64),
            np.uint64(1) << (pos & np.uint64(63)),
        )


def _bloom_test(
    bits: np.ndarray, values: np.ndarray, dtype: DataType, num_bits: int
) -> np.ndarray:
    """Membership mask of ``values`` against the Bloom bit array."""
    if len(values) == 0:
        return np.zeros(0, dtype=bool)
    m = np.uint64(num_bits)
    h1, h2 = _bloom_probe_hashes(values, dtype)
    mask = np.ones(len(values), dtype=bool)
    for probe in range(BLOOM_PROBES):
        pos = (h1 + np.uint64(probe) * h2) % m
        word = bits[(pos >> np.uint64(6)).astype(np.int64)]
        mask &= ((word >> (pos & np.uint64(63))) & np.uint64(1)).astype(bool)
    return mask


class RuntimeFilter:
    """A finalized, immutable, picklable filter over one join-key column."""

    __slots__ = (
        "dtype",
        "kind",
        "values",
        "bits",
        "num_bits",
        "min_value",
        "max_value",
        "has_nan",
        "build_rows",
    )

    def __init__(
        self,
        dtype: DataType,
        kind: str,
        values: Optional[np.ndarray],
        bits: Optional[np.ndarray],
        num_bits: int,
        min_value,
        max_value,
        has_nan: bool,
        build_rows: int,
    ):
        self.dtype = dtype
        self.kind = kind  # "exact" | "bloom"
        self.values = values
        self.bits = bits
        self.num_bits = num_bits
        self.min_value = min_value
        self.max_value = max_value
        self.has_nan = has_nan
        self.build_rows = build_rows

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)

    # -- probing ----------------------------------------------------------------

    def mask(self, column_data) -> np.ndarray:
        """Boolean keep-mask for one probe column piece.

        Dictionary-encoded pieces are tested once per vocabulary entry and
        gathered by code, so object-level work is proportional to the distinct
        values the piece references, not its row count.
        """
        if isinstance(column_data, DictionaryArray):
            values, codes = column_data.used_vocabulary()
            if len(codes) == 0:
                return np.zeros(0, dtype=bool)
            return self._mask_plain(values)[codes]
        return self._mask_plain(np.asarray(column_data))

    def _mask_plain(self, array: np.ndarray) -> np.ndarray:
        n = len(array)
        if n == 0:
            return np.zeros(0, dtype=bool)
        if self.kind == "exact":
            if len(self.values) == 0:
                mask = np.zeros(n, dtype=bool)
            else:
                mask = np.isin(array, self.values)
        else:
            mask = _bloom_test(self.bits, array, self.dtype, self.num_bits)
            if self.min_value is not None:
                # NaNs fail both comparisons and are re-admitted below.
                mask &= (array >= self.min_value) & (array <= self.max_value)
        if self.has_nan and self.dtype is DataType.FLOAT64:
            mask |= np.isnan(array.astype(np.float64, copy=False))
        return mask

    def may_contain_range(self, low, high, zone_has_nan: bool = False) -> bool:
        """Could any probe value in ``[low, high]`` (or a NaN, when the zone
        holds one) pass this filter?  ``False`` lets a scan skip the split."""
        if zone_has_nan and self.has_nan:
            return True
        if low is None or high is None:
            # The zone held only NaNs and the filter keeps none of them.
            return not zone_has_nan or self.build_rows == 0
        if self.kind == "exact":
            if len(self.values) == 0:
                return False
            if self.dtype in _NUMERIC_DTYPES:
                index = int(np.searchsorted(self.values, low, side="left"))
                return index < len(self.values) and self.values[index] <= high
            return True
        if self.min_value is None:
            return True
        return not (high < self.min_value or low > self.max_value)

    # -- sizing / display -------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Approximate shipped size (what the network is charged for)."""
        overhead = 64
        if self.kind == "bloom":
            return int(self.bits.nbytes) + overhead
        if self.dtype is DataType.STRING:
            return sum(len(str(v)) for v in self.values) + 8 * len(self.values) + overhead
        return int(self.values.nbytes) + overhead

    def describe(self) -> str:
        if self.kind == "exact":
            return f"exact[{len(self.values)} values]"
        span = ""
        if self.min_value is not None:
            span = f", range=[{self.min_value}, {self.max_value}]"
        return f"bloom[{self.num_bits} bits{span}]"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RuntimeFilter({self.dtype.value}, {self.describe()})"


class RuntimeFilterBuilder:
    """Accumulates build-side key values into a :class:`RuntimeFilter`.

    ``add`` may be called with the same piece more than once (recovery can
    re-commit a retraced build task): every update is idempotent.
    """

    def __init__(self, dtype: DataType):
        self.dtype = dtype
        self._values: Optional[np.ndarray] = None
        self._bits: Optional[np.ndarray] = None
        self._overflowed = False
        self.has_nan = False
        self.min_value = None
        self.max_value = None
        self.build_rows = 0

    def add(self, column_data) -> None:
        """Fold one build-output column piece into the running filter state."""
        if len(column_data) == 0:
            return
        self.build_rows += len(column_data)
        distinct = _distinct_values(column_data, self.dtype)
        if self.dtype is DataType.FLOAT64:
            nan = np.isnan(distinct.astype(np.float64, copy=False))
            if nan.any():
                self.has_nan = True
                distinct = distinct[~nan]
        if len(distinct) == 0:
            return
        if self.dtype in _NUMERIC_DTYPES:
            low, high = distinct[0], distinct[-1]
            if self.min_value is None or low < self.min_value:
                self.min_value = low
            if self.max_value is None or high > self.max_value:
                self.max_value = high
        if not self._overflowed:
            if self._values is None:
                self._values = distinct
            else:
                self._values = np.union1d(self._values, distinct)
            if len(self._values) > EXACT_VALUE_LIMIT:
                # Degrade: seed the Bloom bits from everything seen so far.
                # The final bit array is the OR over every distinct value's
                # fixed pattern, whichever order the pieces arrived in.
                self._overflowed = True
                self._bits = np.zeros(BLOOM_BITS // 64, dtype=np.uint64)
                _bloom_or(self._bits, self._values, self.dtype, BLOOM_BITS)
                self._values = None
        else:
            _bloom_or(self._bits, distinct, self.dtype, BLOOM_BITS)

    def finalize(self) -> RuntimeFilter:
        """The immutable filter for the build values accumulated so far."""
        if self._overflowed:
            return RuntimeFilter(
                self.dtype,
                "bloom",
                None,
                self._bits.copy(),
                BLOOM_BITS,
                self.min_value,
                self.max_value,
                self.has_nan,
                self.build_rows,
            )
        values = (
            self._values
            if self._values is not None
            else _distinct_values(np.empty(0, dtype=object), self.dtype)
            if self.dtype is DataType.STRING
            else np.empty(0, dtype=self.dtype.numpy_dtype)
        )
        return RuntimeFilter(
            self.dtype,
            "exact",
            values,
            None,
            BLOOM_BITS,
            self.min_value,
            self.max_value,
            self.has_nan,
            self.build_rows,
        )
