"""Hash partitioning of batches across channels.

Partitioning must be deterministic across runs and across (simulated) workers
so that replayed tasks regenerate byte-identical partitions — this is the
determinism assumption that lineage-based recovery relies on.

The kernels here are fully vectorized: string hashing encodes every value
once into one byte buffer and folds FNV-1a over byte *positions* (one array
op per position instead of one Python op per character), and the partition
split is a single stable ``argsort`` over the assignment vector instead of
``num_partitions`` boolean scans.  Both produce bit-identical results to the
original row-at-a-time implementations (kept in
:mod:`repro.kernels.reference` as the benchmark/property-test oracle).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.data.batch import Batch
from repro.data.dictionary import DictionaryArray
from repro.data.schema import DataType

#: Mixing constant for integer hashing (64-bit splitmix-style multiplier).
_MIX = np.uint64(0x9E3779B97F4A7C15)

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


def _hash_string_array(array: np.ndarray) -> np.ndarray:
    """Vectorized FNV-1a over the UTF-8 encoding of every string.

    Each value is encoded exactly once; the per-character dependency chain of
    FNV is preserved by iterating over byte *positions* (bounded by the
    longest string) while updating all rows still active at that position.
    Matches the scalar FNV-1a loop byte for byte.
    """
    n = len(array)
    out = np.full(n, _FNV_OFFSET, dtype=np.uint64)
    if n == 0:
        return out
    encoded = [str(v).encode("utf-8") for v in array]
    lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=n)
    total = int(lengths.sum())
    if total == 0:
        return out
    buf = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    # Work in length-sorted order: the rows still active at byte position j
    # form a contiguous suffix, so each step is one gather over exactly the
    # active rows.  Total memory stays O(total bytes + rows) — no dense
    # (rows x max_len) padding matrix that one long outlier string could
    # blow up — and total work is O(total bytes).
    order = np.argsort(lengths, kind="stable")
    sorted_lengths = lengths[order]
    sorted_starts = starts[order]
    hashes = out[order]
    for j in range(int(sorted_lengths[-1])):
        first_active = int(np.searchsorted(sorted_lengths, j, side="right"))
        chunk = buf[sorted_starts[first_active:] + j].astype(np.uint64)
        hashes[first_active:] = (hashes[first_active:] ^ chunk) * _FNV_PRIME
    out[order] = hashes
    return out


def hash_column(array, dtype: DataType) -> np.ndarray:
    """Return a deterministic 64-bit hash for every element of ``array``.

    ``array`` may be a plain NumPy array or a
    :class:`~repro.data.dictionary.DictionaryArray`; dictionary-encoded
    columns hash each vocabulary entry once and gather by code.
    """
    if isinstance(array, DictionaryArray):
        if dtype is not DataType.STRING:
            raise TypeError("dictionary arrays only hold STRING columns")
        if len(array.codes) == 0:
            return np.empty(0, dtype=np.uint64)
        values, codes = array.used_vocabulary()
        return _hash_string_array(values)[codes]
    if dtype in (DataType.INT64, DataType.DATE, DataType.BOOL):
        values = array.astype(np.int64).view(np.uint64)
        mixed = values * _MIX
        mixed ^= mixed >> np.uint64(29)
        mixed *= np.uint64(0xBF58476D1CE4E5B9)
        mixed ^= mixed >> np.uint64(32)
        return mixed
    if dtype is DataType.FLOAT64:
        values = np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)
        return hash_column(values.view(np.int64), DataType.INT64)
    if dtype is DataType.STRING:
        return _hash_string_array(array)
    raise TypeError(f"unsupported dtype for hashing: {dtype}")


def hash_rows(batch: Batch, keys: Sequence[str]) -> np.ndarray:
    """Combine per-key hashes into one 64-bit hash per row."""
    if not keys:
        raise ValueError("at least one key column is required")
    combined = np.zeros(batch.num_rows, dtype=np.uint64)
    for key in keys:
        dtype = batch.schema.dtype(key)
        column_hash = hash_column(batch.column_data(key), dtype)
        combined = combined * np.uint64(31) + column_hash
    return combined


def partition_assignment(batch: Batch, keys: Sequence[str], num_partitions: int) -> np.ndarray:
    """Return the partition index (``0..num_partitions-1``) of every row."""
    if num_partitions < 1:
        raise ValueError("num_partitions must be at least 1")
    if num_partitions == 1:
        return np.zeros(batch.num_rows, dtype=np.int64)
    return (hash_rows(batch, keys) % np.uint64(num_partitions)).astype(np.int64)


def hash_partition(batch: Batch, keys: Sequence[str], num_partitions: int) -> List[Batch]:
    """Split ``batch`` into ``num_partitions`` batches by key hash.

    Every output batch keeps the input schema; rows keep their relative order
    within a partition (making the operation deterministic).
    """
    assignment = partition_assignment(batch, keys, num_partitions)
    # One stable argsort instead of ``num_partitions`` full boolean scans.
    order = np.argsort(assignment, kind="stable")
    counts = np.bincount(assignment, minlength=num_partitions)
    bounds = np.cumsum(counts)[:-1]
    return [batch.take(indices) for indices in np.split(order, bounds)]
