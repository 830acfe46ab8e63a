"""Multi-column key factorization to dense ``int64`` codes.

This is the workhorse behind the vectorized join and group-by kernels: a set
of key columns is mapped to one dense code per row (``0..num_codes-1``), with
equal keys receiving equal codes.  Codes are assigned in lexicographic order
of the (per-column sorted) key values, which is deterministic but otherwise
an implementation detail — callers that need a specific output order sort
explicitly.

Multi-column keys are combined hierarchically: after each column the running
code is re-densified through ``np.unique``, so intermediate products stay
bounded by ``rows * (rows + 1)`` and never overflow ``int64``.

A :class:`KeyEncoder` additionally supports encoding *foreign* rows (the
probe side of a join) against the codes of the rows it was built from: values
never seen on the build side map to the sentinel code ``num_codes``.

Dictionary-encoded string columns are fast-pathed: the object-level work
(sorting, comparisons) touches only the vocabulary, and per-row work is pure
``int64`` gathers.  Integer keys whose build values are dense (a span of at
most :data:`_DENSE_SPAN_FACTOR` times their distinct count) are encoded by
direct address: one lookup table per key column (and per dense combined
level), built once per encoder, replaces a binary search per probe row.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.data.dictionary import DictionaryArray


def _column_unique_and_codes(column) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted unique values of ``column`` plus each row's rank among them."""
    if isinstance(column, DictionaryArray):
        # Object-level work (sort/compare) touches only the vocabulary
        # entries this piece references; per-row work is int64 gathers.
        if len(column.codes) == 0:
            return np.unique(column.values[:0]), np.empty(0, dtype=np.int64)
        values, codes = column.used_vocabulary()
        unique, vocab_ranks = np.unique(values, return_inverse=True)
        return unique, vocab_ranks.astype(np.int64, copy=False).reshape(-1)[codes]
    column = np.asarray(column)
    unique, inverse = np.unique(column, return_inverse=True)
    return unique, inverse.astype(np.int64, copy=False).reshape(-1)


def gather_pylist(column, rows: np.ndarray) -> list:
    """Python scalars of ``column`` at ``rows`` without materialising it all.

    Used to build per-group representative key tuples: Python-object work
    proportional to the number of groups, not rows.
    """
    if isinstance(column, DictionaryArray):
        if len(rows) == 0:
            return []
        return column.values[column.codes[rows]].tolist()
    return np.asarray(column)[rows].tolist()


def _rank_against(unique: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Rank ``values`` in ``unique``; rows not present get sentinel ``len(unique)``."""
    sentinel = len(unique)
    if len(values) == 0:
        return np.empty(0, dtype=np.int64)
    if sentinel == 0:
        return np.full(len(values), 0, dtype=np.int64)
    try:
        pos = np.searchsorted(unique, values).astype(np.int64)
        clipped = np.minimum(pos, sentinel - 1)
        found = (pos < sentinel) & (unique[clipped] == values)
    except TypeError:
        # Incomparable dtypes (e.g. probing a string-keyed build side with
        # integers): such keys can never be equal, so every row misses —
        # the behaviour of the original tuple-dict lookup.
        return np.full(len(values), sentinel, dtype=np.int64)
    return np.where(found, clipped, sentinel)


#: A sorted integer vocabulary spanning at most this many times as many
#: values as it holds is ranked through a lookup table of that span.
_DENSE_SPAN_FACTOR = 4


class _Ranker:
    """Ranks foreign values against one sorted vocabulary ``unique``.

    Exactly :func:`_rank_against`; an ``int64`` vocabulary that is dense
    also gets a lookup table ``table[v - low] = rank`` (with one trailing
    sentinel slot), so ranking ``int64`` values is a subtraction, a clamp
    and a gather instead of a binary search.
    """

    __slots__ = ("unique", "low", "table")

    def __init__(self, unique: np.ndarray):
        self.unique = unique
        self.low: Optional[np.int64] = None
        self.table: Optional[np.ndarray] = None
        size = len(unique)
        if size == 0 or unique.dtype != np.int64:
            return
        span = int(unique[-1]) - int(unique[0]) + 1
        if span > _DENSE_SPAN_FACTOR * size:
            return
        self.low = unique[0]
        self.table = np.full(span + 1, size, dtype=np.int64)
        self.table[unique - self.low] = np.arange(size, dtype=np.int64)

    def rank(self, values: np.ndarray) -> np.ndarray:
        """Rank of each of ``values``; absent values get ``len(unique)``."""
        if self.table is None or values.dtype != np.int64:
            return _rank_against(self.unique, values)
        # Two's-complement wrap-around: ``v - low`` read as unsigned is below
        # the span exactly when ``low <= v < low + span``; every other value
        # clamps to the sentinel slot.
        offsets = (values - self.low).view(np.uint64)
        return self.table[np.minimum(offsets, np.uint64(len(self.table) - 1))]

    def rank_column(self, column) -> np.ndarray:
        """:meth:`rank` for a key column, fast-pathing dictionary columns."""
        if isinstance(column, DictionaryArray):
            if len(column.codes) == 0:
                return np.empty(0, dtype=np.int64)
            values, codes = column.used_vocabulary()
            return _rank_against(self.unique, values)[codes]
        return self.rank(np.asarray(column))


class KeyEncoder:
    """Dense codes for the key columns of one (build) row set.

    ``self.codes`` holds the build rows' codes; :meth:`encode` maps foreign
    rows with the same key schema onto those codes, assigning the sentinel
    ``self.num_codes`` to rows whose key never occurs on the build side.
    """

    def __init__(self, columns: Sequence):
        if not columns:
            raise ValueError("at least one key column is required")
        self._col_uniques: List[np.ndarray] = []
        self._level_uniques: List[np.ndarray] = []
        codes = None
        for column in columns:
            unique, ranks = _column_unique_and_codes(column)
            self._col_uniques.append(unique)
            if codes is None:
                codes = ranks
                num = len(unique)
            else:
                radix = np.int64(len(unique) + 1)
                combined = codes * radix + ranks
                level = np.unique(combined)
                codes = np.searchsorted(level, combined).astype(np.int64)
                self._level_uniques.append(level)
                num = len(level)
        self.codes: np.ndarray = codes
        self.num_codes: int = num
        # Built on the first ``encode``: encoders that only factorize never
        # pay for the lookup tables.
        self._col_rankers: Optional[List[_Ranker]] = None
        self._level_rankers: Optional[List[_Ranker]] = None

    def encode(self, columns: Sequence) -> np.ndarray:
        """Codes for foreign rows; unseen keys map to ``self.num_codes``."""
        if self._col_rankers is None:
            self._col_rankers = [_Ranker(u) for u in self._col_uniques]
            self._level_rankers = [_Ranker(u) for u in self._level_uniques]
        codes = None
        invalid = None
        for i, column in enumerate(columns):
            unique = self._col_uniques[i]
            ranks = self._col_rankers[i].rank_column(column)
            if codes is None:
                codes = ranks
                invalid = ranks == len(unique)
            else:
                radix = np.int64(len(unique) + 1)
                combined = codes * radix + ranks
                level = self._level_uniques[i - 1]
                pos = self._level_rankers[i - 1].rank(combined)
                invalid |= ranks == len(unique)
                codes = pos
                invalid |= pos == len(level)
        if codes is None:
            raise ValueError("at least one key column is required")
        return np.where(invalid, np.int64(self.num_codes), codes)


def factorize_key(columns: Sequence) -> Tuple[np.ndarray, int, np.ndarray]:
    """Factorize key columns into ``(codes, num_groups, first_indices)``.

    ``codes[r]`` is the dense group code of row ``r``; ``first_indices[g]``
    is the first row at which group ``g`` occurs (useful for materialising
    one representative key per group without touching every row).
    """
    encoder = KeyEncoder(columns)
    codes = encoder.codes
    num_groups = encoder.num_codes
    n = len(codes)
    first = np.full(num_groups, n, dtype=np.int64)
    np.minimum.at(first, codes, np.arange(n, dtype=np.int64))
    return codes, num_groups, first


def group_sort(codes: np.ndarray, num_groups: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable sort of row indices by group code.

    Returns ``(order, starts, counts)``: ``order[starts[g]:starts[g]+counts[g]]``
    are the rows of group ``g`` in their original relative order.
    """
    order = np.argsort(codes, kind="stable")
    counts = np.bincount(codes, minlength=num_groups)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1])) if num_groups else np.empty(0, dtype=np.int64)
    return order, starts.astype(np.int64, copy=False), counts.astype(np.int64, copy=False)
