"""Columnar in-memory data layer.

This is the package's stand-in for Apache Arrow: a :class:`Batch` is a set of
equally-sized NumPy columns described by a :class:`Schema`.  Batches are the
unit of data exchanged between tasks (the paper's "data partitions").
"""

from repro.data.schema import DataType, Field, Schema
from repro.data.batch import Batch, concat_batches
from repro.data.dictionary import DictionaryArray
from repro.data.partition import hash_partition, hash_column, hash_rows
from repro.data.dates import date_to_days, days_to_date, date_literal

__all__ = [
    "DataType",
    "Field",
    "Schema",
    "Batch",
    "concat_batches",
    "DictionaryArray",
    "hash_partition",
    "hash_column",
    "hash_rows",
    "date_to_days",
    "days_to_date",
    "date_literal",
]
