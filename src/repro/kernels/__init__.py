"""Single-node relational kernels.

These are the package's stand-ins for the DuckDB / Polars kernels Quokka uses
for per-task computation: filter, project, hash join (inner / left / semi /
anti), incremental hash aggregation, sort and top-k.
"""

from repro.kernels.filter import filter_batch
from repro.kernels.project import project_batch
from repro.kernels.join import HashJoin, JoinType
from repro.kernels.aggregate import (
    AggregateFunction,
    AggregateSpec,
    ColumnarGroupTable,
    GroupedAggregationState,
)
from repro.kernels.factorize import KeyEncoder, factorize_key, group_sort
from repro.kernels.outofcore import GraceHashJoin, SpillingAggregation
from repro.kernels.sort import sort_batch, top_k

__all__ = [
    "filter_batch",
    "project_batch",
    "HashJoin",
    "JoinType",
    "AggregateFunction",
    "AggregateSpec",
    "ColumnarGroupTable",
    "GroupedAggregationState",
    "GraceHashJoin",
    "SpillingAggregation",
    "KeyEncoder",
    "factorize_key",
    "group_sort",
    "sort_batch",
    "top_k",
]
