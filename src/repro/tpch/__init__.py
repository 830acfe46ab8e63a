"""TPC-H workload: schemas, deterministic data generator and all 22 queries.

The paper evaluates on TPC-H scale factor 100 stored as Parquet on S3.  We
generate a small, deterministic approximation of the benchmark data (the scale
factor is configurable) and rely on the cost model's ``io_scale_multiplier``
to emulate SF100 data volumes: every byte moved or stored is charged as
``io_scale_multiplier`` bytes of virtual I/O time.
"""

from repro.tpch.adversarial import (
    ADVERSARIAL_PROFILES,
    adversarial_catalog,
    adversarial_tables,
)
from repro.tpch.generator import generate_catalog, TPCHGenerator
from repro.tpch.queries import (
    QUERIES,
    QUERY_CATEGORIES,
    REPRESENTATIVE_QUERIES,
    build_query,
)
from repro.tpch.reference import reference_answer
from repro.tpch.sql import SQL_QUERIES, build_sql_query, sql_query_numbers

__all__ = [
    "ADVERSARIAL_PROFILES",
    "adversarial_catalog",
    "adversarial_tables",
    "generate_catalog",
    "TPCHGenerator",
    "QUERIES",
    "QUERY_CATEGORIES",
    "REPRESENTATIVE_QUERIES",
    "SQL_QUERIES",
    "build_query",
    "build_sql_query",
    "reference_answer",
    "sql_query_numbers",
]
