"""TPC-H SQL formulations must match their DataFrame counterparts exactly.

Each of the 22 SQL queries in :mod:`repro.tpch.sql` is planned, run through
the reference interpreter and compared against the DataFrame formulation of
the same query from :mod:`repro.tpch.queries` — column for column, row for
row.  Every query is also run through the distributed engine to prove SQL
plans execute on the write-ahead-lineage path unchanged.
"""

import numpy as np
import pytest

from repro.chaos import batches_match
from repro.common.config import ClusterConfig
from repro.core.session import Session
from repro.plan.interpreter import execute_plan
from repro.sql import parse, plan_query
from repro.tpch import build_query, generate_catalog
from repro.tpch.sql import SQL_QUERIES, build_sql_query, sql_query_numbers


@pytest.fixture(scope="module")
def catalog():
    return generate_catalog(scale_factor=0.002, seed=7)


@pytest.fixture(scope="module")
def session(catalog):
    with Session(
        cluster_config=ClusterConfig(num_workers=2, cpus_per_worker=2),
        catalog=catalog,
    ) as shared:
        yield shared


def _assert_batches_match(sql_batch, df_batch, query_number):
    """Column-for-column comparison.

    The SQL and DataFrame formulations may emit the same columns in a
    different order (SQL follows the TPC-H SELECT order, the DataFrame API
    puts grouping keys first), so columns are matched by name when the name
    sets agree and positionally otherwise.
    """
    sql_data = sql_batch.to_pydict()
    df_data = df_batch.to_pydict()
    assert sql_batch.num_rows == df_batch.num_rows, f"Q{query_number}: row count differs"
    assert len(sql_data) == len(df_data), f"Q{query_number}: column count differs"
    if set(sql_data) == set(df_data):
        pairs = [(sql_data[name], df_data[name], name) for name in sql_data]
    else:
        pairs = [
            (sql_column, df_column, position)
            for position, (sql_column, df_column) in enumerate(
                zip(sql_data.values(), df_data.values())
            )
        ]
    for sql_column, df_column, label in pairs:
        if sql_column and isinstance(sql_column[0], float):
            assert np.allclose(
                sql_column, df_column, rtol=1e-9
            ), f"Q{query_number} column {label} differs"
        else:
            assert list(sql_column) == list(df_column), f"Q{query_number} column {label} differs"


@pytest.mark.parametrize("query_number", sql_query_numbers())
def test_sql_matches_dataframe_formulation(catalog, query_number):
    sql_frame = build_sql_query(catalog, query_number)
    df_frame = build_query(catalog, query_number)
    sql_result = execute_plan(sql_frame.plan)
    df_result = execute_plan(df_frame.plan)
    _assert_batches_match(sql_result, df_result, query_number)


def test_sql_query_numbers_are_sorted_and_known():
    numbers = sql_query_numbers()
    assert numbers == sorted(numbers)
    assert set(numbers).issubset(set(range(1, 23)))
    assert {1, 3, 6, 9} <= set(numbers)


def test_every_tpch_query_has_sql():
    """The SQL dialect covers the full benchmark — all 22 queries."""
    assert sorted(SQL_QUERIES) == list(range(1, 23))


def test_unknown_sql_query_raises(catalog):
    with pytest.raises(KeyError):
        build_sql_query(catalog, 99)


@pytest.mark.parametrize("query_number", sql_query_numbers())
def test_sql_queries_run_on_distributed_engine(catalog, session, query_number):
    """Every SQL query goes through the WAL engine unchanged."""
    frame = build_sql_query(catalog, query_number)
    reference = execute_plan(frame.plan)
    result = frame.submit(session, query_name=f"sql-q{query_number}").wait().batch
    assert batches_match(result, reference), (
        f"Q{query_number}: distributed SQL result differs from the reference"
    )


def test_all_sql_texts_parse_and_plan_cleanly():
    """Every canonical query text plans without errors of any kind."""
    catalog = generate_catalog(scale_factor=0.001, seed=3)
    for query_number, text in SQL_QUERIES.items():
        statement = parse(text)
        assert statement.from_tables, f"Q{query_number} parsed without FROM tables"
        frame = plan_query(statement, catalog)
        assert frame.plan is not None, f"Q{query_number} produced no plan"
