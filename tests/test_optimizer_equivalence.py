"""End-to-end optimizer correctness: optimized plans must produce the same answers.

Every TPC-H query (DataFrame formulation) and every SQL formulation is run
through the reference interpreter with and without the optimizer; the answers
must agree.  A property-based test does the same for randomly generated
filter/project/join/aggregate pipelines.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.batch import Batch
from repro.expr.nodes import col, lit
from repro.optimizer import optimize_plan
from repro.plan.catalog import Catalog
from repro.plan.dataframe import DataFrame, count_agg, sum_agg
from repro.plan.interpreter import execute_plan
from repro.plan.nodes import TableScan
from repro.tpch import QUERIES, build_query, generate_catalog
from repro.tpch.sql import build_sql_query, sql_query_numbers


@pytest.fixture(scope="module")
def tpch_catalog():
    return generate_catalog(scale_factor=0.002, seed=5)


def _answers_match(plain, optimized) -> bool:
    plain_data = plain.to_pydict()
    optimized_data = optimized.to_pydict()
    if list(plain_data) != list(optimized_data) or plain.num_rows != optimized.num_rows:
        return False
    for name in plain_data:
        a, b = plain_data[name], optimized_data[name]
        if a and isinstance(a[0], float):
            if not np.allclose(a, b, rtol=1e-9, equal_nan=True):
                return False
        elif list(a) != list(b):
            return False
    return True


def _sorted_answers_match(plain, optimized, keys) -> bool:
    return plain.sort_by(keys).equals(optimized.sort_by(keys))


@pytest.mark.parametrize("query_number", sorted(QUERIES))
def test_tpch_dataframe_queries_unchanged_by_optimizer(tpch_catalog, query_number):
    frame = build_query(tpch_catalog, query_number)
    plain = execute_plan(frame.plan)
    optimized = execute_plan(optimize_plan(frame.plan))
    # Queries ending in a Sort have a deterministic row order; others may be
    # reordered by the build-side swap, so compare after sorting on the first
    # output column.
    if _answers_match(plain, optimized):
        return
    keys = [plain.schema.names[0]]
    assert _sorted_answers_match(plain, optimized, keys), f"Q{query_number} changed"


@pytest.mark.parametrize("query_number", sql_query_numbers())
def test_tpch_sql_queries_unchanged_by_optimizer(tpch_catalog, query_number):
    frame = build_sql_query(tpch_catalog, query_number)
    plain = execute_plan(frame.plan)
    optimized = execute_plan(optimize_plan(frame.plan))
    if _answers_match(plain, optimized):
        return
    keys = [plain.schema.names[0]]
    assert _sorted_answers_match(plain, optimized, keys), f"SQL Q{query_number} changed"


def test_optimized_plan_runs_on_distributed_engine(tpch_catalog):
    from repro.api import QuokkaContext

    ctx = QuokkaContext(num_workers=2, catalog=tpch_catalog)
    frame = build_query(tpch_catalog, 3).bind(ctx)
    plain = frame.collect(optimize=False)
    optimized = frame.collect(optimize=True)
    assert plain.equals(optimized)


# -- property-based equivalence ---------------------------------------------------------


def _random_catalog(rows):
    catalog = Catalog()
    catalog.register(
        "t_facts",
        Batch.from_pydict(
            {
                "key": list(range(rows)),
                "dim": [i % 7 for i in range(rows)],
                "value": [float((i * 31) % 101) for i in range(rows)],
                "flag": [i % 3 for i in range(rows)],
            }
        ),
        num_splits=2,
    )
    catalog.register(
        "t_dims",
        Batch.from_pydict(
            {
                "dkey": list(range(7)),
                "dname": [f"d{i}" for i in range(7)],
                "weight": [float(i) for i in range(7)],
            }
        ),
        num_splits=1,
    )
    return catalog


@st.composite
def pipelines(draw):
    """A random (catalog, DataFrame) pipeline over two small tables."""
    rows = draw(st.integers(min_value=20, max_value=120))
    catalog = _random_catalog(rows)
    frame = DataFrame(TableScan(catalog.table("t_facts")))

    threshold = draw(st.integers(min_value=0, max_value=100))
    if draw(st.booleans()):
        frame = frame.filter(col("value") > lit(float(threshold)))
    if draw(st.booleans()):
        frame = frame.select("key", "dim", "value")
    if draw(st.booleans()):
        dims = DataFrame(TableScan(catalog.table("t_dims")))
        if draw(st.booleans()):
            dims = dims.filter(col("dkey") < lit(draw(st.integers(min_value=1, max_value=7))))
        frame = frame.join(dims, left_on="dim", right_on="dkey")
        if draw(st.booleans()):
            frame = frame.filter(col("weight") >= lit(0.0))
    if draw(st.booleans()):
        frame = frame.groupby("dim").agg(
            sum_agg("total", col("value")), count_agg("n")
        )
        frame = frame.sort("dim")
    else:
        frame = frame.sort("key")
    return frame


@given(pipelines())
@settings(max_examples=30, deadline=None)
def test_random_pipelines_unchanged_by_optimizer(frame):
    plain = execute_plan(frame.plan)
    optimized_plan = optimize_plan(frame.plan)
    optimized = execute_plan(optimized_plan)
    assert plain.schema.names == optimized.schema.names
    assert plain.equals(optimized)
