"""Tests for the incremental hash aggregation kernel."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import SchemaError
from repro.data import Batch, DataType
from repro.expr import col
from repro.kernels import AggregateFunction, AggregateSpec, GroupedAggregationState
from repro.kernels.aggregate import aggregate_schema


def sales_batch():
    return Batch.from_pydict(
        {
            "region": ["east", "west", "east", "west", "east"],
            "amount": [10.0, 20.0, 30.0, 40.0, 50.0],
            "qty": [1, 2, 3, 4, 5],
        }
    )


class TestGroupedAggregation:
    def test_sum_count_avg_min_max(self):
        state = GroupedAggregationState(
            ["region"],
            [
                AggregateSpec("total", AggregateFunction.SUM, col("amount")),
                AggregateSpec("n", AggregateFunction.COUNT),
                AggregateSpec("mean", AggregateFunction.AVG, col("amount")),
                AggregateSpec("lo", AggregateFunction.MIN, col("qty")),
                AggregateSpec("hi", AggregateFunction.MAX, col("qty")),
            ],
        )
        state.update(sales_batch())
        result = state.finalize().sort_by(["region"])
        assert result.column("region").tolist() == ["east", "west"]
        assert result.column("total").tolist() == [90.0, 60.0]
        assert result.column("n").tolist() == [3, 2]
        np.testing.assert_allclose(result.column("mean"), [30.0, 30.0])
        assert result.column("lo").tolist() == [1, 2]
        assert result.column("hi").tolist() == [5, 4]

    def test_incremental_updates_equal_single_update(self):
        specs = [AggregateSpec("total", AggregateFunction.SUM, col("amount"))]
        whole = GroupedAggregationState(["region"], specs)
        whole.update(sales_batch())
        chunked = GroupedAggregationState(["region"], specs)
        for chunk in sales_batch().split(2):
            chunked.update(chunk)
        assert whole.finalize().equals(chunked.finalize(), sort_keys=["region"])

    def test_aggregate_expression_input(self):
        state = GroupedAggregationState(
            ["region"],
            [AggregateSpec("weighted", AggregateFunction.SUM, col("amount") * col("qty"))],
        )
        state.update(sales_batch())
        result = state.finalize().sort_by(["region"])
        assert result.column("weighted").tolist() == [10.0 + 90.0 + 250.0, 40.0 + 160.0]

    def test_count_distinct(self):
        state = GroupedAggregationState(
            [],
            [AggregateSpec("regions", AggregateFunction.COUNT_DISTINCT, col("region"))],
        )
        state.update(sales_batch())
        assert state.finalize().column("regions").tolist() == [2]

    def test_state_nbytes_grows_with_groups(self):
        specs = [AggregateSpec("n", AggregateFunction.COUNT)]
        small = GroupedAggregationState(["k"], specs)
        small.update(Batch.from_pydict({"k": [1, 2]}))
        big = GroupedAggregationState(["k"], specs)
        big.update(Batch.from_pydict({"k": list(range(1000))}))
        assert big.state_nbytes > small.state_nbytes
        assert len(big) == 1000


class TestScalarAndEdgeCases:
    def test_scalar_aggregation_no_group_keys(self):
        state = GroupedAggregationState(
            [],
            [
                AggregateSpec("total", AggregateFunction.SUM, col("amount")),
                AggregateSpec("rows", AggregateFunction.COUNT),
            ],
        )
        state.update(sales_batch())
        result = state.finalize()
        assert result.num_rows == 1
        assert result.column("total").tolist() == [150.0]
        assert result.column("rows").tolist() == [5]

    def test_empty_scalar_aggregation_yields_zero_row(self):
        state = GroupedAggregationState(
            [], [AggregateSpec("rows", AggregateFunction.COUNT)]
        )
        result = state.finalize(input_schema=sales_batch().schema)
        assert result.column("rows").tolist() == [0]

    def test_empty_grouped_aggregation_yields_no_rows(self):
        state = GroupedAggregationState(
            ["region"], [AggregateSpec("rows", AggregateFunction.COUNT)]
        )
        result = state.finalize(input_schema=sales_batch().schema)
        assert result.num_rows == 0

    def test_empty_batch_update_is_noop(self):
        state = GroupedAggregationState(
            ["region"], [AggregateSpec("rows", AggregateFunction.COUNT)]
        )
        state.update(sales_batch().slice(0, 0))
        assert len(state) == 0

    def test_requires_at_least_one_aggregate(self):
        with pytest.raises(SchemaError):
            GroupedAggregationState(["region"], [])

    def test_sum_requires_expression(self):
        with pytest.raises(SchemaError):
            AggregateSpec("x", AggregateFunction.SUM, None)

    def test_output_schema_types(self):
        specs = [
            AggregateSpec("total", AggregateFunction.SUM, col("amount")),
            AggregateSpec("n", AggregateFunction.COUNT),
            AggregateSpec("hi", AggregateFunction.MAX, col("qty")),
        ]
        schema = aggregate_schema(["region"], specs, sales_batch().schema)
        state = GroupedAggregationState(["region"], specs)
        state.update(sales_batch())
        assert state.finalize().schema == schema
        assert schema.dtype("region") is DataType.STRING
        assert schema.dtype("total") is DataType.FLOAT64
        assert schema.dtype("n") is DataType.INT64
        assert schema.dtype("hi") is DataType.INT64


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.floats(min_value=-100, max_value=100, allow_nan=False)),
        min_size=1,
        max_size=200,
    )
)
def test_property_grouped_sum_matches_python(rows):
    batch = Batch.from_pydict({"k": [r[0] for r in rows], "v": [r[1] for r in rows]})
    state = GroupedAggregationState(
        ["k"], [AggregateSpec("total", AggregateFunction.SUM, col("v"))]
    )
    state.update(batch)
    result = state.finalize()
    expected = {}
    for k, v in rows:
        expected[k] = expected.get(k, 0.0) + v
    got = dict(zip(result.column("k").tolist(), result.column("total").tolist()))
    assert set(got) == set(expected)
    for k in expected:
        assert got[k] == pytest.approx(expected[k], rel=1e-9, abs=1e-9)
