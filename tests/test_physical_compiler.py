"""Tests for stage-graph compilation and in-process stage-graph execution."""

import pytest

from repro.common.errors import PlanError
from repro.data import Batch
from repro.expr import col, lit
from repro.physical import compile_plan
from repro.physical.local import execute_stage_graph_locally
from repro.physical.stages import FilterOp, PartialAggregateOp
from repro.plan import Catalog, DataFrame, TableScan, execute_plan
from repro.plan.dataframe import avg_agg, count_agg, count_distinct_agg, sum_agg


@pytest.fixture()
def catalog():
    cat = Catalog()
    cat.register(
        "orders",
        Batch.from_pydict(
            {
                "o_orderkey": list(range(1, 101)),
                "o_custkey": [i % 7 for i in range(1, 101)],
                "o_total": [float(i) for i in range(1, 101)],
            }
        ),
        num_splits=5,
    )
    cat.register(
        "customers",
        Batch.from_pydict(
            {
                "c_custkey": list(range(7)),
                "c_nation": ["US", "FR", "US", "DE", "JP", "FR", "US"],
            }
        ),
        num_splits=2,
    )
    return cat


def frame(catalog, name):
    return DataFrame(TableScan(catalog.table(name)))


class TestCompilerStructure:
    def test_scan_filter_agg_structure(self, catalog):
        df = (
            frame(catalog, "orders")
            .filter(col("o_total") > lit(10.0))
            .groupby("o_custkey")
            .agg(sum_agg("total", col("o_total")))
        )
        graph = compile_plan(df.plan, num_channels=4)
        stages = list(graph)
        # scan + agg + result collect
        assert len(stages) == 3
        scan = graph.input_stages()[0]
        assert scan.table.name == "orders"
        # Filter and partial aggregation are fused into the scan stage.
        assert any(isinstance(op, FilterOp) for op in scan.post_ops)
        assert any(isinstance(op, PartialAggregateOp) for op in scan.post_ops)
        agg_stage = next(s for s in stages if s.name.startswith("agg"))
        assert agg_stage.num_channels == 4
        assert agg_stage.upstreams[0].partition_keys == ["o_custkey"]
        result = graph.stage(graph.result_stage_id)
        assert result.num_channels == 1

    def test_count_distinct_is_not_pushed_down(self, catalog):
        # A distinct count cannot be merged from per-batch partials, so the
        # producing stage ships raw rows and the aggregation stage sees them all.
        df = (
            frame(catalog, "orders")
            .groupby("o_custkey")
            .agg(count_distinct_agg("n", col("o_orderkey")), count_agg("rows"))
        )
        graph = compile_plan(df.plan, num_channels=2)
        scan = graph.input_stages()[0]
        assert not any(isinstance(op, PartialAggregateOp) for op in scan.post_ops)
        result = execute_stage_graph_locally(graph)
        assert result.equals(execute_plan(df.plan), sort_keys=["o_custkey"])

    def test_scalar_aggregation_single_channel(self, catalog):
        df = frame(catalog, "orders").agg(sum_agg("t", col("o_total")))
        graph = compile_plan(df.plan, num_channels=8)
        agg_stage = next(s for s in graph if s.name.startswith("agg"))
        assert agg_stage.num_channels == 1

    def test_join_stage_roles(self, catalog):
        df = frame(catalog, "orders").join(
            frame(catalog, "customers"), left_on="o_custkey", right_on="c_custkey"
        )
        graph = compile_plan(df.plan, num_channels=4)
        join_stage = next(s for s in graph if s.name.startswith("join"))
        roles = {link.role: link for link in join_stage.upstreams}
        assert set(roles) == {"build", "probe"}
        assert roles["build"].partition_keys == ["c_custkey"]
        assert roles["probe"].partition_keys == ["o_custkey"]
        assert join_stage.stateful

    def test_input_channels_capped_by_splits(self, catalog):
        df = frame(catalog, "customers").groupby("c_nation").agg(count_agg("n"))
        graph = compile_plan(df.plan, num_channels=16)
        scan = graph.input_stages()[0]
        assert scan.num_channels == 2  # customers has 2 splits

    def test_sort_limit_becomes_result_collect(self, catalog):
        df = frame(catalog, "orders").sort("o_total", descending=[True]).limit(5)
        graph = compile_plan(df.plan, num_channels=4)
        result = graph.stage(graph.result_stage_id)
        assert result.name.startswith("collect")
        assert result.num_channels == 1

    def test_topological_order_respects_dependencies(self, catalog):
        df = (
            frame(catalog, "orders")
            .join(frame(catalog, "customers"), left_on="o_custkey", right_on="c_custkey")
            .groupby("c_nation")
            .agg(count_agg("n"))
            .sort("c_nation")
        )
        graph = compile_plan(df.plan, num_channels=2)
        order = graph.topological_order()
        positions = {stage_id: i for i, stage_id in enumerate(order)}
        for stage in graph:
            for link in stage.upstreams:
                assert positions[link.upstream_id] < positions[stage.stage_id]
        assert graph.num_pipeline_stages() >= 2

    def test_invalid_channel_count(self, catalog):
        df = frame(catalog, "orders").agg(count_agg("n"))
        with pytest.raises(PlanError):
            compile_plan(df.plan, num_channels=0)

    def test_explain_output(self, catalog):
        df = frame(catalog, "orders").groupby("o_custkey").agg(count_agg("n"))
        graph = compile_plan(df.plan, num_channels=2)
        text = graph.explain()
        assert "scan_orders" in text and "agg_1" in text


class TestLocalExecutionMatchesInterpreter:
    @pytest.mark.parametrize("num_channels", [1, 2, 4])
    def test_filter_aggregate(self, catalog, num_channels):
        df = (
            frame(catalog, "orders")
            .filter(col("o_total") > lit(20.0))
            .groupby("o_custkey")
            .agg(sum_agg("total", col("o_total")), count_agg("n"), avg_agg("m", col("o_total")))
            .sort("o_custkey")
        )
        expected = execute_plan(df.plan)
        graph = compile_plan(df.plan, num_channels=num_channels)
        result = execute_stage_graph_locally(graph, batch_rows=13)
        assert result.equals(expected, sort_keys=["o_custkey"])

    @pytest.mark.parametrize("num_channels", [1, 3])
    def test_join_aggregate(self, catalog, num_channels):
        df = (
            frame(catalog, "orders")
            .join(frame(catalog, "customers"), left_on="o_custkey", right_on="c_custkey")
            .groupby("c_nation")
            .agg(sum_agg("total", col("o_total")), count_agg("orders"))
            .sort("c_nation")
        )
        expected = execute_plan(df.plan)
        graph = compile_plan(df.plan, num_channels=num_channels)
        result = execute_stage_graph_locally(graph, batch_rows=7)
        assert result.equals(expected, sort_keys=["c_nation"])

    def test_semi_join(self, catalog):
        us = frame(catalog, "customers").filter(col("c_nation") == lit("US"))
        df = (
            frame(catalog, "orders")
            .join(us, left_on="o_custkey", right_on="c_custkey", how="semi")
            .agg(count_agg("n"))
        )
        expected = execute_plan(df.plan)
        graph = compile_plan(df.plan, num_channels=3)
        result = execute_stage_graph_locally(graph)
        assert result.equals(expected)

    def test_top_k_query(self, catalog):
        df = (
            frame(catalog, "orders")
            .filter(col("o_total") > lit(3.0))
            .sort("o_total", descending=[True])
            .limit(7)
        )
        expected = execute_plan(df.plan)
        graph = compile_plan(df.plan, num_channels=2)
        result = execute_stage_graph_locally(graph, batch_rows=11)
        assert result.equals(expected)

    def test_projection_after_aggregation(self, catalog):
        df = (
            frame(catalog, "orders")
            .groupby("o_custkey")
            .agg(sum_agg("total", col("o_total")))
            .select("o_custkey", ("total_k", col("total") / lit(1000.0)))
        )
        expected = execute_plan(df.plan)
        graph = compile_plan(df.plan, num_channels=2)
        result = execute_stage_graph_locally(graph)
        assert result.equals(expected, sort_keys=["o_custkey"])

    def test_multi_join_pipeline(self, catalog):
        nations = DataFrame(TableScan(catalog.table("customers"))).select(
            "c_custkey", ("nation", col("c_nation"))
        )
        df = (
            frame(catalog, "orders")
            .join(frame(catalog, "customers"), left_on="o_custkey", right_on="c_custkey")
            .join(nations, left_on="o_custkey", right_on="c_custkey", suffix="_n")
            .groupby("nation")
            .agg(count_agg("n"))
            .sort("nation")
        )
        expected = execute_plan(df.plan)
        graph = compile_plan(df.plan, num_channels=4)
        result = execute_stage_graph_locally(graph, batch_rows=9)
        assert result.equals(expected, sort_keys=["nation"])
