"""Tests for the QuokkaContext public API."""

import pytest

from repro.api import QuokkaContext
from repro.api.context import SYSTEM_PRESETS
from repro.common.errors import ConfigError
from repro.data import Batch
from repro.expr import col, lit
from repro.plan.dataframe import count_agg, sum_agg


@pytest.fixture()
def ctx():
    context = QuokkaContext(num_workers=3, cpus_per_worker=2)
    context.register_table(
        "sales",
        Batch.from_pydict(
            {
                "region": [f"r{i % 4}" for i in range(200)],
                "amount": [float(i % 97) for i in range(200)],
            }
        ),
        num_splits=6,
    )
    return context


def sales_query(ctx):
    return (
        ctx.read_table("sales")
        .filter(col("amount") > lit(5.0))
        .groupby("region")
        .agg(sum_agg("total", col("amount")), count_agg("n"))
        .sort("region")
    )


class TestQuokkaContext:
    def test_execute_matches_reference(self, ctx):
        query = sales_query(ctx)
        expected = query.collect_reference()
        result = query.submit(query_name="sales-summary").wait()
        assert result.query_name == "sales-summary"
        assert result.batch.equals(expected, sort_keys=["region"])

    def test_system_presets_exist(self):
        assert {"quokka", "sparksql", "trino", "quokka-spool", "trino-noft", "quokka-noft"} <= set(
            SYSTEM_PRESETS
        )

    @pytest.mark.parametrize("system", ["quokka", "sparksql", "trino"])
    def test_each_preset_system_produces_the_same_answer(self, ctx, system):
        query = sales_query(ctx)
        expected = query.collect_reference()
        result = query.submit(system=system).wait()
        assert result.batch.equals(expected, sort_keys=["region"])

    def test_unknown_system_rejected(self, ctx):
        with pytest.raises(ConfigError):
            sales_query(ctx).collect(system="duckdb")

    def test_duplicate_table_rejected(self, ctx):
        with pytest.raises(Exception):
            ctx.register_table("sales", Batch.from_pydict({"x": [1]}))
