"""Tests for the logical plan nodes, DataFrame API and single-node interpreter."""

import numpy as np
import pytest

from repro.common.errors import PlanError
from repro.data import Batch
from repro.expr import col, lit
from repro.plan import Catalog, DataFrame, TableScan, execute_plan
from repro.plan.dataframe import avg_agg, count_agg, max_agg, min_agg, sum_agg


@pytest.fixture()
def catalog():
    cat = Catalog()
    cat.register(
        "orders",
        Batch.from_pydict(
            {
                "o_orderkey": [1, 2, 3, 4, 5, 6],
                "o_custkey": [10, 20, 10, 30, 20, 10],
                "o_total": [100.0, 200.0, 50.0, 400.0, 120.0, 80.0],
            }
        ),
        num_splits=3,
    )
    cat.register(
        "customers",
        Batch.from_pydict(
            {
                "c_custkey": [10, 20, 30, 40],
                "c_nation": ["US", "FR", "US", "DE"],
            }
        ),
        num_splits=2,
    )
    return cat


def frame(catalog, name):
    return DataFrame(TableScan(catalog.table(name)))


class TestCatalog:
    def test_register_and_lookup(self, catalog):
        table = catalog.table("orders")
        assert table.num_rows == 6
        assert table.num_splits == 3
        assert "orders" in catalog and "missing" not in catalog
        assert catalog.names() == ["customers", "orders"]

    def test_duplicate_registration_rejected(self, catalog):
        with pytest.raises(PlanError):
            catalog.register("orders", Batch.from_pydict({"x": [1]}))

    def test_missing_table_raises(self, catalog):
        with pytest.raises(PlanError):
            catalog.table("nope")

    def test_splits_cover_all_rows(self, catalog):
        splits = catalog.table("orders").splits()
        assert sum(s.num_rows for s in splits) == 6

    @pytest.mark.parametrize("rows, num_splits", [(10, 4), (6, 3), (3, 8), (0, 2)])
    def test_split_slices_only_its_own_rows(self, rows, num_splits):
        cat = Catalog()
        table = cat.register(
            "t", Batch.from_pydict({"k": list(range(rows))}), num_splits=num_splits
        )
        splits = table.splits()
        assert len(splits) == num_splits
        for index, expected in enumerate(splits):
            got = table.split(index)
            assert got.num_rows == expected.num_rows
            assert got.column("k").tolist() == expected.column("k").tolist()
        if rows < num_splits:
            # The trailing splits of a table with fewer rows than splits are empty.
            assert [s.num_rows for s in splits[rows:]] == [0] * (num_splits - rows)
        with pytest.raises(PlanError):
            table.split(num_splits)


class TestDataFrameBuilder:
    def test_filter_select(self, catalog):
        df = (
            frame(catalog, "orders")
            .filter(col("o_total") > lit(90.0))
            .select("o_orderkey", ("double_total", col("o_total") * lit(2.0)))
        )
        result = execute_plan(df.plan)
        assert result.column("o_orderkey").tolist() == [1, 2, 4, 5]
        np.testing.assert_allclose(result.column("double_total"), [200.0, 400.0, 800.0, 240.0])

    def test_with_column(self, catalog):
        df = frame(catalog, "orders").with_column("flag", col("o_total") > lit(150.0))
        assert df.schema.names == ["o_orderkey", "o_custkey", "o_total", "flag"]

    def test_join_and_schema_conflicts(self, catalog):
        joined = frame(catalog, "orders").join(
            frame(catalog, "customers"), left_on="o_custkey", right_on="c_custkey"
        )
        assert "c_nation" in joined.schema
        result = execute_plan(joined.plan)
        assert result.num_rows == 6

    def test_semi_and_anti_join(self, catalog):
        us_customers = frame(catalog, "customers").filter(col("c_nation") == lit("US"))
        semi = frame(catalog, "orders").join(
            us_customers, left_on="o_custkey", right_on="c_custkey", how="semi"
        )
        anti = frame(catalog, "orders").join(
            us_customers, left_on="o_custkey", right_on="c_custkey", how="anti"
        )
        semi_result = execute_plan(semi.plan)
        anti_result = execute_plan(anti.plan)
        assert sorted(semi_result.column("o_orderkey").tolist()) == [1, 3, 4, 6]
        assert sorted(anti_result.column("o_orderkey").tolist()) == [2, 5]

    def test_groupby_agg(self, catalog):
        df = (
            frame(catalog, "orders")
            .groupby("o_custkey")
            .agg(
                sum_agg("total", col("o_total")),
                count_agg("n"),
                avg_agg("mean", col("o_total")),
                min_agg("lo", col("o_total")),
                max_agg("hi", col("o_total")),
            )
            .sort("o_custkey")
        )
        result = execute_plan(df.plan)
        assert result.column("o_custkey").tolist() == [10, 20, 30]
        np.testing.assert_allclose(result.column("total"), [230.0, 320.0, 400.0])
        assert result.column("n").tolist() == [3, 2, 1]
        np.testing.assert_allclose(result.column("mean"), [230.0 / 3, 160.0, 400.0])

    def test_scalar_agg(self, catalog):
        df = frame(catalog, "orders").agg(sum_agg("grand_total", col("o_total")))
        result = execute_plan(df.plan)
        assert result.num_rows == 1
        assert result.column("grand_total").tolist() == [950.0]

    def test_sort_limit(self, catalog):
        df = frame(catalog, "orders").sort("o_total", descending=[True]).limit(2)
        result = execute_plan(df.plan)
        assert result.column("o_orderkey").tolist() == [4, 2]

    def test_explain_contains_nodes(self, catalog):
        df = (
            frame(catalog, "orders")
            .filter(col("o_total") > lit(10.0))
            .groupby("o_custkey")
            .agg(count_agg("n"))
        )
        text = df.explain()
        assert "TableScan" in text and "Filter" in text and "Aggregate" in text


class TestPlanValidation:
    def test_filter_unknown_column(self, catalog):
        with pytest.raises(PlanError):
            frame(catalog, "orders").filter(col("missing") > lit(1))

    def test_join_unknown_key(self, catalog):
        with pytest.raises(PlanError):
            frame(catalog, "orders").join(frame(catalog, "customers"), left_on="nope")

    def test_join_unknown_how(self, catalog):
        with pytest.raises(PlanError):
            frame(catalog, "orders").join(
                frame(catalog, "customers"),
                left_on="o_custkey",
                right_on="c_custkey",
                how="cross",
            )

    def test_sort_unknown_key(self, catalog):
        with pytest.raises(PlanError):
            frame(catalog, "orders").sort("nope")

    def test_limit_must_be_positive(self, catalog):
        with pytest.raises(PlanError):
            frame(catalog, "orders").limit(0)

    def test_aggregate_requires_specs(self, catalog):
        with pytest.raises(PlanError):
            frame(catalog, "orders").groupby("o_custkey").agg()

    def test_select_rejects_bad_item(self, catalog):
        with pytest.raises(PlanError):
            frame(catalog, "orders").select(123)


class TestBuilderErgonomics:
    """The redesign's builder verbs: positional with_column, rename/drop,
    string predicates and named-kwarg aggregates."""

    def test_with_column_replacement_keeps_position(self, catalog):
        df = frame(catalog, "orders").with_column("o_custkey", col("o_custkey") + lit(1))
        assert df.schema.names == ["o_orderkey", "o_custkey", "o_total"]
        result = execute_plan(df.plan)
        assert result.column("o_custkey").tolist() == [11, 21, 11, 31, 21, 11]

    def test_with_column_appends_new_columns(self, catalog):
        df = frame(catalog, "orders").with_column("flag", col("o_total") > lit(150.0))
        assert df.schema.names == ["o_orderkey", "o_custkey", "o_total", "flag"]

    def test_rename(self, catalog):
        df = frame(catalog, "orders").rename({"o_total": "total", "o_orderkey": "key"})
        assert df.schema.names == ["key", "o_custkey", "total"]
        result = execute_plan(df.plan)
        assert result.column("key").tolist() == [1, 2, 3, 4, 5, 6]

    def test_rename_unknown_column(self, catalog):
        with pytest.raises(PlanError, match="rename references unknown columns"):
            frame(catalog, "orders").rename({"nope": "x"})

    def test_rename_collision_rejected(self, catalog):
        with pytest.raises(PlanError, match="duplicate"):
            frame(catalog, "orders").rename({"o_total": "o_custkey"})

    def test_drop(self, catalog):
        df = frame(catalog, "orders").drop("o_custkey")
        assert df.schema.names == ["o_orderkey", "o_total"]
        assert execute_plan(df.plan).num_rows == 6

    def test_drop_unknown_column(self, catalog):
        with pytest.raises(PlanError, match="drop references unknown columns"):
            frame(catalog, "orders").drop("nope")

    def test_drop_everything_rejected(self, catalog):
        with pytest.raises(PlanError, match="every column"):
            frame(catalog, "orders").drop("o_orderkey", "o_custkey", "o_total")

    def test_select_unknown_string_column(self, catalog):
        with pytest.raises(PlanError, match="select references unknown columns"):
            frame(catalog, "orders").select("nope")

    def test_string_predicate_filter(self, catalog):
        via_string = frame(catalog, "orders").filter("o_total > 100.0 AND o_custkey = 20")
        via_expr = frame(catalog, "orders").filter(
            (col("o_total") > lit(100.0)) & (col("o_custkey") == lit(20))
        )
        assert execute_plan(via_string.plan).equals(execute_plan(via_expr.plan))

    def test_bad_predicate_type_rejected(self, catalog):
        with pytest.raises(PlanError):
            frame(catalog, "orders").filter(123)

    def test_named_kwarg_aggregates(self, catalog):
        df = (
            frame(catalog, "orders")
            .groupby("o_custkey")
            .agg(total=("o_total", "sum"), n="count", biggest=("o_total", "max"))
            .sort("o_custkey")
        )
        assert df.schema.names == ["o_custkey", "total", "n", "biggest"]
        result = execute_plan(df.plan)
        assert result.column("n").tolist() == [3, 2, 1]
        np.testing.assert_allclose(result.column("total"), [230.0, 320.0, 400.0])
        np.testing.assert_allclose(result.column("biggest"), [100.0, 200.0, 400.0])

    def test_named_aggregates_mix_with_positional(self, catalog):
        df = frame(catalog, "orders").agg(sum_agg("total", col("o_total")), n="count")
        result = execute_plan(df.plan)
        assert result.column("n").tolist() == [6]
        np.testing.assert_allclose(result.column("total"), [950.0])

    def test_named_aggregate_expression_column(self, catalog):
        df = frame(catalog, "orders").agg(doubled=(col("o_total") * lit(2.0), "sum"))
        np.testing.assert_allclose(execute_plan(df.plan).column("doubled"), [1900.0])

    def test_named_aggregate_unknown_function(self, catalog):
        with pytest.raises(PlanError, match="unknown aggregate function"):
            frame(catalog, "orders").agg(x=("o_total", "median"))

    def test_named_aggregate_requires_column(self, catalog):
        with pytest.raises(PlanError, match="requires a column"):
            frame(catalog, "orders").agg(x="sum")

    def test_named_aggregate_bad_shape(self, catalog):
        with pytest.raises(PlanError):
            frame(catalog, "orders").agg(x=("o_total", "sum", "extra"))

    def test_named_aggregate_accepts_aggregate_spec(self, catalog):
        # The keyword wins over the spec's own name.
        df = frame(catalog, "orders").agg(renamed=sum_agg("ignored", col("o_total")))
        result = execute_plan(df.plan)
        assert df.schema.names == ["renamed"]
        np.testing.assert_allclose(result.column("renamed"), [950.0])
