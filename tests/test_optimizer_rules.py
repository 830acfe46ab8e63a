"""Unit tests for individual optimizer rules (structure-level assertions)."""

import pytest

from repro.data.batch import Batch
from repro.expr.eval import expression_columns
from repro.expr.nodes import BinaryOp, Literal, col, lit
from repro.kernels.join import JoinType
from repro.optimizer import OptimizerConfig, PlanOptimizer, optimize_plan
from repro.optimizer.expressions import (
    combine_conjuncts,
    fold_constants,
    rename_columns,
    split_conjunction,
)
from repro.optimizer.stats import CardinalityEstimator
from repro.plan.catalog import Catalog
from repro.plan.dataframe import DataFrame, sum_agg
from repro.plan.nodes import Aggregate, Filter, Join, Project, TableScan


@pytest.fixture()
def catalog():
    catalog = Catalog()
    catalog.register(
        "facts",
        Batch.from_pydict(
            {
                "f_key": list(range(1000)),
                "f_dim": [i % 10 for i in range(1000)],
                "f_value": [float(i) for i in range(1000)],
                "f_extra": ["x"] * 1000,
            }
        ),
        num_splits=4,
    )
    catalog.register(
        "dims",
        Batch.from_pydict(
            {
                "d_key": list(range(10)),
                "d_name": [f"dim{i}" for i in range(10)],
                "d_unused": [0] * 10,
            }
        ),
        num_splits=1,
    )
    return catalog


def scan(catalog, name):
    return DataFrame(TableScan(catalog.table(name)))


def collect_nodes(plan, node_type):
    found = []
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, node_type):
            found.append(node)
        stack.extend(node.children())
    return found


class TestConstantFolding:
    def test_binary_arithmetic_folds(self):
        folded = fold_constants(lit(2) + lit(3) * lit(4))
        assert isinstance(folded, Literal)
        assert folded.value == 14

    def test_column_expressions_survive(self):
        folded = fold_constants(col("x") * (lit(1.0) - lit(0.1)))
        assert isinstance(folded, BinaryOp)
        assert isinstance(folded.right, Literal)
        assert folded.right.value == pytest.approx(0.9)

    def test_division_by_zero_not_folded(self):
        folded = fold_constants(lit(1) / lit(0))
        assert isinstance(folded, BinaryOp)

    def test_boolean_and_not_fold(self):
        assert fold_constants(~lit(True)).value is False
        assert fold_constants(lit(True) & lit(False)).value is False

    def test_folding_inside_plan_nodes(self, catalog):
        frame = scan(catalog, "facts").filter(col("f_value") > (lit(2) * lit(50)))
        optimized = optimize_plan(frame.plan, OptimizerConfig(
            merge_filters=False, pushdown_predicates=False,
            prune_columns=False, choose_build_side=False,
        ))
        predicate = collect_nodes(optimized, Filter)[0].predicate
        assert isinstance(predicate.right, Literal)
        assert predicate.right.value == 100


class TestExpressionHelpers:
    def test_split_and_combine_roundtrip(self):
        predicate = (col("a") > lit(1)) & (col("b") < lit(2)) & (col("c") == lit(3))
        conjuncts = split_conjunction(predicate)
        assert len(conjuncts) == 3
        recombined = combine_conjuncts(conjuncts)
        assert sorted(expression_columns(recombined)) == ["a", "b", "c"]

    def test_combine_empty_returns_none(self):
        assert combine_conjuncts([]) is None

    def test_expression_columns_nested(self):
        expr = (col("a") + col("b")).between(lit(0), col("c"))
        assert expression_columns(expr) == {"a", "b", "c"}

    def test_rename_columns(self):
        renamed = rename_columns(col("old") > lit(1), {"old": "new"})
        assert expression_columns(renamed) == {"new"}


class TestFilterMerging:
    def test_adjacent_filters_become_one(self, catalog):
        frame = (
            scan(catalog, "facts")
            .filter(col("f_value") > lit(10.0))
            .filter(col("f_dim") == lit(3))
            .filter(col("f_key") < lit(500))
        )
        optimized = optimize_plan(frame.plan, OptimizerConfig(
            pushdown_predicates=False, prune_columns=False, choose_build_side=False,
        ))
        filters = collect_nodes(optimized, Filter)
        assert len(filters) == 1
        assert len(split_conjunction(filters[0].predicate)) == 3


class TestPredicatePushdown:
    def test_filter_moves_below_projection(self, catalog):
        frame = (
            scan(catalog, "facts")
            .select("f_key", "f_value")
            .filter(col("f_value") > lit(500.0))
        )
        optimized = optimize_plan(frame.plan)
        # The filter must end up below the user's projection — over the scan
        # (column pruning may leave one narrow projection directly on the scan).
        assert isinstance(optimized, Project)
        filters = collect_nodes(optimized, Filter)
        assert len(filters) == 1
        below_filter = filters[0].child
        assert isinstance(below_filter, TableScan) or (
            isinstance(below_filter, Project) and isinstance(below_filter.child, TableScan)
        )

    def test_single_side_filters_move_below_join(self, catalog):
        joined = scan(catalog, "facts").join(scan(catalog, "dims"), left_on="f_dim", right_on="d_key")
        frame = joined.filter((col("d_name") == lit("dim3")) & (col("f_value") > lit(100.0)))
        optimized = optimize_plan(frame.plan, OptimizerConfig(prune_columns=False,
                                                              choose_build_side=False))
        joins = collect_nodes(optimized, Join)
        assert len(joins) == 1
        join = joins[0]
        assert isinstance(join.left, Filter)
        assert isinstance(join.right, Filter)
        # Nothing referencing both sides remains, so no filter stays above the join.
        assert not isinstance(optimized, Filter)

    def test_cross_side_filter_stays_above_join(self, catalog):
        joined = scan(catalog, "facts").join(scan(catalog, "dims"), left_on="f_dim", right_on="d_key")
        frame = joined.filter(col("f_value") > col("d_key"))
        optimized = optimize_plan(frame.plan, OptimizerConfig(prune_columns=False,
                                                              choose_build_side=False))
        assert isinstance(optimized, Filter)
        assert isinstance(optimized.child, Join)

    def test_build_side_filter_not_pushed_for_semi_join(self, catalog):
        joined = scan(catalog, "facts").join(
            scan(catalog, "dims"), left_on="f_dim", right_on="d_key", how="semi"
        )
        frame = joined.filter(col("f_value") > lit(1.0))
        optimized = optimize_plan(frame.plan, OptimizerConfig(prune_columns=False,
                                                              choose_build_side=False))
        join = collect_nodes(optimized, Join)[0]
        assert join.join_type is JoinType.SEMI
        assert isinstance(join.left, Filter)  # probe-side filter still pushes


class TestColumnPruning:
    def test_unused_columns_dropped_below_join(self, catalog):
        frame = (
            scan(catalog, "facts")
            .join(scan(catalog, "dims"), left_on="f_dim", right_on="d_key")
            .groupby("d_name")
            .agg(sum_agg("total", col("f_value")))
        )
        optimized = optimize_plan(frame.plan, OptimizerConfig(choose_build_side=False))
        join = collect_nodes(optimized, Join)[0]
        assert "f_extra" not in join.left.schema.names
        assert "d_unused" not in join.right.schema.names
        # Join keys and referenced columns must survive.
        assert {"f_dim", "f_value"} <= set(join.left.schema.names)
        assert {"d_key", "d_name"} <= set(join.right.schema.names)

    def test_root_schema_is_preserved(self, catalog):
        frame = scan(catalog, "facts").select("f_key", "f_value", "f_extra")
        optimized = optimize_plan(frame.plan)
        assert optimized.schema.names == frame.plan.schema.names


class TestBuildSideSelection:
    def test_swaps_when_build_side_is_much_larger(self, catalog):
        # dims (10 rows) joined as probe side with facts (1000 rows) as build:
        # the optimizer should swap so the hash table is built on dims.
        frame = scan(catalog, "dims").join(scan(catalog, "facts"), left_on="d_key", right_on="f_dim")
        optimized = optimize_plan(frame.plan, OptimizerConfig(prune_columns=False))
        join = collect_nodes(optimized, Join)[0]
        right_tables = [n.table.name for n in collect_nodes(join.right, TableScan)]
        assert right_tables == ["dims"]
        # The output schema (including column order) is unchanged.
        assert optimized.schema.names == frame.plan.schema.names

    def test_no_swap_when_probe_already_larger(self, catalog):
        frame = scan(catalog, "facts").join(scan(catalog, "dims"), left_on="f_dim", right_on="d_key")
        optimized = optimize_plan(frame.plan, OptimizerConfig(prune_columns=False))
        join = collect_nodes(optimized, Join)[0]
        right_tables = [n.table.name for n in collect_nodes(join.right, TableScan)]
        assert right_tables == ["dims"]

    def test_estimator_overrides(self, catalog):
        estimator = CardinalityEstimator(table_rows={"facts": 5, "dims": 50_000})
        frame = scan(catalog, "facts").join(scan(catalog, "dims"), left_on="f_dim", right_on="d_key")
        optimized = PlanOptimizer(
            OptimizerConfig(prune_columns=False), estimator=estimator
        ).optimize(frame.plan)
        join = collect_nodes(optimized, Join)[0]
        right_tables = [n.table.name for n in collect_nodes(join.right, TableScan)]
        assert right_tables == ["facts"]


class TestCardinalityEstimator:
    def test_scan_uses_catalog_rows(self, catalog):
        estimator = CardinalityEstimator(table_rows=None)
        assert estimator.rows(TableScan(catalog.table("facts"))) == 1000

    def test_filter_reduces_estimate(self, catalog):
        estimator = CardinalityEstimator(table_rows=None)
        base = TableScan(catalog.table("facts"))
        filtered = Filter(base, col("f_dim") == lit(3))
        assert estimator.rows(filtered) < estimator.rows(base)

    def test_and_is_more_selective_than_either_conjunct(self, catalog):
        estimator = CardinalityEstimator(table_rows=None)
        single = estimator.selectivity(col("f_dim") == lit(3))
        double = estimator.selectivity((col("f_dim") == lit(3)) & (col("f_value") > lit(10)))
        assert double < single

    def test_aggregate_groups_capped_by_input(self, catalog):
        estimator = CardinalityEstimator(table_rows=None)
        plan = Aggregate(
            TableScan(catalog.table("dims")), ["d_name"], [sum_agg("s", col("d_key"))]
        )
        assert estimator.rows(plan) <= 10

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(max_passes=0).validate()
