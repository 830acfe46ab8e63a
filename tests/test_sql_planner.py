"""Unit tests for the SQL planner (SQL text -> logical plans -> answers).

Correctness is checked by executing the planned queries through the
single-node reference interpreter on small hand-built tables, so these tests
are independent of the distributed engine.
"""

import pytest

from repro.data.batch import Batch
from repro.data.dates import date_to_days
from repro.plan.catalog import Catalog
from repro.plan.interpreter import execute_plan
from repro.plan.nodes import Filter, Join, Limit, Project, Sort
from repro.sql import parse, plan_query
from repro.sql.planner import SqlPlanError


@pytest.fixture()
def catalog():
    catalog = Catalog()
    catalog.register(
        "orders",
        Batch.from_pydict(
            {
                "o_orderkey": [1, 2, 3, 4, 5, 6],
                "o_custkey": [10, 20, 10, 30, 20, 10],
                "o_totalprice": [100.0, 250.0, 75.0, 300.0, 125.0, 50.0],
                "o_orderdate": [
                    date_to_days("1995-01-10"),
                    date_to_days("1995-02-10"),
                    date_to_days("1995-03-10"),
                    date_to_days("1995-04-10"),
                    date_to_days("1996-01-10"),
                    date_to_days("1996-02-10"),
                ],
                "o_status": ["F", "O", "F", "F", "O", "F"],
            }
        ),
        num_splits=2,
    )
    catalog.register(
        "customer",
        Batch.from_pydict(
            {
                "c_custkey": [10, 20, 30, 40],
                "c_name": ["alice", "bob", "carol", "dave"],
                "c_segment": ["BUILDING", "MACHINERY", "BUILDING", "HOUSEHOLD"],
            }
        ),
        num_splits=1,
    )
    catalog.register(
        "item",
        Batch.from_pydict(
            {
                "i_orderkey": [1, 1, 2, 3, 4, 5, 6, 6],
                "i_qty": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
                "i_price": [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0],
            }
        ),
        num_splits=1,
    )
    return catalog


def run_sql(catalog, text):
    frame = plan_query(parse(text), catalog)
    return execute_plan(frame.plan).to_pydict()


class TestProjectionAndFilter:
    def test_select_star(self, catalog):
        result = run_sql(catalog, "SELECT * FROM customer")
        assert list(result.keys()) == ["c_custkey", "c_name", "c_segment"]
        assert len(result["c_custkey"]) == 4

    def test_select_columns_and_expressions(self, catalog):
        result = run_sql(
            catalog, "SELECT o_orderkey, o_totalprice * 2 AS double_price FROM orders"
        )
        assert result["double_price"] == [200.0, 500.0, 150.0, 600.0, 250.0, 100.0]

    def test_where_filter(self, catalog):
        result = run_sql(catalog, "SELECT o_orderkey FROM orders WHERE o_totalprice > 120")
        assert result["o_orderkey"] == [2, 4, 5]

    def test_where_with_in_and_between(self, catalog):
        result = run_sql(
            catalog,
            "SELECT o_orderkey FROM orders "
            "WHERE o_status IN ('F') AND o_totalprice BETWEEN 60 AND 150",
        )
        assert result["o_orderkey"] == [1, 3]

    def test_date_literals(self, catalog):
        result = run_sql(
            catalog,
            "SELECT o_orderkey FROM orders WHERE o_orderdate < DATE '1995-03-01'",
        )
        assert result["o_orderkey"] == [1, 2]

    def test_date_plus_interval(self, catalog):
        result = run_sql(
            catalog,
            "SELECT o_orderkey FROM orders "
            "WHERE o_orderdate < DATE '1995-01-01' + INTERVAL '3' MONTH",
        )
        assert result["o_orderkey"] == [1, 2, 3]

    def test_case_when(self, catalog):
        result = run_sql(
            catalog,
            "SELECT o_orderkey, CASE WHEN o_totalprice > 120 THEN 1 ELSE 0 END AS big "
            "FROM orders",
        )
        assert result["big"] == [0, 1, 0, 1, 1, 0]


class TestAggregation:
    def test_scalar_aggregate(self, catalog):
        result = run_sql(catalog, "SELECT count(*) AS n, sum(o_totalprice) AS total FROM orders")
        assert result["n"] == [6]
        assert result["total"] == [900.0]

    def test_group_by(self, catalog):
        result = run_sql(
            catalog,
            "SELECT o_custkey, sum(o_totalprice) AS total, count(*) AS n "
            "FROM orders GROUP BY o_custkey ORDER BY o_custkey",
        )
        assert result["o_custkey"] == [10, 20, 30]
        assert result["total"] == [225.0, 375.0, 300.0]
        assert result["n"] == [3, 2, 1]

    def test_arithmetic_over_aggregates(self, catalog):
        result = run_sql(
            catalog,
            "SELECT sum(o_totalprice) / count(*) AS mean FROM orders",
        )
        assert result["mean"] == [150.0]

    def test_having(self, catalog):
        result = run_sql(
            catalog,
            "SELECT o_custkey, sum(o_totalprice) AS total FROM orders "
            "GROUP BY o_custkey HAVING sum(o_totalprice) > 250 ORDER BY o_custkey",
        )
        assert result["o_custkey"] == [20, 30]

    def test_group_by_select_alias(self, catalog):
        result = run_sql(
            catalog,
            "SELECT EXTRACT(YEAR FROM o_orderdate) AS o_year, count(*) AS n "
            "FROM orders GROUP BY o_year ORDER BY o_year",
        )
        assert result["o_year"] == [1995, 1996]
        assert result["n"] == [4, 2]

    def test_ungrouped_column_rejected(self, catalog):
        with pytest.raises(SqlPlanError):
            run_sql(catalog, "SELECT o_custkey, o_totalprice, count(*) AS n FROM orders GROUP BY o_custkey")

    def test_having_without_group_rejected(self, catalog):
        with pytest.raises(SqlPlanError):
            run_sql(catalog, "SELECT o_orderkey FROM orders HAVING o_orderkey > 2")


class TestJoins:
    def test_where_clause_equi_join(self, catalog):
        result = run_sql(
            catalog,
            "SELECT o_orderkey, c_name FROM orders, customer "
            "WHERE o_custkey = c_custkey AND c_segment = 'BUILDING' "
            "ORDER BY o_orderkey",
        )
        assert result["o_orderkey"] == [1, 3, 4, 6]
        assert result["c_name"] == ["alice", "alice", "carol", "alice"]

    def test_explicit_join_syntax(self, catalog):
        result = run_sql(
            catalog,
            "SELECT o_orderkey, c_name FROM orders JOIN customer ON o_custkey = c_custkey "
            "ORDER BY o_orderkey",
        )
        assert len(result["o_orderkey"]) == 6

    def test_three_way_join_with_aggregation(self, catalog):
        result = run_sql(
            catalog,
            "SELECT c_name, sum(i_qty * i_price) AS volume "
            "FROM item, orders, customer "
            "WHERE i_orderkey = o_orderkey AND o_custkey = c_custkey "
            "GROUP BY c_name ORDER BY volume DESC",
        )
        assert result["c_name"][0] == "alice"
        # alice owns orders 1, 3 and 6: 1*10 + 2*20 + 4*40 + 7*70 + 8*80 = 1340
        assert result["volume"][0] == pytest.approx(1340.0)

    def test_join_condition_filters_pushed_to_each_side(self, catalog):
        frame = plan_query(
            parse(
                "SELECT o_orderkey, c_name FROM orders, customer "
                "WHERE o_custkey = c_custkey AND c_segment = 'BUILDING' AND o_totalprice > 80"
            ),
            catalog,
        )
        # Both single-table predicates must sit below the join, not above it.
        plan = frame.plan
        assert isinstance(plan, Project)
        join = plan.child
        assert isinstance(join, Join)
        assert isinstance(join.left, Filter) or isinstance(join.right, Filter)

    def test_exists_becomes_semi_join(self, catalog):
        result = run_sql(
            catalog,
            "SELECT c_name FROM customer WHERE EXISTS "
            "(SELECT * FROM orders WHERE o_custkey = c_custkey AND o_totalprice > 200) "
            "ORDER BY c_name",
        )
        assert result["c_name"] == ["bob", "carol"]

    def test_not_exists_becomes_anti_join(self, catalog):
        result = run_sql(
            catalog,
            "SELECT c_name FROM customer WHERE NOT EXISTS "
            "(SELECT * FROM orders WHERE o_custkey = c_custkey) ORDER BY c_name",
        )
        assert result["c_name"] == ["dave"]

    def test_uncorrelated_exists_gates_whole_result(self, catalog):
        # EXISTS over a non-empty, uncorrelated subquery keeps every row ...
        result = run_sql(
            catalog,
            "SELECT c_name FROM customer WHERE EXISTS "
            "(SELECT * FROM orders WHERE o_totalprice > 0) ORDER BY c_name",
        )
        assert result["c_name"] == ["alice", "bob", "carol", "dave"]
        # ... and one that matches nothing drops every row.
        result = run_sql(
            catalog,
            "SELECT c_name FROM customer WHERE EXISTS "
            "(SELECT * FROM orders WHERE o_totalprice > 1000000)",
        )
        assert result["c_name"] == []

    def test_uncorrelated_not_exists(self, catalog):
        result = run_sql(
            catalog,
            "SELECT c_name FROM customer WHERE NOT EXISTS "
            "(SELECT * FROM orders WHERE o_totalprice > 1000000) ORDER BY c_name",
        )
        assert result["c_name"] == ["alice", "bob", "carol", "dave"]

    def test_duplicate_binding_rejected(self, catalog):
        with pytest.raises(SqlPlanError):
            run_sql(catalog, "SELECT * FROM orders, orders")


class TestSubqueryDecorrelation:
    def test_self_join_with_aliases(self, catalog):
        result = run_sql(
            catalog,
            "SELECT a.o_orderkey, b.o_orderkey AS other FROM orders a, orders b "
            "WHERE a.o_custkey = b.o_custkey AND a.o_orderkey < b.o_orderkey "
            "ORDER BY a.o_orderkey, other",
        )
        # Customers 10 (orders 1, 3, 6) and 20 (orders 2, 5) give the pairs.
        assert list(zip(result["o_orderkey"], result["other"])) == [
            (1, 3), (1, 6), (2, 5), (3, 6),
        ]

    def test_derived_table_with_aggregate(self, catalog):
        result = run_sql(
            catalog,
            "SELECT o_custkey, total FROM "
            "(SELECT o_custkey, sum(o_totalprice) AS total FROM orders "
            "GROUP BY o_custkey) AS spend WHERE total > 250 ORDER BY o_custkey",
        )
        assert result["o_custkey"] == [20, 30]
        assert result["total"] == [375.0, 300.0]

    def test_nested_derived_tables(self, catalog):
        result = run_sql(
            catalog,
            "SELECT doubled FROM (SELECT total * 2 AS doubled FROM "
            "(SELECT o_custkey, sum(o_totalprice) AS total FROM orders "
            "GROUP BY o_custkey) AS spend) AS layer2 ORDER BY doubled",
        )
        assert result["doubled"] == [450.0, 600.0, 750.0]

    def test_in_subquery_becomes_semi_join(self, catalog):
        result = run_sql(
            catalog,
            "SELECT c_name FROM customer WHERE c_custkey IN "
            "(SELECT o_custkey FROM orders WHERE o_totalprice > 200) ORDER BY c_name",
        )
        assert result["c_name"] == ["bob", "carol"]

    def test_not_in_subquery_becomes_anti_join(self, catalog):
        result = run_sql(
            catalog,
            "SELECT c_name FROM customer WHERE c_custkey NOT IN "
            "(SELECT o_custkey FROM orders WHERE o_totalprice > 200) ORDER BY c_name",
        )
        assert result["c_name"] == ["alice", "dave"]

    def test_correlated_scalar_subquery(self, catalog):
        # Per-customer sums: 10 -> 225, 20 -> 375, 30 -> 300; dave has no
        # orders, so his empty-group comparison drops him (SQL NULL semantics).
        result = run_sql(
            catalog,
            "SELECT c_name FROM customer WHERE 250 < "
            "(SELECT sum(o_totalprice) FROM orders WHERE o_custkey = c_custkey) "
            "ORDER BY c_name",
        )
        assert result["c_name"] == ["bob", "carol"]

    def test_uncorrelated_scalar_subquery(self, catalog):
        result = run_sql(
            catalog,
            "SELECT o_orderkey FROM orders WHERE o_totalprice > "
            "(SELECT avg(o_totalprice) FROM orders) ORDER BY o_orderkey",
        )
        # The average is 150: orders 2 (250) and 4 (300) beat it.
        assert result["o_orderkey"] == [2, 4]

    def test_scalar_subquery_in_having(self, catalog):
        result = run_sql(
            catalog,
            "SELECT o_custkey, sum(o_totalprice) AS total FROM orders "
            "GROUP BY o_custkey "
            "HAVING sum(o_totalprice) > (SELECT max(o_totalprice) FROM orders) "
            "ORDER BY o_custkey",
        )
        assert result["o_custkey"] == [20]
        assert result["total"] == [375.0]

    def test_exists_with_inequality_residual(self, catalog):
        # The residual o2.o_orderkey <> o1.o_orderkey cannot ride the semi
        # join's equality keys; the planner's witness machinery handles it.
        result = run_sql(
            catalog,
            "SELECT o1.o_orderkey FROM orders o1 WHERE EXISTS "
            "(SELECT * FROM orders o2 WHERE o2.o_custkey = o1.o_custkey "
            "AND o2.o_orderkey <> o1.o_orderkey) ORDER BY o1.o_orderkey",
        )
        assert result["o_orderkey"] == [1, 2, 3, 5, 6]

    def test_in_subquery_with_aggregating_inner(self, catalog):
        result = run_sql(
            catalog,
            "SELECT c_name FROM customer WHERE c_custkey IN "
            "(SELECT o_custkey FROM orders GROUP BY o_custkey "
            "HAVING sum(o_totalprice) > 250) ORDER BY c_name",
        )
        assert result["c_name"] == ["bob", "carol"]

    def test_scalar_subquery_outside_conjunct_rejected(self, catalog):
        with pytest.raises(SqlPlanError, match="WHERE or HAVING conjuncts"):
            run_sql(
                catalog,
                "SELECT (SELECT max(o_totalprice) FROM orders) AS best FROM customer",
            )

    def test_buried_in_subquery_rejected(self, catalog):
        with pytest.raises(SqlPlanError, match="top-level WHERE conjuncts"):
            run_sql(
                catalog,
                "SELECT c_name FROM customer WHERE c_custkey IN "
                "(SELECT o_custkey FROM orders) OR c_custkey = 40",
            )

    def test_grandparent_correlation_rejected(self, catalog):
        with pytest.raises(SqlPlanError):
            run_sql(
                catalog,
                "SELECT c_name FROM customer WHERE EXISTS "
                "(SELECT * FROM orders WHERE o_custkey = c_custkey AND EXISTS "
                "(SELECT * FROM item WHERE i_orderkey = o_orderkey "
                "AND i_qty > c_custkey))",
            )


class TestOrderAndLimit:
    def test_order_by_desc_with_limit(self, catalog):
        result = run_sql(
            catalog,
            "SELECT o_orderkey, o_totalprice FROM orders ORDER BY o_totalprice DESC LIMIT 2",
        )
        assert result["o_orderkey"] == [4, 2]

    def test_order_by_aggregate_alias(self, catalog):
        result = run_sql(
            catalog,
            "SELECT o_custkey, sum(o_totalprice) AS total FROM orders "
            "GROUP BY o_custkey ORDER BY total DESC LIMIT 1",
        )
        assert result["o_custkey"] == [20]

    def test_plan_shape_sort_then_limit(self, catalog):
        frame = plan_query(
            parse("SELECT o_orderkey FROM orders ORDER BY o_orderkey LIMIT 3"), catalog
        )
        assert isinstance(frame.plan, Limit)
        assert isinstance(frame.plan.child, Sort)


class TestErrors:
    def test_unknown_table(self, catalog):
        with pytest.raises(Exception):
            run_sql(catalog, "SELECT * FROM nonexistent")

    def test_unknown_column_in_group_by(self, catalog):
        with pytest.raises(SqlPlanError):
            run_sql(catalog, "SELECT count(*) AS n FROM orders GROUP BY nope")

    def test_select_distinct_unsupported(self, catalog):
        with pytest.raises(SqlPlanError):
            run_sql(catalog, "SELECT DISTINCT o_custkey FROM orders")

    def test_aggregate_in_where_rejected(self, catalog):
        with pytest.raises(SqlPlanError):
            run_sql(catalog, "SELECT o_orderkey FROM orders WHERE sum(o_totalprice) > 10")

    def test_unknown_alias_qualifier(self, catalog):
        with pytest.raises(SqlPlanError):
            run_sql(catalog, "SELECT x.o_orderkey FROM orders o WHERE x.o_orderkey = 1")


class TestContextIntegration:
    def test_quokka_context_sql(self, catalog):
        from repro.api import QuokkaContext

        ctx = QuokkaContext(num_workers=2, catalog=catalog)
        frame = ctx.sql(
            "SELECT o_custkey, sum(o_totalprice) AS total FROM orders "
            "GROUP BY o_custkey ORDER BY o_custkey"
        )
        reference = frame.collect_reference().to_pydict()
        distributed = frame.collect(optimize=False).to_pydict()
        assert distributed == reference
