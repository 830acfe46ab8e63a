"""One child rebuild for every plan node, one join-naming rule everywhere.

Logical plan nodes state their children once (``children`` /
``with_children``) and every optimizer walk rebuilds through that pair; the
property below checks the pair over all 22 TPC-H plans, as written and
optimized, SQL and DataFrame.

A join names its build columns with ``kernels.join.join_output_names``, and
the planner, optimizer, estimator, SQL planner and every join kernel call
it.  When two copies of the rule disagreed, a build side holding ``a`` and
``a_right`` under a probe ``a`` planned as ``a_right`` / ``a_right_right``
and then failed on every executor (a duplicate-column ``SchemaError`` on the
reference and the parallel backend, a 1,800 s stall on the simulator); the
tests below run it on each.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import OneShotRunner, ParallelRunner, QuokkaContext
from repro.common.errors import PlanError, SchemaError
from repro.core.cache import plan_fingerprint
from repro.data.batch import Batch
from repro.expr.nodes import col
from repro.kernels.join import HashJoin, JoinType, join_output_names
from repro.optimizer import optimize_plan
from repro.plan.dataframe import count_agg, max_agg, sum_agg
from repro.plan.nodes import Join, TableScan
from repro.sql import parse, plan_query
from repro.tpch import SQL_QUERIES, build_query, generate_catalog

_CATALOG = generate_catalog(scale_factor=0.001, seed=1)


def _nodes(plan):
    yield plan
    for child in plan.children():
        yield from _nodes(child)


@given(st.sampled_from(sorted(SQL_QUERIES)), st.sampled_from(["sql", "frame"]))
@settings(max_examples=44, deadline=None)
def test_every_plan_node_rebuilds_from_its_children(number, source):
    if source == "sql":
        plan = plan_query(parse(SQL_QUERIES[number]), _CATALOG).plan
    else:
        plan = build_query(_CATALOG, number).plan
    for tree in (plan, optimize_plan(plan)):
        for node in _nodes(tree):
            children = node.children()
            assert node.with_children(children) is node
            copies = [copy.copy(child) for child in children]
            rebuilt = node.with_children(copies)
            assert (rebuilt is node) == (not children)
            assert all(new is old for new, old in zip(rebuilt.children(), copies))
            assert plan_fingerprint(rebuilt) == plan_fingerprint(node)
            assert rebuilt.schema == node.schema


def test_with_children_rejects_the_wrong_arity():
    scan = TableScan(_CATALOG.table("nation"))
    with pytest.raises(PlanError, match="takes 0 children"):
        scan.with_children([scan])


class TestJoinOutputNames:
    def test_collisions_chain_through_earlier_build_columns(self):
        assert join_output_names(["a"], ["a", "a_right"]) == ["a_right", "a_right_right"]
        assert join_output_names(["a", "a_right"], ["a"]) == ["a_right_right"]
        assert join_output_names(["k"], ["k2", "v"], "_s") == ["k2", "v"]

    def test_an_empty_suffix_cannot_resolve_a_collision(self):
        assert join_output_names(["a"], ["b"], "") == ["b"]
        with pytest.raises(SchemaError, match="suffix is empty"):
            join_output_names(["a"], ["a"], "")

    @pytest.mark.parametrize("join_type", [JoinType.INNER, JoinType.LEFT])
    def test_kernel_and_plan_name_the_output_alike(self, join_type):
        probe = Batch.from_pydict({"a": [1, 2], "a_right_right": [0, 0]})
        build = Batch.from_pydict({"a": [2, 3], "a_right": [7, 8]})
        join = HashJoin(["a"], ["a"], join_type)
        join.build(build)
        scans = _two_tables(probe, build)
        plan = Join(scans[0], scans[1], ["a"], ["a"], join_type)
        assert join.probe(probe).schema == plan.schema
        assert plan.schema.names == ["a", "a_right_right", "a_right", "a_right_right_right"]


def _two_tables(probe, build):
    ctx = QuokkaContext(num_workers=2, cpus_per_worker=1)
    ctx.register_table("probe", probe)
    ctx.register_table("build", build)
    return TableScan(ctx.catalog.table("probe")), TableScan(ctx.catalog.table("build"))


@pytest.fixture(scope="module")
def colliding():
    ctx = QuokkaContext(num_workers=2, cpus_per_worker=1)
    ctx.register_table(
        "probe", Batch.from_pydict({"a": [1, 2, 3, 4], "x": [7, 9, 30, 40]}), num_splits=2
    )
    ctx.register_table(
        "build", Batch.from_pydict({"a": [2, 3, 3, 5], "a_right": [7, 8, 9, 6]}), num_splits=2
    )
    return ctx


EXPECTED = Batch.from_pydict(
    {"a": [2, 3, 3], "x": [9, 30, 30], "a_right": [2, 3, 3], "a_right_right": [7, 8, 9]}
)
SORT = ["a", "a_right_right"]


def _collect(frame, backend, ctx):
    if backend == "reference":
        return frame.collect_reference()
    if backend == "simulator":
        return frame.collect(OneShotRunner(ctx))
    with ParallelRunner(workers=int(backend[-1])) as runner:
        return frame.collect(runner)


@pytest.mark.parametrize("backend", ["reference", "simulator", "parallel-0", "parallel-2"])
class TestCollidingBuildColumns:
    def test_join_returns_its_rows(self, colliding, backend):
        frame = colliding.read_table("probe").join(colliding.read_table("build"), "a")
        assert frame.schema.names == EXPECTED.schema.names
        assert _collect(frame, backend, colliding).equals(EXPECTED, sort_keys=SORT)

    def test_pruning_keeps_the_names_the_parent_reads(self, colliding, backend):
        # Only build's ``a`` (output ``a_right``) is read, so pruning drops
        # probe's ``a``; that ends the collision, and below the pruned join
        # build's ``a`` and ``a_right`` keep their own names.  The optimizer
        # must hand the parent build's ``a`` under ``a_right`` again, not
        # build's ``a_right``.
        frame = (
            colliding.read_table("probe")
            .join(colliding.read_table("build"), "x", "a_right")
            .select("a_right")
        )
        expected = Batch.from_pydict({"a_right": [2, 3]})
        assert _collect(frame, backend, colliding).equals(expected, sort_keys=["a_right"])

    def test_correlated_subquery_resolves_the_renamed_column(self, colliding, backend):
        # The witness rewrite joins (a, x) against ``build``; the residual
        # names build's ``a_right``, which that join outputs as
        # ``a_right_right`` (reading build's ``a`` instead keeps no row).
        frame = colliding.sql(
            "SELECT x FROM probe WHERE EXISTS (SELECT * FROM build "
            "WHERE build.a = probe.a AND build.a_right * 4 > probe.x + 4)"
        )
        expected = Batch.from_pydict({"x": [9, 30]})
        assert _collect(frame, backend, colliding).equals(expected, sort_keys=["x"])


def test_plan_and_reference_type_aggregates_alike():
    ctx = QuokkaContext()
    ctx.register_table("t", Batch.from_pydict({"g": ["x", "y"], "v": [1, 2]}))
    grouped = ctx.read_table("t").groupby("g").agg(
        count_agg("n"), sum_agg("total", col("v")), max_agg("hi", col("v"))
    )
    assert grouped.schema.names == ["g", "n", "total", "hi"]
    assert grouped.collect_reference().schema == grouped.schema
    assert grouped.collect().schema == grouped.schema
