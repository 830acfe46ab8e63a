"""Fault-injection tests: write-ahead lineage recovery must preserve results."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import FailurePlan
from repro.api import QuokkaContext
from repro.common.config import CostModelConfig, EngineConfig
from repro.core.options import QueryOptions
from repro.data import Batch
from repro.expr import col, lit
from repro.plan import Catalog, DataFrame, TableScan, execute_plan
from repro.plan.dataframe import count_agg, sum_agg


def make_catalog(rows=400):
    catalog = Catalog()
    catalog.register(
        "orders",
        Batch.from_pydict(
            {
                "o_orderkey": list(range(rows)),
                "o_custkey": [i % 17 for i in range(rows)],
                "o_total": [float((i * 13) % 250) for i in range(rows)],
            }
        ),
        num_splits=8,
    )
    catalog.register(
        "customers",
        Batch.from_pydict(
            {
                "c_custkey": list(range(17)),
                "c_nation": [f"nation{i % 5}" for i in range(17)],
            }
        ),
        num_splits=4,
    )
    return catalog


def scan(catalog, name):
    return DataFrame(TableScan(catalog.table(name)))


def join_query(catalog):
    return (
        scan(catalog, "orders")
        .join(scan(catalog, "customers"), left_on="o_custkey", right_on="c_custkey")
        .groupby("c_nation")
        .agg(sum_agg("total", col("o_total")), count_agg("orders"))
        .sort("c_nation")
    )


def agg_query(catalog):
    return (
        scan(catalog, "orders")
        .filter(col("o_total") > lit(20.0))
        .groupby("o_custkey")
        .agg(sum_agg("total", col("o_total")), count_agg("n"))
        .sort("o_custkey")
    )


def run(query, catalog, failure_plans=None, options=None, num_workers=4, **overrides):
    """One query on a fresh cluster, through the public frame verbs."""
    context = QuokkaContext(
        num_workers=num_workers,
        cpus_per_worker=2,
        cost_config=CostModelConfig(failure_detection_delay=0.05, heartbeat_interval=0.02),
        engine_config=EngineConfig(**overrides),
        catalog=catalog,
    )
    return query.bind(context).submit(options=options, failure_plans=failure_plans).wait()


#: These tests exercise the recovery machinery on hand-shaped plans; the
#: cost-based planner would collapse the tiny stages to one channel (and kill
#: points computed against the heuristic shape would miss), so they pin the
#: heuristic planning path.  Cost-based plans under failures are covered by
#: the chaos differential matrix and the broadcast-join recovery tests.
HEURISTIC = QueryOptions(optimize=False)


def run_with_failure(query, catalog, worker_id, fraction, num_workers=4, **overrides):
    """Run failure-free to get a baseline, then re-run killing one worker."""
    baseline = run(query, catalog, options=HEURISTIC, num_workers=num_workers, **overrides)
    plan = FailurePlan.at_fraction(worker_id, fraction, baseline.runtime)
    failed = run(query, catalog, [plan], HEURISTIC, num_workers=num_workers, **overrides)
    return baseline, failed


class TestWriteAheadLineageRecovery:
    def test_failure_mid_query_preserves_result(self):
        catalog = make_catalog()
        query = join_query(catalog)
        expected = execute_plan(query.plan)
        baseline, failed = run_with_failure(query, catalog, worker_id=2, fraction=0.5)
        assert baseline.batch.equals(expected, sort_keys=["c_nation"])
        assert failed.batch.equals(expected, sort_keys=["c_nation"])
        assert failed.metrics.failures_injected == 1
        assert failed.metrics.recovery_events == 1
        assert failed.metrics.rewound_channels > 0
        assert failed.runtime > baseline.runtime

    @pytest.mark.parametrize("fraction", [0.2, 0.5, 0.8])
    def test_failure_at_different_points(self, fraction):
        catalog = make_catalog()
        query = join_query(catalog)
        expected = execute_plan(query.plan)
        _baseline, failed = run_with_failure(query, catalog, worker_id=1, fraction=fraction)
        assert failed.batch.equals(expected, sort_keys=["c_nation"])
        assert failed.metrics.failures_injected == 1

    @pytest.mark.parametrize("worker_id", [0, 3])
    def test_failure_of_any_worker_including_result_host(self, worker_id):
        catalog = make_catalog()
        query = join_query(catalog)
        expected = execute_plan(query.plan)
        _baseline, failed = run_with_failure(query, catalog, worker_id=worker_id, fraction=0.5)
        assert failed.batch.equals(expected, sort_keys=["c_nation"])

    def test_aggregation_only_query_recovers(self):
        catalog = make_catalog()
        query = agg_query(catalog)
        expected = execute_plan(query.plan)
        _baseline, failed = run_with_failure(query, catalog, worker_id=2, fraction=0.5)
        assert failed.batch.equals(expected, sort_keys=["o_custkey"])

    def test_recovery_schedules_replay_or_regeneration(self):
        catalog = make_catalog()
        query = join_query(catalog)
        _baseline, failed = run_with_failure(query, catalog, worker_id=2, fraction=0.6)
        recovered_work = (
            failed.metrics.replay_tasks
            + failed.metrics.regenerated_input_tasks
            + failed.metrics.rewound_channels
        )
        assert recovered_work > 0

    def test_two_failures_at_different_times(self):
        catalog = make_catalog()
        query = join_query(catalog)
        expected = execute_plan(query.plan)
        baseline = run(query, catalog)
        plans = [
            FailurePlan.at_fraction(1, 0.35, baseline.runtime),
            FailurePlan.at_fraction(3, 0.7, baseline.runtime),
        ]
        failed = run(query, catalog, failure_plans=plans)
        assert failed.batch.equals(expected, sort_keys=["c_nation"])
        assert failed.metrics.failures_injected == 2

    def test_failure_before_any_work_is_done(self):
        catalog = make_catalog()
        query = join_query(catalog)
        expected = execute_plan(query.plan)
        plan = FailurePlan(worker_id=1, at_time=0.001)
        failed = run(query, catalog, failure_plans=[plan])
        assert failed.batch.equals(expected, sort_keys=["c_nation"])


class TestOtherStrategiesUnderFailure:
    def test_restart_baseline_recovers_by_restarting(self):
        catalog = make_catalog()
        query = join_query(catalog)
        expected = execute_plan(query.plan)
        baseline, failed = run_with_failure(
            query, catalog, worker_id=2, fraction=0.5, ft_strategy="none"
        )
        assert failed.batch.equals(expected, sort_keys=["c_nation"])
        assert failed.metrics.query_restarts == 1
        assert failed.runtime > baseline.runtime

    def test_spooling_recovers_from_durable_storage(self):
        catalog = make_catalog()
        query = join_query(catalog)
        expected = execute_plan(query.plan)
        _baseline, failed = run_with_failure(
            query, catalog, worker_id=2, fraction=0.5, ft_strategy="spool-s3"
        )
        assert failed.batch.equals(expected, sort_keys=["c_nation"])
        assert failed.metrics.s3_write_bytes > 0

    def test_stagewise_mode_recovers(self):
        catalog = make_catalog()
        query = join_query(catalog)
        expected = execute_plan(query.plan)
        _baseline, failed = run_with_failure(
            query, catalog, worker_id=2, fraction=0.5, execution_mode="stagewise"
        )
        assert failed.batch.equals(expected, sort_keys=["c_nation"])

    def test_static_scheduling_recovers(self):
        catalog = make_catalog()
        query = join_query(catalog)
        expected = execute_plan(query.plan)
        _baseline, failed = run_with_failure(
            query, catalog, worker_id=1, fraction=0.5,
            scheduling="static", static_batch_size=2,
        )
        assert failed.batch.equals(expected, sort_keys=["c_nation"])


@settings(max_examples=8, deadline=None)
@given(
    worker_id=st.integers(min_value=0, max_value=3),
    fraction=st.floats(min_value=0.1, max_value=0.9),
)
def test_property_any_single_failure_preserves_the_answer(worker_id, fraction):
    """The core guarantee of write-ahead lineage: one failure, same answer."""
    catalog = make_catalog(rows=200)
    query = join_query(catalog)
    expected = execute_plan(query.plan)
    baseline = run(query, catalog)
    plan = FailurePlan.at_fraction(worker_id, fraction, baseline.runtime)
    failed = run(query, catalog, failure_plans=[plan])
    assert failed.batch.equals(expected, sort_keys=["c_nation"])
