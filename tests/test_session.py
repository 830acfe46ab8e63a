"""Tests for the persistent multi-query session engine."""

import pytest

from repro.api import QuokkaContext
from repro.api.runners import OneShotRunner
from repro.cluster.faults import FailurePlan
from repro.common.config import ClusterConfig, EngineConfig
from repro.common.errors import ConfigError, ExecutionError
from repro.core import FairShareScheduler, OutputCache, Session
from repro.core.cache import plan_key
from repro.gcs.naming import TaskName, namespaced_table
from repro.gcs.tables import GlobalControlStore, TaskDescriptor
from repro.tpch import build_query, generate_catalog
from repro.tpch.reference import reference_answer


@pytest.fixture(scope="module")
def catalog():
    return generate_catalog(scale_factor=0.001, seed=0)


def make_session(catalog, num_workers=4, task_managers=2, **engine_overrides):
    cluster_config = ClusterConfig(
        num_workers=num_workers,
        cpus_per_worker=2,
        task_managers_per_worker=task_managers,
    )
    engine_config = EngineConfig(**engine_overrides) if engine_overrides else EngineConfig()
    return Session(
        cluster_config=cluster_config, engine_config=engine_config, catalog=catalog
    )


class TestConcurrentQueries:
    def test_interleaved_queries_match_reference(self, catalog):
        with make_session(catalog) as session:
            handles = [
                session.submit(build_query(catalog, q), query_name=f"q{q}")
                for q in (1, 6, 3)
            ]
            results = session.wait_all(handles)
        for query_number, result in zip((1, 6, 3), results):
            assert result.batch is not None
            assert result.batch.equals(reference_answer(catalog, query_number))
            assert result.metrics.runtime_seconds > 0

    def test_interleaved_queries_with_fault_both_correct(self, catalog):
        """The satellite scenario: two interleaved queries, a fault injected
        into the stream, and both must still match the TPC-H reference."""
        # Measure the failure-free makespan to land the kill mid-stream.
        with make_session(catalog) as baseline:
            baseline.run_many([build_query(catalog, 9), build_query(catalog, 6)])
            base_makespan = baseline.env.now
        with make_session(catalog) as session:
            first = session.submit(
                build_query(catalog, 9),
                query_name="q9",
                failure_plans=[FailurePlan(1, 0.5 * base_makespan)],
            )
            second = session.submit(build_query(catalog, 6), query_name="q6")
            results = session.wait_all([first, second])
        for query_number, result in zip((9, 6), results):
            assert result.batch.equals(reference_answer(catalog, query_number))
        # The long-running query observed and recovered from the failure;
        # write-ahead lineage recovery means no restart for anyone.
        assert results[0].metrics.failures_injected == 1
        assert all(r.metrics.query_restarts == 0 for r in results)
        assert sum(r.metrics.rewound_channels for r in results) >= 1

    def test_recovery_of_one_query_does_not_restart_the_other(self, catalog):
        with make_session(catalog) as baseline:
            baseline.run_many([build_query(catalog, 3), build_query(catalog, 1)])
            base_makespan = baseline.env.now
        with make_session(catalog) as session:
            affected = session.submit(
                build_query(catalog, 3),
                failure_plans=[FailurePlan(2, 0.4 * base_makespan)],
            )
            bystander = session.submit(build_query(catalog, 1))
            results = session.wait_all([affected, bystander])
        assert all(r.metrics.query_restarts == 0 for r in results)
        assert results[0].batch.equals(reference_answer(catalog, 3))
        assert results[1].batch.equals(reference_answer(catalog, 1))

    def test_no_ft_strategy_restarts_only_in_own_namespace(self, catalog):
        with make_session(catalog, ft_strategy="none") as baseline:
            baseline.run_many([build_query(catalog, 6), build_query(catalog, 1)])
            base_makespan = baseline.env.now
        with make_session(catalog, ft_strategy="none") as session:
            handles = [
                session.submit(
                    build_query(catalog, 6),
                    failure_plans=[FailurePlan(1, 0.5 * base_makespan)],
                ),
                session.submit(build_query(catalog, 1)),
            ]
            results = session.wait_all(handles)
        for query_number, result in zip((6, 1), results):
            assert result.batch.equals(reference_answer(catalog, query_number))
        # Without intra-query fault tolerance every affected query restarts.
        assert any(r.metrics.query_restarts >= 1 for r in results)

    def test_throughput_beats_sequential_fresh_clusters(self, catalog):
        mix = [1, 6, 3, 1, 6]
        one_shot = QuokkaContext(
            num_workers=4, cpus_per_worker=2, task_managers_per_worker=2, catalog=catalog
        )
        sequential = 0.0
        for q in mix:
            sequential += build_query(catalog, q).bind(one_shot).submit().wait().runtime
        with make_session(catalog) as session:
            session.run_many([build_query(catalog, q) for q in mix])
            makespan = session.env.now
        assert makespan < sequential

    def test_admission_queue_limits_concurrency(self, catalog):
        with make_session(catalog, max_concurrent_queries=1) as session:
            handles = [
                session.submit(build_query(catalog, q), query_name=f"q{q}")
                for q in (6, 3)
            ]
            assert len(session.active_queries) == 1
            assert handles[1].state == "queued"
            results = session.wait_all(handles)
        for query_number, result in zip((6, 3), results):
            assert result.batch.equals(reference_answer(catalog, query_number))

    def test_submit_after_close_raises(self, catalog):
        session = make_session(catalog)
        session.close()
        with pytest.raises(ExecutionError):
            session.submit(build_query(catalog, 6))


class TestOutputReuse:
    def test_repeated_query_served_from_result_cache(self, catalog):
        with make_session(catalog) as session:
            first = session.wait(session.submit(build_query(catalog, 6)))
            second = session.wait(session.submit(build_query(catalog, 6)))
        assert not first.metrics.result_from_cache
        assert second.metrics.result_from_cache
        assert second.metrics.tasks_executed == 0
        assert second.batch.equals(first.batch)
        assert second.batch.equals(reference_answer(catalog, 6))

    def test_concurrent_duplicates_coalesce(self, catalog):
        with make_session(catalog) as session:
            handles = [session.submit(build_query(catalog, 1)) for _ in range(3)]
            results = session.wait_all(handles)
        assert sum(r.metrics.result_from_cache for r in results) == 2
        for result in results:
            assert result.batch.equals(reference_answer(catalog, 1))

    def test_shared_scan_pool_coalesces_concurrent_reads(self, catalog):
        # q1 and q6 both scan lineitem with different post-ops: the raw split
        # reads overlap and must be coalesced into single physical transfers.
        with make_session(catalog) as session:
            session.run_many([build_query(catalog, 1), build_query(catalog, 6)])
            assert session.scan_pool.stats.coalesced_reads > 0

    def test_caches_distinguish_projection_expressions(self):
        """Regression: plan cache keys must include full expressions.

        ``Project(['x'])``-style human-readable descriptions collide for
        semantically different queries; the cache must never serve one
        query's result for the other."""
        from repro.data import Batch
        from repro.expr import col, lit
        from repro.plan.dataframe import sum_agg

        ctx = QuokkaContext(num_workers=2)
        ctx.register_table("t", Batch.from_pydict({"a": [1.0, 2.0, 3.0, 4.0]}), num_splits=2)
        plus = ctx.read_table("t").select(("x", col("a") + lit(1.0))).agg(sum_agg("s", col("x")))
        times = ctx.read_table("t").select(("x", col("a") * lit(2.0))).agg(sum_agg("s", col("x")))
        with ctx.session() as session:
            first = session.run(plus)
            second = session.run(times)        # result-cache path
        assert first.batch.to_pydict()["s"] == [14.0]
        assert second.batch.to_pydict()["s"] == [20.0]
        assert not second.metrics.result_from_cache

    def test_context_session_honours_context_engine_config(self, catalog):
        ctx = QuokkaContext(
            num_workers=2, engine_config=EngineConfig(result_cache_bytes=0), catalog=catalog
        )
        with ctx.session() as session:
            assert session.result_cache is None
        with ctx.session(system="quokka") as session:
            assert session.result_cache is not None  # preset overrides

    def test_failure_plan_submission_bypasses_result_cache(self, catalog):
        """A failure-injection experiment must really execute, not be served
        from the cache of an earlier identical run."""
        with make_session(catalog) as session:
            base = session.run(build_query(catalog, 3))
            failed = session.run(
                build_query(catalog, 3),
                failure_plans=[FailurePlan.at_fraction(1, 0.5, base.runtime)],
            )
        assert not failed.metrics.result_from_cache
        assert failed.metrics.tasks_executed > 0
        assert failed.batch.equals(reference_answer(catalog, 3))

    def test_one_shot_runs_do_not_cache(self, catalog):
        runner = OneShotRunner(QuokkaContext(catalog=catalog))
        runner.submit(build_query(catalog, 6)).wait()
        repeat = runner.submit(build_query(catalog, 6)).wait()
        assert not repeat.metrics.result_from_cache
        assert repeat.metrics.tasks_executed > 0


class TestGcsNamespacing:
    def test_namespaced_table_names(self):
        assert namespaced_table(None, "lineage") == "lineage"
        assert namespaced_table(3, "lineage") == "q3/lineage"

    def test_query_views_are_disjoint(self):
        gcs = GlobalControlStore()
        first = gcs.for_query(0)
        second = gcs.for_query(1)
        task = TaskName(0, 0, 0)
        first.tasks.add(TaskDescriptor(task, worker_id=0))
        assert first.tasks.get(task) is not None
        assert second.tasks.get(task) is None
        assert gcs.tasks.get(task) is None
        second.control.mark_query_done()
        assert second.control.query_done()
        assert not first.control.query_done()

    def test_views_share_store_and_transactions(self):
        gcs = GlobalControlStore()
        view = gcs.for_query(7)
        assert view.store is gcs.store
        with gcs.transaction() as txn:
            view.tasks.add(TaskDescriptor(TaskName(9, 0, 0), worker_id=1), txn=txn)
        assert view.tasks.get(TaskName(9, 0, 0)).worker_id == 1

    def test_clear_tables_only_clears_own_namespace(self):
        gcs = GlobalControlStore()
        first, second = gcs.for_query(0), gcs.for_query(1)
        first.tasks.add(TaskDescriptor(TaskName(0, 0, 0), worker_id=0))
        second.tasks.add(TaskDescriptor(TaskName(100, 0, 0), worker_id=0))
        first.clear_tables()
        assert len(first.tasks) == 0
        assert len(second.tasks) == 1


class TestSchedulerAndCacheUnits:
    def test_fair_share_admission_and_rotation(self):
        scheduler = FairShareScheduler(max_concurrent=2, tasks_per_sweep=1)
        for name in ("a", "b", "c"):
            scheduler.enqueue(name)
        assert scheduler.admit() == ["a", "b"]
        assert scheduler.queued == ["c"]
        assert scheduler.sweep_order() == ["a", "b"]
        assert scheduler.sweep_order() == ["b", "a"]
        scheduler.retire("a")
        assert scheduler.admit() == ["c"]
        scheduler.retire("missing-is-fine")

    def test_output_cache_lru_eviction(self):
        cache = OutputCache(capacity_bytes=100.0)
        cache.put("a", 1, 60.0)
        cache.put("b", 2, 60.0)  # evicts a
        assert cache.get("a") is None
        assert cache.get("b") == 2
        assert cache.stats.evictions == 1
        cache.put("c", 3, 60.0)  # evicts b despite its recent hit? No: LRU is b
        assert cache.get("c") == 3
        assert len(cache) == 1

    def test_output_cache_rejects_oversized_values(self):
        cache = OutputCache(capacity_bytes=10.0)
        cache.put("huge", 1, 100.0)
        assert cache.get("huge") is None

    def test_plan_key_stable_across_rebuilds(self, catalog):
        assert plan_key(build_query(catalog, 3).plan) == plan_key(
            build_query(catalog, 3).plan
        )
        assert plan_key(build_query(catalog, 3).plan) != plan_key(
            build_query(catalog, 10).plan
        )

    def test_stage_base_offsets_ids(self, catalog):
        from repro.physical.compiler import compile_plan

        graph = compile_plan(build_query(catalog, 6).plan, num_channels=2, stage_base=40)
        assert min(graph.stages) == 40
        assert graph.stage_base == 40

    def test_engine_config_validates_session_knobs(self):
        with pytest.raises(ConfigError):
            EngineConfig(max_concurrent_queries=0).validate()
        with pytest.raises(ConfigError):
            EngineConfig(result_cache_bytes=-1.0).validate()
