"""Tests for the SparkSQL-like stage-wise baseline engine."""

import pytest

from repro.baselines import SparkLikeEngine
from repro.cluster import FailurePlan
from repro.common.config import ClusterConfig, CostModelConfig
from repro.data import Batch
from repro.expr import col, lit
from repro.plan import Catalog, DataFrame, TableScan, execute_plan
from repro.plan.dataframe import count_agg, sum_agg


def make_catalog(rows=300):
    catalog = Catalog()
    catalog.register(
        "orders",
        Batch.from_pydict(
            {
                "o_orderkey": list(range(rows)),
                "o_custkey": [i % 11 for i in range(rows)],
                "o_total": [float((i * 3) % 120) for i in range(rows)],
            }
        ),
        num_splits=6,
    )
    catalog.register(
        "customers",
        Batch.from_pydict(
            {
                "c_custkey": list(range(11)),
                "c_nation": [f"nation{i % 3}" for i in range(11)],
            }
        ),
        num_splits=2,
    )
    return catalog


def scan(catalog, name):
    return DataFrame(TableScan(catalog.table(name)))


def join_query(catalog):
    return (
        scan(catalog, "orders")
        .join(scan(catalog, "customers"), left_on="o_custkey", right_on="c_custkey")
        .groupby("c_nation")
        .agg(sum_agg("total", col("o_total")), count_agg("n"))
        .sort("c_nation")
    )


def make_engine(num_workers=4):
    return SparkLikeEngine(
        cluster_config=ClusterConfig(num_workers=num_workers, cpus_per_worker=2),
        cost_config=CostModelConfig(failure_detection_delay=0.05, heartbeat_interval=0.02),
    )


class TestSparkLikeEngine:
    @pytest.mark.parametrize("num_workers", [1, 2, 4])
    def test_results_match_reference(self, num_workers):
        catalog = make_catalog()
        query = join_query(catalog)
        expected = execute_plan(query.plan)
        result = make_engine(num_workers).run(query, catalog)
        assert result.batch.equals(expected, sort_keys=["c_nation"])
        assert result.metrics.tasks_executed > 0
        assert result.metrics.local_disk_write_bytes > 0

    def test_aggregation_query(self):
        catalog = make_catalog()
        query = (
            scan(catalog, "orders")
            .filter(col("o_total") > lit(30.0))
            .groupby("o_custkey")
            .agg(count_agg("n"))
            .sort("o_custkey")
        )
        expected = execute_plan(query.plan)
        result = make_engine(3).run(query, catalog)
        assert result.batch.equals(expected, sort_keys=["o_custkey"])

    def test_failure_recovers_with_data_parallel_recomputation(self):
        catalog = make_catalog()
        query = join_query(catalog)
        expected = execute_plan(query.plan)
        baseline = make_engine(4).run(query, catalog)
        plan = FailurePlan.at_fraction(2, 0.5, baseline.runtime)
        failed = make_engine(4).run(query, catalog, failure_plans=[plan])
        assert failed.batch.equals(expected, sort_keys=["c_nation"])
        assert failed.runtime >= baseline.runtime

    @pytest.mark.parametrize("fraction", [0.25, 0.75])
    def test_failure_at_other_points(self, fraction):
        catalog = make_catalog()
        query = join_query(catalog)
        expected = execute_plan(query.plan)
        baseline = make_engine(4).run(query, catalog)
        plan = FailurePlan.at_fraction(1, fraction, baseline.runtime)
        failed = make_engine(4).run(query, catalog, failure_plans=[plan])
        assert failed.batch.equals(expected, sort_keys=["c_nation"])

    def test_stagewise_runtime_not_faster_than_pipelined_quokka(self):
        from repro.api import QuokkaContext

        catalog = make_catalog()
        query = join_query(catalog)
        cost = CostModelConfig(io_scale_multiplier=50_000.0)
        spark = SparkLikeEngine(
            cluster_config=ClusterConfig(num_workers=4, cpus_per_worker=2), cost_config=cost
        ).run(query, catalog)
        context = QuokkaContext(num_workers=4, cpus_per_worker=2, cost_config=cost, catalog=catalog)
        quokka = query.bind(context).submit().wait()
        assert spark.runtime > quokka.runtime

    def test_io_counters_include_shuffle_reads(self):
        """Every reduce task reads its shuffle input from a worker disk, so a
        join query reports the bytes the workers' disks actually read."""
        from repro.baselines.spark import _SparkDriver
        from repro.cluster import Cluster
        from repro.physical import compile_plan
        from repro.tpch import build_query, generate_catalog

        catalog = generate_catalog(scale_factor=0.002, seed=1)
        engine = make_engine()
        cluster = Cluster(engine.cluster_config, engine.cost_config)
        cluster.load_catalog(catalog)
        graph = compile_plan(build_query(catalog, 3).plan, num_channels=cluster.num_workers)
        metrics = _SparkDriver(cluster, graph).run().metrics
        read = sum(worker.disk.stats.bytes_read for worker in cluster.workers)
        assert metrics.local_disk_read_bytes > 0
        assert metrics.local_disk_read_bytes == read
        assert metrics.local_disk_write_bytes > 0
