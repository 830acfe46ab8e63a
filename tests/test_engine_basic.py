"""End-to-end tests of the write-ahead lineage engine without failures."""

import pytest

from repro.api import QuokkaContext
from repro.common.config import ClusterConfig, CostModelConfig, EngineConfig
from repro.core.session import Session
from repro.data import Batch
from repro.ft.strategies import CheckpointStrategy
from repro.expr import col, lit
from repro.plan import Catalog, DataFrame, TableScan, execute_plan
from repro.plan.dataframe import avg_agg, count_agg, sum_agg


def make_catalog(rows=240):
    catalog = Catalog()
    catalog.register(
        "orders",
        Batch.from_pydict(
            {
                "o_orderkey": list(range(rows)),
                "o_custkey": [i % 13 for i in range(rows)],
                "o_total": [float((i * 7) % 100) for i in range(rows)],
            }
        ),
        num_splits=8,
    )
    catalog.register(
        "customers",
        Batch.from_pydict(
            {
                "c_custkey": list(range(13)),
                "c_nation": [f"nation{i % 4}" for i in range(13)],
            }
        ),
        num_splits=4,
    )
    return catalog


def scan(catalog, name):
    return DataFrame(TableScan(catalog.table(name)))


def agg_query(catalog):
    return (
        scan(catalog, "orders")
        .filter(col("o_total") > lit(10.0))
        .groupby("o_custkey")
        .agg(sum_agg("total", col("o_total")), count_agg("n"), avg_agg("mean", col("o_total")))
        .sort("o_custkey")
    )


def join_query(catalog):
    return (
        scan(catalog, "orders")
        .join(scan(catalog, "customers"), left_on="o_custkey", right_on="c_custkey")
        .groupby("c_nation")
        .agg(sum_agg("total", col("o_total")), count_agg("orders"))
        .sort("c_nation")
    )


def run(query, catalog, num_workers=4, io_scale=1.0, query_name="", **engine_overrides):
    """One query on a fresh cluster, through the public frame verbs."""
    context = QuokkaContext(
        num_workers=num_workers,
        cpus_per_worker=2,
        cost_config=CostModelConfig(io_scale_multiplier=io_scale),
        engine_config=EngineConfig(**engine_overrides),
        catalog=catalog,
    )
    return query.bind(context).submit(query_name=query_name).wait()


class TestPipelinedExecution:
    @pytest.mark.parametrize("num_workers", [1, 2, 4])
    def test_aggregation_matches_reference(self, num_workers):
        catalog = make_catalog()
        query = agg_query(catalog)
        expected = execute_plan(query.plan)
        result = run(query, catalog, num_workers, query_name="agg")
        assert result.batch is not None
        assert result.batch.equals(expected, sort_keys=["o_custkey"])
        assert result.metrics.runtime_seconds > 0
        assert result.metrics.tasks_executed > 0

    @pytest.mark.parametrize("num_workers", [2, 4])
    def test_join_matches_reference(self, num_workers):
        catalog = make_catalog()
        query = join_query(catalog)
        expected = execute_plan(query.plan)
        result = run(query, catalog, num_workers)
        assert result.batch.equals(expected, sort_keys=["c_nation"])

    def test_top_k_query(self):
        catalog = make_catalog()
        query = (
            scan(catalog, "orders")
            .sort("o_total", descending=[True])
            .limit(5)
        )
        expected = execute_plan(query.plan)
        result = run(query, catalog, 4)
        assert result.batch.num_rows == 5
        assert result.batch.column("o_total").tolist() == expected.column("o_total").tolist()

    def test_multi_join_pipeline(self):
        catalog = make_catalog()
        customers2 = scan(catalog, "customers").select(
            "c_custkey", ("region", col("c_nation"))
        )
        query = (
            scan(catalog, "orders")
            .join(scan(catalog, "customers"), left_on="o_custkey", right_on="c_custkey")
            .join(customers2, left_on="o_custkey", right_on="c_custkey", suffix="_r2")
            .groupby("region")
            .agg(count_agg("n"), sum_agg("total", col("o_total")))
            .sort("region")
        )
        expected = execute_plan(query.plan)
        result = run(query, catalog, 4)
        assert result.batch.equals(expected, sort_keys=["region"])

    def test_lineage_is_orders_of_magnitude_smaller_than_data(self):
        # Emulate a larger scale factor so data volumes dominate, as in the paper.
        catalog = make_catalog()
        result = run(join_query(catalog), catalog, io_scale=500.0)
        metrics = result.metrics
        assert metrics.lineage_records > 0
        assert metrics.lineage_bytes < metrics.local_disk_write_bytes
        assert metrics.lineage_bytes < 0.01 * max(metrics.network_bytes, 1.0)

    def test_wal_strategy_backs_up_to_local_disk_not_durable_storage(self):
        catalog = make_catalog()
        result = run(join_query(catalog), catalog, 4)
        assert result.metrics.local_disk_write_bytes > 0
        assert result.metrics.s3_write_bytes == 0
        assert result.metrics.hdfs_write_bytes == 0
        # Inputs are read from simulated S3.
        assert result.metrics.s3_read_bytes > 0

    def test_gcs_transactions_are_recorded(self):
        catalog = make_catalog()
        result = run(agg_query(catalog), catalog, 2)
        assert result.metrics.gcs_transactions >= result.metrics.tasks_executed


class TestExecutionModes:
    def test_stagewise_mode_is_correct_and_not_faster(self):
        catalog = make_catalog()
        query = join_query(catalog)
        expected = execute_plan(query.plan)

        pipelined = run(query, catalog, io_scale=50_000.0, execution_mode="pipelined")
        stagewise = run(query, catalog, io_scale=50_000.0, execution_mode="stagewise")
        assert pipelined.batch.equals(expected, sort_keys=["c_nation"])
        assert stagewise.batch.equals(expected, sort_keys=["c_nation"])
        # With realistic data volumes the blocking barrier costs time.
        assert stagewise.runtime >= pipelined.runtime

    @pytest.mark.parametrize("batch_size", [1, 4])
    def test_static_scheduling_is_correct(self, batch_size):
        catalog = make_catalog()
        query = join_query(catalog)
        expected = execute_plan(query.plan)
        result = run(query, catalog, 4, scheduling="static", static_batch_size=batch_size)
        assert result.batch.equals(expected, sort_keys=["c_nation"])

    def test_spooling_strategy_writes_durably(self):
        catalog = make_catalog()
        query = join_query(catalog)
        expected = execute_plan(query.plan)
        result = run(query, catalog, 4, ft_strategy="spool-s3")
        assert result.batch.equals(expected, sort_keys=["c_nation"])
        assert result.metrics.s3_write_bytes > 0

    def test_spooling_is_slower_than_wal(self):
        catalog = make_catalog()
        query = join_query(catalog)
        wal = run(query, catalog, 4, ft_strategy="wal")
        spool = run(query, catalog, 4, ft_strategy="spool-s3")
        assert spool.runtime > wal.runtime

    def test_checkpoint_strategy_takes_checkpoints(self):
        catalog = make_catalog()
        query = join_query(catalog)
        expected = execute_plan(query.plan)
        strategy = CheckpointStrategy()
        strategy.INTERVAL_TASKS = 2
        with Session(
            cluster_config=ClusterConfig(num_workers=4, cpus_per_worker=2),
            engine_config=EngineConfig(ft_strategy="checkpoint"),
            strategy=strategy,
            catalog=catalog,
        ) as session:
            result = query.submit(session).wait()
        assert result.batch.equals(expected, sort_keys=["c_nation"])
        assert result.metrics.checkpoints_taken > 0
        assert result.metrics.s3_write_bytes > 0

    def test_none_strategy_runs_without_persistence(self):
        catalog = make_catalog()
        query = agg_query(catalog)
        expected = execute_plan(query.plan)
        result = run(query, catalog, 4, ft_strategy="none")
        assert result.batch.equals(expected, sort_keys=["o_custkey"])
        assert result.metrics.local_disk_write_bytes == 0
