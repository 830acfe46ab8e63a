"""Unit tests for the pluggable fault-tolerance strategies and their configuration."""

import pytest

from repro.common.config import EngineConfig
from repro.common.errors import ConfigError
from repro.ft.strategies import (
    CheckpointStrategy,
    NoFaultTolerance,
    SpoolingStrategy,
    WriteAheadLineageStrategy,
    make_strategy,
)


class TestStrategyFactory:
    def test_every_configured_name_builds(self):
        for name in ("none", "wal", "spool-s3", "spool-hdfs", "checkpoint"):
            strategy = make_strategy(EngineConfig(ft_strategy=name))
            assert strategy.name in (name, f"spool-{name.split('-')[-1]}")

    def test_unknown_name_rejected_by_config(self):
        with pytest.raises(ConfigError):
            EngineConfig(ft_strategy="raid5").validate()

    def test_checkpoint_interval_is_a_class_constant(self):
        strategy = make_strategy(EngineConfig(ft_strategy="checkpoint"))
        assert isinstance(strategy, CheckpointStrategy)
        assert strategy.INTERVAL_TASKS == 4

    def test_only_none_disables_intra_query_recovery(self):
        assert not NoFaultTolerance().supports_intra_query_recovery
        assert WriteAheadLineageStrategy().supports_intra_query_recovery
        assert SpoolingStrategy("s3").supports_intra_query_recovery

    def test_only_spooling_stores_outside_the_worker_disk(self):
        # Task backups and spilled chunks live in this store.
        from repro.cluster.cluster import Cluster
        from repro.common.config import ClusterConfig

        cluster = Cluster(ClusterConfig(num_workers=2))
        assert SpoolingStrategy("s3").store(cluster, 1) is cluster.s3
        assert SpoolingStrategy("hdfs").store(cluster, 1) is cluster.hdfs
        for strategy in (NoFaultTolerance(), WriteAheadLineageStrategy(), CheckpointStrategy()):
            assert strategy.store(cluster, 1) is cluster.worker(1).disk

    def test_spooling_rejects_unknown_target(self):
        with pytest.raises(ConfigError):
            SpoolingStrategy("floppy")


class TestRecoveryPlacementConfig:
    def test_default_is_pipelined(self):
        assert EngineConfig().recovery_placement == "pipelined"

    def test_single_worker_accepted(self):
        EngineConfig(recovery_placement="single-worker").validate()

    def test_unknown_placement_rejected(self):
        with pytest.raises(ConfigError):
            EngineConfig(recovery_placement="everywhere").validate()

    def test_with_overrides_revalidates(self):
        config = EngineConfig()
        with pytest.raises(ConfigError):
            config.with_overrides(recovery_placement="nope")


class TestStrategyBehaviourOnCluster:
    """Exercise persist_output against a real (tiny) simulated cluster."""

    @pytest.fixture()
    def harness(self):
        from repro.cluster.cluster import Cluster
        from repro.common.config import ClusterConfig, CostModelConfig
        from repro.data.batch import Batch
        from repro.gcs.naming import TaskName

        cluster = Cluster(ClusterConfig(num_workers=2), CostModelConfig())
        payload = {0: Batch.from_pydict({"x": [1, 2, 3]})}
        return cluster, payload, TaskName(1, 0, 0)

    def _run_persist(self, cluster, strategy, task, payload, nbytes=1000.0):
        class _Engine:
            pass

        engine = _Engine()
        engine.cluster = cluster
        engine.cost_model = cluster.cost_model
        worker = cluster.worker(0)

        result = {}

        def driver():
            location = yield from strategy.persist_output(engine, worker, task, payload, nbytes)
            result["location"] = location

        done = cluster.env.process(driver())
        cluster.env.run(done)
        return result["location"], worker

    def test_wal_backs_up_to_local_disk(self, harness):
        cluster, payload, task = harness
        location, worker = self._run_persist(cluster, WriteAheadLineageStrategy(), task, payload)
        assert location is not None and not location.durable
        assert worker.disk.contains(task)
        assert cluster.s3.stats.bytes_written == 0

    @pytest.mark.parametrize("target", ["s3", "hdfs"])
    def test_spooling_writes_durably(self, harness, target):
        cluster, payload, task = harness
        location, worker = self._run_persist(cluster, SpoolingStrategy(target), task, payload)
        store = getattr(cluster, target)
        assert location is not None and location.durable
        assert store.contains(task)
        assert not worker.disk.contains(task)
        # Durable copies survive the worker's failure.
        worker.fail()
        assert store.contains(task)

    def test_none_persists_nothing(self, harness):
        cluster, payload, task = harness
        location, worker = self._run_persist(cluster, NoFaultTolerance(), task, payload)
        assert location is None
        assert not worker.disk.contains(task)
        assert cluster.s3.stats.bytes_written == 0
