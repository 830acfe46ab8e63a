"""Tests for configuration dataclasses and validation."""

import dataclasses

import pytest

from repro.common import ClusterConfig, CostModelConfig, EngineConfig
from repro.common.errors import ConfigError


class TestCostModelConfig:
    def test_defaults_validate(self):
        CostModelConfig().validate()

    def test_scaled_bytes(self):
        cost = CostModelConfig(io_scale_multiplier=4.0)
        assert cost.scaled_bytes(100.0) == 400.0

    def test_negative_throughput_rejected(self):
        with pytest.raises(ConfigError):
            CostModelConfig(network_bps=-1.0).validate()

    def test_zero_throughput_rejected(self):
        with pytest.raises(ConfigError):
            CostModelConfig(s3_write_bps=0.0).validate()

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigError):
            CostModelConfig(gcs_op_latency=-0.1).validate()

    def test_bad_io_multiplier_rejected(self):
        with pytest.raises(ConfigError):
            CostModelConfig(io_scale_multiplier=0.0).validate()

    def test_disk_faster_than_network_faster_than_s3(self):
        cost = CostModelConfig()
        assert cost.local_disk_write_bps >= cost.network_bps > cost.s3_write_bps


def _field_names(config_class):
    return [field.name for field in dataclasses.fields(config_class)]


class TestClusterConfig:
    def test_defaults_validate(self):
        ClusterConfig().validate()

    def test_fields_are_stable(self):
        # Every field is an independently settable value tests and benchmarks
        # must cover; adding one is a deliberate act, like the API snapshot.
        assert _field_names(ClusterConfig) == [
            "num_workers",
            "cpus_per_worker",
            "task_managers_per_worker",
            "seed",
        ]

    def test_total_cpus(self):
        assert ClusterConfig(num_workers=4, cpus_per_worker=8).total_cpus == 32

    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_workers", 0),
            ("cpus_per_worker", 0),
            ("task_managers_per_worker", 0),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            ClusterConfig(**{field: value}).validate()


class TestEngineConfig:
    def test_defaults_validate(self):
        EngineConfig().validate()

    def test_fields_are_stable(self):
        assert _field_names(EngineConfig) == [
            "execution_mode",
            "scheduling",
            "static_batch_size",
            "ft_strategy",
            "recovery_placement",
            "checkpoint_interval_tasks",
            "max_concurrent_queries",
            "result_cache_bytes",
        ]

    def test_unknown_execution_mode(self):
        with pytest.raises(ConfigError):
            EngineConfig(execution_mode="vectorised").validate()

    def test_unknown_scheduling(self):
        with pytest.raises(ConfigError):
            EngineConfig(scheduling="greedy").validate()

    def test_unknown_ft_strategy(self):
        with pytest.raises(ConfigError):
            EngineConfig(ft_strategy="raid").validate()

    def test_bad_static_batch_size(self):
        with pytest.raises(ConfigError):
            EngineConfig(static_batch_size=0).validate()

    def test_with_overrides_returns_new_validated_config(self):
        base = EngineConfig()
        derived = base.with_overrides(ft_strategy="spool-s3", execution_mode="stagewise")
        assert derived.ft_strategy == "spool-s3"
        assert derived.execution_mode == "stagewise"
        assert base.ft_strategy == "wal"

    def test_with_overrides_validates(self):
        with pytest.raises(ConfigError):
            EngineConfig().with_overrides(ft_strategy="bogus")

    def test_every_declared_ft_strategy_is_accepted(self):
        from repro.common.config import FT_STRATEGIES

        for strategy in FT_STRATEGIES:
            EngineConfig(ft_strategy=strategy).validate()

