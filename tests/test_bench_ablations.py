"""Tests for the experiment runner's system table and result cache.

These run on a deliberately tiny configuration (no SF100 emulation, two
workers, one query); the series themselves are smoke-tested per figure in
``tests/test_bench_figures.py``.
"""

import pytest

from repro.bench.runner import SYSTEM_CONFIGS, ExperimentRunner
from repro.bench.settings import BenchSettings


@pytest.fixture(scope="module")
def runner():
    settings = BenchSettings(
        scale_factor=0.0005,
        target_scale_factor=1.0,  # io_scale_multiplier == 1: fast virtual runs
        seed=3,
    )
    return ExperimentRunner(settings)


def test_system_configs_include_the_ablation_presets():
    assert "quokka-seqrecover" in SYSTEM_CONFIGS
    assert SYSTEM_CONFIGS["quokka-seqrecover"].recovery_placement == "single-worker"
    for config in SYSTEM_CONFIGS.values():
        config.validate()


def test_optimized_runs_are_cached_separately(runner):
    plain = runner.run(3, "quokka", 2)
    optimized = runner.run(3, "quokka", 2, optimize=True)
    assert plain is runner.run(3, "quokka", 2)
    assert optimized is runner.run(3, "quokka", 2, optimize=True)
    assert plain is not optimized
    # Both produce the same answer.
    assert plain.batch.equals(optimized.batch, sort_keys=[plain.batch.schema.names[0]])
