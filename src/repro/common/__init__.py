"""Shared low-level utilities: errors, configuration and deterministic RNG."""

from repro.common.errors import (
    ReproError,
    ConfigError,
    PlanError,
    ExecutionError,
    FaultToleranceError,
    GCSTransactionError,
    WorkerFailedError,
)
from repro.common.config import (
    ClusterConfig,
    CostModelConfig,
    EngineConfig,
)
from repro.common.rng import DeterministicRNG, derive_seed, stable_hash

__all__ = [
    "ReproError",
    "ConfigError",
    "PlanError",
    "ExecutionError",
    "FaultToleranceError",
    "GCSTransactionError",
    "WorkerFailedError",
    "ClusterConfig",
    "CostModelConfig",
    "EngineConfig",
    "DeterministicRNG",
    "derive_seed",
    "stable_hash",
]
