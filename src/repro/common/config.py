"""Configuration dataclasses shared across the engine.

The configuration is split in three layers:

``CostModelConfig``
    Physical constants of the simulated hardware (throughputs, latencies).
    Defaults are calibrated against the AWS ``r6id`` instance family used in
    the paper: instance-attached NVMe is far faster than the network, which in
    turn is faster than the effective per-partition throughput of S3/HDFS.

``ClusterConfig``
    Shape of the simulated cluster: number of workers, CPU slots per worker,
    local disk capacity.

``EngineConfig``
    Query-engine behaviour knobs: execution mode (pipelined / stagewise),
    scheduling strategy (dynamic / static-k), fault-tolerance strategy and
    the session's admission and cache limits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from repro.common.errors import ConfigError

#: Valid execution modes for the engine.
EXECUTION_MODES = ("pipelined", "stagewise")

#: Valid scheduling strategies (how many upstream outputs a task consumes).
SCHEDULING_STRATEGIES = ("dynamic", "static")

#: Valid fault-tolerance strategies.
FT_STRATEGIES = ("none", "wal", "spool-s3", "spool-hdfs", "checkpoint")

#: Default build-side size (estimated bytes) below which the physical
#: compiler turns a join into a broadcast join.  Lives here (the bottom
#: configuration layer) so both the planner (`repro.optimizer.cost`) and the
#: per-query options (`repro.core.options`) can share it without either
#: importing the other.
DEFAULT_BROADCAST_THRESHOLD_BYTES = 8_000_000.0

#: Default number of hash partitions out-of-core operators split their state
#: into (grace hash join build side).  A constant, not an option;
#: `SpillContext(partitions=)` lets kernel tests force spill paths.
DEFAULT_SPILL_PARTITIONS = 16

#: Valid spill targets for out-of-core operators: "auto" resolves to the
#: fault-tolerance strategy's durable store when it has one (spooling) and to
#: the worker-local disk otherwise.
SPILL_TARGETS = ("auto", "local", "s3", "hdfs")

#: Valid placements for rewound channels during recovery: "pipelined" spreads
#: the lost channels of different stages over different live workers (the
#: paper's pipeline-parallel recovery, Figure 3); "single-worker" rebuilds all
#: of them on one worker (the ablation baseline).
RECOVERY_PLACEMENTS = ("pipelined", "single-worker")


@dataclass(frozen=True)
class CostModelConfig:
    """Physical constants of the simulated hardware.

    All throughputs are bytes/second, all latencies seconds.  The defaults
    approximate one ``r6id.xlarge`` worker (4 vCPU, 1.18 GB/s NVMe write,
    ~1.5 GB/s network burst shared across flows, S3/HDFS effective throughput
    far lower once per-object request overheads are included).
    """

    cpu_rows_per_second: float = 25_000_000.0
    cpu_bytes_per_second: float = 1_200_000_000.0
    local_disk_write_bps: float = 1_300_000_000.0
    local_disk_read_bps: float = 1_800_000_000.0
    network_bps: float = 1_000_000_000.0
    network_latency: float = 0.0005
    s3_write_bps: float = 95_000_000.0
    s3_read_bps: float = 220_000_000.0
    s3_request_latency: float = 0.03
    hdfs_write_bps: float = 140_000_000.0
    hdfs_read_bps: float = 260_000_000.0
    hdfs_request_latency: float = 0.008
    gcs_op_latency: float = 0.0004
    gcs_txn_latency: float = 0.0009
    task_dispatch_overhead: float = 0.002
    heartbeat_interval: float = 0.5
    failure_detection_delay: float = 2.0
    #: Multiplier applied to byte counts when estimating I/O time, used to
    #: emulate a larger scale factor than the rows actually generated.
    io_scale_multiplier: float = 1.0

    def scaled_bytes(self, nbytes: float) -> float:
        """Return ``nbytes`` scaled by :attr:`io_scale_multiplier`."""
        return nbytes * self.io_scale_multiplier

    def validate(self) -> None:
        """Raise :class:`ConfigError` if any constant is non-positive."""
        for name in (
            "cpu_rows_per_second",
            "cpu_bytes_per_second",
            "local_disk_write_bps",
            "local_disk_read_bps",
            "network_bps",
            "s3_write_bps",
            "s3_read_bps",
            "hdfs_write_bps",
            "hdfs_read_bps",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"cost model constant {name!r} must be positive")
        for name in (
            "network_latency",
            "s3_request_latency",
            "hdfs_request_latency",
            "gcs_op_latency",
            "gcs_txn_latency",
            "task_dispatch_overhead",
            "heartbeat_interval",
            "failure_detection_delay",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"cost model constant {name!r} must be non-negative")
        if self.io_scale_multiplier <= 0:
            raise ConfigError("io_scale_multiplier must be positive")


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of the simulated cluster."""

    num_workers: int = 4
    cpus_per_worker: int = 4
    task_managers_per_worker: int = 1
    seed: int = 0

    def validate(self) -> None:
        """Raise :class:`ConfigError` on an impossible cluster shape."""
        if self.num_workers < 1:
            raise ConfigError("num_workers must be at least 1")
        if self.cpus_per_worker < 1:
            raise ConfigError("cpus_per_worker must be at least 1")
        if self.task_managers_per_worker < 1:
            raise ConfigError("task_managers_per_worker must be at least 1")

    @property
    def total_cpus(self) -> int:
        """Total CPU slots across all workers."""
        return self.num_workers * self.cpus_per_worker


@dataclass(frozen=True)
class EngineConfig:
    """Query-engine behaviour knobs."""

    execution_mode: str = "pipelined"
    scheduling: str = "dynamic"
    static_batch_size: int = 8
    ft_strategy: str = "wal"
    recovery_placement: str = "pipelined"
    checkpoint_interval_tasks: int = 4

    #: Session admission control: at most this many queries execute
    #: concurrently; further submissions wait in a FIFO queue.
    max_concurrent_queries: int = 4
    #: Capacity of the session's whole-result cache (bytes; 0 disables).
    result_cache_bytes: float = 64e6

    def validate(self) -> None:
        """Raise :class:`ConfigError` for unknown modes or bad sizes."""
        if self.execution_mode not in EXECUTION_MODES:
            raise ConfigError(
                f"unknown execution_mode {self.execution_mode!r}; "
                f"expected one of {EXECUTION_MODES}"
            )
        if self.scheduling not in SCHEDULING_STRATEGIES:
            raise ConfigError(
                f"unknown scheduling {self.scheduling!r}; "
                f"expected one of {SCHEDULING_STRATEGIES}"
            )
        if self.ft_strategy not in FT_STRATEGIES:
            raise ConfigError(
                f"unknown ft_strategy {self.ft_strategy!r}; "
                f"expected one of {FT_STRATEGIES}"
            )
        if self.recovery_placement not in RECOVERY_PLACEMENTS:
            raise ConfigError(
                f"unknown recovery_placement {self.recovery_placement!r}; "
                f"expected one of {RECOVERY_PLACEMENTS}"
            )
        if self.static_batch_size < 1:
            raise ConfigError("static_batch_size must be at least 1")
        if self.checkpoint_interval_tasks < 1:
            raise ConfigError("checkpoint_interval_tasks must be at least 1")
        if self.max_concurrent_queries < 1:
            raise ConfigError("max_concurrent_queries must be at least 1")
        if self.result_cache_bytes < 0:
            raise ConfigError("result_cache_bytes must be non-negative")

    def with_overrides(self, **kwargs) -> "EngineConfig":
        """Return a copy with the supplied fields replaced and re-validated."""
        updated = replace(self, **kwargs)
        updated.validate()
        return updated

