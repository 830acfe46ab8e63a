"""Concrete fault-tolerance strategies.

A strategy decides what happens to every committed task output — nothing
(:class:`NoFaultTolerance`), an unreliable local-disk backup
(:class:`WriteAheadLineageStrategy`, the paper's design), a durable copy in
S3/HDFS (:class:`SpoolingStrategy`), or local backups plus periodic operator
snapshots (:class:`CheckpointStrategy`).  Select one through
``EngineConfig.ft_strategy`` (see :func:`make_strategy`) or pass an instance
to :class:`~repro.core.session.Session` directly.

Strategies are stateless with respect to queries: inside a multi-query
session one instance serves every admitted query for the session's whole
lifetime (per-channel bookkeeping such as checkpoint counters lives on the
:class:`~repro.core.runtime.ChannelRuntime`, which is per query).  Whether a
strategy ``supports_intra_query_recovery`` decides what the session's
coordinator does on a worker failure: reconcile the query's lineage
(Algorithm 2) or restart just that query's namespace from scratch.
"""

from __future__ import annotations

from repro.common.config import EngineConfig
from repro.common.errors import ConfigError
from repro.ft.base import FaultToleranceStrategy


class NoFaultTolerance(FaultToleranceStrategy):
    """Persist nothing; queries that lose a worker restart from scratch."""

    name = "none"
    supports_intra_query_recovery = False

    def persist_output(self, engine, worker, task_name, payload, nbytes):
        return None
        yield  # pragma: no cover - generator form required by the interface


class WriteAheadLineageStrategy(FaultToleranceStrategy):
    """The paper's strategy: KB-sized lineage in the GCS plus an unreliable
    local-disk backup of every task output (upstream backup)."""

    name = "wal"


class SpoolingStrategy(FaultToleranceStrategy):
    """Trino-style spooling: every output object is persisted durably.

    ``target`` selects simulated S3 or HDFS.  Durable objects survive worker
    failures, but every write consumes shared object-store bandwidth and pays
    a per-request latency — the overhead Figure 9 measures.
    """

    def __init__(self, target: str = "s3"):
        """``target`` selects the durable store: ``"s3"`` or ``"hdfs"``."""
        if target not in ("s3", "hdfs"):
            raise ConfigError(f"unknown spooling target {target!r}")
        self.target = target
        self.name = f"spool-{target}"

    def store(self, cluster, worker_id):
        return cluster.s3 if self.target == "s3" else cluster.hdfs


class CheckpointStrategy(WriteAheadLineageStrategy):
    """The write-ahead-lineage local backups plus periodic durable snapshots
    of operator state.

    Mirrors the "custom checkpointing strategies to S3" the paper evaluated in
    Section V-C: every :attr:`INTERVAL_TASKS` committed tasks per channel,
    the channel's operator state is written to S3 — incrementally, i.e. only
    the growth since the previous snapshot (the paper's baseline).
    """

    name = "checkpoint"
    #: Committed tasks per channel between two snapshots.
    INTERVAL_TASKS = 4

    def after_task_commit(self, engine, worker, runtime):
        if runtime.operator is None:
            return
        runtime.tasks_since_checkpoint += 1
        if runtime.tasks_since_checkpoint < self.INTERVAL_TASKS:
            return
        runtime.tasks_since_checkpoint = 0
        state_bytes = float(runtime.operator.state_nbytes)
        delta = max(0.0, state_bytes - runtime.last_checkpoint_bytes)
        runtime.last_checkpoint_bytes = state_bytes
        if delta <= 0:
            return
        scaled = engine.cost_model.scaled(delta)
        key = ("checkpoint", runtime.stage_id, runtime.channel, runtime.next_seq)
        snapshot = runtime.operator.snapshot()
        yield from engine.cluster.s3.write(key, snapshot, scaled)
        engine.metrics.checkpoint_bytes += delta
        engine.metrics.checkpoints_taken += 1


def make_strategy(config: EngineConfig) -> FaultToleranceStrategy:
    """Build the strategy named by ``config.ft_strategy``.

    Valid names are ``"none"``, ``"wal"``, ``"spool-s3"``, ``"spool-hdfs"``
    and ``"checkpoint"``.
    """
    name = config.ft_strategy
    if name == "none":
        return NoFaultTolerance()
    if name == "wal":
        return WriteAheadLineageStrategy()
    if name == "spool-s3":
        return SpoolingStrategy("s3")
    if name == "spool-hdfs":
        return SpoolingStrategy("hdfs")
    if name == "checkpoint":
        return CheckpointStrategy()
    raise ConfigError(f"unknown fault-tolerance strategy {name!r}")
