"""Morsel decomposition of a stage graph into parallel work units.

Following the morsel-driven execution model (Leis et al., HyPer), the unit of
scheduling is deliberately much smaller than a plan stage:

* an **input stage** yields one :class:`ScanTask` per ``(channel, split)``
  pair — a worker reads that table split, chops it into morsels of at most
  ``morsel_rows`` rows, runs the stage's fused post-ops (filter / project /
  partial aggregation — the PR 4 vectorized kernels) over each morsel and
  hash-partitions the survivors for the consumer link;
* a **stateful stage** yields one :class:`ChannelTask` per channel — the
  worker instantiates the channel's operator and replays its input pieces in
  a deterministic order (see below);
* an **aggregation channel** whose input piece count is large relative to the
  stage's channel parallelism is further split into :class:`PartialAggTask`
  shards merged by a :class:`MergeAggTask` (the
  :meth:`~repro.kernels.aggregate.GroupedAggregationState.merge` path), so a
  single hot aggregation channel cannot serialise the whole pool.

Determinism: every piece a task emits carries a *sequence key* — for scans
``(channel, split_position, morsel_index, emit_index)``, for channel tasks
``(channel, emit_index)`` — assigned from the task description, never from
scheduling order.  The driver sorts each consumer channel's pieces by that
key before building the consumer's task, so any interleaving of workers
replays into the exact same operator input order, and a fixed
``(plan, workers, morsel_rows)`` configuration is reproducible
run-to-run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.parallel.shm import ShmBatchRef, ShmBlobRef
from repro.physical.stages import Stage

#: Default morsel size.  Large enough that the vectorized kernels amortise
#: their per-batch overhead, small enough that a split fans out across
#: workers and partial-aggregation states stay cache-friendly.
DEFAULT_MORSEL_ROWS = 32_768

#: A piece routed to one consumer channel: (consumer_channel, seq_key, ref).
RoutedPiece = Tuple[int, tuple, ShmBatchRef]

#: One runtime filter a task must apply to its output before routing:
#: ``(probe_key_column, handle_to_the_pickled_filter)``.
FilterHandle = Tuple[str, ShmBlobRef]


@dataclass
class ScanTask:
    """Read one table split of an input stage and shuffle its morsels."""

    task_id: int
    stage_id: int
    channel: int
    split_index: int
    #: Position of ``split_index`` within the channel's split list — the
    #: second component of emitted sequence keys.
    split_position: int
    #: Runtime filters to apply to every output morsel before routing.
    filters: List[FilterHandle] = field(default_factory=list)


@dataclass
class ChannelTask:
    """Run one channel of a non-input stage over its ordered input pieces.

    ``inputs`` holds, per upstream link (in ``stage.upstreams`` order), the
    link's pieces already sorted by sequence key.
    """

    task_id: int
    stage_id: int
    channel: int
    inputs: List[List[ShmBatchRef]] = field(default_factory=list)
    #: Runtime filters to apply to every output batch before routing.
    filters: List[FilterHandle] = field(default_factory=list)


@dataclass
class PartialAggTask:
    """Aggregate one shard of an aggregation channel's input pieces.

    Returns a pickled :class:`~repro.kernels.aggregate.GroupedAggregationState`
    (partial states are group tables — small next to their inputs — so they
    travel through the result queue rather than shared memory).
    """

    task_id: int
    stage_id: int
    channel: int
    shard_index: int
    inputs: List[ShmBatchRef] = field(default_factory=list)


@dataclass
class MergeAggTask:
    """Merge an aggregation channel's partial states (in shard order) and
    finalize, emitting the channel's output pieces."""

    task_id: int
    stage_id: int
    channel: int
    #: Filled by the driver with the shard states, ordered by shard index.
    states: List[object] = field(default_factory=list)
    #: Runtime filters to apply to the merged channel output before routing.
    filters: List[FilterHandle] = field(default_factory=list)


def split_sizes(num_rows: int, num_splits: int) -> List[int]:
    """Row count of each table split, mirroring ``TableMetadata.splits``."""
    base, extra = divmod(num_rows, num_splits)
    return [base + (1 if index < extra else 0) for index in range(num_splits)]


def scan_tasks(stage: Stage, next_id) -> List[ScanTask]:
    """One task per (channel, split) of an input stage."""
    tasks: List[ScanTask] = []
    for channel in range(stage.num_channels):
        for position, split_index in enumerate(stage.splits_for_channel(channel)):
            tasks.append(
                ScanTask(
                    task_id=next_id(),
                    stage_id=stage.stage_id,
                    channel=channel,
                    split_index=split_index,
                    split_position=position,
                )
            )
    return tasks


#: Fewest input pieces per partial-aggregation shard for sharding to pay.
MIN_PIECES_PER_SHARD = 4


def agg_shard_count(num_pieces: int, num_channels: int, workers: int) -> Optional[int]:
    """How many partial-aggregation shards to split one channel into.

    ``None`` means "do not shard" — either the pool already has enough
    channel-level parallelism for this stage, or the channel has too few
    input pieces for sharding to pay.  The count depends only on the task
    shape and the configured worker count, never on runtime load, so a given
    configuration always shards identically.
    """
    if workers <= 1 or num_channels >= workers:
        return None
    shards = min(workers, num_pieces // MIN_PIECES_PER_SHARD)
    return shards if shards >= 2 else None
