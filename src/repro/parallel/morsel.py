"""Morsel decomposition of a stage graph into parallel work units.

Following the morsel-driven execution model (Leis et al., HyPer), the unit of
scheduling is deliberately much smaller than a plan stage:

* an **input stage** yields one :class:`ScanTask` per ``(channel, split)``
  pair — a worker reads that table split, chops it into morsels of at most
  ``morsel_rows`` rows, runs the stage's fused post-ops (filter / project /
  partial aggregation — the PR 4 vectorized kernels) over each morsel and
  hash-partitions the survivors for the consumer link;
* a **stateful stage** yields one :class:`ChannelTask` per channel — the
  worker instantiates the channel's operator and drains its input pieces
  through :func:`~repro.physical.task.drain_operator` in a deterministic
  order (see below), as every other executor does; an aggregation is one
  channel task per channel, never split further.

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
#: workers and per-morsel partial aggregates stay cache-friendly.
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
    #: Handle of the statement's shipped stage graph, stamped at dispatch.
    graph: Optional[ShmBlobRef] = None


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
    #: Handle of the statement's shipped stage graph, stamped at dispatch.
    graph: Optional[ShmBlobRef] = None


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

