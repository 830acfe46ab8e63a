"""The one stage-task step every :class:`StageGraph` executor runs.

A task turns raw batches (a scanned split, or what an operator emitted for
its inputs) into routed pieces: post-ops → runtime-filter apply → partition.
The write-ahead-lineage engine (:mod:`repro.core.engine`), the multi-process
backend (:mod:`repro.parallel.runner`), the in-process oracle
(:mod:`repro.physical.local`) and the Spark-like baseline all compute that
through the functions below, so "run task T" and "re-run T from its logged
lineage" yield the same bytes because they are the same code.

Everything here is pure — no clock, no transport, no metrics object.  Callers
own what differs between backends: time charging, lineage and recovery in the
engine; task decomposition, sequence keys and shared memory in the parallel
driver.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.data.batch import Batch
from repro.kernels.runtimefilter import RuntimeFilter, RuntimeFilterBuilder
from repro.optimizer.runtime_filters import split_is_prunable
from repro.optimizer.statistics import split_zone_maps
from repro.physical.stages import (
    RuntimeFilterSpec,
    Stage,
    StageGraph,
    apply_ops,
    partition_for_link,
)


def finish_output(stage: Stage, batches: Iterable[Batch]) -> List[Batch]:
    """Apply ``stage``'s fused post-ops to a task's raw batches.

    Empty batches are skipped on the way in and dropped on the way out, so
    the result holds only batches with rows, in input order.
    """
    outputs = []
    for batch in batches:
        if batch.num_rows:
            out = apply_ops(batch, stage.post_ops)
            if out.num_rows:
                outputs.append(out)
    return outputs


def drain_operator(
    stage: Stage, operator, inputs_per_upstream: Sequence[Iterable[Batch]]
) -> List[Batch]:
    """Feed a fresh operator its complete inputs; return everything it emits.

    ``inputs_per_upstream`` is aligned with ``stage.upstreams``.  Each
    upstream's batches go through ``on_input`` in order, followed by that
    upstream's ``on_upstream_done``; ``finalize`` closes the channel.
    """
    emitted: List[Batch] = []
    for link, batches in zip(stage.upstreams, inputs_per_upstream):
        for batch in batches:
            emitted.extend(operator.on_input(link.upstream_id, batch))
        emitted.extend(operator.on_upstream_done(link.upstream_id))
    emitted.extend(operator.finalize())
    return emitted


def apply_runtime_filters(
    batch: Batch, filters: Sequence[Tuple[str, RuntimeFilter]]
) -> Tuple[Batch, int, int]:
    """Drop the rows of a task output that some ``(probe_key, filter)`` rejects.

    Filters stack in the given order, each testing only the rows its
    predecessors kept.  Returns ``(batch, rows_tested, rows_dropped)`` summed
    over the filters that ran; an emptied batch ends the chain.
    """
    tested = dropped = 0
    for probe_key, runtime_filter in filters:
        rows = batch.num_rows
        if not rows:
            break
        mask = runtime_filter.mask(batch.column_data(probe_key))
        kept = int(mask.sum())
        tested += rows
        dropped += rows - kept
        if kept < rows:
            batch = batch.filter(mask)
    return batch, tested, dropped


def split_prunable(
    stage: Stage,
    split_index: int,
    specs: Sequence[RuntimeFilterSpec],
    filters: Mapping[int, RuntimeFilter],
) -> bool:
    """True when no row of the scan split could survive the scan's filters.

    ``specs`` are the filter edges aimed at ``stage`` and ``filters`` the
    finalized filters by filter id.  The split's zone map is tested against
    the scan's static predicate bounds and against each filter whose probe
    key traces to a raw table column; skipping a prunable split routes the
    same (empty) output a full read would.
    """
    by_column = [
        (spec.target_raw_column, filters[spec.filter_id])
        for spec in specs
        if spec.target_raw_column is not None
    ]
    if stage.table is None or (not by_column and not stage.scan_bounds):
        return False
    maps = split_zone_maps(stage.table)
    if maps is None or split_index >= len(maps):
        return False
    return split_is_prunable(maps[split_index], stage.scan_bounds, by_column)


class FilterFold:
    """Folds a source stage's outputs into one builder per outgoing filter edge.

    The reductions are commutative and idempotent, so pieces may arrive in any
    order and more than once (a retraced producer re-commits its output).
    """

    def __init__(self, stage: Stage, specs: Sequence[RuntimeFilterSpec]):
        self._builders = [
            (spec, RuntimeFilterBuilder(stage.output_schema.field(spec.build_key).dtype))
            for spec in specs
        ]

    def add(self, batch: Batch) -> None:
        """Fold one output batch's build-key columns in."""
        for spec, builder in self._builders:
            builder.add(batch.column_data(spec.build_key))

    def finalize(self) -> List[Tuple[RuntimeFilterSpec, RuntimeFilter]]:
        """The immutable filter for every edge, in spec order."""
        return [(spec, builder.finalize()) for spec, builder in self._builders]


def route_output(
    graph: StageGraph, stage: Stage, producer_channel: int, batch: Batch
) -> Dict[int, Batch]:
    """Split one output batch into pieces keyed by consumer channel.

    Every channel of the stage's single consumer gets an entry (possibly an
    empty piece), under the connecting link's movement mode.  The result
    stage has no consumer: its output routes whole to pseudo-channel 0.
    """
    consumer = graph.consumer_of(stage.stage_id)
    if consumer is None:
        return {0: batch}
    consumer_stage, link = consumer
    return dict(
        enumerate(
            partition_for_link(batch, link, consumer_stage.num_channels, producer_channel)
        )
    )
