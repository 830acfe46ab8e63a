"""In-process execution of a stage graph (no cluster, no fault tolerance).

This executor walks the stage graph in topological order, runs every channel's
task step (:mod:`repro.physical.task`) over its routed inputs and returns the
result stage's output.  It exists to test the physical layer (compiler +
operators + partitioning + link modes) independently of the simulated cluster,
and doubles as a second correctness oracle alongside the logical-plan
interpreter.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.common.errors import ExecutionError
from repro.data.batch import Batch, concat_batches
from repro.physical.stages import Stage, StageGraph
from repro.physical.task import drain_operator, finish_output, route_output


def execute_stage_graph_locally(graph: StageGraph, batch_rows: int = 10_000) -> Batch:
    """Execute ``graph`` in-process and return the final result batch.

    ``batch_rows`` bounds the size of batches flowing between stages so the
    multi-batch code paths of the operators are exercised.
    """
    graph.validate()
    # inbox[(stage_id, consumer_channel, upstream_id)] -> batches destined there
    inbox: Dict[Tuple[int, int, int], List[Batch]] = {}

    for stage_id in graph.topological_order():
        stage = graph.stage(stage_id)
        consumer = graph.consumer_of(stage_id)
        result: List[Batch] = []
        for channel in range(stage.num_channels):
            raw = _raw_output(stage, channel, inbox, batch_rows)
            for batch in finish_output(stage, raw):
                pieces = route_output(graph, stage, channel, batch)
                if consumer is None:
                    result.extend(pieces.values())
                    continue
                for target, piece in pieces.items():
                    if piece.num_rows:
                        inbox.setdefault(
                            (consumer[0].stage_id, target, stage_id), []
                        ).append(piece)
        if consumer is None:
            return concat_batches(result, schema=stage.output_schema)
    raise ExecutionError("stage graph has no result stage")


def _raw_output(
    stage: Stage,
    channel: int,
    inbox: Dict[Tuple[int, int, int], List[Batch]],
    batch_rows: int,
) -> List[Batch]:
    """What one channel produces before post-ops: scan chunks or operator output."""
    if stage.is_input:
        splits = stage.table.splits()
        return [
            chunk
            for split_index in stage.splits_for_channel(channel)
            for chunk in splits[split_index].split(batch_rows)
        ]
    inputs = [
        inbox.pop((stage.stage_id, channel, link.upstream_id), [])
        for link in stage.upstreams
    ]
    return drain_operator(stage, stage.make_operator(), inputs)
