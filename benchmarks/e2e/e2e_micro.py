"""Short micro-timings of each layer's public kernel, on the workload's own data.

These put a speed on the layers the statement-level spans cannot see into
(the kernels run inside forked workers or inside the simulator's event loop).
Inputs are cut from the run's catalog — one ``lineitem`` split, one ``orders``
split, and the predicates and post-op chains of the graphs the traced pass
compiled — so a change to a kernel moves the micro-timing and the workload's
wall-clock together.  Every timing is the median of ``REPEATS`` calls.
"""

import statistics
import time
from typing import Callable, Dict, Iterable

import e2e_paths  # noqa: F401  (puts src/ on sys.path)
from repro.data.partition import hash_partition
from repro.expr import col
from repro.expr.eval import evaluate, expression_columns
from repro.kernels import (
    AggregateFunction,
    AggregateSpec,
    GroupedAggregationState,
    HashJoin,
    factorize_key,
)
from repro.parallel.pool import WorkerPool
from repro.parallel.shm import read_batch, unlink_block, write_batch
from repro.physical.stages import FilterOp, apply_ops

REPEATS = 5


def _median_seconds(call: Callable[[], object]) -> float:
    samples = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        call()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _mrows_per_s(rows: int, seconds: float) -> float:
    return rows / seconds / 1e6 if seconds > 0 else 0.0


def _first_split(catalog, table: str, max_rows: int):
    split = catalog.table(table).splits()[0]
    return split.slice(0, min(split.num_rows, max_rows))


def kernel_timings(catalog, graphs: Iterable, partitions: int, max_rows: int) -> Dict[str, float]:
    """Throughput of expr / post-op / kernel / partition calls (all workloads)."""
    lineitem = _first_split(catalog, "lineitem", max_rows)
    orders = _first_split(catalog, "orders", max_rows)
    rows = lineitem.num_rows
    metrics: Dict[str, float] = {}

    # The statements' own WHERE predicates that apply to raw lineitem rows.
    scan_stages = [stage for graph in graphs for stage in graph if stage.is_input]
    predicates = [
        op.predicate
        for stage in scan_stages
        if stage.table.name == "lineitem"
        for op in stage.post_ops
        if isinstance(op, FilterOp)
        and expression_columns(op.predicate) <= set(lineitem.schema.names)
    ]
    seconds = _median_seconds(lambda: [evaluate(p, lineitem) for p in predicates])
    metrics["expr.eval_mrows_per_s"] = _mrows_per_s(rows * len(predicates), seconds)

    # Each compiled scan stage's fused post-op chain over its table's first split.
    chains = [
        (_first_split(catalog, stage.table.name, max_rows), stage.post_ops)
        for stage in scan_stages
    ]
    seconds = _median_seconds(lambda: [apply_ops(batch, ops) for batch, ops in chains])
    metrics["physical.apply_ops_mrows_per_s"] = _mrows_per_s(
        sum(batch.num_rows for batch, _ops in chains), seconds
    )

    q1_keys = [lineitem.column_data("l_returnflag"), lineitem.column_data("l_linestatus")]
    metrics["kernels.factorize_mrows_per_s"] = _mrows_per_s(
        rows, _median_seconds(lambda: factorize_key(q1_keys))
    )
    order_key = [lineitem.column_data("l_orderkey")]
    metrics["kernels.factorize_highcard_mrows_per_s"] = _mrows_per_s(
        rows, _median_seconds(lambda: factorize_key(order_key))
    )

    def aggregate():
        state = GroupedAggregationState(
            ["l_returnflag", "l_linestatus"],
            [
                AggregateSpec("sum_qty", AggregateFunction.SUM, col("l_quantity")),
                AggregateSpec("avg_price", AggregateFunction.AVG, col("l_extendedprice")),
                AggregateSpec("count_order", AggregateFunction.COUNT),
            ],
        )
        state.update(lineitem)
        return state.finalize(lineitem.schema)

    metrics["kernels.aggregate_mrows_per_s"] = _mrows_per_s(rows, _median_seconds(aggregate))

    def build():
        join = HashJoin(["o_orderkey"], ["l_orderkey"])
        join.build(orders)
        # The code table is built lazily; a one-row probe forces it.
        join.probe(lineitem.slice(0, 1))
        return join

    metrics["kernels.join_build_mrows_per_s"] = _mrows_per_s(
        orders.num_rows, _median_seconds(build)
    )
    built = build()
    metrics["kernels.join_probe_mrows_per_s"] = _mrows_per_s(
        rows, _median_seconds(lambda: built.probe(lineitem))
    )

    metrics["data.partition_mrows_per_s"] = _mrows_per_s(
        rows, _median_seconds(lambda: hash_partition(lineitem, ["l_orderkey"], partitions))
    )
    return metrics


class _IdleHandler:
    def run(self, task):  # pragma: no cover - the idle pool gets no task
        raise AssertionError("the idle pool is never given a task")


def parallel_timings(catalog, workers: int, block_prefix: str, max_rows: int) -> Dict[str, float]:
    """Shared-memory round trip of one split, and an idle pool's start + close."""
    lineitem = _first_split(catalog, "lineitem", max_rows)
    writes, reads, size = [], [], 0
    for _ in range(REPEATS):
        started = time.perf_counter()
        ref = write_batch(lineitem, block_prefix)
        written = time.perf_counter()
        try:
            read_batch(ref, copy=True)
            reads.append(time.perf_counter() - written)
        finally:
            unlink_block(ref.block)
        writes.append(written - started)
        size = ref.size
    megabytes = size / 1e6

    def pool_cycle():
        WorkerPool(workers, _IdleHandler()).close()

    return {
        "parallel.shm_write_mb_per_s": megabytes / statistics.median(writes),
        "parallel.shm_read_mb_per_s": megabytes / statistics.median(reads),
        "parallel.pool_start_s": _median_seconds(pool_cycle),
    }

