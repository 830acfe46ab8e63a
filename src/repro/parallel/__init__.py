"""Morsel-driven multi-core execution backend.

Executes the same compiled stage graphs as the simulator, but for real: a
pool of forked worker processes pulls morsel-sized tasks from a shared queue
and exchanges batches zero-copy through POSIX shared memory.  See
``docs/PARALLEL.md`` for the execution model and determinism guarantees.
"""

from repro.parallel.morsel import (
    DEFAULT_MORSEL_ROWS,
    ChannelTask,
    MergeAggTask,
    PartialAggTask,
    ScanTask,
    agg_shard_count,
    scan_tasks,
    split_sizes,
)
from repro.parallel.pool import WorkerPool, current_worker_id
from repro.parallel.runner import (
    ParallelExecutionStats,
    ParallelExecutor,
    StageGraphTaskHandler,
    WarmPool,
    execute_graph_parallel,
)
from repro.parallel.shm import (
    BlockRegistry,
    ShmBatchRef,
    make_block_name,
    read_batch,
    sweep_blocks,
    unlink_block,
    write_batch,
)

__all__ = [
    "DEFAULT_MORSEL_ROWS",
    "ScanTask",
    "ChannelTask",
    "PartialAggTask",
    "MergeAggTask",
    "agg_shard_count",
    "scan_tasks",
    "split_sizes",
    "WorkerPool",
    "current_worker_id",
    "ParallelExecutor",
    "ParallelExecutionStats",
    "StageGraphTaskHandler",
    "WarmPool",
    "execute_graph_parallel",
    "ShmBatchRef",
    "BlockRegistry",
    "write_batch",
    "read_batch",
    "unlink_block",
    "sweep_blocks",
    "make_block_name",
]
