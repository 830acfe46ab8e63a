"""Tests for the morsel-driven multi-process backend (:mod:`repro.parallel`).

Four layers:

* shared-memory serde — write/read round trips (copy and zero-copy modes),
  block lifecycle, prefix sweeps;
* the worker pool — inline mode, fork mode, error propagation with worker
  tracebacks, per-worker RNG binding;
* the differential tier — :class:`ParallelRunner` must match the reference
  interpreter batch-exact on **all 22 TPC-H queries** across the standard,
  Zipf-skew and NULL-rich adversarial profiles at 2 and 4 workers;
* determinism — same (plan, workers, morsel_rows) twice ⇒ byte-identical
  results, regardless of scheduling.
"""

import dataclasses
import glob
import hashlib

import numpy as np
import pytest

from repro.api import ParallelRunner
from repro.chaos import batches_match
from repro.common.errors import ConfigError, ExecutionError
from repro.core.options import QueryOptions
from repro.data import Batch, DataType, Schema
from repro.parallel import (
    BlockRegistry,
    ParallelExecutor,
    WorkerPool,
    agg_shard_count,
    execute_graph_parallel,
    read_batch,
    split_sizes,
    sweep_blocks,
    unlink_block,
    write_batch,
)
from repro.physical import compile_plan
from repro.tpch import (
    adversarial_catalog,
    build_query,
    generate_catalog,
    reference_answer,
)

ALL_QUERIES = list(range(1, 23))
PROFILES = ("standard", "skew", "nullrich")


# ---------------------------------------------------------------------------
# shared-memory serde
# ---------------------------------------------------------------------------


def _mixed_batch(n=100):
    batch = Batch.from_pydict(
        {
            "k": list(range(n)),
            "v": [float(i) * 0.5 for i in range(n)],
            "flag": [i % 3 == 0 for i in range(n)],
            "tag": [f"tag{i % 7}" for i in range(n)],
            "note": [f"note-{i}" for i in range(n)],
        }
    )
    # One dictionary-encoded string column, one plain object column.
    return batch.dictionary_encode(["tag"])


class TestShmSerde:
    def test_round_trip_copy_mode(self):
        batch = _mixed_batch()
        ref = write_batch(batch)
        try:
            out = read_batch(ref, copy=True)
            assert out.schema == batch.schema
            assert out.num_rows == batch.num_rows
            for name in batch.schema.names:
                np.testing.assert_array_equal(out.column(name), batch.column(name))
        finally:
            unlink_block(ref.block)

    def test_round_trip_zero_copy_mode(self):
        batch = _mixed_batch()
        ref = write_batch(batch)
        registry = BlockRegistry()
        out = read_batch(ref, registry)
        for name in batch.schema.names:
            np.testing.assert_array_equal(out.column(name), batch.column(name))
        assert len(registry) == 1
        # Fixed-width columns are views over the mapping, not copies.
        assert not out.column_data("k").flags.owndata
        del out
        unlink_block(ref.block)

    def test_round_trip_preserves_nbytes_and_compacts_vocab(self):
        batch = _mixed_batch()
        sliced = batch.slice(0, 10)
        ref = write_batch(sliced)
        try:
            out = read_batch(ref, copy=True)
            assert out.nbytes == sliced.nbytes
            tag = out.column_data("tag")
            # The shipped vocabulary holds only the used values.
            assert len(tag.values) == len(set(sliced.column("tag").tolist()))
        finally:
            unlink_block(ref.block)

    @pytest.mark.parametrize("distinct, width", [(1, 1), (256, 1), (257, 2), (70_000, 4)])
    def test_dictionary_codes_travel_at_the_narrowest_width(self, distinct, width):
        values = [f"v{i}" for i in range(distinct)]
        batch = Batch.from_pydict({"s": values + values[:3]}).dictionary_encode()
        ref = write_batch(batch)
        try:
            (entry,) = ref.columns
            assert np.dtype(entry[2]).itemsize == width
            for out in (read_batch(ref, copy=True), read_batch(ref, BlockRegistry())):
                codes = out.column_data("s").codes
                # Widened back to int64 into private memory in both modes.
                assert codes.dtype == np.int64 and codes.flags.owndata
                assert out.column("s").tolist() == batch.column("s").tolist()
        finally:
            unlink_block(ref.block)

    def test_empty_batch_round_trip(self):
        schema = Schema.from_pairs([("a", DataType.INT64), ("s", DataType.STRING)])
        ref = write_batch(Batch.empty(schema))
        try:
            out = read_batch(ref, copy=True)
            assert out.num_rows == 0
            assert out.schema == schema
        finally:
            unlink_block(ref.block)

    def test_zero_copy_without_registry_rejected(self):
        ref = write_batch(_mixed_batch(4))
        try:
            with pytest.raises(ValueError):
                read_batch(ref)
        finally:
            unlink_block(ref.block)

    def test_unlink_is_idempotent(self):
        ref = write_batch(_mixed_batch(4))
        unlink_block(ref.block)
        unlink_block(ref.block)  # second unlink of a gone block is a no-op

    def test_sweep_removes_prefixed_blocks(self):
        prefix = "repro_par_test_sweep_"
        refs = [write_batch(_mixed_batch(8), name_prefix=prefix) for _ in range(3)]
        assert all(ref.block.startswith(prefix) for ref in refs)
        assert sweep_blocks(prefix) == 3
        assert glob.glob(f"/dev/shm/{prefix}*") == []


# ---------------------------------------------------------------------------
# worker pool
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _Task:
    task_id: int
    value: int = 0


class _SquareHandler:
    def run(self, task):
        if task.value < 0:
            raise ValueError(f"kaboom on {task.value}")
        return task.value * task.value


class _WhoAmIHandler:
    def run(self, task):
        from repro.parallel.pool import current_worker_id

        return current_worker_id()


class TestWorkerPool:
    @pytest.mark.parametrize("workers", [0, 3])
    def test_all_tasks_complete(self, workers):
        tasks = [_Task(i, i) for i in range(20)]
        with WorkerPool(workers, _SquareHandler()) as pool:
            payloads = pool.run(tasks)
        assert payloads == {i: i * i for i in range(20)}

    def test_task_error_carries_worker_traceback(self):
        tasks = [_Task(0, 2), _Task(1, -5)]
        with WorkerPool(2, _SquareHandler()) as pool:
            with pytest.raises(ExecutionError, match="kaboom on -5"):
                pool.run(tasks)

    def test_run_on_error_hook_fires(self):
        fired = []
        with WorkerPool(0, _SquareHandler()) as pool:
            with pytest.raises(ExecutionError):
                pool.run([_Task(0, -1)], on_error=lambda: fired.append(True))
        assert fired == [True]

    def test_closed_pool_rejects_work(self):
        pool = WorkerPool(2, _SquareHandler())
        pool.close()
        with pytest.raises(ExecutionError, match="closed"):
            pool.run([_Task(0, 1)])

    @pytest.mark.parametrize("workers", [0, 2])
    def test_tasks_see_their_worker_id(self, workers):
        with WorkerPool(workers, _WhoAmIHandler()) as pool:
            payloads = pool.run([_Task(i) for i in range(8)])
        assert set(payloads.values()) <= set(range(max(1, workers)))


# ---------------------------------------------------------------------------
# morsel decomposition helpers
# ---------------------------------------------------------------------------


class TestMorselHelpers:
    def test_split_sizes_matches_divmod_layout(self):
        assert split_sizes(10, 3) == [4, 3, 3]
        assert split_sizes(9, 3) == [3, 3, 3]
        assert split_sizes(2, 4) == [1, 1, 0, 0]

    def test_agg_shard_count_only_when_pool_is_starved(self):
        # Enough channels for the pool: never shard.
        assert agg_shard_count(100, num_channels=4, workers=4) is None
        # Single channel, 4 workers, plenty of pieces: shard up to the pool.
        assert agg_shard_count(100, num_channels=1, workers=4) == 4
        # Too few pieces for sharding to pay.
        assert agg_shard_count(5, num_channels=1, workers=4) is None
        # Single worker: nothing to gain.
        assert agg_shard_count(100, num_channels=1, workers=1) is None


# ---------------------------------------------------------------------------
# differential tier: all 22 queries x 3 profiles x {2, 4} workers
# ---------------------------------------------------------------------------


_CATALOGS = {}
_EXPECTED = {}


def _catalog(profile):
    if profile not in _CATALOGS:
        if profile == "standard":
            _CATALOGS[profile] = generate_catalog(scale_factor=0.001, seed=7)
        else:
            _CATALOGS[profile] = adversarial_catalog(
                profile, scale_factor=0.001, seed=0
            )
    return _CATALOGS[profile]


def _expected(profile, number):
    key = (profile, number)
    if key not in _EXPECTED:
        _EXPECTED[key] = reference_answer(_catalog(profile), number)
    return _EXPECTED[key]


class TestParallelDifferential:
    @pytest.mark.parametrize("number", ALL_QUERIES)
    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("workers", [2, 4])
    def test_matches_reference(self, workers, profile, number):
        catalog = _catalog(profile)
        runner = ParallelRunner(workers=workers, morsel_rows=2048)
        result = runner.submit(
            build_query(catalog, number),
            QueryOptions(query_name=f"par-{profile}-q{number}"),
        ).wait()
        assert result.batch is not None
        assert batches_match(result.batch, _expected(profile, number)), (
            f"q{number} ({profile}) diverged at workers={workers}"
        )

    def test_inline_mode_matches_reference(self):
        # workers=0 exercises the same task bodies without forking.
        catalog = _catalog("standard")
        runner = ParallelRunner(workers=0, morsel_rows=2048)
        got = runner.submit(build_query(catalog, 5)).wait().batch
        assert batches_match(got, _expected("standard", 5))

    def test_no_shared_memory_blocks_leak(self):
        catalog = _catalog("standard")
        runner = ParallelRunner(workers=2, morsel_rows=2048)
        runner.submit(build_query(catalog, 3)).wait()
        assert glob.glob("/dev/shm/repro_par_*") == []


def _fingerprint(batch):
    hasher = hashlib.sha256()
    hasher.update("|".join(batch.schema.names).encode())
    for name in batch.schema.names:
        column = np.asarray(batch.column(name))
        hasher.update(name.encode())
        hasher.update(column.tobytes() if column.dtype != object
                      else repr(column.tolist()).encode())
    return hasher.hexdigest()


class TestDeterminism:
    @pytest.mark.parametrize("number", [1, 3, 9, 18])
    def test_same_config_same_bytes(self, number):
        catalog = _catalog("standard")

        def run():
            runner = ParallelRunner(workers=4, morsel_rows=1024)
            return runner.submit(build_query(catalog, number)).wait().batch

        assert _fingerprint(run()) == _fingerprint(run())


# ---------------------------------------------------------------------------
# runner surface: option handling, executor stats
# ---------------------------------------------------------------------------


class TestRunnerSurface:
    def test_unsupported_options_rejected(self):
        catalog = _catalog("standard")
        frame = build_query(catalog, 6)
        runner = ParallelRunner(workers=0)
        for bad in (
            QueryOptions(system="quokka"),
            QueryOptions(failure_plans=[object()]),
            QueryOptions(tracer=object()),
            QueryOptions(memory_budget_bytes=1e9),
        ):
            with pytest.raises(ConfigError, match="cannot honor"):
                runner.submit(frame, bad)

    def test_negative_worker_count_rejected(self):
        with pytest.raises(ConfigError, match="workers"):
            ParallelRunner(workers=-1)

    def test_adaptive_rejected(self):
        catalog = _catalog("standard")
        runner = ParallelRunner(workers=0)
        with pytest.raises(ConfigError, match="adaptive"):
            runner.submit(build_query(catalog, 6), QueryOptions(adaptive=True))

    def test_optimize_false_still_matches(self):
        catalog = _catalog("standard")
        runner = ParallelRunner(workers=2, morsel_rows=2048)
        got = runner.submit(
            build_query(catalog, 3), QueryOptions(optimize=False)
        ).wait().batch
        assert batches_match(got, _expected("standard", 3))

    def test_metrics_report_real_execution(self):
        catalog = _catalog("standard")
        runner = ParallelRunner(workers=2, morsel_rows=2048)
        result = runner.submit(build_query(catalog, 1)).wait()
        assert result.metrics.runtime_seconds > 0
        assert result.metrics.tasks_executed > 0
        assert result.metrics.input_tasks > 0

    def test_executor_stats_and_agg_sharding(self):
        catalog = _catalog("standard")
        plan = build_query(catalog, 1).plan
        # One channel per stage + tiny morsels forces the scalar/grouped
        # aggregation channels to shard across the 4-worker pool.
        graph = compile_plan(plan, num_channels=1)
        batch, stats = execute_graph_parallel(graph, workers=4, morsel_rows=256)
        assert batches_match(batch, _expected("standard", 1))
        assert stats.scan_tasks > 0
        assert stats.agg_shard_tasks >= 2
        assert stats.merge_tasks >= 1
        assert stats.shm_blocks > 0
        assert stats.total_tasks == (
            stats.scan_tasks + stats.channel_tasks
            + stats.agg_shard_tasks + stats.merge_tasks
        )

    def test_budgeted_aggregation_is_never_sharded(self):
        # Same operator class under a budget, but its out-of-core kernel does
        # not merge: the channel runs whole through drain_operator instead.
        catalog = _catalog("standard")
        graph = compile_plan(
            build_query(catalog, 1).plan, num_channels=1,
            memory_budget_bytes=float("inf"),
        )
        batch, stats = execute_graph_parallel(graph, workers=2, morsel_rows=256)
        assert batches_match(batch, _expected("standard", 1))
        assert stats.agg_shard_tasks == 0 and stats.merge_tasks == 0

    def test_bad_morsel_rows_rejected(self):
        catalog = _catalog("standard")
        graph = compile_plan(build_query(catalog, 6).plan, num_channels=2)
        with pytest.raises(ExecutionError, match="morsel_rows"):
            ParallelExecutor(graph, workers=2, morsel_rows=0)
