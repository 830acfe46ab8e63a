"""Tests for the morsel-driven multi-process backend (:mod:`repro.parallel`).

Five layers:

* shared-memory serde — write/read round trips (copy and zero-copy modes),
  block lifecycle, prefix sweeps;
* the worker pool — inline mode, fork mode, error propagation with worker
  tracebacks, per-worker RNG binding;
* the differential tier — :class:`ParallelRunner` must match the reference
  interpreter batch-exact on **all 22 TPC-H queries** across the standard,
  Zipf-skew and NULL-rich adversarial profiles at 2 and 4 workers;
* determinism — same (plan, workers, morsel_rows) twice ⇒ byte-identical
  results, regardless of scheduling; one stage graph at any worker count ⇒
  byte-identical results;
* the warm pool — one fork serves many statements, a table registered
  after the fork re-forks, a failed statement (task error or killed worker)
  leaves the runner usable, and a worker maps only its last statement's
  blocks.
"""

import dataclasses
import glob
import hashlib
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.api import OneShotRunner, ParallelRunner, QuokkaContext, ReferenceRunner
from repro.chaos import batches_match
from repro.common.errors import ConfigError, ExecutionError
from repro.core.options import QueryOptions
from repro.data import Batch, DataType, Schema
from repro.data.dictionary import DictionaryArray
from repro.parallel import (
    BlockRegistry,
    ParallelExecutor,
    StageGraphTaskHandler,
    WarmPool,
    WorkerPool,
    execute_graph_parallel,
    read_batch,
    sweep_blocks,
    unlink_block,
    write_batch,
)
from repro.kernels.join import HashJoin
from repro.physical import compile_plan
from repro.plan.catalog import Catalog, vocabulary_owner
from repro.sql import parse, plan_query
from repro.tpch import (
    adversarial_catalog,
    build_query,
    generate_catalog,
    reference_answer,
)
from repro.tpch.sql import SQL_QUERIES

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

    def test_catalog_vocabulary_travels_by_reference(self):
        table = Catalog().register("t", _mixed_batch(1000), num_splits=4)
        source = table.data.column_data("tag")
        piece = table.split(1).take(np.arange(0, 250, 3))
        ref = write_batch(piece)
        try:
            kinds = {entry[1]: entry[0] for entry in ref.columns}
            assert kinds["tag"] == "catalog" and kinds["note"] == "pickle"
            pickled = [e for e in ref.columns if e[0] == "pickle"]
            # Fixed-width columns, one byte per tag code and the pickled plain
            # column: no vocabulary bytes.
            fixed = piece.num_rows * (8 + 8 + 1 + 1)
            assert ref.size <= fixed + 7 + sum(e[3] for e in pickled)
            for out in (read_batch(ref, copy=True), read_batch(ref, BlockRegistry())):
                tag = out.column_data("tag")
                assert tag.values is source.values
                assert tag.value_lengths() is source.value_lengths()
                assert out.nbytes == piece.nbytes
                assert out.column("tag").tolist() == piece.column("tag").tolist()
        finally:
            unlink_block(ref.block)

    def test_an_equal_but_unregistered_vocabulary_is_pickled(self):
        table = Catalog().register("t", _mixed_batch(50))
        source = table.data.column_data("tag")
        copied = DictionaryArray(source.codes, source.values.copy())
        assert vocabulary_owner(source.values) == (table.token, "tag")
        assert vocabulary_owner(copied.values) is None
        batch = Batch(Schema.from_pairs([("tag", DataType.STRING)]), {"tag": copied})
        ref = write_batch(batch)
        try:
            assert ref.columns[0][0] == "dict"
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

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
    def test_registry_clear_keeps_mappings_with_live_views(self):
        batch = _mixed_batch(5000)
        ref = write_batch(batch)

        def mapped():
            with open("/proc/self/maps") as maps:
                return any(ref.block in line for line in maps)

        try:
            registry = BlockRegistry()
            out = read_batch(ref, registry)
            registry.clear()
            assert len(registry) == 0
            # A live zero-copy view keeps its mapping, and reads stay valid.
            assert mapped()
            np.testing.assert_array_equal(out.column("k"), batch.column("k"))
            del out
            assert not mapped()
        finally:
            unlink_block(ref.block)

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


@pytest.fixture(scope="module")
def shared_runner():
    """One warm runner per worker count for the whole differential tier.

    The profile catalogs are built lazily, after the first fork, so later
    profiles also exercise the re-fork-on-new-table rule.
    """
    runners = {}

    def get(workers):
        if workers not in runners:
            runners[workers] = ParallelRunner(workers=workers, morsel_rows=2048)
        return runners[workers]

    yield get
    for runner in runners.values():
        runner.close()


class TestParallelDifferential:
    @pytest.mark.parametrize("number", ALL_QUERIES)
    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("workers", [2, 4])
    def test_matches_reference(self, shared_runner, workers, profile, number):
        catalog = _catalog(profile)
        runner = shared_runner(workers)
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

    @pytest.mark.parametrize("workers", [0, 2])
    def test_nan_group_key_is_one_group(self, nan_keyed_query, workers):
        # ``0.0 / 0.0`` keys a NaN group that spans many morsels; every morsel's
        # partial ships its own NaN row, and the final aggregate must fold them
        # into the one group the reference finds.
        query, expected = nan_keyed_query
        with ParallelRunner(workers=workers) as runner:
            got = runner.submit(query).wait().batch
        assert expected.num_rows == 2
        assert got.num_rows == expected.num_rows
        assert got.schema == expected.schema
        for name in expected.schema.names:
            assert got.column(name).tobytes() == expected.column(name).tobytes(), name


NAN_KEYED_SQL = """
    SELECT r, count(*) AS n
    FROM (SELECT l_discount / (l_tax - l_tax) AS r FROM lineitem) t
    GROUP BY r
"""


@pytest.fixture(scope="module")
def nan_keyed_query():
    catalog = generate_catalog(scale_factor=0.01, seed=1)
    query = plan_query(parse(NAN_KEYED_SQL), catalog)
    expected = ReferenceRunner().submit(query).wait().batch
    return query, expected


def _nan(bits):
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


#: Equal float keys with different bits: ``0.0`` / ``-0.0``, and NaNs of
#: either sign and several payloads (a GROUP BY puts every NaN in one group).
FLOAT_KEYS = [0.0, -0.0, 1.5, _nan(0x7FF8000000000000), _nan(0xFFF8000000000000),
              _nan(0x7FF8000000000001), _nan(0x7FF0000000000ABC), -2.25]


@pytest.fixture(scope="module")
def float_key_catalog():
    # Four splits of 16 rows; the odd ones list the keys backwards, so their
    # morsels meet ``-0.0`` before ``0.0`` and another NaN first.
    keys = (FLOAT_KEYS * 2 + FLOAT_KEYS[::-1] * 2) * 2
    catalog = Catalog()
    catalog.register("f", Batch.from_pydict({
        "fk": keys,
        "fv": list(range(len(keys))),
    }), num_splits=4)
    catalog.register("g", Batch.from_pydict({
        "gk": [0.0, -0.0, 1.5, -2.25, 7.0],
        "gv": [10, 20, 30, 40, 50],
    }), num_splits=2)
    return catalog


class TestFloatKeysAcrossChannels:
    """Equal float keys hash to one channel: ``0.0`` joins ``-0.0``, and a
    group-by key has one ``0.0`` group and one NaN group at any channel
    count."""

    @pytest.mark.parametrize("channels", [5, 8])
    @pytest.mark.parametrize("sql", [
        "SELECT fk, count(*) AS n, sum(fv) AS s FROM f GROUP BY fk",
        "SELECT fv, gv FROM f, g WHERE fk = gk",
    ], ids=["group_by", "join"])
    def test_matches_the_reference(self, float_key_catalog, sql, channels):
        query = plan_query(parse(sql), float_key_catalog)
        graph = compile_plan(query.plan, num_channels=channels)
        got = execute_graph_parallel(graph, workers=0)[0]
        expected = ReferenceRunner().submit(query).wait().batch
        assert _float_rows(got) == _float_rows(expected)


def _float_rows(batch):
    """The batch's rows, sorted, with every NaN written ``"nan"`` and ``-0.0``
    as ``0.0`` (equal keys; which bits a group keeps is not the point)."""
    def canonical(value):
        if isinstance(value, float):
            return "nan" if value != value else repr(value + 0.0)
        return repr(value)

    return sorted(tuple(map(canonical, row)) for row in batch.to_rows())


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

    @pytest.mark.parametrize("number", [1, 3, 9, 18])
    def test_worker_count_does_not_change_the_bytes(self, number):
        # One channel per stage, so the pool always has more workers than a
        # stage has channels: a stage runs one task per channel whatever the
        # pool size, and its input order depends on the graph and
        # morsel_rows alone. Q1 is one aggregation; Q3, Q9 and Q18 put
        # joins and aggregations in the same graph.
        catalog = _catalog("standard")
        graph = compile_plan(build_query(catalog, number).plan, num_channels=1)
        prints = {
            workers: _fingerprint(
                execute_graph_parallel(graph, workers=workers, morsel_rows=256)[0]
            )
            for workers in (0, 2, 4)
        }
        assert len(set(prints.values())) == 1, prints


class TestJoinBuildKeepsCodes:
    """A join's build side concatenates its pieces without rebuilding one
    string: on every executor, shared-memory transport included, the pieces
    of a catalog column share that column's vocabulary."""

    @pytest.fixture
    def build_sides(self, monkeypatch):
        """Make a materialisation inside ``HashJoin._build_side`` fail the
        task; return the build sides concatenated in this process."""
        seen = []
        inside = []
        build_side = HashJoin._build_side
        materialize = DictionaryArray.materialize

        def guarded_build_side(join):
            inside.append(True)
            try:
                seen.append(build_side(join))
            finally:
                inside.pop()
            return seen[-1]

        def guarded_materialize(array):
            if inside:
                raise AssertionError("the join build side materialised a string column")
            return materialize(array)

        monkeypatch.setattr(HashJoin, "_build_side", guarded_build_side)
        monkeypatch.setattr(DictionaryArray, "materialize", guarded_materialize)
        return seen

    @pytest.mark.parametrize("number", [10, 18])
    @pytest.mark.parametrize("executor", ["inline", "pool", "simulator"])
    def test_no_string_is_rebuilt(self, build_sides, executor, number):
        catalog = _catalog("standard")
        # At this scale no order passes Q18's ``sum(l_quantity) > 300``, and
        # its joins would see no rows; 200 leaves 92 result rows.
        query = plan_query(
            parse(SQL_QUERIES[number].replace("> 300", "> 200")), catalog
        )
        expected = ReferenceRunner().submit(query).wait().batch
        if executor == "simulator":
            got = OneShotRunner(QuokkaContext(catalog=catalog)).submit(query).wait()
        else:
            # A fresh runner: its workers fork with the guard in place.
            with ParallelRunner(workers=0 if executor == "inline" else 2) as runner:
                got = runner.submit(query).wait()
        assert expected.num_rows and batches_match(got.batch, expected)
        if executor != "pool":  # pool workers concatenate in their own processes
            encoded = [
                side for side in build_sides
                if any(isinstance(side.column_data(name), DictionaryArray)
                       for name in side.schema.names)
            ]
            assert encoded, "no build side held a dictionary column"


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

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize(
        "budget", [None, float("inf")], ids=["resident", "budgeted"]
    )
    def test_executor_stats_one_task_per_channel(self, budget, channels):
        # Tiny morsels and more workers than channels: every stateful stage
        # still runs as exactly one task per channel, whichever aggregation
        # kernel (resident or out-of-core) it holds.
        catalog = _catalog("standard")
        graph = compile_plan(
            build_query(catalog, 1).plan, num_channels=channels,
            memory_budget_bytes=budget,
        )
        batch, stats = execute_graph_parallel(graph, workers=4, morsel_rows=256)
        assert batches_match(batch, _expected("standard", 1))
        assert stats.scan_tasks > 0
        assert stats.channel_tasks == sum(
            stage.num_channels for stage in graph if not stage.is_input
        )
        assert stats.shm_blocks > 0
        assert stats.total_tasks == stats.scan_tasks + stats.channel_tasks

    def test_bad_morsel_rows_rejected(self):
        catalog = _catalog("standard")
        graph = compile_plan(build_query(catalog, 6).plan, num_channels=2)
        with pytest.raises(ExecutionError, match="morsel_rows"):
            ParallelExecutor(graph, workers=2, morsel_rows=0)


# ---------------------------------------------------------------------------
# the warm pool: reuse across statements, failures, bounded worker state
# ---------------------------------------------------------------------------


def _all_worker_pids():
    return {
        p.pid for p in multiprocessing.active_children()
        if p.name.startswith("repro-parallel-")
    }


@pytest.fixture()
def worker_pids():
    """Pids of the pool workers started since the test began."""
    before = _all_worker_pids()
    return lambda: sorted(_all_worker_pids() - before)


def _no_blocks():
    return glob.glob("/dev/shm/repro_par_*") == []


def _wait_dead(pid, timeout=5.0):
    """Wait until ``pid`` is a zombie or gone, without reaping it."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat") as stat:
                if stat.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return
        except FileNotFoundError:
            return
        time.sleep(0.01)
    raise AssertionError(f"process {pid} did not die")


def _check(runner, number, profile="standard"):
    catalog = _catalog(profile)
    got = runner.submit(build_query(catalog, number)).wait().batch
    assert batches_match(got, _expected(profile, number)), f"q{number} diverged"


@pytest.fixture()
def sabotage(monkeypatch, tmp_path):
    """Pools forked under this fixture obey a marker file: while it reads
    ``kill`` a scan task SIGKILLs its own worker, while it reads ``raise``
    the task raises."""
    marker = tmp_path / "sabotage"
    run_scan = StageGraphTaskHandler._run_scan

    def sabotaged(self, task):
        if marker.exists():
            if marker.read_text() == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("sabotaged scan task")
        return run_scan(self, task)

    monkeypatch.setattr(StageGraphTaskHandler, "_run_scan", sabotaged)
    return marker


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
class TestWarmPool:
    def test_statements_share_one_fork(self, worker_pids):
        with ParallelRunner(workers=2, morsel_rows=2048) as runner:
            _check(runner, 1)
            pids = worker_pids()
            assert len(pids) == 2
            for number in (3, 6, 14):
                _check(runner, number)
            assert worker_pids() == pids
        assert worker_pids() == []

    def test_table_registered_after_the_fork_is_queryable(self, worker_pids):
        catalog = generate_catalog(scale_factor=0.001, seed=3)
        ctx = QuokkaContext(catalog=catalog)
        query = (
            "SELECT n_name, sum(v) AS total FROM extra "
            "JOIN nation ON k = n_nationkey GROUP BY n_name"
        )
        with ParallelRunner(workers=2, morsel_rows=512) as runner:
            runner.submit(build_query(catalog, 6)).wait()
            first = worker_pids()
            ctx.register_table(
                "extra",
                Batch.from_pydict({"k": [i % 25 for i in range(300)],
                                   "v": [float(i) for i in range(300)]}),
                num_splits=4,
            )
            frame = ctx.sql(query)
            assert batches_match(frame.collect(runner), frame.collect_reference())
            # The new table forced one re-fork; older tables reuse it.
            second = worker_pids()
            assert second != first
            runner.submit(build_query(catalog, 6)).wait()
            assert worker_pids() == second

    def test_a_forked_copy_cannot_stop_the_owners_workers(self, worker_pids):
        with ParallelRunner(workers=2, morsel_rows=2048) as runner:
            _check(runner, 6)
            pids = worker_pids()
            child = os.fork()
            if child == 0:
                try:
                    runner.close()
                finally:
                    os._exit(0)
            os.waitpid(child, 0)
            _check(runner, 6)
            assert worker_pids() == pids

    def test_worker_killed_between_and_during_statements(self, sabotage, worker_pids):
        runner = ParallelRunner(workers=2, morsel_rows=2048)
        try:
            _check(runner, 3)
            victim = worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            _wait_dead(victim)
            with pytest.raises(ExecutionError, match="died"):
                runner.submit(build_query(_catalog("standard"), 3)).wait()
            assert _no_blocks()
            _check(runner, 3)
            assert victim not in worker_pids()

            sabotage.write_text("kill")
            with pytest.raises(ExecutionError, match="died"):
                runner.submit(build_query(_catalog("standard"), 5)).wait()
            sabotage.unlink()
            assert _no_blocks()
            _check(runner, 5)
        finally:
            runner.close()
        assert _no_blocks()

    @pytest.mark.parametrize("workers", [0, 2])
    def test_task_error_then_a_correct_statement(self, sabotage, workers):
        with ParallelRunner(workers=workers, morsel_rows=2048) as runner:
            _check(runner, 3)
            sabotage.write_text("raise")
            with pytest.raises(ExecutionError, match="sabotaged scan task"):
                runner.submit(build_query(_catalog("standard"), 9)).wait()
            sabotage.unlink()
            assert _no_blocks()
            _check(runner, 9)
            _check(runner, 3)

    def test_workers_only_map_the_last_statements_blocks(self, worker_pids):
        catalog = _catalog("standard")
        pool = WarmPool(2)
        try:
            for number in (3, 5, 7, 9, 10, 12, 18, 21, 2, 8):
                graph = compile_plan(build_query(catalog, number).plan, num_channels=2)
                executor = ParallelExecutor(graph, 2, morsel_rows=512, pool=pool)
                batch = executor.execute()
                assert batches_match(batch, _expected("standard", number))
            mapped = set()
            for pid in worker_pids():
                with open(f"/proc/{pid}/maps") as maps:
                    mapped |= {
                        line.split("/dev/shm/", 1)[1].split()[0]
                        for line in maps
                        if "/dev/shm/repro_par_" in line
                    }
            assert mapped, "the last statement's blocks should still be mapped"
            stale = {name for name in mapped if not name.startswith(executor.block_prefix)}
            assert stale == set()
        finally:
            pool.close()
        assert _no_blocks()
