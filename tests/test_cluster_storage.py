"""Unit tests for the simulated storage service (worker disks and durable stores)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import ClusterConfig, CostModelConfig
from repro.common.errors import ExecutionError
from repro.cluster.flight import FlightServer
from repro.cluster.storage import ObjectStore
from repro.cluster.worker import Worker
from repro.data.batch import Batch
from repro.gcs.naming import TaskName
from repro.sim.core import Environment


def drive(env, generator):
    """Run one process generator to completion and return its value."""
    result = {}

    def wrapper():
        result["value"] = yield from generator
    done = env.process(wrapper())
    env.run(done)
    return result["value"]


@pytest.fixture()
def env():
    return Environment()


#: A worker disk and an S3-like durable store: one class, two parameter sets.
SHAPES = {
    "disk": dict(name="local", write_bps=1000.0, read_bps=2000.0, capacity_bytes=1500.0),
    "s3": dict(name="s3", write_bps=100.0, read_bps=100.0, request_latency=0.25,
               durable=True),
}


@pytest.fixture(params=sorted(SHAPES))
def shape(request):
    return SHAPES[request.param]


@pytest.fixture()
def store(env, shape):
    return ObjectStore(env, **shape)


class TestObjectStore:
    def test_write_then_read_round_trips_payload(self, env, store):
        drive(env, store.write("key", {"payload": 1}, 100.0))
        assert store.contains("key")
        assert drive(env, store.read("key")) == {"payload": 1}
        assert store.stats.bytes_written == 100.0
        assert store.stats.bytes_read == 100.0

    def test_write_and_read_charge_bandwidth_plus_request_latency(self, env, store, shape):
        latency = shape.get("request_latency", 0.0)
        drive(env, store.write("key", "x", 100.0))
        written = 100.0 / shape["write_bps"] + latency
        assert env.now == pytest.approx(written)
        drive(env, store.read("key"))
        assert env.now == pytest.approx(written + 100.0 / shape["read_bps"] + latency)

    def test_capacity_is_enforced_only_when_bounded(self, env, store):
        drive(env, store.write("a", "x", 1000.0))
        if store.capacity_bytes is None:
            drive(env, store.write("b", "y", 1000.0))
            assert store.used_bytes == 2000
        else:
            with pytest.raises(ExecutionError):
                drive(env, store.write("b", "y", 1000.0))

    def test_delete_frees_capacity(self, env, store):
        drive(env, store.write("a", "x", 1000.0))
        store.delete("a")
        assert not store.contains("a")
        drive(env, store.write("b", "y", 1000.0))  # fits again
        assert store.used_bytes == 1000

    def test_missing_key_raises(self, env, store):
        with pytest.raises(ExecutionError):
            drive(env, store.read("nope"))
        with pytest.raises(ExecutionError):
            store.peek("nope")
        with pytest.raises(ExecutionError):
            store.replace("nope", 1)

    def test_register_charges_no_time(self, env, store):
        store.register("table", "data", 1234.0)
        assert env.now == 0.0
        assert store.contains("table")
        assert store.peek("table") == "data"

    def test_replace_swaps_payload_and_keeps_size(self, env, store):
        drive(env, store.write("a", "old", 100.0))
        store.replace("a", "new")
        assert store.peek("a") == "new"
        assert store.used_bytes == 100

    def test_wipe_reports_lost_objects(self, env, store):
        drive(env, store.write("a", 1, 10.0))
        drive(env, store.write("b", 2, 10.0))
        assert store.wipe() == 2
        assert store.used_bytes == 0

    def test_wipe_stages_drops_only_those_stages(self, env, store):
        from repro.gcs.naming import TaskName

        store.register(TaskName(1, 0, 0), "a", 10.0)
        store.register(TaskName(2, 0, 0), "b", 10.0)
        store.register(("table", "t", 0), "c", 10.0)
        assert store.wipe_stages({1}) == 1
        assert store.contains(TaskName(2, 0, 0)) and store.contains(("table", "t", 0))

    def test_object_lost_while_read_in_flight_raises(self, env, store):
        """A wipe (worker failure) during the read's transfer must not return stale data."""
        drive(env, store.write("a", 1, 1000.0))
        outcome = {}

        def reader():
            try:
                yield from store.read("a")
                outcome["result"] = "read"
            except ExecutionError:
                outcome["result"] = "lost"

        def saboteur():
            yield env.timeout(0.01)  # mid-read on both shapes
            store.wipe()

        done = env.process(reader())
        env.process(saboteur())
        env.run(done)
        assert outcome["result"] == "lost"

    def test_only_the_worker_disk_loses_contents_on_failure(self, env, store):
        worker = Worker(env, 0, ClusterConfig(num_workers=1), CostModelConfig())
        if not store.durable:
            worker.disk = store  # the disk-shaped store is this worker's disk
        drive(env, store.write("backup", "payload", 10.0))
        worker.fail()
        assert store.contains("backup") == store.durable


class TestWorkerFailure:
    def test_fail_wipes_volatile_state_and_is_idempotent(self, env):
        from repro.data.batch import Batch
        from repro.gcs.naming import TaskName

        worker = Worker(env, 3, ClusterConfig(num_workers=4), CostModelConfig())
        drive(env, worker.disk.write("backup", 1, 10.0))
        worker.flight.put((1, 0), TaskName(0, 0, 0), Batch.from_pydict({"x": [1]}))
        worker.fail()
        assert not worker.alive
        assert not worker.disk.contains("backup")
        assert worker.flight.buffered_bytes() == 0
        failed_at = worker.failed_at
        worker.fail()  # second call must not reset the failure time
        assert worker.failed_at == failed_at

    def test_check_alive_raises_after_failure(self, env):
        from repro.common.errors import WorkerFailedError

        worker = Worker(env, 0, ClusterConfig(num_workers=1), CostModelConfig())
        worker.check_alive()
        worker.fail()
        with pytest.raises(WorkerFailedError):
            worker.check_alive()


# -- flight server -------------------------------------------------------------------

CONSUMERS = [(10, 0), (10, 1), (11, 0)]
UPSTREAMS = [(1, 0), (1, 1), (2, 0)]


def _piece(value):
    return Batch.from_pydict({"x": list(range(value % 3 + 1))})


def _assert_agrees(flight, model):
    """The per-upstream index answers every query the flat buffer would."""
    for (consumer, name), piece in model.items():
        assert flight.peek(consumer, name) is piece
    for consumer in CONSUMERS:
        for upstream_stage, upstream_channel in UPSTREAMS:
            expected = {
                name.seq: piece
                for (owner, name), piece in model.items()
                if owner == consumer
                and (name.stage, name.channel) == (upstream_stage, upstream_channel)
            }
            run = flight.pieces_from(consumer, upstream_stage, upstream_channel)
            assert sorted(run) == sorted(expected)
            assert all(run[seq] is piece for seq, piece in expected.items())
            for seq in range(6):
                if seq not in expected:
                    name = TaskName(upstream_stage, upstream_channel, seq)
                    assert flight.peek(consumer, name) is None
    assert flight.buffered_bytes() == sum(piece.nbytes for piece in model.values())


_names = st.builds(
    lambda upstream, seq: TaskName(upstream[0], upstream[1], seq),
    st.sampled_from(UPSTREAMS),
    st.integers(0, 5),
)
_operations = st.one_of(
    st.tuples(st.just("put"), st.sampled_from(CONSUMERS), _names, st.integers(0, 99)),
    st.tuples(st.just("take"), st.integers(0, 1000)),
    st.tuples(
        st.just("discard"), st.sampled_from(CONSUMERS), st.sampled_from(UPSTREAMS),
        st.integers(0, 6),
    ),
    st.tuples(st.just("wipe_stages"), st.sets(st.sampled_from([10, 11]))),
    st.tuples(st.just("wipe")),
)


class TestFlightServer:
    def test_every_mutator_advances_version_and_reads_do_not(self):
        flight = FlightServer(0)
        consumer, name = (10, 0), TaskName(1, 0, 0)
        versions = [flight.version]

        def moved():
            versions.append(flight.version)
            return versions[-1] > versions[-2]

        flight.put(consumer, name, _piece(1))
        assert moved()
        flight.put(consumer, name, _piece(2))  # duplicate overwrite
        assert moved()
        flight.put(consumer, TaskName(1, 0, 1), _piece(3))
        assert moved()
        flight.peek(consumer, name)
        flight.pieces_from(consumer, 1, 0)
        flight.buffered_bytes()
        assert not moved()
        flight.take(consumer, name)
        assert moved()
        assert flight.discard_below(consumer, 1, 0, 1) == 0  # nothing below seq 1
        assert not moved()
        assert flight.discard_below(consumer, 1, 0, 2) == 1
        assert moved()
        flight.put((11, 0), name, _piece(4))
        assert moved()
        assert flight.wipe_stages({11}) == 1
        assert moved()
        flight.put(consumer, name, _piece(5))
        assert moved()
        assert flight.wipe() == 1
        assert moved()

    def test_index_agrees_with_buffer_through_every_mutator(self):
        flight, model = FlightServer(0), {}
        for seq in range(4):
            for consumer in CONSUMERS[:2]:
                piece = _piece(seq)
                flight.put(consumer, TaskName(1, 0, seq), piece)
                model[(consumer, TaskName(1, 0, seq))] = piece
        replacement = _piece(7)
        flight.put((10, 0), TaskName(1, 0, 2), replacement)  # duplicate overwrite
        model[((10, 0), TaskName(1, 0, 2))] = replacement
        other = _piece(8)
        flight.put((11, 0), TaskName(2, 0, 0), other)
        model[((11, 0), TaskName(2, 0, 0))] = other
        _assert_agrees(flight, model)

        assert flight.take((10, 0), TaskName(1, 0, 2)) is replacement
        del model[((10, 0), TaskName(1, 0, 2))]
        _assert_agrees(flight, model)

        assert flight.discard_below((10, 1), 1, 0, 3) == 3
        for seq in range(3):
            del model[((10, 1), TaskName(1, 0, seq))]
        _assert_agrees(flight, model)

        assert flight.wipe_stages({11}) == 1
        del model[((11, 0), TaskName(2, 0, 0))]
        _assert_agrees(flight, model)

        assert flight.wipe() == len(model)
        _assert_agrees(flight, {})

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_operations, max_size=40))
    def test_property_index_agrees_with_flat_buffer(self, operations):
        flight, model = FlightServer(0), {}
        for operation in operations:
            kind = operation[0]
            before = flight.version
            if kind == "put":
                _kind, consumer, name, value = operation
                piece = _piece(value)
                flight.put(consumer, name, piece)
                model[(consumer, name)] = piece
            elif kind == "take":
                if not model:
                    continue
                key = sorted(model)[operation[1] % len(model)]
                assert flight.take(*key) is model.pop(key)
            elif kind == "discard":
                _kind, consumer, (stage, channel), watermark = operation
                stale = [
                    key for key in model
                    if key[0] == consumer and key[1].stage == stage
                    and key[1].channel == channel and key[1].seq < watermark
                ]
                for key in stale:
                    del model[key]
                assert flight.discard_below(consumer, stage, channel, watermark) == len(stale)
                if not stale:
                    assert flight.version == before
            elif kind == "wipe_stages":
                doomed = [key for key in model if key[0][0] in operation[1]]
                for key in doomed:
                    del model[key]
                assert flight.wipe_stages(operation[1]) == len(doomed)
            else:
                lost = len(model)
                model.clear()
                assert flight.wipe() == lost
            if kind != "discard":
                assert flight.version > before
            _assert_agrees(flight, model)
