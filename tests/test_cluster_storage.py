"""Unit tests for the simulated storage service (worker disks and durable stores)."""

import pytest

from repro.common.config import ClusterConfig, CostModelConfig
from repro.common.errors import ExecutionError
from repro.cluster.storage import ObjectStore
from repro.cluster.worker import Worker
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
