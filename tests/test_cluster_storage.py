"""Unit tests for the simulated storage services (local NVMe and durable stores)."""

import pytest

from repro.common.config import ClusterConfig, CostModelConfig
from repro.common.errors import ExecutionError
from repro.cluster.storage import DurableObjectStore, LocalDisk
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


class TestLocalDisk:
    def make_disk(self, env, capacity=10_000.0):
        return LocalDisk(env, write_bps=1000.0, read_bps=2000.0, capacity_bytes=capacity)

    def test_write_then_read_round_trips_payload(self, env):
        disk = self.make_disk(env)
        drive(env, disk.write("key", {"payload": 1}, 1000.0))
        assert disk.contains("key")
        assert drive(env, disk.read("key")) == {"payload": 1}
        assert disk.stats.bytes_written == 1000.0
        assert disk.stats.bytes_read == 1000.0

    def test_write_and_read_charge_bandwidth_time(self, env):
        disk = self.make_disk(env)
        drive(env, disk.write("key", "x", 1000.0))
        assert env.now == pytest.approx(1.0)  # 1000 bytes at 1000 B/s
        drive(env, disk.read("key"))
        assert env.now == pytest.approx(1.5)  # +1000 bytes at 2000 B/s

    def test_capacity_is_enforced(self, env):
        disk = self.make_disk(env, capacity=1500.0)
        drive(env, disk.write("a", "x", 1000.0))
        with pytest.raises(ExecutionError):
            drive(env, disk.write("b", "y", 1000.0))

    def test_missing_key_raises(self, env):
        disk = self.make_disk(env)
        with pytest.raises(ExecutionError):
            drive(env, disk.read("nope"))

    def test_delete_frees_capacity(self, env):
        disk = self.make_disk(env, capacity=1500.0)
        drive(env, disk.write("a", "x", 1000.0))
        disk.delete("a")
        assert not disk.contains("a")
        drive(env, disk.write("b", "y", 1000.0))  # fits again

    def test_wipe_reports_lost_objects(self, env):
        disk = self.make_disk(env)
        drive(env, disk.write("a", 1, 10.0))
        drive(env, disk.write("b", 2, 10.0))
        assert disk.wipe() == 2
        assert disk.used_bytes == 0

    def test_object_lost_while_read_in_flight_raises(self, env):
        """A wipe (worker failure) during the read's transfer must not return stale data."""
        disk = self.make_disk(env)
        drive(env, disk.write("a", 1, 2000.0))
        outcome = {}

        def reader():
            try:
                yield from disk.read("a")
                outcome["result"] = "read"
            except ExecutionError:
                outcome["result"] = "lost"

        def saboteur():
            yield env.timeout(0.5)  # mid-read: the read takes 1s at 2000 B/s
            disk.wipe()

        done = env.process(reader())
        env.process(saboteur())
        env.run(done)
        assert outcome["result"] == "lost"


class TestDurableObjectStore:
    def make_store(self, env):
        return DurableObjectStore(env, name="s3", write_bps=100.0, read_bps=100.0,
                                  request_latency=0.25)

    def test_put_get_round_trip_with_latency(self, env):
        store = self.make_store(env)
        drive(env, store.put("k", [1, 2, 3], 100.0))
        assert env.now == pytest.approx(1.25)  # 1s transfer + 0.25s request latency
        assert drive(env, store.get("k")) == [1, 2, 3]

    def test_register_charges_no_time(self, env):
        store = self.make_store(env)
        store.register("table", "data", 1234.0)
        assert env.now == 0.0
        assert store.contains("table")

    def test_missing_key_raises(self, env):
        store = self.make_store(env)
        with pytest.raises(ExecutionError):
            drive(env, store.get("nope"))

    def test_contents_survive_worker_failure(self, env):
        store = self.make_store(env)
        worker = Worker(env, 0, ClusterConfig(num_workers=1), CostModelConfig())
        drive(env, store.put("spill", "payload", 10.0))
        worker.fail()
        assert store.contains("spill")


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
