"""Tests for Resource and BandwidthResource."""

import pytest

from repro.common.errors import SimulationError
from repro.sim import Environment, Resource, BandwidthResource


class TestResource:
    def test_capacity_limits_concurrency(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        finish_times = []

        def job(duration):
            request = resource.request()
            yield request
            try:
                yield env.timeout(duration)
                finish_times.append(env.now)
            finally:
                resource.release(request)

        for _ in range(4):
            env.process(job(10.0))
        env.run()
        # Two jobs run immediately, two queue behind them.
        assert finish_times == [10.0, 10.0, 20.0, 20.0]

    def test_invalid_capacity(self):
        with pytest.raises(SimulationError):
            Resource(Environment(), capacity=0)

    def test_release_of_waiting_request_removes_it(self):
        env = Environment()
        resource = Resource(env, capacity=1)

        def holder():
            request = resource.request()
            yield request
            yield env.timeout(5.0)
            resource.release(request)

        def canceller():
            request = resource.request()
            yield env.timeout(1.0)
            resource.release(request)  # cancel while still queued
            return resource.queued

        env.process(holder())
        proc = env.process(canceller())
        env.run()
        assert proc.value == 0
        assert resource.in_use == 0


class TestBandwidthResource:
    def test_transfer_time_formula(self):
        env = Environment()
        link = BandwidthResource(env, bytes_per_second=100.0, latency=0.5)
        assert link.transfer_time(200.0) == pytest.approx(2.5)

    def test_transfers_serialise_on_busy_link(self):
        env = Environment()
        link = BandwidthResource(env, bytes_per_second=100.0)
        completions = []

        def sender(nbytes):
            yield env.process(link.transfer(nbytes))
            completions.append(env.now)

        env.process(sender(100.0))
        env.process(sender(100.0))
        env.run()
        assert completions == [1.0, 2.0]
        assert link.total_bytes == 200.0
        assert link.total_transfers == 2

    def test_invalid_bandwidth(self):
        with pytest.raises(SimulationError):
            BandwidthResource(Environment(), bytes_per_second=0.0)
