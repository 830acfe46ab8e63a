"""Unit tests for the chaos layer: plans, primitives, hooks and the shrinker.

The heavyweight differential matrix lives in ``test_chaos_differential.py``;
this module covers the deterministic building blocks — seeded plan
generation, serialisation, the simulation-level chaos hooks (bandwidth
throttling, storage outage windows, the GCS latency factor) and ddmin.
"""

import pytest

from repro.chaos import (
    ChaosPlan,
    ChaosProfile,
    GcsSlowdown,
    StorageOutage,
    Straggler,
    WorkerCrash,
    ddmin,
    generate_plan,
)
from repro.cluster.costmodel import CostModel
from repro.cluster.storage import ObjectStore
from repro.common.config import CostModelConfig
from repro.common.errors import ConfigError
from repro.sim.core import Environment
from repro.sim.resources import BandwidthResource


class TestPlanGeneration:
    def test_same_seed_same_plan(self):
        for seed in range(20):
            first = generate_plan(seed, num_workers=4, horizon=1.0)
            second = generate_plan(seed, num_workers=4, horizon=1.0)
            assert first == second
            assert first.digest() == second.digest()

    def test_different_seeds_differ(self):
        plans = {generate_plan(seed, 4, 1.0).digest() for seed in range(20)}
        assert len(plans) > 10  # collisions would mean the seed is ignored

    def test_crash_budget_respects_min_live_workers(self):
        profile = ChaosProfile(max_crashes=10, min_live_workers=2, crash_probability=1.0)
        for seed in range(30):
            plan = generate_plan(seed, num_workers=4, horizon=1.0, profile=profile)
            crashed = {crash.worker_id for crash in plan.crashes()}
            assert len(crashed) <= 2
            assert all(0 <= crash.worker_id < 4 for crash in plan.crashes())

    def test_event_times_fall_inside_the_horizon(self):
        for seed in range(30):
            plan = generate_plan(seed, num_workers=4, horizon=2.0)
            for event in plan.events:
                assert 0.0 <= event.at_time <= 2.0
                if isinstance(event, Straggler):
                    assert event.factor >= 1.0
                    assert event.duration > 0

    def test_single_worker_cluster_gets_no_crashes(self):
        profile = ChaosProfile(crash_probability=1.0)
        for seed in range(10):
            plan = generate_plan(seed, num_workers=1, horizon=1.0, profile=profile)
            assert not plan.crashes()

    def test_bad_inputs_raise(self):
        with pytest.raises(ConfigError):
            generate_plan(0, num_workers=0, horizon=1.0)
        with pytest.raises(ConfigError):
            generate_plan(0, num_workers=4, horizon=0.0)
        with pytest.raises(ConfigError):
            ChaosProfile(crash_probability=1.5).validate()


class TestPlanSerialisation:
    def test_round_trip(self):
        plan = generate_plan(5, 4, 1.5)
        assert ChaosPlan.from_dict(plan.to_dict()) == plan

    def test_round_trip_covers_every_primitive(self):
        plan = ChaosPlan(
            seed=-1,
            horizon=1.0,
            events=(
                WorkerCrash(at_time=0.1, worker_id=2, wave=0),
                Straggler(at_time=0.2, worker_id=1, duration=0.3, factor=5.0),
                StorageOutage(at_time=0.3, target="hdfs", duration=0.1, retry_latency=0.02),
                GcsSlowdown(at_time=0.4, duration=0.2, factor=10.0),
            ),
        )
        restored = ChaosPlan.from_dict(plan.to_dict())
        assert restored == plan
        assert restored.digest() == plan.digest()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            ChaosPlan.from_dict({"seed": 0, "horizon": 1.0, "events": [{"kind": "alien"}]})

    def test_describe_mentions_every_event(self):
        plan = ChaosPlan(
            seed=3,
            horizon=1.0,
            events=(WorkerCrash(at_time=0.5, worker_id=1),),
        )
        text = plan.describe()
        assert "seed=3" in text
        assert "crash worker 1" in text


class TestChaosHooks:
    def test_bandwidth_throttle_and_restore(self):
        env = Environment()
        resource = BandwidthResource(env, 1000.0)
        resource.set_throttle(4.0)
        assert resource.bytes_per_second == pytest.approx(250.0)
        assert resource.throttle_factor == pytest.approx(4.0)
        resource.set_throttle(1.0)
        assert resource.bytes_per_second == pytest.approx(1000.0)

    def test_throttled_transfer_takes_longer(self):
        env = Environment()
        resource = BandwidthResource(env, 1000.0)
        resource.set_throttle(10.0)
        process = env.process(resource.transfer(1000.0))
        env.run(process)
        assert env.now == pytest.approx(10.0)

    def test_storage_outage_delays_requests_and_counts_retries(self):
        env = Environment()
        store = ObjectStore(env, "s3", write_bps=1e6, read_bps=1e6, durable=True)
        store.register("key", "payload", 1000.0)
        store.inject_outage(0.0, 1.0, retry_latency=0.1)

        def read():
            payload = yield from store.read("key")
            return payload

        process = env.process(read())
        value = env.run(process)
        assert value == "payload"
        assert env.now > 1.0  # the request rode out the outage window
        assert store.stats.transient_errors >= 1

    def test_storage_outage_validation(self):
        env = Environment()
        store = ObjectStore(env, "s3", write_bps=1e6, read_bps=1e6, durable=True)
        with pytest.raises(ConfigError):
            store.inject_outage(1.0, 1.0)
        with pytest.raises(ConfigError):
            store.inject_outage(0.0, 1.0, retry_latency=0.0)

    def test_gcs_latency_factor_scales_transactions(self):
        model = CostModel(CostModelConfig())
        base = model.gcs_txn_seconds()
        model.gcs_latency_factor = 10.0
        assert model.gcs_txn_seconds() == pytest.approx(10.0 * base)
        model.gcs_latency_factor = 1.0
        assert model.gcs_txn_seconds() == pytest.approx(base)


class TestDdmin:
    def test_reduces_to_single_culprit(self):
        items = list(range(10))
        minimal = ddmin(items, lambda subset: 7 in subset)
        assert minimal == [7]

    def test_reduces_to_interacting_pair(self):
        items = list("abcdefg")
        minimal = ddmin(items, lambda subset: "b" in subset and "f" in subset)
        assert sorted(minimal) == ["b", "f"]

    def test_requires_failing_input(self):
        with pytest.raises(ValueError):
            ddmin([1, 2, 3], lambda subset: False)

    def test_single_item_input(self):
        assert ddmin([42], lambda subset: 42 in subset) == [42]
