"""Differential chaos tests: every chaos run must match the reference.

The matrix tests parametrize through the conftest chaos plugin, so one test
body covers every tier::

    pytest tests/test_chaos_differential.py                   # default tier
    pytest --chaos-seeds 25 --chaos-queries 1,6,9 ...         # CI smoke matrix

Also here: the replay-determinism guarantee (same seed => identical schedule
and identical trace digest), chaos-through-QueryOptions plumbing, and the
planted-bug shrinking exercise that proves a noisy multi-fault schedule
reduces to its minimal failing core.
"""

import pytest

from repro.chaos import (
    ChaosOptions,
    ChaosPlan,
    DifferentialHarness,
    GcsSlowdown,
    StorageOutage,
    Straggler,
    WorkerCrash,
)
from repro.core.options import QueryOptions
from repro.core.recovery import RecoveryCoordinator
from repro.ft.strategies import WriteAheadLineageStrategy
from repro.gcs.naming import ObjectLocation


@pytest.fixture(scope="module")
def harness(chaos_profile):
    from repro.tpch import adversarial_catalog

    return DifferentialHarness(
        catalog=adversarial_catalog(chaos_profile, scale_factor=0.001, seed=0)
    )


class TestDifferentialMatrix:
    def test_matrix_cell_matches_reference(
        self, harness, chaos_query, chaos_strategy, chaos_seed
    ):
        """One {query x strategy x seed} cell of the differential matrix."""
        outcome = harness.run_case(chaos_query, chaos_strategy, chaos_seed)
        assert outcome.passed, (
            f"{outcome.describe()}\n{outcome.plan.describe()}\n"
            f"reproduce: python -m repro chaos replay --query {chaos_query} "
            f"--strategy {chaos_strategy} --seed {chaos_seed} --shrink"
        )

    def test_chaotic_cells_actually_injected_faults(self, harness):
        """At least some default-tier schedules are non-trivial."""
        plans = [harness.plan_for(1, "wal", seed) for seed in range(10)]
        assert any(plan.crashes() for plan in plans)
        assert any(len(plan.events) >= 2 for plan in plans)


class TestDecorrelatedSqlMatrix:
    """Chaos matrix over the SQL front-end's decorrelated plans.

    Q13 (LEFT-joined derived table), Q18 (IN over an aggregating subquery)
    and Q21 (EXISTS + NOT EXISTS with a non-equality residual) were out of
    the dialect before subquery decorrelation landed; each now runs through
    the full distributed engine under fault schedules, checked batch-exactly
    against the single-node reference answer.
    """

    @pytest.fixture(scope="class")
    def sql_harness(self):
        from repro.tpch import build_sql_query

        return DifferentialHarness(
            scale_factor=0.001, data_seed=0, query_builder=build_sql_query
        )

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("strategy", ["wal", "spool-s3"])
    @pytest.mark.parametrize("query", [13, 18, 21])
    def test_decorrelated_cell_matches_reference(self, sql_harness, query, strategy, seed):
        outcome = sql_harness.run_case(query, strategy, seed)
        assert outcome.passed, (
            f"{outcome.describe()}\n{outcome.plan.describe()}\n"
            f"reproduce: python -m repro chaos replay --query {query} "
            f"--strategy {strategy} --seed {seed} --shrink"
        )


class TestReplayDeterminism:
    def test_same_seed_same_schedule_and_trace_digest(self, harness):
        first = harness.run_case(6, "wal", seed=1)
        second = harness.run_case(6, "wal", seed=1)
        assert first.plan == second.plan
        assert first.plan.digest() == second.plan.digest()
        assert first.trace_digest is not None
        assert first.trace_digest == second.trace_digest

    def test_different_seeds_make_different_traces(self, harness):
        digests = {harness.run_case(1, "wal", seed).trace_digest for seed in range(4)}
        assert len(digests) > 1


class TestChaosOptionsPlumbing:
    def test_chaotic_submission_bypasses_result_cache(self, harness):
        from repro.core.options import QueryOptions
        from repro.tpch import build_query

        session = harness._make_session("wal")
        try:
            handle = session.submit_options(
                build_query(harness.catalog, 6),
                QueryOptions(chaos=ChaosOptions(seed=0, horizon=0.2)),
            )
            assert handle.bypass_result_cache
            assert handle.chaos_injector is not None
            session.wait(handle)
            assert not handle.from_cache
        finally:
            session.close()

    def test_chaotic_run_never_feeds_cache_or_coalescing(self, harness):
        """A chaotic run's result must not be cached or serve as a twin."""
        from repro.core.options import QueryOptions
        from repro.core.session import Session
        from repro.tpch import build_query

        with Session(catalog=harness.catalog) as session:  # caches enabled
            frame = build_query(harness.catalog, 6)
            chaotic = session.submit_options(
                frame, QueryOptions(chaos=ChaosOptions(seed=0, horizon=0.2))
            )
            clean = session.submit_options(frame, QueryOptions())
            assert chaotic._plan_key is None
            session.wait(chaotic)
            session.wait(clean)
            # The clean twin neither coalesced onto the chaotic run nor read
            # a result the chaotic run stored.
            assert not clean.from_cache

    def test_reference_runner_rejects_chaos(self):
        from repro.api.runners import ReferenceRunner
        from repro.common.errors import ConfigError
        from repro.core.options import QueryOptions
        from repro.tpch import build_query

        harness_catalog = DifferentialHarness(scale_factor=0.001)
        with pytest.raises(ConfigError):
            ReferenceRunner().submit(
                build_query(harness_catalog.catalog, 6),
                QueryOptions(chaos=ChaosOptions(seed=0)),
            )

    def test_chaos_events_recorded_in_trace_and_metrics(self, harness):
        plan = ChaosPlan(
            seed=-1,
            horizon=0.2,
            events=(
                Straggler(at_time=0.01, worker_id=0, duration=0.05, factor=4.0),
                GcsSlowdown(at_time=0.02, duration=0.05, factor=5.0),
            ),
        )
        outcome = harness.run_case(1, "wal", seed=0, plan=plan)
        assert outcome.passed
        assert outcome.metrics.chaos_events == 2

    def test_storage_outage_slows_the_query_but_preserves_the_answer(self, harness):
        baseline = harness.baseline_runtime(6, "wal")
        plan = ChaosPlan(
            seed=-1,
            horizon=baseline,
            events=(
                StorageOutage(
                    at_time=0.2 * baseline,
                    target="s3",
                    duration=0.5 * baseline,
                    retry_latency=0.01,
                ),
            ),
        )
        outcome = harness.run_case(6, "wal", seed=0, plan=plan)
        assert outcome.passed
        assert outcome.metrics.runtime_seconds > baseline


class TestFilterPublicationUnderCrash:
    def test_crash_during_filter_fan_out_does_not_lose_the_filter(self, monkeypatch):
        """Q5's worker 0 dies while it fans out a finalized runtime filter.

        The filter must be published again from a live worker; a lost one
        would hold its target stage's gate shut until the stall abort (kept
        small here so a regression fails in seconds, not half an hour).
        """
        monkeypatch.setattr(RecoveryCoordinator, "STALL_TIMEOUT", 20.0)
        outcome = DifferentialHarness().run_case(5, "checkpoint", seed=1)
        assert outcome.plan.crashes()
        assert outcome.passed, outcome.describe()
        assert outcome.metrics.filters_published == 5


class AmnesiacWalStrategy(WriteAheadLineageStrategy):
    """Planted bug: records backup locations in the GCS but never writes the
    bytes, so every post-crash replay finds nothing and the query stalls."""

    def persist_output(self, engine, worker, task_name, payload, nbytes):
        return ObjectLocation(
            task=task_name, worker_id=worker.worker_id, nbytes=nbytes, durable=False
        )
        yield  # pragma: no cover - generator form required by the interface


class TestShrinking:
    @pytest.fixture()
    def buggy_harness(self, monkeypatch):
        # A small stall timeout so each stalled (failing) candidate aborts
        # quickly in virtual time; monkeypatch restores the production value.
        monkeypatch.setattr(RecoveryCoordinator, "STALL_TIMEOUT", 20.0)
        # The planted bug only bites when a crash forces a *replay* of a
        # multi-channel stateful stage; the heuristic plan shape guarantees
        # that topology (the cost-based planner would collapse Q1's tiny
        # aggregation to one channel on a worker the schedule never kills).
        return DifferentialHarness(
            scale_factor=0.001,
            strategy_factory=lambda name: AmnesiacWalStrategy(),
            base_options=QueryOptions(optimize=False),
        )

    def test_planted_bug_shrinks_to_the_minimal_failing_core(self, buggy_harness):
        baseline = buggy_harness.baseline_runtime(1, "wal")
        noisy_plan = ChaosPlan(
            seed=-1,
            horizon=baseline,
            events=(
                Straggler(
                    at_time=0.1 * baseline, worker_id=1, duration=0.2 * baseline, factor=3.0
                ),
                StorageOutage(
                    at_time=0.2 * baseline, target="s3", duration=0.1 * baseline
                ),
                WorkerCrash(at_time=0.5 * baseline, worker_id=2),
                GcsSlowdown(
                    at_time=0.6 * baseline, duration=0.1 * baseline, factor=4.0
                ),
                Straggler(
                    at_time=0.7 * baseline, worker_id=3, duration=0.1 * baseline, factor=2.0
                ),
            ),
        )
        # The planted bug only bites when recovery needs a replay: the full
        # noisy schedule fails ...
        assert not buggy_harness.run_case(1, "wal", plan=noisy_plan).passed
        minimal = buggy_harness.shrink(1, "wal", noisy_plan)
        # ... and shrinking strips all four noise events, leaving the crash.
        assert len(minimal.events) == 1
        assert isinstance(minimal.events[0], WorkerCrash)
        assert minimal.events[0].worker_id == 2

    def test_fixed_strategy_survives_the_same_schedule(self, harness):
        baseline = harness.baseline_runtime(1, "wal")
        plan = ChaosPlan(
            seed=-1,
            horizon=baseline,
            events=(WorkerCrash(at_time=0.5 * baseline, worker_id=2),),
        )
        assert harness.run_case(1, "wal", plan=plan).passed
