"""Adaptive (runtime-feedback) execution: every revision must stay exact.

The controller in :mod:`repro.core.adaptive` revises not-yet-started stages
from *observed* producer outputs: re-running the broadcast-vs-shuffle gate
and re-sizing channel counts once per shuffle join, and racing speculative
copies against stragglers.  Each test here forces one decision
path end to end through the simulated engine and checks the result
batch-exactly against the single-node reference — the reference interpreter
has no stages or channels, so it is an oracle the controller cannot bias.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.context import QuokkaContext
from repro.api.runners import ReferenceRunner
from repro.chaos.harness import batches_match
from repro.chaos.plan import ChaosOptions, ChaosPlan, Straggler
from repro.common.config import CostModelConfig
from repro.core.options import QueryOptions
from repro.expr import col, lit
from repro.tpch import build_query
from repro.tpch.adversarial import adversarial_catalog


def _sorted_rows(batch):
    """Full-row sort for order-insensitive comparison of raw (non-aggregated)
    outputs; ``batches_match`` sorts only by non-float keys, so rows tied on
    every integer column would compare float columns across a permutation."""
    data = batch.to_pydict()
    names = sorted(data)
    return sorted(zip(*(data[name] for name in names)))


@pytest.fixture(scope="module")
def skew_catalog():
    """Zipf-skewed foreign keys (l_partkey / l_suppkey / o_custkey)."""
    return adversarial_catalog("skew", scale_factor=0.02, seed=0)


def reference(frame):
    return ReferenceRunner().submit(frame, QueryOptions()).wait().batch


def _resize_selfjoin(ctx):
    """A build side the estimator prices at the default selectivity but that
    runs tiny: the join's observed bytes re-size it to fewer channels."""
    li = ctx.read_table("lineitem")
    small = li.filter(col("l_quantity") < lit(3)).select(
        "l_orderkey", "l_extendedprice"
    )
    big = li.filter(col("l_quantity") >= lit(3)).select("l_orderkey", "l_quantity")
    return (
        big.join(small, left_on="l_orderkey", right_on="l_orderkey")
        .groupby("l_quantity")
        .agg(total=("l_extendedprice", "sum"), n="count")
    )


class TestBroadcastRevisit:
    def test_misestimated_join_converts_to_broadcast_at_runtime(self, skew_catalog):
        """System-R constant estimates overstate Q3's build sides; once the
        real build bytes are observed under the threshold the controller
        converts the partition join to a broadcast and the network total
        drops, without changing a single output row."""
        ctx = QuokkaContext(num_workers=4, catalog=skew_catalog)
        frame = build_query(skew_catalog, 3)
        # Runtime filters off: they collapse the probe side's shuffle traffic
        # on their own, which flips the broadcast-vs-shuffle economics this
        # test isolates (the controller's revision, not the filters' savings).
        base = dict(use_table_stats=False, runtime_filters=False)
        adaptive = frame.bind(ctx).submit(
            options=QueryOptions(adaptive=True, **base)
        ).wait()
        static = frame.bind(ctx).submit(
            options=QueryOptions(adaptive=False, **base)
        ).wait()
        ref = reference(frame)
        assert adaptive.metrics.adaptive_broadcast_joins >= 1
        assert batches_match(adaptive.batch, ref)
        assert batches_match(static.batch, ref)
        assert adaptive.metrics.network_bytes < static.metrics.network_bytes

    def test_adaptive_disabled_makes_no_revisions(self, skew_catalog):
        ctx = QuokkaContext(num_workers=4, catalog=skew_catalog)
        frame = build_query(skew_catalog, 3)
        result = frame.bind(ctx).submit(
            options=QueryOptions(use_table_stats=False, adaptive=False)
        ).wait()
        metrics = result.metrics
        assert metrics.adaptive_broadcast_joins == 0
        assert metrics.adaptive_channel_resizes == 0
        assert metrics.speculative_tasks == 0


class TestChannelResize:
    def test_overestimated_build_shrinks_join_channels(self, skew_catalog):
        """A selective filter the estimator prices at its default selectivity
        makes the build side compile far larger than it runs; the observed
        bytes re-size the join to fewer channels."""
        ctx = QuokkaContext(num_workers=8, catalog=skew_catalog)
        frame = _resize_selfjoin(ctx)
        result = frame.submit(
            options=QueryOptions(
                use_table_stats=False,
                broadcast_threshold_bytes=1000.0,
                adaptive=True,
            )
        ).wait()
        assert result.metrics.adaptive_channel_resizes >= 1
        assert batches_match(result.batch, reference(frame))


class TestSingleDecision:
    """A shuffle join is decided once, when its build producer completes, and
    that decision un-gates it — no second phase holds the join back while its
    probe side streams in."""

    @staticmethod
    def _run_recording_decisions(ctx, frame, options):
        """Run ``frame``; after every ``_decide_join`` record which branch it
        took and whether the join or its probe producer is still gated."""
        decisions = []
        with ctx.session() as session:
            handle = session.submit_options(frame, options)
            controller = handle.execution.adaptive
            metrics = handle.execution.metrics
            decide = controller._decide_join

            def recording(join_id):
                probe_ids = [p for p, j in controller.probe_watch.items() if j == join_id]
                assert controller.gated(join_id)
                assert all(controller.gated(p) for p in probe_ids)
                before = (metrics.adaptive_broadcast_joins, metrics.adaptive_channel_resizes)
                yield from decide(join_id)
                after = (metrics.adaptive_broadcast_joins, metrics.adaptive_channel_resizes)
                branch = (
                    "broadcast" if after[0] > before[0]
                    else "resize" if after[1] > before[1]
                    else "unchanged"
                )
                still_gated = controller.gated(join_id) or any(
                    controller.gated(p) for p in probe_ids
                )
                decisions.append((branch, still_gated))

            controller._decide_join = recording
            result = session.wait(handle)
            assert not controller.pending
        return decisions, result

    def test_every_branch_ungates_the_join_it_decides(self, skew_catalog):
        ctx = QuokkaContext(num_workers=8, catalog=skew_catalog)
        base = dict(use_table_stats=False, adaptive=True)
        li = ctx.read_table("lineitem")
        unchanged_frame = li.join(
            ctx.read_table("orders"), left_on="l_orderkey", right_on="o_orderkey"
        ).groupby("o_orderpriority").agg(n="count")
        cases = {
            "broadcast": (build_query(skew_catalog, 3), QueryOptions(**base)),
            "resize": (
                _resize_selfjoin(ctx),
                QueryOptions(broadcast_threshold_bytes=1000.0, **base),
            ),
            "unchanged": (
                unchanged_frame,
                QueryOptions(broadcast_threshold_bytes=0.0, **base),
            ),
        }
        for branch, (frame, options) in cases.items():
            decisions, result = self._run_recording_decisions(ctx, frame.bind(ctx), options)
            assert branch in [taken for taken, _ in decisions], (branch, decisions)
            assert not any(still_gated for _, still_gated in decisions), decisions
            assert batches_match(result.batch, reference(frame))

    def test_no_live_worker_is_a_fault_tolerance_error(self, skew_catalog):
        from repro.common.errors import FaultToleranceError

        ctx = QuokkaContext(num_workers=2, catalog=skew_catalog)
        with ctx.session() as session:
            handle = session.submit_options(
                build_query(skew_catalog, 3).bind(ctx),
                QueryOptions(use_table_stats=False, adaptive=True),
            )
            for worker in session.cluster.workers:
                worker.fail()
            with pytest.raises(FaultToleranceError, match="no live workers remain"):
                handle.execution.adaptive._any_live_worker(0)


class TestSpeculation:
    def test_straggler_loses_race_to_speculative_copy(self, skew_catalog):
        """A worker whose NIC is throttled 50000x mid-scan straggles its input
        tasks; the controller launches duplicates on healthy workers, the
        first committed copy wins via the GCS non-clobbering rule, and the
        straggled original's late commit is discarded without poisoning."""
        ctx = QuokkaContext(
            num_workers=8,
            catalog=skew_catalog,
            cost_config=CostModelConfig(heartbeat_interval=0.01),
        )
        li = ctx.read_table("lineitem")
        frame = li.select("l_orderkey", "l_partkey", "l_extendedprice", "l_quantity")
        plan = ChaosPlan(
            seed=-1,
            horizon=1.0,
            events=(Straggler(at_time=0.002, worker_id=2, duration=30.0, factor=50000.0),),
        )
        adaptive = frame.submit(
            options=QueryOptions(
                use_table_stats=False, adaptive=True, chaos=ChaosOptions(plan=plan)
            )
        ).wait()
        ref = reference(frame)
        assert adaptive.metrics.speculative_tasks >= 1
        assert adaptive.metrics.speculative_wins >= 1
        assert _sorted_rows(adaptive.batch) == _sorted_rows(ref)

    def test_speculation_beats_static_runtime_under_straggler(self, skew_catalog):
        """The same straggler drags the static run for the full throttled
        transfer; speculation routes around it."""
        ctx = QuokkaContext(
            num_workers=8,
            catalog=skew_catalog,
            cost_config=CostModelConfig(heartbeat_interval=0.01),
        )
        li = ctx.read_table("lineitem")
        frame = li.select("l_orderkey", "l_extendedprice")
        plan = ChaosPlan(
            seed=-1,
            horizon=1.0,
            events=(Straggler(at_time=0.002, worker_id=2, duration=30.0, factor=50000.0),),
        )
        base = dict(use_table_stats=False, chaos=ChaosOptions(plan=plan))
        adaptive = frame.submit(options=QueryOptions(adaptive=True, **base)).wait()
        static = frame.submit(options=QueryOptions(adaptive=False, **base)).wait()
        assert adaptive.metrics.speculative_wins >= 1
        assert adaptive.metrics.runtime_seconds < 0.5 * static.metrics.runtime_seconds
        assert _sorted_rows(adaptive.batch) == _sorted_rows(static.batch)


class TestOptionsPlumbing:
    def test_reference_runner_ignores_adaptive(self, skew_catalog):
        """``adaptive`` is inert on the reference interpreter — it executes
        the logical plan directly, so it stays the oracle for every runtime
        decision the engine makes."""
        ctx = QuokkaContext(num_workers=4, catalog=skew_catalog)
        frame = ctx.read_table("nation").select("n_name", "n_regionkey")
        on = ReferenceRunner().submit(frame, QueryOptions(adaptive=True)).wait()
        off = ReferenceRunner().submit(frame, QueryOptions(adaptive=False)).wait()
        assert on.batch.equals(off.batch)

    def test_adaptive_defaults_on_for_engine(self, skew_catalog):
        """``adaptive=None`` resolves to on whenever the cost-based estimator
        is available; the plan-key distinguishes adaptive and static runs so
        the session result cache never serves one for the other."""
        ctx = QuokkaContext(num_workers=4, catalog=skew_catalog)
        frame = build_query(skew_catalog, 3)
        default = frame.bind(ctx).submit(
            options=QueryOptions(use_table_stats=False)
        ).wait()
        assert default.metrics.adaptive_broadcast_joins >= 1

    def test_heuristic_planning_disables_adaptivity(self, skew_catalog):
        """Without the estimator (``optimize=False``) there are no compile
        time estimates to revise, so adaptive resolves off."""
        ctx = QuokkaContext(num_workers=4, catalog=skew_catalog)
        frame = build_query(skew_catalog, 1)
        result = frame.bind(ctx).submit(
            options=QueryOptions(optimize=False, adaptive=True)
        ).wait()
        metrics = result.metrics
        assert metrics.adaptive_broadcast_joins == 0
        assert metrics.adaptive_channel_resizes == 0


class TestAdaptiveEquivalenceProperty:
    """Hypothesis: adaptive on/off return identical batches on skewed data."""

    @settings(max_examples=8, deadline=None)
    @given(
        query=st.sampled_from([1, 3, 6, 10, 12]),
        threshold=st.sampled_from([0.0, 1000.0, 8_000_000.0]),
    )
    def test_adaptive_matches_static_and_reference(self, query, threshold):
        catalog = _PROPERTY_CATALOG
        ctx = QuokkaContext(num_workers=4, catalog=catalog)
        frame = build_query(catalog, query)
        base = dict(use_table_stats=False, broadcast_threshold_bytes=threshold)
        adaptive = frame.bind(ctx).submit(
            options=QueryOptions(adaptive=True, **base)
        ).wait()
        static = frame.bind(ctx).submit(
            options=QueryOptions(adaptive=False, **base)
        ).wait()
        ref = reference(frame)
        assert batches_match(adaptive.batch, ref)
        assert batches_match(static.batch, ref)


#: Module-level so Hypothesis examples share one generated catalog.
_PROPERTY_CATALOG = adversarial_catalog("skew", scale_factor=0.002, seed=1)
