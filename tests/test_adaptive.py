"""Speculative execution (``QueryOptions.adaptive``) must stay exact.

The controller in :mod:`repro.core.speculation` races a duplicate against
every straggling input task; the first copy to commit wins.  The tests here
force a straggler end to end through the simulated engine and check the
result against the single-node reference — the reference interpreter has
no tasks, so it is an oracle the controller cannot bias — and pin that the
controller revises nothing: no probe producer is held back waiting on a
decision, and a shuffle join waits only for its own build side.
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


#: A worker whose NIC is throttled 50000x from just after submission.
_STRAGGLER = ChaosPlan(
    seed=-1,
    horizon=1.0,
    events=(Straggler(at_time=0.002, worker_id=2, duration=30.0, factor=50000.0),),
)


def _straggled(catalog):
    """A context whose heartbeat is fast enough to catch the straggler."""
    return QuokkaContext(
        num_workers=8,
        catalog=catalog,
        cost_config=CostModelConfig(heartbeat_interval=0.01),
    )


def _straggled_scan(catalog, options):
    ctx = _straggled(catalog)
    frame = ctx.read_table("lineitem").select("l_orderkey", "l_extendedprice")
    result = frame.submit(
        options=options.with_overrides(chaos=ChaosOptions(plan=_STRAGGLER))
    ).wait()
    return frame, result


class TestSpeculation:
    def test_straggler_loses_race_to_speculative_copy(self, skew_catalog):
        """The straggler's input tasks get duplicates on healthy workers, the
        first committed copy wins via the GCS non-clobbering rule, and the
        straggled original's late commit is discarded without poisoning."""
        ctx = _straggled(skew_catalog)
        li = ctx.read_table("lineitem")
        frame = li.select("l_orderkey", "l_partkey", "l_extendedprice", "l_quantity")
        adaptive = frame.submit(
            options=QueryOptions(
                use_table_stats=False, adaptive=True, chaos=ChaosOptions(plan=_STRAGGLER)
            )
        ).wait()
        ref = reference(frame)
        assert adaptive.metrics.speculative_tasks >= 1
        assert adaptive.metrics.speculative_wins >= 1
        assert _sorted_rows(adaptive.batch) == _sorted_rows(ref)

    def test_speculation_beats_static_runtime_under_straggler(self, skew_catalog):
        """The same straggler drags the static run for the full throttled
        transfer; speculation routes around it."""
        base = QueryOptions(use_table_stats=False)
        _, adaptive = _straggled_scan(skew_catalog, base.with_overrides(adaptive=True))
        _, static = _straggled_scan(skew_catalog, base.with_overrides(adaptive=False))
        assert adaptive.metrics.speculative_wins >= 1
        assert static.metrics.speculative_tasks == 0
        assert adaptive.metrics.runtime_seconds < 0.5 * static.metrics.runtime_seconds
        assert _sorted_rows(adaptive.batch) == _sorted_rows(static.batch)


def _shuffled_q3(catalog, adaptive=None):
    """Q3 with every join shuffled and no runtime filters (their publication
    gate holds probe producers until the build side completes): the
    committed task spans and each join's ``join_info``."""
    from repro.trace import TraceRecorder

    ctx = QuokkaContext(num_workers=4, catalog=catalog)
    tracer = TraceRecorder()
    with ctx.session() as session:
        handle = session.submit_options(
            build_query(catalog, 3).bind(ctx),
            QueryOptions(
                broadcast_threshold_bytes=0.0,
                runtime_filters=False,
                adaptive=adaptive,
                tracer=tracer,
            ),
        )
        session.wait(handle)
        graph = handle.execution.graph
        assert (handle.execution.speculation is not None) == (adaptive is not False)
    spans = [span for span in tracer.spans if span.committed]
    joins = [dict(info, stage_id=stage.stage_id) for stage in graph if (info := stage.join_info)]
    assert joins and not any(info["broadcast"] for info in joins)
    return spans, joins


def _first_start(spans, stage_id):
    return min(span.start for span in spans if span.task.stage == stage_id)


def _last_end(spans, stage_id):
    return max(span.end for span in spans if span.task.stage == stage_id)


class TestNoPlanRevision:
    def test_probe_producer_runs_before_the_build_side_completes(self, skew_catalog):
        """With speculation on, a shuffle join's probe-side producer is not
        held back for a runtime decision about the join: some probe producer
        starts a task before the build side commits its last task."""
        spans, joins = _shuffled_q3(skew_catalog)
        overlapping = [
            info for info in joins
            if _first_start(spans, info["probe_id"]) < _last_end(spans, info["build_id"])
        ]
        assert overlapping, joins

    def test_shuffle_join_starts_once_its_build_side_completes(self, skew_catalog):
        """Under adaptive execution a shuffle join takes its first task only
        after its build side has committed its last one; without it some
        join starts on a partial build side."""
        spans, joins = _shuffled_q3(skew_catalog)
        for info in joins:
            assert _first_start(spans, info["stage_id"]) >= _last_end(spans, info["build_id"])
        spans, joins = _shuffled_q3(skew_catalog, adaptive=False)
        assert any(
            _first_start(spans, info["stage_id"]) < _last_end(spans, info["build_id"])
            for info in joins
        ), joins


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
        """``adaptive=None`` resolves to on whenever the cost-based planner
        runs, so a straggler gets speculative copies by default."""
        _, default = _straggled_scan(skew_catalog, QueryOptions(use_table_stats=False))
        assert default.metrics.speculative_tasks >= 1

    def test_heuristic_planning_disables_adaptivity(self, skew_catalog):
        """Heuristic planning (``optimize=False``) keeps every task
        single-copy: even an explicit ``adaptive=True`` resolves off."""
        _, result = _straggled_scan(
            skew_catalog, QueryOptions(optimize=False, adaptive=True)
        )
        assert result.metrics.speculative_tasks == 0


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
