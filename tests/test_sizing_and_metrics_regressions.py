"""Regression tests for the metrics/sizing correctness sweep.

Four small bugs rode along with the adaptive-execution work, each pinned
here by a dedicated test:

* ``QueryMetrics.summary()`` silently dropped newer counters — the body is
  now generated from ``dataclasses.fields`` so a field can never be missing;
* channel sizing truncated instead of ceiling-dividing, undershooting by one
  channel whenever the estimate was not an exact multiple of the target;
* a memory budget not divisible by the stateful channel count leaked a
  fractional quota into the integer-exact used/peak accounting;
* ``TraceRecorder.spans_for_worker`` sorted by start only, so zero-duration
  spans with equal starts came back in insertion order — not reproducible
  across runs.
"""

import dataclasses

from repro.core.metrics import QueryMetrics
from repro.core.options import QueryOptions
from repro.physical.compiler import (
    DEFAULT_TARGET_BYTES_PER_CHANNEL,
    sized_channel_count,
)
from repro.trace.recorder import TaskSpan, TraceRecorder
from repro.gcs.naming import TaskName


class TestSummaryFieldCompleteness:
    def test_every_metrics_field_appears_in_summary(self):
        """The regression: a counter added to the dataclass but not to the
        hand-written summary body vanished from every CLI/bench report."""
        metrics = QueryMetrics()
        text = metrics.summary()
        for spec in dataclasses.fields(QueryMetrics):
            assert spec.name in text, f"summary() dropped field {spec.name!r}"

    def test_summary_renders_values(self):
        metrics = QueryMetrics(
            runtime_seconds=1.5,
            tasks_executed=7,
            lineage_bytes=2048.0,
            adaptive_channel_resizes=2,
        )
        text = metrics.summary()
        assert "1.500s" in text
        assert "2,048" in text
        assert "adaptive_channel_resizes" in text


class TestSizedChannelCount:
    def test_exact_multiple(self):
        assert sized_channel_count(512_000.0, 256_000.0, 8) == 2

    def test_remainder_rounds_up_not_down(self):
        """The regression: 512_001 bytes at a 256_000 target needs 3 channels;
        integer truncation sized it at 2 and overloaded both."""
        assert sized_channel_count(512_001.0, 256_000.0, 8) == 3

    def test_one_byte_over_one_channel(self):
        assert sized_channel_count(256_001.0, 256_000.0, 8) == 2

    def test_clamped_to_bounds(self):
        assert sized_channel_count(0.0, 256_000.0, 8) == 1
        assert sized_channel_count(-5.0, 256_000.0, 8) == 1
        assert sized_channel_count(1e12, 256_000.0, 8) == 8

    def test_degenerate_target_does_not_divide_by_zero(self):
        assert sized_channel_count(1000.0, 0.0, 8) == 8

    def test_default_target_exported(self):
        assert DEFAULT_TARGET_BYTES_PER_CHANNEL > 0


class TestIntegralSpillQuota:
    def test_non_divisible_budget_floors_to_integer_quota(self):
        """The regression: budget / stateful_channels produced a fractional
        quota (e.g. 1000 / 3), and the fraction leaked into the
        integer-exact used/peak bookkeeping of every spill context."""
        from repro.physical.compiler import compile_plan
        from repro.tpch import build_query
        from repro.tpch.adversarial import adversarial_catalog

        catalog = adversarial_catalog("standard", scale_factor=0.001, seed=0)
        graph = compile_plan(
            build_query(catalog, 3).plan,
            num_channels=3,
            memory_budget_bytes=1_000_003.0,
        )
        quotas = []
        for stage in graph:
            if not stage.stateful or stage.operator_factory is None:
                continue
            operator = stage.operator_factory()
            spill = getattr(operator, "spill", None)
            if spill is not None and spill.quota is not None:
                quotas.append(spill.quota)
        assert quotas, "expected at least one budgeted stateful operator"
        for quota in quotas:
            assert quota == int(quota)
            assert isinstance(quota, int)

    def test_budgeted_run_keeps_integral_accounting(self):
        """End to end: a non-divisible budget must leave the byte counters
        integral after a run that actually spills."""
        from repro.api.context import QuokkaContext
        from repro.tpch import build_query
        from repro.tpch.adversarial import adversarial_catalog

        catalog = adversarial_catalog("standard", scale_factor=0.002, seed=0)
        ctx = QuokkaContext(num_workers=4, catalog=catalog)
        result = build_query(catalog, 3).bind(ctx).submit(
            # Filters off so the joins hold enough state to actually spill.
            options=QueryOptions(memory_budget_bytes=100_003.0, runtime_filters=False)
        ).wait()
        metrics = result.metrics
        assert metrics.spill_writes > 0
        for name in ("spill_bytes_written", "spill_bytes_read", "memory_peak_bytes"):
            value = getattr(metrics, name)
            assert value == int(value), f"{name} leaked a fraction: {value!r}"


class TestSpansForWorkerStableOrder:
    def test_ties_break_on_end_then_task(self):
        """The regression: equal-start spans (zero-duration retries) came
        back in insertion order, so digests differed between identical
        runs that merely recorded them in a different arrival order."""
        recorder = TraceRecorder()
        spans = [
            TaskSpan(TaskName(2, 1, 0), 0, "channel", 1.0, 1.5, True),
            TaskSpan(TaskName(1, 0, 0), 0, "input", 1.0, 1.0, False),
            TaskSpan(TaskName(0, 0, 0), 0, "input", 1.0, 1.0, False),
            TaskSpan(TaskName(3, 0, 0), 0, "channel", 0.5, 2.0, True),
        ]
        for span in spans:
            recorder.spans.append(span)
        ordered = recorder.spans_for_worker(0)
        assert [s.task for s in ordered] == [
            TaskName(3, 0, 0),   # earliest start
            TaskName(0, 0, 0),   # start tie: equal end, lower task name
            TaskName(1, 0, 0),
            TaskName(2, 1, 0),   # start tie: later end
        ]
        # Reversed insertion order must produce the identical sequence.
        recorder_reversed = TraceRecorder()
        for span in reversed(spans):
            recorder_reversed.spans.append(span)
        assert recorder_reversed.spans_for_worker(0) == ordered
