"""Tests for the execution-tracing subsystem."""

import pytest

from repro.cluster import FailurePlan
from repro.api import QuokkaContext
from repro.common.config import EngineConfig
from repro.data import Batch
from repro.expr import col
from repro.gcs.naming import TaskName
from repro.plan import Catalog, DataFrame, TableScan
from repro.plan.dataframe import count_agg, sum_agg
from repro.trace import (
    NullTracer,
    TraceRecorder,
    render_timeline,
    render_trace_report,
    stage_breakdown,
    worker_utilisation,
)


class TestRecorder:
    def make_recorder(self):
        recorder = TraceRecorder()
        recorder.record_task(TaskName(0, 0, 0), 0, "input", 0.0, 2.0, committed=True)
        recorder.record_task(TaskName(0, 1, 0), 1, "input", 0.5, 1.5, committed=True)
        recorder.record_task(TaskName(1, 0, 0), 0, "channel", 2.0, 5.0, committed=True)
        recorder.record_task(TaskName(1, 0, 1), 0, "channel", 5.0, 6.0, committed=False)
        recorder.record_recovery(4.0, (1,), rewound_channels=2)
        return recorder

    def test_span_accounting(self):
        recorder = self.make_recorder()
        assert recorder.makespan() == pytest.approx(6.0)
        assert recorder.busy_time(0) == pytest.approx(6.0)
        assert recorder.busy_time(1) == pytest.approx(1.0)
        assert recorder.worker_ids() == [0, 1]
        assert [span.task.seq for span in recorder.spans_for_worker(0)] == [0, 0, 1]

    def test_worker_utilisation_bounded(self):
        utilisation = worker_utilisation(self.make_recorder())
        assert set(utilisation) == {0, 1}
        for fraction in utilisation.values():
            assert 0.0 <= fraction <= 1.0
        assert utilisation[0] > utilisation[1]

    def test_stage_breakdown_counts_kinds_and_commits(self):
        rows = stage_breakdown(self.make_recorder())
        assert [row["stage"] for row in rows] == [0, 1]
        stage1 = rows[1]
        assert stage1["tasks"] == 2
        assert stage1["uncommitted"] == 1

    def test_report_and_timeline_render(self):
        recorder = self.make_recorder()
        report = render_trace_report(recorder)
        assert "worker utilisation" in report
        assert "recovery passes" in report
        timeline = render_timeline(recorder, width=20)
        assert timeline.count("|") >= 6  # two worker rows + recovery ruler
        assert "R" in timeline

    def test_empty_recorder_renders(self):
        recorder = TraceRecorder()
        assert recorder.makespan() == 0.0
        assert "no spans" in render_timeline(recorder)
        assert "0 task spans" in render_trace_report(recorder)

    def test_null_tracer_is_inert(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        assert tracer.record_task(None, 0, "input", 0, 1, committed=True) is None
        assert tracer.record_recovery(0.0, (0,), 0) is None


class TestEngineIntegration:
    @pytest.fixture()
    def catalog(self):
        catalog = Catalog()
        catalog.register(
            "orders",
            Batch.from_pydict(
                {
                    "o_key": list(range(300)),
                    "o_cust": [i % 11 for i in range(300)],
                    "o_total": [float(i % 50) for i in range(300)],
                }
            ),
            num_splits=6,
        )
        catalog.register(
            "customers",
            Batch.from_pydict(
                {"c_cust": list(range(11)), "c_nation": [f"n{i % 3}" for i in range(11)]}
            ),
            num_splits=2,
        )
        return catalog

    def query(self, catalog):
        """The test query, bound to a fresh three-worker WAL context."""
        context = QuokkaContext(
            num_workers=3, engine_config=EngineConfig(ft_strategy="wal"), catalog=catalog
        )
        orders = DataFrame(TableScan(catalog.table("orders")))
        customers = DataFrame(TableScan(catalog.table("customers")))
        return (
            orders.join(customers, left_on="o_cust", right_on="c_cust")
            .groupby("c_nation")
            .agg(sum_agg("total", col("o_total")), count_agg("n"))
            .sort("c_nation")
            .bind(context)
        )

    def test_trace_collects_spans_for_every_stage(self, catalog):
        tracer = TraceRecorder()
        result = self.query(catalog).submit(tracer=tracer).wait()
        assert result.batch is not None
        assert len(tracer.spans) >= result.metrics.tasks_executed
        stages = {row["stage"] for row in stage_breakdown(tracer)}
        assert len(stages) >= 4  # two scans, a join, an aggregation, a collect
        assert tracer.makespan() <= result.runtime + 1e-9
        assert not tracer.recoveries

    def test_trace_records_recovery_and_replays_on_failure(self, catalog):
        baseline = self.query(catalog).submit().wait()
        tracer = TraceRecorder()
        plans = [FailurePlan.at_fraction(1, 0.5, baseline.runtime)]
        result = self.query(catalog).submit(failure_plans=plans, tracer=tracer).wait()
        assert result.metrics.recovery_events >= 1
        assert len(tracer.recoveries) >= 1
        assert tracer.recoveries[0].failed_workers == (1,)
        kinds = {span.kind for span in tracer.spans}
        assert "replay" in kinds or "regen" in kinds
        report = render_trace_report(tracer)
        assert "recovery passes" in report

    def test_runs_without_tracer_by_default(self, catalog):
        result = self.query(catalog).submit().wait()
        assert result.batch is not None
