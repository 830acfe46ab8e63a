"""Tier-1 smoke test of the end-to-end benchmark.

Runs every workload the way ``bench_e2e.py --smoke`` does (SF 0.002, its first
three statements, one timed pass, one traced pass, micro-timings on <= 10 k
rows) and checks the
benchmark's own contract: every metric of both tables is emitted as a finite
number, nothing fails its reference check, the spans are valid trace-event
JSON, the simulator's virtual time repeats exactly, and
``BENCHMARK.json`` agrees with the tables in ``e2e_metrics.py``.
"""

import json
import math
import os

import pytest

import bench_e2e
import e2e_compare
import e2e_paths
from e2e_metrics import END_TO_END, PER_LAYER
from e2e_trace import Tracer, TraceView
from e2e_workloads import WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_workload_emits_every_metric_and_nothing_fails(workload, tmp_path):
    setup = bench_e2e.set_up(workload.smoke(), seed=1)
    end_to_end = bench_e2e.measure(setup, seconds=0, max_passes=1)
    per_layer = bench_e2e.measure_traced(
        setup, seconds=0, max_passes=1,
        micro_rows=bench_e2e.SMOKE_MICRO_ROWS, results_dir=str(tmp_path),
    )
    assert setup.failures == []
    assert end_to_end["passes"] == per_layer["passes"] == 1

    assert set(end_to_end["metrics"]) == {m.name for m in END_TO_END}
    assert set(per_layer["metrics"]) == {m.name for m in PER_LAYER}
    for value in end_to_end["metrics"].values():
        assert math.isfinite(value) and value > 0  # the driver takes ratios of these
    for value in per_layer["metrics"].values():
        assert math.isfinite(value)

    # The record the driver reads: exactly four keys, a unit on every metric.
    for trace, measured in ((0, end_to_end), (1, per_layer)):
        line = json.loads(bench_e2e._result_line(bench_e2e.make_record(setup, trace, measured)))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert all(set(entry) == {"value", "unit"} for entry in line["metrics"].values())

    # Spans: flushed as trace events, each with a parent link and a statement id.
    with open(per_layer["trace_file"]) as handle:
        events = json.load(handle)["traceEvents"]
    assert events and all(event["ph"] == "X" for event in events)
    assert all({"id", "parent", "statement", "phase"} <= set(event["args"]) for event in events)
    assert any(event["name"] == "statement" for event in events)
    assert any(event["args"]["parent"] is not None for event in events)

    # The traced pass accounts for its own wall-clock (acceptance: >= 95 %) ...
    assert per_layer["accounted_share"] >= 0.9
    # ... and each backend's layers report, while the other backend's read 0.
    layers = per_layer["metrics"]
    if workload.backend == "parallel":
        assert layers["parallel.shm_blocks"] > 0 and layers["core.engine.tasks"] == 0
    else:
        assert layers["gcs.lineage_records"] > 0 and layers["parallel.tasks"] == 0
        assert layers["core.recovery.replay_tasks"] > 0
        # Virtual time repeats exactly: the timed pass and the traced pass are
        # two runs of the same statements in this process.
        traced_virtual_s = sum(
            event["args"]["virtual_s"] for event in events
            if event["name"] == "sim.run" and event["args"]["phase"] == "pass-0"
            and event["args"]["role"] == "wal"
        )
        assert traced_virtual_s == end_to_end["metrics"]["virtual_s"]
        assert end_to_end["metrics"]["recovery_overhead_ratio"] > 1.0


def test_self_time_is_duration_minus_children():
    tracer = Tracer()
    tracer.phase = "pass-0"
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
        with tracer.span("inner") as again:
            pass
    view = TraceView(tracer.spans)
    inner_total = inner.duration + again.duration
    assert view.time_by_phase("inner")["pass-0"] == pytest.approx(inner_total)
    assert view.time_by_phase("outer")["pass-0"] == pytest.approx(outer.duration - inner_total)
    assert inner.parent == again.parent == outer.id and outer.parent is None


def _run_set(path, pass_wall_values):
    runs = []
    for seed, value in enumerate(pass_wall_values):
        metrics = {m.name: {"value": 1.0, "unit": m.unit} for m in END_TO_END}
        metrics["pass_wall_s"]["value"] = value
        runs.append({"workload": "scan_agg", "backend": "parallel", "trace": 0,
                     "seed": seed, "metrics": metrics})
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_says_unresolved_when_the_spread_exceeds_the_bound(tmp_path, capsys):
    steady = _run_set(tmp_path / "a.json", [1.00, 1.01, 1.00, 0.99])
    slower = _run_set(tmp_path / "b.json", [2.00, 2.01, 2.00, 1.99])
    noisy = _run_set(tmp_path / "c.json", [0.7, 1.0, 1.3, 1.6])

    def verdict(a, b):
        code = e2e_compare.compare(a, b)
        rows = [line for line in capsys.readouterr().out.splitlines() if " pass_wall_s " in line]
        return code, rows[0].split()[-1]

    assert verdict(steady, steady) == (0, "unchanged")
    assert verdict(steady, slower) == (1, "REGRESSION")
    assert verdict(slower, steady) == (0, "better")
    assert verdict(steady, noisy) == (1, "unresolved")


def test_benchmark_json_matches_the_tables():
    with open(os.path.join(e2e_paths.ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    assert manifest["command"] == ["python3", "benchmarks/e2e/bench_e2e.py"]
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert manifest["run_seconds"] == bench_e2e.DEFAULT_SECONDS
    assert manifest["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS]
    assert manifest["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert manifest["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
