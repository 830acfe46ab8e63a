"""The paper's evaluation as one table, checked against ``FIGURES.json``.

Every figure is one :data:`FIGURES` entry: the paper shape it must show, the
``ExperimentRunner`` series that measures it, the cluster size and query list,
and a ``check`` asserting the shape.  Every value is a virtual second, a ratio
of them, or a count, so the table is compared exactly::

    pytest benchmarks/bench_figures.py      # shapes hold AND equal FIGURES.json
    python benchmarks/bench_figures.py      # regenerate FIGURES.json, print tables

Settings are ``BenchSettings()`` (the paper's 16/32-worker clusters are 8/16).
``fig11a`` is ~12 of the ~17 minutes; CI runs ``-k "not fig11a"``.
"""

import dataclasses
import json
import os
import sys
from typing import Callable

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(_ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(_ROOT, "src"))

import pytest

from repro.bench.reporting import format_table, geometric_mean, write_json_results
from repro.bench.runner import ExperimentRunner as R
from repro.bench.settings import BenchSettings
from repro.ft import SYSTEM_TAXONOMY
from repro.tpch.queries import QUERY_CATEGORIES

FIGURES_JSON = os.path.join(_ROOT, "FIGURES.json")


@dataclasses.dataclass(frozen=True)
class Figure:
    id: str
    shape: str  # the paper's claim, one line
    series: Callable  # (runner, workers, queries) -> rows
    workers: str  # BenchSettings field holding the cluster size
    queries: object  # query numbers, or the BenchSettings method listing them
    columns: list
    summary: Callable  # rows -> {name: geomean}
    check: Callable  # (rows, summary) -> None, asserting the shape


def geomeans(*columns):
    return lambda rows: {c: geometric_mean(r[c] for r in rows) for c in columns}


def fig7_summary(rows):
    joins = {f"Q{q}" for q in QUERY_CATEGORIES["II"] + QUERY_CATEGORIES["III"]}
    return {"join_speedup": geometric_mean(r["speedup"] for r in rows if r["query"] in joins)}


def check_fig6(rows, summary):
    assert summary["speedup_vs_sparksql"] > 1.0


def check_fig7(rows, summary):
    # Pipelined execution must not lose to blocking execution.
    assert all(row["speedup"] >= 0.95 for row in rows)


def check_fig8(rows, summary):
    # Dynamic scheduling should be within ~25% of the better static strategy.
    assert summary["dynamic_vs_best_static"] > 0.75


def check_fig9_large(rows, summary):
    # Write-ahead lineage must be far cheaper than either spooling option.
    assert summary["wal_overhead"] < summary["quokka_spool_overhead"]
    assert summary["wal_overhead"] < summary["trino_spool_overhead"]


def check_fig9_small(rows, summary):
    check_fig9_large(rows, summary)
    assert summary["wal_overhead"] < 1.35


def check_fig9_spilling(rows, summary):
    # The overhead ordering must survive out-of-core runs.
    assert all(row["spill_writes"] > 0 for row in rows)
    assert summary["wal_overhead"] < summary["quokka_spool_overhead"]
    assert summary["wal_overhead"] < 1.35


def check_fig10a(rows, summary):
    for row in rows:
        # Both systems must beat restarting the query from scratch.
        assert row["quokka_overhead"] < row["restart_baseline"] + 0.35
        # Quokka with a failure still beats Spark end-to-end (paper Fig 10/11).
        assert row["quokka_speedup_with_failure"] > 1.0


def check_fig11b(rows, summary):
    for row in rows:
        assert row["quokka_speedup_with_failure"] > 1.0


def check_fig10b(rows, summary):
    # Later failures cost at least as much as the earliest failure.
    assert rows[-1]["quokka_overhead"] >= rows[0]["quokka_overhead"] - 0.05
    check_fig11b(rows, summary)


def check_checkpoint(rows, summary):
    # WAL must be the cheapest strategy; checkpointing must actually persist state.
    assert summary["wal_overhead"] <= summary["checkpoint_overhead"]
    assert all(row["checkpoint_bytes"] > 0 for row in rows)


def check_lineage(rows, summary):
    # The paper's KB-vs-MB/GB claim: the log is >= 3 orders of magnitude below the data.
    assert summary["data_to_lineage_ratio"] > 1_000
    for row in rows:
        assert row["lineage_records"] > 0


def check_optimizer(rows, summary):
    # The optimizer must never make a query dramatically slower.
    assert summary["speedup"] > 0.9
    for row in rows:
        assert row["speedup"] > 0.8


def check_placement(rows, summary):
    # Pipeline-parallel placement overlaps the rebuild of different stages.
    assert summary["pipelined_overhead"] <= summary["single_worker_overhead"] * 1.05


def check_multiquery(rows, summary):
    (outcome,) = rows
    assert outcome["all_correct"], "per-query results must match the reference"
    assert outcome["throughput_x"] >= 2.0, "shared session should be >= 2x sequential"


def check_multiquery_failure(rows, summary):
    (outcome,) = rows
    assert outcome["all_correct"], "per-query results must match the reference"
    assert outcome["failures_injected"] >= 1, "the failure must land mid-stream"
    assert outcome["query_restarts"] == 0, "WAL recovery must not restart any query"


def check_table1(rows, summary):
    # Quokka: the only pipelined SQL engine with lineage but no spooling or checkpoints.
    quokka = next(s for s in rows if s["name"] == "Quokka")
    assert quokka["lineage"] and not quokka["spooling"] and not quokka["state_checkpoint"]
    flink = next(s for s in rows if s["name"] == "Flink")
    assert not flink["lineage"]


FIG6 = ["query", "quokka_s", "sparksql_s", "trino_s", "speedup_vs_sparksql", "speedup_vs_trino"]
FIG7 = ["query", "pipelined_s", "stagewise_s", "speedup"]
FIG8 = ["query", "dynamic_s", "static8_s", "static128_s", "dynamic_vs_best_static"]
FIG9 = ["query", "trino_spool_overhead", "quokka_spool_overhead", "wal_overhead"]
FIG9_SPILL = ["query", "budget_kb", "spill_writes", "quokka_spool_overhead", "wal_overhead"]
FIG10A = ["query", "spark_overhead", "quokka_overhead", "restart_baseline", "quokka_speedup_with_failure"]
FIG10B = ["failure_point", "spark_overhead", "quokka_overhead", "restart_baseline", "quokka_speedup_with_failure"]
CHECKPOINT = ["query", "wal_overhead", "spool_overhead", "checkpoint_overhead", "checkpoint_bytes"]
LINEAGE = ["query", "lineage_records", "lineage_kb", "gcs_log_kb", "backup_mb", "shuffle_mb", "data_to_lineage_ratio"]
OPTIMIZER = ["query", "plain_s", "optimized_s", "speedup"]
PLACEMENT = ["query", "pipelined_overhead", "single_worker_overhead", "recovery_speedup"]
MULTIQUERY = ["queries", "sequential_s", "makespan_s", "throughput_x", "all_correct", "coalesced_results",
              "shared_scan_reads", "failures_injected", "rewound_channels", "query_restarts"]
TABLE1 = ["name", "description", "spooling", "state_checkpoint", "lineage"]
SPEEDUPS, FT, RECOVERY = geomeans(*FIG6[4:]), geomeans(*FIG9[1:]), geomeans(*FIG10A[1:3])
SMALL, LARGE, SCALE = "small_cluster_workers", "large_cluster_workers", "scalability_workers"
REP = "representative_queries"
SUBSET = [1, 6, 3, 9]  # one query per category plus Q9, for the expensive scalability cluster
JOINS = [3, 5, 9]  # join-heavy: state grows with input, several stateful channels per worker

FIGURES = [
    Figure("fig6_small", "Quokka is fastest on most queries: ~2x geomean over SparkSQL, ~1.25x over Trino",
           R.figure6_speedups, SMALL, "figure6_queries", FIG6, SPEEDUPS, check_fig6),
    Figure("fig6_large", "same ~2x over SparkSQL; the Trino gap grows (spooling degrades with cluster size)",
           R.figure6_speedups, LARGE, "figure6_queries", FIG6, SPEEDUPS, check_fig6),
    Figure("fig7_small", "pipelined is never slower than stage-wise; the gap grows on join-heavy queries",
           R.figure7_pipelined_vs_stagewise, SMALL, REP, FIG7, fig7_summary, check_fig7),
    Figure("fig7_large", "pipelined is never slower than stage-wise; ~20-30% geomean on join queries",
           R.figure7_pipelined_vs_stagewise, LARGE, REP, FIG7, fig7_summary, check_fig7),
    Figure("fig8_small", "dynamic task dependencies track the better static batch size (8 wins here)",
           R.figure8_dynamic_vs_static, SMALL, REP, FIG8, geomeans(FIG8[4]), check_fig8),
    Figure("fig8_large", "dynamic task dependencies track the better static batch size (128 wins here)",
           R.figure8_dynamic_vs_static, LARGE, REP, FIG8, geomeans(FIG8[4]), check_fig8),
    Figure("fig9_small", "write-ahead lineage costs a few percent; HDFS/S3 spooling costs tens of percent",
           R.figure9_ft_overhead, SMALL, REP, FIG9, FT, check_fig9_small),
    Figure("fig9_large", "same ordering on the larger cluster, where spooling gets worse",
           R.figure9_ft_overhead, LARGE, REP, FIG9, FT, check_fig9_large),
    Figure("fig9_spilling", "extension: WAL stays cheaper than S3 spooling at a 25%-of-peak memory budget",
           R.figure9_spilling_regime, SMALL, REP, FIG9_SPILL, geomeans(*FIG9_SPILL[3:]), check_fig9_spilling),
    Figure("fig10a", "a worker killed at 50%: Quokka and Spark both recover well below restart (1.5x)",
           R.figure10a_recovery_overhead, LARGE, REP, FIG10A, RECOVERY, check_fig10a),
    Figure("fig10b", "Q9 killed at 1/6..5/6: overhead grows with the failure point, Quokka stays ahead",
           lambda r, w, q: r.figure10b_case_study(w, query=q[0]), LARGE, [9], FIG10B, RECOVERY, check_fig10b),
    Figure("fig11a", "the speedup profile holds on the scalability cluster",
           R.figure6_speedups, SCALE, SUBSET, FIG6, SPEEDUPS, check_fig6),
    Figure("fig11b", "recovery on the scalability cluster: Quokka still beats Spark end-to-end",
           R.figure10a_recovery_overhead, SCALE, SUBSET, FIG10A, RECOVERY, check_fig11b),
    Figure("checkpoint", "Sec. V-C: checkpointing operator state costs more than spooling, let alone WAL",
           R.checkpoint_overhead, SMALL, JOINS, CHECKPOINT, geomeans(*CHECKPOINT[1:4]), check_checkpoint),
    Figure("lineage", "Sec. III-A: lineage is KB where the data it describes is MB (>= 1000x smaller)",
           R.lineage_footprint, SMALL, REP, LINEAGE, geomeans(LINEAGE[6]), check_lineage),
    Figure("optimizer", "extension: the plan optimizer is parity-or-better on the wide join queries",
           R.optimizer_ablation, SMALL, [3, 5, 10], OPTIMIZER, geomeans("speedup"), check_optimizer),
    Figure("placement", "Fig. 3: pipeline-parallel recovery placement is no worse than a single worker",
           R.recovery_placement_ablation, LARGE, JOINS, PLACEMENT, geomeans(*PLACEMENT[1:3]), check_placement),
    Figure("multiquery", "extension: a shared session gives >= 2x throughput over fresh clusters",
           R.multi_query_session, SMALL, list(R.MULTIQUERY_MIX), MULTIQUERY, lambda rows: {}, check_multiquery),
    Figure("multiquery_failure", "extension: a mid-stream worker kill restarts no query of the session",
           lambda r, w, q: r.multi_query_session(w, q, failure_fraction=r.settings.failure_fraction),
           SMALL, list(R.MULTIQUERY_MIX), MULTIQUERY, lambda rows: {}, check_multiquery_failure),
    Figure("table1", "Table I: only Quokka has lineage with neither spooling nor state checkpoints",
           lambda r, w, q: [dataclasses.asdict(s) for s in SYSTEM_TAXONOMY],
           SMALL, [], TABLE1, lambda rows: {}, check_table1),
]


def compute(figure: Figure, runner: R, queries=None) -> dict:
    """One figure's cell, exactly as ``FIGURES.json`` stores it."""
    workers = getattr(runner.settings, figure.workers)
    queries = figure.queries if queries is None else queries
    if isinstance(queries, str):
        queries = getattr(runner.settings, queries)()
    rows = figure.series(runner, workers, queries)
    cell = {"shape": figure.shape, "workers": workers, "rows": rows, "summary": figure.summary(rows)}
    return json.loads(json.dumps(cell))


def render(figure: Figure, cell: dict) -> str:
    table = format_table(cell["rows"], figure.columns)
    summary = "".join(f"\ngeomean {name}: {value:.3f}x" for name, value in cell["summary"].items())
    return f"{figure.id} ({cell['workers']} workers) — {figure.shape}\n\n{table}\n{summary}\n"


@pytest.fixture(scope="module")
def runner():
    return R(BenchSettings())


@pytest.mark.parametrize("figure", FIGURES, ids=lambda figure: figure.id)
def test_figure(figure, runner):
    with open(FIGURES_JSON, encoding="utf-8") as handle:
        committed = json.load(handle)["figures"]
    cell = compute(figure, runner)
    print("\n" + render(figure, cell))
    figure.check(cell["rows"], cell["summary"])
    assert cell == committed[figure.id]


if __name__ == "__main__":
    shared = R(BenchSettings())
    cells = {}
    for fig in FIGURES:
        cell = cells[fig.id] = compute(fig, shared)
        print(render(fig, cell), flush=True)
        fig.check(cell["rows"], cell["summary"])
    write_json_results({"settings": dataclasses.asdict(shared.settings), "figures": cells}, FIGURES_JSON)
    print(f"[written to {FIGURES_JSON}]")
