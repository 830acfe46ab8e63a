"""Out-of-core benchmark: tight memory budgets vs the resident engine.

Runs the state-heavy TPC-H queries (Q9: deep join tree; Q18: large group-by
with an IN-subquery join) through the full simulated engine twice — once
with an unlimited budget (``memory_budget_bytes=inf``: resident execution
plus peak tracking, zero spills) and once with a per-worker budget of 25%
of the measured resident peak — and records runtimes, spill traffic and
memory peaks.  Q9 additionally re-runs at 0.5% of its peak: the regime where
build sides are predicted not to fit even one grace partition, which the
grace join serves with transient tables and forced grants.  Results go to
a machine-readable ``BENCH_memory.json`` so out-of-core behaviour has a
trajectory CI can gate on.

Run standalone for the checked-in trajectory::

    python benchmarks/bench_memory.py

or as the memory-smoke gate (used by CI)::

    pytest benchmarks/bench_memory.py

The pytest path fails unless every budgeted run (a) actually spills,
(b) keeps its memory peak below the resident peak, (c) returns batches
*bit-identical* to the resident run and correct vs the single-node
reference, and (d) holds its simulated runtime within ``MAX_RUNTIME_FACTOR``
of resident — spilling buys memory with I/O time, but the price must stay
bounded.
"""

import argparse
import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np

from repro.bench.reporting import format_table, write_json_results, write_report
from repro.chaos.harness import batches_match
from repro.common.config import ClusterConfig
from repro.core.options import QueryOptions
from repro.core.session import Session
from repro.tpch import build_query, generate_catalog, reference_answer
from repro.tpch.generator import BENCHMARK_SPLITS

#: The state-heaviest queries: Q9's five-way join tree and Q18's big group-by.
QUERIES = (9, 18)

#: The budget each query re-runs under, as a fraction of its resident peak.
BUDGET_FRACTION = 0.25

#: The tight cell: queries re-run at this fraction of their resident peak.
TIGHT_QUERIES = (9,)
TIGHT_BUDGET_FRACTION = 0.005

#: CI gate: maximum simulated-runtime factor a budgeted run may cost.
MAX_RUNTIME_FACTOR = 1.5


def _bit_exact(actual, expected) -> bool:
    """Exact batch equality — floats compared bit-for-bit, not approximately."""
    if actual.schema.names != expected.schema.names:
        return False
    if actual.num_rows != expected.num_rows:
        return False
    return all(
        np.array_equal(actual.column(name), expected.column(name))
        for name in expected.schema.names
    )


def _run(catalog, num_workers: int, query_number: int, budget):
    with Session(
        cluster_config=ClusterConfig(num_workers=num_workers, cpus_per_worker=2),
        catalog=catalog,
        enable_output_cache=False,
    ) as session:
        return session.wait(
            session.submit_options(
                build_query(catalog, query_number),
                QueryOptions(memory_budget_bytes=budget),
            )
        )


def _budgeted_cell(catalog, num_workers: int, number: int, resident, fraction) -> dict:
    """Re-run ``number`` at ``fraction`` of the resident run's memory peak."""
    peak = resident.metrics.memory_peak_bytes
    budget = fraction * peak
    budgeted = _run(catalog, num_workers, number, budget)
    return {
        "resident": {
            "runtime_s": resident.runtime,
            "memory_peak_bytes": peak,
        },
        "budgeted": {
            "budget_bytes": int(budget),
            "runtime_s": budgeted.runtime,
            "memory_peak_bytes": budgeted.metrics.memory_peak_bytes,
            "spill_writes": budgeted.metrics.spill_writes,
            "spill_reads": budgeted.metrics.spill_reads,
            "spill_bytes_written": budgeted.metrics.spill_bytes_written,
            "spill_bytes_read": budgeted.metrics.spill_bytes_read,
            "forced_memory_grants": budgeted.metrics.forced_memory_grants,
        },
        "bit_exact": _bit_exact(budgeted.batch, resident.batch),
        "runtime_factor": budgeted.runtime / resident.runtime,
    }


def benchmark_memory(scale_factor: float = 0.005, num_workers: int = 4) -> dict:
    """Measure resident vs budgeted runs; verify exactness of both."""
    catalog = generate_catalog(
        scale_factor=scale_factor, seed=0, splits=BENCHMARK_SPLITS
    )
    queries = {}
    tight_queries = {}
    for number in QUERIES:
        resident = _run(catalog, num_workers, number, float("inf"))
        assert resident.metrics.spill_writes == 0, f"q{number}: resident run spilled"
        reference = reference_answer(catalog, number)
        assert batches_match(resident.batch, reference), f"q{number}: resident wrong"
        queries[f"q{number}"] = _budgeted_cell(
            catalog, num_workers, number, resident, BUDGET_FRACTION
        )
        if number in TIGHT_QUERIES:
            tight_queries[f"q{number}"] = _budgeted_cell(
                catalog, num_workers, number, resident, TIGHT_BUDGET_FRACTION
            )
    results = {
        "scale_factor": scale_factor,
        "num_workers": num_workers,
        "budget_fraction": BUDGET_FRACTION,
        "queries": queries,
        "tight_budget_fraction": TIGHT_BUDGET_FRACTION,
        "tight_queries": tight_queries,
    }
    results["worst_runtime_factor"] = max(
        entry["runtime_factor"] for _name, entry in _cells(results)
    )
    return results


def _cells(results: dict):
    """Every budgeted cell as ``(label, entry)``: the 25% ones, then the tight ones."""
    yield from results["queries"].items()
    for name, entry in results["tight_queries"].items():
        yield f"{name}@{results['tight_budget_fraction'] * 100:g}%", entry


def render_results(results: dict) -> str:
    rows = []
    for name, entry in _cells(results):
        rows.append(
            {
                "query": name,
                "resident_s": entry["resident"]["runtime_s"],
                "budgeted_s": entry["budgeted"]["runtime_s"],
                "runtime_factor": entry["runtime_factor"],
                "peak_kb": entry["resident"]["memory_peak_bytes"] / 1e3,
                "budget_kb": entry["budgeted"]["budget_bytes"] / 1e3,
                "budgeted_peak_kb": entry["budgeted"]["memory_peak_bytes"] / 1e3,
                "spilled_kb": entry["budgeted"]["spill_bytes_written"] / 1e3,
                "bit_exact": entry["bit_exact"],
            }
        )
    table = format_table(
        rows,
        [
            "query", "resident_s", "budgeted_s", "runtime_factor",
            "peak_kb", "budget_kb", "budgeted_peak_kb", "spilled_kb", "bit_exact",
        ],
    )
    return (
        table
        + f"\n\nbudget fraction      : {results['budget_fraction'] * 100:.0f}% of resident peak"
        + f" (tight cells: {results['tight_budget_fraction'] * 100:g}%)"
        + f"\nworst runtime factor : {results['worst_runtime_factor']:.3f}"
    )


def _assert_gates(results: dict) -> None:
    for name, entry in _cells(results):
        budgeted = entry["budgeted"]
        assert budgeted["spill_writes"] > 0, f"{name}: budgeted run never spilled"
        assert budgeted["spill_reads"] > 0, f"{name}: spilled state never re-read"
        assert budgeted["memory_peak_bytes"] <= entry["resident"]["memory_peak_bytes"], (
            f"{name}: budgeted peak exceeds the resident peak"
        )
        assert entry["bit_exact"], (
            f"{name}: budgeted result differs from the resident result"
        )
        assert entry["runtime_factor"] <= MAX_RUNTIME_FACTOR, (
            f"{name}: spilling cost {entry['runtime_factor']:.2f}x runtime "
            f"(limit {MAX_RUNTIME_FACTOR:.2f}x)"
        )


def test_budgeted_runs_are_exact_and_bounded():
    """Memory-smoke gate: out-of-core execution must not regress."""
    scale = float(os.environ.get("BENCH_MEMORY_SCALE", "0.005"))
    results = benchmark_memory(scale_factor=scale)
    out_path = os.environ.get("BENCH_MEMORY_OUT")
    if out_path is None:
        os.makedirs("benchmark_results", exist_ok=True)
        out_path = os.path.join("benchmark_results", "BENCH_memory.json")
    write_json_results(results, out_path)
    report = render_results(results)
    print("\n" + report)
    write_report("memory_budget", report)
    _assert_gates(results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--scale-factor", type=float, default=0.005,
                        help="TPC-H scale factor to generate (default 0.005)")
    parser.add_argument("--workers", type=int, default=4,
                        help="simulated workers (default 4)")
    parser.add_argument("--out", default=os.path.join(_ROOT, "BENCH_memory.json"),
                        help="output JSON path (default BENCH_memory.json)")
    args = parser.parse_args(argv)
    results = benchmark_memory(
        scale_factor=args.scale_factor, num_workers=args.workers
    )
    write_json_results(results, args.out)
    print(render_results(results))
    _assert_gates(results)
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
