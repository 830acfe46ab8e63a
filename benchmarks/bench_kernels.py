"""Kernel microbenchmark: vectorized kernels vs. the in-tree naive oracles.

Times the hot per-batch kernels — string hashing, hash partitioning, join
build/probe, group-by update/finalize — against the row-at-a-time reference
implementations preserved in :mod:`repro.kernels.reference`, and writes a
machine-readable ``BENCH_kernels.json`` so future PRs have a perf trajectory
to compare against.

Run standalone for the full-size benchmark (1e5–1e6 rows)::

    python benchmarks/bench_kernels.py --rows 200000 --repeats 3

or as a pytest perf-smoke check (small fixed size, used by CI)::

    pytest benchmarks/bench_kernels.py

The pytest path fails if any vectorized kernel is not faster than its naive
counterpart, or if the geometric-mean speedup drops below 3x.  A second
pytest gate times TPC-H Q1 end to end at SF 0.05: the engine inline must stay
within 2.5x of the reference interpreter, and the cost-based plan within 1.5x
of the as-written plan on the interpreter.
"""

import argparse
import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np

from repro.api import ParallelRunner, QueryOptions, ReferenceRunner
from repro.bench.reporting import (
    format_table,
    geometric_mean,
    write_json_results,
    write_report,
)
from repro.data.batch import Batch
from repro.data.partition import hash_partition, hash_rows
from repro.data.schema import DataType, Field, Schema
from repro.expr.nodes import Column
from repro.kernels.aggregate import (
    AggregateFunction,
    AggregateSpec,
    GroupedAggregationState,
)
from repro.kernels.join import HashJoin
from repro.kernels.reference import (
    NaiveGroupedAggregation,
    NaiveHashJoin,
    naive_hash_partition,
    naive_hash_rows,
)
from repro.tpch import build_query, generate_catalog

SCHEMA = Schema(
    [
        Field("i_key", DataType.INT64),
        Field("s_key", DataType.STRING),
        Field("price", DataType.FLOAT64),
        Field("comment", DataType.STRING),
    ]
)

NUM_PARTITIONS = 16


def make_batch(rows: int, seed: int = 0, key_cardinality: int = 997) -> Batch:
    """A TPC-H-flavoured batch: low-cardinality keys, strings, floats."""
    rng = np.random.default_rng(seed)
    i_key = rng.integers(0, key_cardinality, rows).astype(np.int64)
    s_key = np.array([f"cust#{k % 211:05d}" for k in i_key], dtype=object)
    price = rng.uniform(1.0, 1000.0, rows)
    comment = np.array(
        [f"order comment {int(v)} λ" for v in rng.integers(0, rows, rows)],
        dtype=object,
    )
    return Batch(
        SCHEMA,
        {"i_key": i_key, "s_key": s_key, "price": price, "comment": comment},
    )


def _specs():
    return [
        AggregateSpec("total", AggregateFunction.SUM, Column("price")),
        AggregateSpec("n", AggregateFunction.COUNT, None),
        AggregateSpec("lo", AggregateFunction.MIN, Column("price")),
        AggregateSpec("hi", AggregateFunction.MAX, Column("price")),
        AggregateSpec("mean", AggregateFunction.AVG, Column("price")),
    ]


def _best_time(make_callable, repeats: int) -> float:
    """Best-of-``repeats`` wall time; the closure is rebuilt outside timing."""
    best = float("inf")
    for _ in range(repeats):
        fn = make_callable()
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _built_join(batch: Batch, cls):
    join = cls(["i_key", "s_key"], ["i_key", "s_key"])
    join.build(batch)
    join.state_nbytes  # force table construction outside probe timing
    return join


def _updated_state(batch: Batch, cls):
    state = cls(["i_key"], _specs())
    state.update(batch)
    return state


def benchmark_kernels(rows: int, repeats: int = 3, seed: int = 0) -> dict:
    """Time every kernel pair and return the results dictionary."""
    batch = make_batch(rows, seed=seed)
    encoded = batch.dictionary_encode()
    # Join inputs use near-unique keys (a few matches per probe row) so the
    # timing measures build/probe machinery, not giant-output materialisation.
    join_build_batch = make_batch(rows, seed=seed + 1, key_cardinality=max(rows // 4, 1))
    join_probe_batch = make_batch(rows, seed=seed + 2, key_cardinality=max(rows // 4, 1))
    join_build_encoded = join_build_batch.dictionary_encode()
    join_probe_encoded = join_probe_batch.dictionary_encode()

    fast_join = _built_join(join_build_encoded, HashJoin)
    naive_join = _built_join(join_build_batch, NaiveHashJoin)
    fast_state = _updated_state(encoded, GroupedAggregationState)
    naive_state = _updated_state(batch, NaiveGroupedAggregation)

    cases = {
        # The vectorized side runs the engine's actual layout (dictionary-
        # encoded strings); the naive side runs the original object columns.
        "string_hash": (
            lambda: lambda: hash_rows(encoded, ["s_key", "comment"]),
            lambda: lambda: naive_hash_rows(batch, ["s_key", "comment"]),
        ),
        "hash_partition": (
            lambda: lambda: hash_partition(encoded, ["i_key", "s_key"], NUM_PARTITIONS),
            lambda: lambda: naive_hash_partition(batch, ["i_key", "s_key"], NUM_PARTITIONS),
        ),
        "join_build": (
            lambda: lambda: _built_join(join_build_encoded, HashJoin),
            lambda: lambda: _built_join(join_build_batch, NaiveHashJoin),
        ),
        "join_probe": (
            lambda: lambda: fast_join.probe(join_probe_encoded),
            lambda: lambda: naive_join.probe(join_probe_batch),
        ),
        "groupby_update": (
            lambda: lambda: _updated_state(encoded, GroupedAggregationState),
            lambda: lambda: _updated_state(batch, NaiveGroupedAggregation),
        ),
        "groupby_finalize": (
            lambda: lambda: fast_state.finalize(input_schema=SCHEMA),
            lambda: lambda: naive_state.finalize(input_schema=SCHEMA),
        ),
    }

    kernels = {}
    for name, (make_fast, make_naive) in cases.items():
        fast_s = _best_time(make_fast, repeats)
        naive_s = _best_time(make_naive, repeats)
        kernels[name] = {
            "vectorized_s": fast_s,
            "naive_s": naive_s,
            "speedup": naive_s / fast_s if fast_s > 0 else float("inf"),
        }
    return {
        "rows": rows,
        "repeats": repeats,
        "num_partitions": NUM_PARTITIONS,
        "kernels": kernels,
        "geomean_speedup": geometric_mean(
            [entry["speedup"] for entry in kernels.values()]
        ),
    }


def write_results(results: dict, out_path: str) -> None:
    write_json_results(results, out_path)


def render_results(results: dict) -> str:
    rows = [
        {
            "kernel": name,
            "naive (ms)": entry["naive_s"] * 1e3,
            "vectorized (ms)": entry["vectorized_s"] * 1e3,
            "speedup": f"{entry['speedup']:.1f}x",
        }
        for name, entry in results["kernels"].items()
    ]
    table = format_table(rows, ["kernel", "naive (ms)", "vectorized (ms)", "speedup"])
    return (
        f"Kernel microbenchmark at {results['rows']} rows "
        f"(best of {results['repeats']})\n\n{table}\n\n"
        f"geomean speedup: {results['geomean_speedup']:.1f}x"
    )


def test_perf_smoke():
    """CI perf gate: vectorized must beat naive on every kernel, >=3x geomean."""
    rows = int(os.environ.get("BENCH_KERNEL_ROWS", "30000"))
    results = benchmark_kernels(rows=rows, repeats=2)
    # The checked-in repo-root BENCH_kernels.json is the full-size trajectory
    # (written by `python benchmarks/bench_kernels.py`); the smoke run writes
    # to the gitignored results directory so test runs never dirty the tree.
    out_path = os.environ.get("BENCH_KERNELS_OUT")
    if out_path is None:
        os.makedirs("benchmark_results", exist_ok=True)
        out_path = os.path.join("benchmark_results", "BENCH_kernels.json")
    write_results(results, out_path)
    report = render_results(results)
    print("\n" + report)
    write_report("kernels_microbench", report)
    for name, entry in results["kernels"].items():
        assert entry["speedup"] > 1.0, (
            f"vectorized {name} slower than naive reference: "
            f"{entry['vectorized_s']:.4f}s vs {entry['naive_s']:.4f}s"
        )
    assert results["geomean_speedup"] >= 3.0, (
        f"geomean speedup regressed below 3x: {results['geomean_speedup']:.2f}x"
    )


def time_q1_paths(scale_factor: float = 0.05, repeats: int = 5) -> dict:
    """Best-of-``repeats`` wall-clock of TPC-H Q1, SQL plan to result batch,
    on the engine inline (``ParallelRunner(workers=0)``: one core, no fork,
    no shared memory) and on the reference interpreter with and without the
    cost-based optimizer.  The three paths alternate within every repeat, so
    a drift in machine speed hits all of them alike."""
    catalog = generate_catalog(scale_factor=scale_factor, seed=1)
    query = build_query(catalog, 1)
    paths = {
        "inline": lambda: ParallelRunner(workers=0).submit(query),
        "reference": lambda: ReferenceRunner().submit(query),
        "reference_optimized": lambda: ReferenceRunner().submit(
            query, QueryOptions(optimize=True)
        ),
    }
    best = dict.fromkeys(paths, float("inf"))
    for _ in range(repeats):
        for name, run in paths.items():
            start = time.perf_counter()
            run().wait()
            best[name] = min(best[name], time.perf_counter() - start)
    return {
        "scale_factor": scale_factor,
        "repeats": repeats,
        "seconds": best,
        "inline_vs_reference": best["inline"] / best["reference"],
        "optimized_vs_reference": best["reference_optimized"] / best["reference"],
    }


def test_q1_inline_within_reach_of_the_reference():
    """CI perf gate on what a user feels: Q1 on the engine, one core, is at
    most 2.5x the single-node interpreter, and the optimizer's pruning
    projection does not slow the interpreter itself down (<= 1.5x)."""
    results = time_q1_paths()
    print(
        f"\nQ1 at SF {results['scale_factor']} (best of {results['repeats']}): "
        + ", ".join(f"{name} {s * 1e3:.1f} ms" for name, s in results["seconds"].items())
    )
    assert results["inline_vs_reference"] <= 2.5, (
        f"Q1 inline is {results['inline_vs_reference']:.2f}x the reference interpreter"
    )
    assert results["optimized_vs_reference"] <= 1.5, (
        f"the optimized plan is {results['optimized_vs_reference']:.2f}x the "
        "as-written plan on the reference interpreter"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--rows", type=int, default=200_000,
                        help="rows per batch (default 200000)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of repeats per kernel (default 3)")
    parser.add_argument("--out", default=os.path.join(_ROOT, "BENCH_kernels.json"),
                        help="output JSON path (default BENCH_kernels.json)")
    args = parser.parse_args(argv)
    results = benchmark_kernels(rows=args.rows, repeats=args.repeats)
    write_results(results, args.out)
    print(render_results(results))
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
