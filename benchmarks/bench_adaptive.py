"""Adaptive-execution benchmark: static plans vs runtime-feedback revision.

One scenario per reaction the controller has, on the Zipf-skewed adversarial
TPC-H catalog, each run twice through the full simulated engine — once with
the compile-time plan frozen (``adaptive=False``) and once with the runtime
controller on — and verified batch-exactly against the single-node reference:

* ``broadcast_revisit`` (headline): Q3 and Q10 with System-R constant
  estimates (``use_table_stats=False``).  The estimates overprice the build
  sides, so the static plan shuffles both join inputs; the controller
  observes the real build bytes and converts to broadcast joins mid-query.
  Runtime filters are off in these cells: they collapse the probe side's
  shuffle on their own, so the cell would measure them, not the controller.
* ``resize_selfjoin``: a lineitem self-join whose selective build filter the
  estimator prices at its default selectivity; the observed build bytes
  re-size the join to fewer channels.
* ``straggler_speculation``: a plain scan whose worker 2 NIC is throttled
  50000x mid-query; speculative duplicates route around the straggler.

Run standalone for the checked-in trajectory::

    python benchmarks/bench_adaptive.py

or as the CI adaptive-smoke gate::

    pytest benchmarks/bench_adaptive.py

The pytest path fails when the headline broadcast revisit stops cutting
shuffled bytes by at least 20%, or when speculation stops cutting the
straggled runtime at least in half.
"""

import argparse
import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.api.context import QuokkaContext
from repro.api.runners import ReferenceRunner
from repro.bench.reporting import format_table, write_json_results, write_report
from repro.chaos.harness import batches_match
from repro.chaos.plan import ChaosOptions, ChaosPlan, Straggler
from repro.common.config import CostModelConfig
from repro.core.options import QueryOptions
from repro.expr import col, lit
from repro.tpch import build_query
from repro.tpch.adversarial import adversarial_catalog

#: CI gates: minimum shuffled-bytes cut for the headline broadcast revisit,
#: maximum adaptive/static runtime ratio for the straggler scenario.
MIN_HEADLINE_BYTES_REDUCTION = 0.20
MAX_STRAGGLER_RUNTIME_RATIO = 0.50


def _pair(frame, base_options: dict, check_rows: bool = False):
    """Run ``frame`` static and adaptive; verify both against the reference."""
    adaptive = frame.submit(
        options=QueryOptions(adaptive=True, **base_options)
    ).wait()
    static = frame.submit(
        options=QueryOptions(adaptive=False, **base_options)
    ).wait()
    reference = ReferenceRunner().submit(frame, QueryOptions()).wait()
    if check_rows:
        # Raw (non-aggregated) outputs: full-row sort, exact comparison.
        def rows(batch):
            data = batch.to_pydict()
            names = sorted(data)
            return sorted(zip(*(data[n] for n in names)))

        assert rows(adaptive.batch) == rows(reference.batch), "adaptive wrong"
        assert rows(static.batch) == rows(reference.batch), "static wrong"
    else:
        assert batches_match(adaptive.batch, reference.batch), "adaptive wrong"
        assert batches_match(static.batch, reference.batch), "static wrong"
    return adaptive, static


def _entry(name: str, adaptive, static) -> dict:
    m = adaptive.metrics
    return {
        "scenario": name,
        "static": {
            "runtime_s": static.runtime,
            "network_bytes": static.metrics.network_bytes,
        },
        "adaptive": {
            "runtime_s": adaptive.runtime,
            "network_bytes": m.network_bytes,
        },
        "bytes_reduction": 1.0
        - m.network_bytes / max(static.metrics.network_bytes, 1.0),
        "runtime_ratio": adaptive.runtime / max(static.runtime, 1e-12),
        "revisions": {
            "broadcast_joins": m.adaptive_broadcast_joins,
            "channel_resizes": m.adaptive_channel_resizes,
            "speculative_tasks": m.speculative_tasks,
            "speculative_wins": m.speculative_wins,
        },
    }


def benchmark_adaptive(scale_factor: float = 0.01) -> dict:
    scenarios = {}

    # Headline: misestimated joins re-decided as broadcasts at runtime.
    catalog = adversarial_catalog("skew", scale_factor=scale_factor, seed=0)
    ctx = QuokkaContext(num_workers=4, catalog=catalog)
    for number in (3, 10):
        frame = build_query(catalog, number).bind(ctx)
        adaptive, static = _pair(
            frame, dict(use_table_stats=False, runtime_filters=False)
        )
        assert adaptive.metrics.adaptive_broadcast_joins >= 1, (
            f"q{number}: expected a runtime broadcast conversion"
        )
        scenarios[f"broadcast_revisit_q{number}"] = _entry(
            f"broadcast_revisit_q{number}", adaptive, static
        )

    # Channel re-sizing: an over-estimated build side (the selective filter
    # is priced at the default selectivity) shrinks the join's channel count.
    skew_catalog = adversarial_catalog("skew", scale_factor=2 * scale_factor, seed=0)
    resize_ctx = QuokkaContext(num_workers=8, catalog=skew_catalog)
    li = resize_ctx.read_table("lineitem")
    small = li.filter(col("l_quantity") < lit(3)).select("l_orderkey", "l_extendedprice")
    big = li.filter(col("l_quantity") >= lit(3)).select("l_orderkey", "l_quantity")
    resize_frame = (
        big.join(small, left_on="l_orderkey", right_on="l_orderkey")
        .groupby("l_quantity")
        .agg(total=("l_extendedprice", "sum"), n="count")
    )
    adaptive, static = _pair(
        resize_frame, dict(use_table_stats=False, broadcast_threshold_bytes=1000.0)
    )
    assert adaptive.metrics.adaptive_channel_resizes >= 1, "expected a channel re-size"
    scenarios["resize_selfjoin"] = _entry("resize_selfjoin", adaptive, static)

    # Straggler speculation: one worker's NIC throttled 50000x mid-scan.
    strag_ctx = QuokkaContext(
        num_workers=8,
        catalog=skew_catalog,
        cost_config=CostModelConfig(heartbeat_interval=0.01),
    )
    scan = strag_ctx.read_table("lineitem").select(
        "l_orderkey", "l_partkey", "l_extendedprice", "l_quantity"
    )
    chaos = ChaosOptions(
        plan=ChaosPlan(
            seed=-1,
            horizon=1.0,
            events=(
                Straggler(at_time=0.002, worker_id=2, duration=30.0, factor=50000.0),
            ),
        )
    )
    adaptive, static = _pair(
        scan, dict(use_table_stats=False, chaos=chaos), check_rows=True
    )
    assert adaptive.metrics.speculative_wins >= 1, "expected a speculative win"
    scenarios["straggler_speculation"] = _entry(
        "straggler_speculation", adaptive, static
    )

    headline = scenarios["broadcast_revisit_q3"]
    return {
        "scale_factor": scale_factor,
        "scenarios": scenarios,
        "headline_bytes_reduction": headline["bytes_reduction"],
        "straggler_runtime_ratio": scenarios["straggler_speculation"]["runtime_ratio"],
    }


def render_results(results: dict) -> str:
    rows = []
    for name, entry in results["scenarios"].items():
        revisions = entry["revisions"]
        rows.append(
            {
                "scenario": name,
                "static_s": entry["static"]["runtime_s"],
                "adaptive_s": entry["adaptive"]["runtime_s"],
                "runtime_ratio": entry["runtime_ratio"],
                "static_mb": entry["static"]["network_bytes"] / 1e6,
                "adaptive_mb": entry["adaptive"]["network_bytes"] / 1e6,
                "bytes_cut_%": entry["bytes_reduction"] * 100.0,
                "revisions": revisions["broadcast_joins"]
                + revisions["channel_resizes"]
                + revisions["speculative_wins"],
            }
        )
    table = format_table(
        rows,
        [
            "scenario", "static_s", "adaptive_s", "runtime_ratio",
            "static_mb", "adaptive_mb", "bytes_cut_%", "revisions",
        ],
    )
    return (
        table
        + "\n\nheadline (q3) bytes cut      : "
        f"{results['headline_bytes_reduction'] * 100:.1f}%"
        + "\nstraggler runtime ratio      : "
        f"{results['straggler_runtime_ratio']:.3f}"
    )


def _assert_gates(results: dict) -> None:
    assert results["headline_bytes_reduction"] >= MIN_HEADLINE_BYTES_REDUCTION, (
        "adaptive broadcast revisit no longer cuts shuffled bytes by "
        f">={MIN_HEADLINE_BYTES_REDUCTION * 100:.0f}% on the headline query: "
        f"got {results['headline_bytes_reduction'] * 100:.1f}%"
    )
    assert results["straggler_runtime_ratio"] <= MAX_STRAGGLER_RUNTIME_RATIO, (
        "speculation no longer cuts the straggled runtime in half: ratio "
        f"{results['straggler_runtime_ratio']:.3f}"
    )


def test_adaptive_beats_static_on_skewed_data():
    """CI adaptive-smoke gate: runtime feedback must keep paying for itself."""
    scale = float(os.environ.get("BENCH_ADAPTIVE_SCALE", "0.01"))
    results = benchmark_adaptive(scale_factor=scale)
    out_path = os.environ.get("BENCH_ADAPTIVE_OUT")
    if out_path is None:
        os.makedirs("benchmark_results", exist_ok=True)
        out_path = os.path.join("benchmark_results", "BENCH_adaptive.json")
    write_json_results(results, out_path)
    report = render_results(results)
    print("\n" + report)
    write_report("adaptive_execution", report)
    _assert_gates(results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--scale-factor", type=float, default=0.01,
                        help="TPC-H scale factor to generate (default 0.01)")
    parser.add_argument("--out", default=os.path.join(_ROOT, "BENCH_adaptive.json"),
                        help="output JSON path (default BENCH_adaptive.json)")
    args = parser.parse_args(argv)
    results = benchmark_adaptive(scale_factor=args.scale_factor)
    write_json_results(results, args.out)
    print(render_results(results))
    _assert_gates(results)
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
