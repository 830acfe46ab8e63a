"""The benchmark's metric tables: names, units, directions and bounds.

``BENCHMARK.json`` at the repo root carries the same tables for the driver;
``test_e2e_smoke.py`` asserts the two agree.  ``bound`` is the share of the
parent's median by which an end-to-end metric may worsen before a change
counts as a regression; per-layer metrics have none.
"""

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: Optional[float] = None
    #: Computed by the program rather than measured: repeats exactly for one
    #: seed, so --compare reports any difference at all (as a count, not a
    #: speed-up).  The end-to-end ones are exact on ``sim_recovery`` only.
    exact: bool = False


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    # The wall-clock bounds are sized to this sandbox, a 2-vCPU microVM with
    # neighbours: identical runs minutes apart differ by up to +-5 % (CPU time
    # moves with wall-clock), and ten runs' quartile distance came out at
    # 2-11 % of their median whatever the benchmark did.  A bound has to stay
    # above that spread, with room, or the runs cannot tell.
    Metric("pass_wall_s", "s", "lower", 0.25),
    Metric("stmt_wall_geomean_s", "s", "lower", 0.25),
    Metric("stmt_wall_p90_s", "s", "lower", 0.25),
    Metric("input_mrows_per_s", "Mrows/s", "higher", 0.25),
    Metric("pass_cpu_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("ref_ratio", "ratio", "lower", 0.25),
    # On the simulator these three are virtual-time outcomes and repeat exactly
    # for a fixed seed; their bounds only have to cover the spread *between*
    # seeds (the driver compares medians over ten seeds).  --compare checks
    # them for exact equality whenever both sides ran the same seed.
    Metric("virtual_s", "virtual_s", "lower", 0.25, exact=True),
    Metric("ft_overhead_ratio", "ratio", "lower", 0.005, exact=True),
    Metric("recovery_overhead_ratio", "ratio", "lower", 0.05, exact=True),
)

PER_LAYER: Tuple[Metric, ...] = (
    Metric("tpch.generate_s", "s", "lower"),
    Metric("optimizer.analyze_s", "s", "lower"),
    Metric("sql.parse_s", "s", "lower"),
    Metric("sql.plan_s", "s", "lower"),
    Metric("optimizer.optimize_s", "s", "lower"),
    Metric("physical.compile_s", "s", "lower"),
    Metric("physical.stages", "count", "lower", exact=True),
    Metric("plan.interpreter_s", "s", "lower"),
    Metric("expr.eval_mrows_per_s", "Mrows/s", "higher"),
    Metric("physical.apply_ops_mrows_per_s", "Mrows/s", "higher"),
    Metric("kernels.factorize_mrows_per_s", "Mrows/s", "higher"),
    Metric("kernels.factorize_highcard_mrows_per_s", "Mrows/s", "higher"),
    Metric("kernels.aggregate_mrows_per_s", "Mrows/s", "higher"),
    Metric("kernels.join_build_mrows_per_s", "Mrows/s", "higher"),
    Metric("kernels.join_probe_mrows_per_s", "Mrows/s", "higher"),
    Metric("data.partition_mrows_per_s", "Mrows/s", "higher"),
    Metric("parallel.execute_s", "s", "lower"),
    Metric("parallel.stage_wall_s", "s", "lower"),
    Metric("parallel.driver_gap_s", "s", "lower"),
    Metric("parallel.pool_start_s", "s", "lower"),
    Metric("parallel.tasks", "count", "lower", exact=True),
    Metric("parallel.inline_execute_s", "s", "lower"),
    Metric("parallel.shm_blocks", "count", "lower", exact=True),
    Metric("parallel.shm_bytes", "bytes", "lower", exact=True),
    Metric("parallel.shm_write_mb_per_s", "MB/s", "higher"),
    Metric("parallel.shm_read_mb_per_s", "MB/s", "higher"),
    Metric("parallel.filter_rows_dropped_frac", "frac", "higher", exact=True),
    Metric("parallel.splits_pruned", "count", "higher", exact=True),
    Metric("core.session.submit_s", "s", "lower"),
    Metric("sim.run_s", "s", "lower"),
    Metric("core.engine.tasks", "count", "lower", exact=True),
    Metric("core.engine.wall_ms_per_task", "ms", "lower"),
    Metric("core.engine.overhead_ratio", "ratio", "lower"),
    Metric("physical.local_execute_s", "s", "lower"),
    Metric("gcs.transactions", "count", "lower", exact=True),
    Metric("gcs.logged_bytes", "bytes", "lower", exact=True),
    Metric("gcs.lineage_records", "count", "lower", exact=True),
    Metric("gcs.lineage_bytes", "bytes", "lower", exact=True),
    Metric("ft.spool_overhead_ratio", "ratio", "lower", exact=True),
    Metric("core.recovery.rewound_channels", "count", "lower", exact=True),
    Metric("core.recovery.replay_tasks", "count", "lower", exact=True),
    Metric("core.recovery.regenerated_input_tasks", "count", "lower", exact=True),
    Metric("core.recovery.virtual_s", "virtual_s", "lower", exact=True),
    Metric("cluster.network_bytes", "bytes", "lower", exact=True),
    Metric("cluster.local_disk_write_bytes", "bytes", "lower", exact=True),
    Metric("core.adaptive.revisions", "count", "higher", exact=True),
    Metric("core.filters.rows_dropped_frac", "frac", "higher", exact=True),
    Metric("trace_overhead_frac", "frac", "lower"),
)
