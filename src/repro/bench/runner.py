"""The experiment runner behind ``benchmarks/bench_figures.py``.

The runner owns the generated TPC-H catalog, runs a query as each "system
under test" (Quokka / SparkSQL stand-in / Trino stand-in / the ablation
configurations) through the public :class:`~repro.api.runners.Runner`
protocol, caches results so figures that share measurements do not re-run
them, and computes the per-figure data series.  Every value a series returns
is a virtual second, a ratio of them, or a count — deterministic, so the
figure table is checked exactly against the committed ``FIGURES.json``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.context import QuokkaContext
from repro.api.runners import OneShotRunner
from repro.api.systems import SYSTEM_PRESETS
from repro.baselines import SparkLikeEngine
from repro.bench.settings import BenchSettings
from repro.cluster.faults import FailurePlan
from repro.common.config import CostModelConfig, EngineConfig
from repro.common.errors import ConfigError
from repro.core.metrics import QueryResult
from repro.core.options import QueryOptions
from repro.tpch import build_query, generate_catalog
from repro.tpch.generator import BENCHMARK_SPLITS

#: Engine configurations for every system / ablation used in the figures:
#: the shared systems come from :data:`repro.api.systems.SYSTEM_PRESETS`, only
#: the ablation-only configurations are declared here.  The figures'
#: ``sparksql`` system is :class:`SparkLikeEngine`, not an engine configuration.
SYSTEM_CONFIGS: Dict[str, EngineConfig] = {
    **{name: preset.engine_config for name, preset in SYSTEM_PRESETS.items()},
    "quokka-static8": EngineConfig(scheduling="static", static_batch_size=8, ft_strategy="wal"),
    "quokka-static128": EngineConfig(scheduling="static", static_batch_size=128, ft_strategy="wal"),
    "quokka-checkpoint": EngineConfig(ft_strategy="checkpoint"),
    # Ablation: write-ahead lineage but all lost channels rebuilt on one worker
    # instead of the paper's pipeline-parallel placement (Figure 3).
    "quokka-seqrecover": EngineConfig(ft_strategy="wal", recovery_placement="single-worker"),
}


class ExperimentRunner:
    """Runs TPC-H queries on the simulated cluster for every system under test."""

    def __init__(self, settings: Optional[BenchSettings] = None):
        self.settings = settings or BenchSettings()
        self.catalog = generate_catalog(
            scale_factor=self.settings.scale_factor,
            seed=self.settings.seed,
            splits=BENCHMARK_SPLITS,
        )
        self.cost_config = CostModelConfig(
            io_scale_multiplier=self.settings.io_scale_multiplier
        )
        self._cache: Dict[Tuple, QueryResult] = {}

    # -- low-level execution -----------------------------------------------------------

    def _context(self, num_workers: int, **kwargs) -> QuokkaContext:
        """The cluster shape and catalog every run on ``num_workers`` shares."""
        return QuokkaContext(
            num_workers=num_workers,
            cpus_per_worker=self.settings.cpus_per_worker,
            cost_config=self.cost_config,
            catalog=self.catalog,
            **kwargs,
        )

    def run(
        self,
        query_number: int,
        system: str,
        num_workers: int,
        failure: Optional[Tuple[int, float]] = None,
        optimize: bool = False,
        memory_budget: Optional[float] = None,
    ) -> QueryResult:
        """Run one query as ``system`` on ``num_workers`` workers.

        Every system except ``sparksql`` goes through the public protocol —
        :class:`~repro.api.runners.OneShotRunner` with the system's
        :data:`SYSTEM_CONFIGS` entry in :class:`QueryOptions`.  ``failure`` is
        ``(worker_id, fraction)``: kill that worker at the given fraction of
        the failure-free runtime of the same (query, system, cluster)
        combination.  ``optimize`` selects the cost-based planner
        (statistics, join reordering, broadcast joins); ``False`` — the
        default, which the figures use so their series stay comparable
        across runs — takes the seed-era heuristic planning path.
        ``memory_budget`` is a per-worker ``memory_budget_bytes`` for the
        out-of-core (spilling) regime; only the Quokka-engine systems
        support it.
        """
        key = (query_number, system, num_workers, failure, optimize, memory_budget)
        if key in self._cache:
            return self._cache[key]

        failure_plans = None
        if failure is not None:
            worker_id, fraction = failure
            baseline = self.run(
                query_number, system, num_workers,
                optimize=optimize, memory_budget=memory_budget,
            )
            failure_plans = [
                FailurePlan.at_fraction(worker_id, fraction, baseline.runtime)
            ]

        context = self._context(num_workers)
        frame = build_query(self.catalog, query_number)
        query_name = f"tpch-q{query_number}"
        if system == "sparksql":
            if memory_budget is not None:
                raise ConfigError("the SparkSQL baseline has no memory budget")
            if optimize:
                frame = context.optimize(frame)
            engine = SparkLikeEngine(
                cluster_config=context.cluster_config, cost_config=self.cost_config
            )
            result = engine.run(frame, self.catalog, failure_plans, query_name=query_name)
        else:
            try:
                engine_config = SYSTEM_CONFIGS[system]
            except KeyError:
                raise ConfigError(
                    f"unknown system {system!r}; available: "
                    f"{sorted(SYSTEM_CONFIGS) + ['sparksql']}"
                ) from None
            options = QueryOptions(
                engine_config=engine_config,
                failure_plans=failure_plans,
                optimize=bool(optimize),
                memory_budget_bytes=memory_budget,
                query_name=query_name,
            )
            result = OneShotRunner(context).submit(frame, options).wait()
        self._cache[key] = result
        return result

    def runtime(self, query_number: int, system: str, num_workers: int,
                failure: Optional[Tuple[int, float]] = None,
                optimize: bool = False) -> float:
        """Virtual runtime of one configuration."""
        return self.run(query_number, system, num_workers, failure, optimize=optimize).runtime

    def _failure_target(self, num_workers: int) -> int:
        """The worker the failure experiments kill (deterministic mid-cluster pick)."""
        return max(1, num_workers // 2)

    # -- figure data series ----------------------------------------------------------------

    def figure6_speedups(self, num_workers: int, queries: List[int]) -> List[Dict]:
        """Figure 6 / 11a: Quokka speedup over SparkSQL and Trino-with-FT."""
        rows = []
        for query in queries:
            quokka = self.runtime(query, "quokka", num_workers)
            spark = self.runtime(query, "sparksql", num_workers)
            trino = self.runtime(query, "trino", num_workers)
            rows.append(
                {
                    "query": f"Q{query}",
                    "quokka_s": quokka,
                    "sparksql_s": spark,
                    "trino_s": trino,
                    "speedup_vs_sparksql": spark / quokka,
                    "speedup_vs_trino": trino / quokka,
                }
            )
        return rows

    def figure7_pipelined_vs_stagewise(self, num_workers: int, queries: List[int]) -> List[Dict]:
        """Figure 7: pipelined vs stage-wise (blocking) Quokka runtimes."""
        rows = []
        for query in queries:
            pipelined = self.runtime(query, "quokka", num_workers)
            stagewise = self.runtime(query, "quokka-stagewise", num_workers)
            rows.append(
                {
                    "query": f"Q{query}",
                    "pipelined_s": pipelined,
                    "stagewise_s": stagewise,
                    "speedup": stagewise / pipelined,
                }
            )
        return rows

    def figure8_dynamic_vs_static(self, num_workers: int, queries: List[int]) -> List[Dict]:
        """Figure 8: dynamic task dependencies vs static batch sizes 8 and 128."""
        rows = []
        for query in queries:
            dynamic = self.runtime(query, "quokka", num_workers)
            static8 = self.runtime(query, "quokka-static8", num_workers)
            static128 = self.runtime(query, "quokka-static128", num_workers)
            rows.append(
                {
                    "query": f"Q{query}",
                    "dynamic_s": dynamic,
                    "static8_s": static8,
                    "static128_s": static128,
                    "dynamic_vs_best_static": min(static8, static128) / dynamic,
                }
            )
        return rows

    def figure9_ft_overhead(self, num_workers: int, queries: List[int]) -> List[Dict]:
        """Figure 9: normal-execution overhead of Trino spooling, Quokka spooling
        and write-ahead lineage (ratio of runtime with FT to runtime without)."""
        rows = []
        for query in queries:
            trino_ft = self.runtime(query, "trino", num_workers)
            trino_noft = self.runtime(query, "trino-noft", num_workers)
            quokka_spool = self.runtime(query, "quokka-spool", num_workers)
            quokka_wal = self.runtime(query, "quokka", num_workers)
            quokka_noft = self.runtime(query, "quokka-noft", num_workers)
            rows.append(
                {
                    "query": f"Q{query}",
                    "trino_spool_overhead": trino_ft / trino_noft,
                    "quokka_spool_overhead": quokka_spool / quokka_noft,
                    "wal_overhead": quokka_wal / quokka_noft,
                }
            )
        return rows

    def figure9_spilling_regime(
        self, num_workers: int, queries: List[int], budget_fraction: float = 0.25
    ) -> List[Dict]:
        """Figure 9 extension: FT overhead when the engine is *spilling*.

        Each query's resident memory peak is measured with an unlimited
        budget, then every system re-runs under ``budget_fraction`` of that
        peak — so the overhead ratios compare write-ahead lineage against
        S3 spooling while both are paying out-of-core I/O.
        """
        rows = []
        for query in queries:
            resident = self.run(
                query, "quokka-noft", num_workers, memory_budget=float("inf")
            )
            budget = budget_fraction * resident.metrics.memory_peak_bytes
            noft = self.run(query, "quokka-noft", num_workers, memory_budget=budget)
            wal = self.run(query, "quokka", num_workers, memory_budget=budget)
            spool = self.run(query, "quokka-spool", num_workers, memory_budget=budget)
            rows.append(
                {
                    "query": f"Q{query}",
                    "budget_kb": budget / 1e3,
                    "spill_writes": noft.metrics.spill_writes,
                    "quokka_spool_overhead": spool.runtime / noft.runtime,
                    "wal_overhead": wal.runtime / noft.runtime,
                }
            )
        return rows

    def figure10a_recovery_overhead(self, num_workers: int, queries: List[int],
                                    fraction: Optional[float] = None) -> List[Dict]:
        """Figure 10a / 11b: recovery overhead when a worker dies mid-query."""
        fraction = fraction if fraction is not None else self.settings.failure_fraction
        target = self._failure_target(num_workers)
        rows = []
        for query in queries:
            spark_base = self.runtime(query, "sparksql", num_workers)
            spark_failed = self.runtime(query, "sparksql", num_workers, failure=(target, fraction))
            quokka_base = self.runtime(query, "quokka", num_workers)
            quokka_failed = self.runtime(query, "quokka", num_workers, failure=(target, fraction))
            rows.append(
                {
                    "query": f"Q{query}",
                    "spark_overhead": spark_failed / spark_base,
                    "quokka_overhead": quokka_failed / quokka_base,
                    "quokka_speedup_with_failure": spark_failed / quokka_failed,
                    "restart_baseline": 1.0 + fraction,
                }
            )
        return rows

    def figure10b_case_study(self, num_workers: int, query: int = 9,
                             fractions: Optional[Tuple[float, ...]] = None) -> List[Dict]:
        """Figure 10b: TPC-H Q9 killed at varying points through the query."""
        fractions = fractions or self.settings.case_study_fractions
        target = self._failure_target(num_workers)
        spark_base = self.runtime(query, "sparksql", num_workers)
        quokka_base = self.runtime(query, "quokka", num_workers)
        rows = []
        for fraction in fractions:
            spark_failed = self.runtime(query, "sparksql", num_workers, failure=(target, fraction))
            quokka_failed = self.runtime(query, "quokka", num_workers, failure=(target, fraction))
            rows.append(
                {
                    "failure_point": f"{fraction * 100:.1f}%",
                    "spark_overhead": spark_failed / spark_base,
                    "quokka_overhead": quokka_failed / quokka_base,
                    "restart_baseline": 1.0 + fraction,
                    "quokka_speedup_with_failure": spark_failed / quokka_failed,
                }
            )
        return rows

    def lineage_footprint(self, num_workers: int, queries: List[int]) -> List[Dict]:
        """Section III-A premise: lineage is KB-sized while data movement is MB/GB-sized."""
        rows = []
        for query in queries:
            result = self.run(query, "quokka", num_workers)
            metrics = result.metrics
            data_bytes = max(metrics.local_disk_write_bytes, metrics.network_bytes, 1.0)
            rows.append(
                {
                    "query": f"Q{query}",
                    "lineage_records": metrics.lineage_records,
                    "lineage_kb": metrics.lineage_bytes / 1e3,
                    "gcs_log_kb": metrics.gcs_logged_bytes / 1e3,
                    "backup_mb": metrics.local_disk_write_bytes / 1e6,
                    "shuffle_mb": metrics.network_bytes / 1e6,
                    "data_to_lineage_ratio": data_bytes / max(metrics.lineage_bytes, 1.0),
                }
            )
        return rows

    def recovery_placement_ablation(
        self, num_workers: int, queries: List[int], fraction: Optional[float] = None
    ) -> List[Dict]:
        """Pipeline-parallel recovery (Figure 3) vs rebuilding every lost channel on one worker."""
        fraction = fraction if fraction is not None else self.settings.failure_fraction
        target = self._failure_target(num_workers)
        rows = []
        for query in queries:
            base = self.runtime(query, "quokka", num_workers)
            pipelined = self.runtime(query, "quokka", num_workers, failure=(target, fraction))
            sequential_base = self.runtime(query, "quokka-seqrecover", num_workers)
            sequential = self.runtime(
                query, "quokka-seqrecover", num_workers, failure=(target, fraction)
            )
            rows.append(
                {
                    "query": f"Q{query}",
                    "pipelined_overhead": pipelined / base,
                    "single_worker_overhead": sequential / sequential_base,
                    "recovery_speedup": (sequential - sequential_base) / max(pipelined - base, 1e-9),
                }
            )
        return rows

    def optimizer_ablation(self, num_workers: int, queries: List[int]) -> List[Dict]:
        """Runtime with and without the logical-plan optimizer."""
        rows = []
        for query in queries:
            plain = self.runtime(query, "quokka", num_workers)
            optimized = self.runtime(query, "quokka", num_workers, optimize=True)
            rows.append(
                {
                    "query": f"Q{query}",
                    "plain_s": plain,
                    "optimized_s": optimized,
                    "speedup": plain / optimized,
                }
            )
        return rows

    def checkpoint_overhead(self, num_workers: int, queries: List[int]) -> List[Dict]:
        """Section V-C narrative: checkpointing overhead vs spooling vs WAL."""
        rows = []
        for query in queries:
            noft = self.runtime(query, "quokka-noft", num_workers)
            wal = self.runtime(query, "quokka", num_workers)
            spool = self.runtime(query, "quokka-spool", num_workers)
            checkpoint_result = self.run(query, "quokka-checkpoint", num_workers)
            rows.append(
                {
                    "query": f"Q{query}",
                    "wal_overhead": wal / noft,
                    "spool_overhead": spool / noft,
                    "checkpoint_overhead": checkpoint_result.runtime / noft,
                    "checkpoint_bytes": checkpoint_result.metrics.checkpoint_bytes,
                }
            )
        return rows

    # -- multi-query session workloads ---------------------------------------------------------

    #: The sustained mixed workload: five distinct TPC-H queries, three of
    #: them re-submitted (the dashboard-refresh pattern of real query traffic).
    MULTIQUERY_MIX = (1, 6, 3, 10, 12, 1, 6, 3)

    def multi_query_session(
        self,
        num_workers: int,
        queries: Optional[Sequence[int]] = None,
        failure_fraction: Optional[float] = None,
    ) -> List[Dict]:
        """One shared session versus fresh-cluster-per-query, same workload.

        Runs ``queries`` (default :attr:`MULTIQUERY_MIX`) two ways on
        identically shaped clusters — one TaskManager slot per CPU, so a
        worker can overlap independent tasks, and the comparison isolates
        what the shared session adds (concurrency, result cache, shared
        scans), not extra hardware: sequentially, a fresh
        :class:`~repro.api.runners.OneShotRunner` cluster per query, and
        concurrently on one :class:`~repro.core.session.Session`.  With
        ``failure_fraction`` the failure-target worker is killed at that
        fraction of the failure-free *session* makespan, mid-stream.  Every
        per-query result is checked against
        :func:`repro.tpch.reference_answer`.  Returns a single row.
        """
        from repro.chaos.harness import batches_match
        from repro.tpch.reference import reference_answer

        mix = list(queries or self.MULTIQUERY_MIX)
        frames = [build_query(self.catalog, q) for q in mix]
        context = self._context(
            num_workers,
            engine_config=EngineConfig(max_concurrent_queries=len(mix)),
            task_managers_per_worker=self.settings.cpus_per_worker,
        )

        sequential_total = sum(
            OneShotRunner(context).submit(frame).wait().runtime for frame in frames
        )

        def run_session(failure_plans=None):
            with context.session() as session:
                results = session.run_many(
                    frames,
                    query_names=[f"q{q}" for q in mix],
                    failure_plans=failure_plans,
                )
                return results, session.env.now, session.scan_pool.stats.coalesced_reads

        failure_plans = None
        if failure_fraction is not None:
            _results, baseline, _reads = run_session()
            failure_plans = [
                FailurePlan.at_fraction(
                    self._failure_target(num_workers), failure_fraction, baseline
                )
            ]
        results, makespan, shared_scan_reads = run_session(failure_plans)

        return [
            {
                "queries": " ".join(f"q{q}" for q in mix),
                "sequential_s": sequential_total,
                "makespan_s": makespan,
                "throughput_x": sequential_total / makespan,
                "all_correct": all(
                    batches_match(result.batch, reference_answer(self.catalog, q))
                    for q, result in zip(mix, results)
                ),
                "coalesced_results": sum(r.metrics.result_from_cache for r in results),
                "shared_scan_reads": shared_scan_reads,
                "failures_injected": max(
                    (r.metrics.failures_injected for r in results), default=0
                ),
                "rewound_channels": sum(r.metrics.rewound_channels for r in results),
                "query_restarts": sum(r.metrics.query_restarts for r in results),
            }
        ]
