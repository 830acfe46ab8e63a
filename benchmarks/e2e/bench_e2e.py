"""End-to-end benchmark: wall-clock SQL text -> checked result batch, by layer.

One run measures one workload (see ``e2e_workloads.py``) as a **closed loop
with one client** in a single process: generate the data from ``--seed``,
ANALYZE, compute the reference interpreter's answers, run one untimed warm-up
pass (all of that is ``setup_s``), then run timed *passes* — every statement
of the workload once, in a seeded permutation — until ``--seconds`` have
elapsed.  Each result batch is checked against the reference answer after its
clock has stopped; a statement that raises or mismatches counts as failed.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
makes the separate traced measurement: passes alternate untraced / traced,
spans are recorded around the calls into each layer (``e2e_trace.py``), and
the per-layer metrics are computed from those spans, from the counters the
calls return, and from short kernel micro-timings (``e2e_micro.py``).

    python3 benchmarks/e2e/bench_e2e.py                       # everything
    python3 benchmarks/e2e/bench_e2e.py --smoke               # seconds, not minutes
    python3 benchmarks/e2e/bench_e2e.py --workload scan_agg --seed 3 --seconds 20 --trace 0
    python3 benchmarks/e2e/bench_e2e.py --compare A.json B.json

Without ``--workload`` every workload runs (each run in a fresh process, so
set-up time and peak memory are not polluted by the previous one), the run
set is written under ``benchmark_results/``, and the exit code is non-zero if
any statement failed its reference check.  With ``--workload`` the last line
of standard output is the one-object result the driver reads.
"""

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import e2e_paths
import numpy
from repro.api import QuokkaContext
from repro.api.runners import OneShotRunner, ParallelRunner, ReferenceRunner
from repro.bench.reporting import geometric_mean
from repro.chaos.harness import batches_match
from repro.cluster.faults import FailurePlan
from repro.common.config import CostModelConfig
from repro.core.options import QueryOptions
from repro.optimizer import optimize_plan
from repro.parallel.runner import execute_graph_parallel
from repro.parallel.shm import sweep_blocks
from repro.physical.compiler import compile_plan
from repro.physical.local import execute_stage_graph_locally
from repro.plan.nodes import TableScan
from repro.sql import parse, plan_query
from repro.tpch import generate_catalog

import e2e_compare
import e2e_micro
from e2e_metrics import END_TO_END, PER_LAYER
from e2e_trace import Tracer, TraceView, maybe_span, write_chrome_trace
from e2e_workloads import (
    KILL_FRACTION,
    KILL_WORKER,
    PARALLEL_WORKERS,
    SIM_CPUS_PER_WORKER,
    SIM_TARGET_SCALE_FACTOR,
    SIM_WORKERS,
    SMOKE_SCALE_FACTOR,
    SMOKE_STATEMENTS,
    WORKLOADS,
    Statement,
    Workload,
    workload_named,
)

#: ``run_seconds`` in BENCHMARK.json: how long one run measures.
DEFAULT_SECONDS = 20
#: Share of ``--seconds`` the traced run spends alternating untraced and traced
#: passes; the rest of its budget goes to the inline pass and micro-timings.
TRACED_LOOP_SHARE = 0.5
#: Rows per micro-timing input under ``--smoke`` (a full split otherwise).
SMOKE_MICRO_ROWS = 10_000


# -- backends ---------------------------------------------------------------------------


def _role(statement: Statement) -> str:
    """Which of the simulator's ways of running a query this statement is."""
    if statement.kill:
        return "kill"
    return {"quokka-noft": "noft", "quokka": "wal", "quokka-spool": "spool"}[statement.system]


def _plan_sql(sql: str, catalog, tracer: Optional[Tracer]):
    """SQL text -> planned frame, with a span around each frontend call."""
    with maybe_span(tracer, "sql.parse"):
        ast = parse(sql)
    with maybe_span(tracer, "sql.plan"):
        return plan_query(ast, catalog)


class ParallelBackend:
    """SQL text -> result on ``ParallelRunner``; the engine sees text and catalog."""

    def __init__(self, catalog, workers: int):
        self.catalog = catalog
        self.runner = ParallelRunner(workers=workers)
        #: Stage graph of each statement, captured while a traced pass compiles it.
        self.graphs: Dict[str, object] = {}

    def run(self, statement: Statement, tracer: Optional[Tracer]):
        return self.runner.submit(_plan_sql(statement.sql, self.catalog, tracer)).wait()

    def wrap_targets(self, execute_name: str = "parallel.execute"):
        """The layer entry points ``ParallelRunner.submit`` calls internally."""
        return [
            (optimize_plan, "optimizer.optimize", None),
            (compile_plan, "physical.compile", self._on_compile),
            (execute_graph_parallel, execute_name, _record_parallel_stats),
        ]

    def _on_compile(self, span, graph) -> None:
        span.args["stages"] = len(graph)
        self.graphs[span.statement] = graph


def _record_parallel_stats(span, returned) -> None:
    _batch, stats = returned
    span.args.update(
        tasks=stats.total_tasks,
        shm_blocks=stats.shm_blocks,
        shm_bytes=stats.shm_bytes,
        stage_wall_s=sum(stats.stage_walls.values()),
        filter_rows_tested=stats.filter_rows_tested,
        filter_rows_dropped=stats.filter_rows_dropped,
        splits_pruned=stats.splits_pruned,
    )


class SimulatorBackend:
    """SQL text -> result on a fresh simulated cluster per statement."""

    def __init__(self, catalog, scale_factor: float):
        self.catalog = catalog
        context = QuokkaContext(
            num_workers=SIM_WORKERS,
            cpus_per_worker=SIM_CPUS_PER_WORKER,
            cost_config=CostModelConfig(
                io_scale_multiplier=SIM_TARGET_SCALE_FACTOR / scale_factor
            ),
            catalog=catalog,
        )
        self.runner = OneShotRunner(context)
        #: Virtual runtime of each query's failure-free ``quokka`` run; the
        #: kill lands at ``KILL_FRACTION`` of it.  Filled by the warm-up pass,
        #: which runs in definition order (failure-free before killed).
        self.failure_free: Dict[str, float] = {}
        self.graphs: Dict[str, object] = {}

    def run(self, statement: Statement, tracer: Optional[Tracer]):
        frame = _plan_sql(statement.sql, self.catalog, tracer)
        failure_plans = None
        if statement.kill:
            failure_plans = [
                FailurePlan.at_fraction(
                    KILL_WORKER, KILL_FRACTION, self.failure_free[statement.query]
                )
            ]
        options = QueryOptions(
            system=statement.system, failure_plans=failure_plans, query_name=statement.id
        )
        with maybe_span(tracer, "core.session.submit"):
            handle = self.runner.submit(frame, options)
        with maybe_span(tracer, "sim.run") as span:
            result = handle.wait()
            if span is not None:
                graph = handle.execution.graph
                self.graphs[statement.id] = graph
                _record_simulator_metrics(span, _role(statement), result, len(graph))
        if _role(statement) == "wal":
            self.failure_free[statement.query] = result.runtime
        return result

    def wrap_targets(self):
        # ``core.session.submit_s`` is defined as the whole of Runner.submit
        # (optimize, compile, cluster and catalog load), so nothing inside it
        # is wrapped.
        return []


def _record_simulator_metrics(span, role: str, result, stages: int) -> None:
    m = result.metrics
    span.args.update(
        role=role,
        stages=stages,
        virtual_s=result.runtime,
        tasks_executed=m.tasks_executed,
        gcs_transactions=m.gcs_transactions,
        gcs_logged_bytes=m.gcs_logged_bytes,
        lineage_records=m.lineage_records,
        lineage_bytes=m.lineage_bytes,
        rewound_channels=m.rewound_channels,
        replay_tasks=m.replay_tasks,
        regenerated_input_tasks=m.regenerated_input_tasks,
        network_bytes=m.network_bytes,
        local_disk_write_bytes=m.local_disk_write_bytes,
        adaptive_revisions=(
            m.adaptive_broadcast_joins + m.adaptive_channel_resizes + m.adaptive_skew_splits
        ),
        filter_rows_tested=m.filter_rows_tested,
        filter_rows_dropped=m.filter_rows_dropped,
    )


# -- set-up and passes ------------------------------------------------------------------


@dataclass
class Setup:
    """Everything a run's passes need; built (and timed) by :func:`set_up`."""

    workload: Workload
    seed: int
    catalog: object
    backend: object
    #: Reference interpreter's answer per ``Statement.query``.
    references: Dict[str, object]
    #: Base-table rows one pass's statements scan (from the catalog).
    input_rows: int
    tracer: Tracer
    setup_samples: List[float] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)


@dataclass
class PassResult:
    walls: Dict[str, float]
    cpu_s: float
    #: ``QueryResult.runtime`` per statement: virtual seconds on the simulator,
    #: the executor's own wall-clock on the parallel backend.
    runtimes: Dict[str, float]

    @property
    def wall_s(self) -> float:
        return sum(self.walls.values())


def _scanned_rows(plan) -> int:
    if isinstance(plan, TableScan):
        return plan.table.num_rows
    return sum(_scanned_rows(child) for child in plan.children())


def _cpu_seconds() -> float:
    """User + system CPU of this process and of every child it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def set_up(workload: Workload, seed: int) -> Setup:
    """Generate, ANALYZE, compute reference answers and warm up,
    ``workload.setup_repeats`` times.

    Each repetition is a complete set-up and one ``setup_s`` sample; the last
    one's state is what the passes run on.
    """
    tracer = Tracer()
    samples: List[float] = []
    attempted, failures = 0, []
    setup = None
    for repeat in range(workload.setup_repeats):
        # Free the previous repetition before regenerating.
        setup = catalog = backend = references = None
        tracer.phase = f"setup-{repeat}"
        started = time.perf_counter()
        with tracer.span("tpch.generate"):
            catalog = generate_catalog(scale_factor=workload.scale_factor, seed=seed)
        with tracer.span("optimizer.analyze"):
            catalog.analyze()
        if workload.backend == "parallel":
            backend = ParallelBackend(catalog, PARALLEL_WORKERS)
        else:
            backend = SimulatorBackend(catalog, workload.scale_factor)
        references: Dict[str, object] = {}
        input_rows = 0
        for statement in workload.statements:
            frame = _plan_sql(statement.sql, catalog, None)
            input_rows += _scanned_rows(frame.plan)
            if statement.query not in references:
                references[statement.query] = ReferenceRunner().submit(frame).wait().batch
        setup = Setup(workload, seed, catalog, backend, references,
                      input_rows, tracer, attempted=attempted, failures=failures)
        # Warm-up: imports, dictionary caches, fork; in definition order.
        run_pass(setup, backend, workload.statements)
        attempted = setup.attempted
        samples.append(time.perf_counter() - started)
    setup.setup_samples = samples
    return setup


def run_pass(setup: Setup, backend, order: Sequence[Statement],
             tracer: Optional[Tracer] = None) -> PassResult:
    """Run every statement of ``order`` once; check each result off the clock."""
    walls: Dict[str, float] = {}
    runtimes: Dict[str, float] = {}
    cpu_s = 0.0
    for statement in order:
        if tracer is not None:
            tracer.statement = statement.id
        result = error = None
        cpu_started = _cpu_seconds()
        started = time.perf_counter()
        try:
            with maybe_span(tracer, "statement"):
                result = backend.run(statement, tracer)
        except Exception:
            # The benchmark keeps running and reports the failure with its count.
            error = traceback.format_exc()
        walls[statement.id] = time.perf_counter() - started
        cpu_s += _cpu_seconds() - cpu_started
        setup.attempted += 1
        if result is not None:
            runtimes[statement.id] = result.runtime
            if not batches_match(result.batch, setup.references[statement.query]):
                error = "result batch differs from the reference interpreter's answer"
        if error is not None:
            setup.failures.append(f"{statement.id}: {error}")
        # Collect the statement's and the check's garbage off the clock, so it
        # is charged neither to the next statement's time nor to peak memory.
        del result
        gc.collect()
    return PassResult(walls, cpu_s, runtimes)


def run_reference_pass(setup: Setup, order: Sequence[Statement],
                       tracer: Optional[Tracer] = None) -> float:
    """The same statements, SQL text -> batch, on the reference interpreter."""
    total = 0.0
    for statement in order:
        if tracer is not None:
            tracer.statement = statement.id
        started = time.perf_counter()
        with maybe_span(tracer, "statement"):
            frame = _plan_sql(statement.sql, setup.catalog, tracer)
            with maybe_span(tracer, "plan.interpreter"):
                ReferenceRunner().submit(frame).wait()
        total += time.perf_counter() - started
    return total


def _shuffled(statements: Sequence[Statement], rng: random.Random) -> List[Statement]:
    order = list(statements)
    rng.shuffle(order)
    return order


def _reset_peak_rss() -> None:
    """Restart this process's RSS high-water mark, so set-up does not set it."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        # Not Linux, or not permitted: the mark then includes data generation.
        pass


def _peak_rss_mb() -> float:
    """Larger of this process's and its largest waited-for child's peak RSS."""
    kilobytes = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kilobytes / 1024.0


def _block_prefix() -> str:
    """Prefix of every shared-memory block this process's queries create
    (``ParallelExecutor`` names them ``repro_par_<pid>_<query>_...``)."""
    return f"repro_par_{os.getpid()}_"


def _check_no_leaked_blocks(setup: Setup) -> None:
    """A shared-memory block that outlives the run counts as a failure."""
    if setup.workload.backend != "parallel":
        return
    setup.attempted += 1
    leaked = sweep_blocks(_block_prefix())
    if leaked:
        setup.failures.append(f"{leaked} shared-memory block(s) survived the run")


# -- the untraced measurement: end-to-end metrics ---------------------------------------


def measure(setup: Setup, seconds: float, max_passes: float = math.inf) -> dict:
    """Timed passes with tracing off; returns metrics, counts and pass samples."""
    rng = random.Random(setup.seed)
    passes: List[PassResult] = []
    reference_walls: List[float] = []
    _reset_peak_rss()
    deadline = time.perf_counter() + seconds
    while True:
        order = _shuffled(setup.workload.statements, rng)
        passes.append(run_pass(setup, setup.backend, order))
        reference_walls.append(run_reference_pass(setup, order))
        if len(passes) >= max_passes or time.perf_counter() >= deadline:
            break
    peak_rss_mb = _peak_rss_mb()
    _check_no_leaked_blocks(setup)

    pass_walls = [p.wall_s for p in passes]
    pass_wall_s = statistics.median(pass_walls)
    pooled = [wall for p in passes for wall in p.walls.values()]
    per_statement = [
        statistics.median(p.walls[statement.id] for p in passes)
        for statement in setup.workload.statements
    ]
    metrics = {
        "setup_s": statistics.median(setup.setup_samples),
        "pass_wall_s": pass_wall_s,
        "stmt_wall_geomean_s": geometric_mean(per_statement),
        "stmt_wall_p90_s": statistics.quantiles(pooled, n=10, method="inclusive")[-1],
        "input_mrows_per_s": setup.input_rows / pass_wall_s / 1e6,
        "pass_cpu_s": statistics.median(p.cpu_s for p in passes),
        "peak_rss_mb": peak_rss_mb,
        "ref_ratio": pass_wall_s / statistics.median(reference_walls),
    }
    metrics.update(_engine_time_metrics(setup.workload, passes))
    return {
        "metrics": metrics,
        "passes": len(passes),
        "samples": len(pooled),
        "pass_samples": {
            "pass_wall_s": pass_walls,
            "pass_cpu_s": [p.cpu_s for p in passes],
        },
    }


def _ratio_geomean(statements, runtimes, numerator: str, denominator: str) -> float:
    """Geomean over queries of runtime[numerator role] / runtime[denominator role]."""
    by_query: Dict[str, Dict[str, float]] = {}
    for statement in statements:
        if statement.id in runtimes:
            by_query.setdefault(statement.query, {})[_role(statement)] = runtimes[statement.id]
    return geometric_mean(
        roles[numerator] / roles[denominator]
        for roles in by_query.values()
        if numerator in roles and denominator in roles
    )


def _engine_time_metrics(workload: Workload, passes: List[PassResult]) -> Dict[str, float]:
    """``virtual_s`` and the two overhead ratios.

    On the simulator these are the paper's virtual-time outcomes.  The
    parallel backend has no fault tolerance to pay for or recover with, so
    its two ratios are 1 by definition, and its ``QueryResult.runtime`` is the
    executor's own wall-clock (real seconds).
    """
    if workload.backend == "parallel":
        return {
            "virtual_s": statistics.median(sum(p.runtimes.values()) for p in passes),
            "ft_overhead_ratio": 1.0,
            "recovery_overhead_ratio": 1.0,
        }
    failure_free = [s for s in workload.statements if _role(s) == "wal"]
    last = passes[-1].runtimes
    return {
        "virtual_s": statistics.median(
            sum(p.runtimes.get(s.id, 0.0) for s in failure_free) for p in passes
        ),
        "ft_overhead_ratio": _ratio_geomean(workload.statements, last, "wal", "noft"),
        "recovery_overhead_ratio": _ratio_geomean(workload.statements, last, "kill", "wal"),
    }


# -- the traced measurement: per-layer metrics ------------------------------------------


def _median_over_passes(by_phase: Dict[str, float]) -> float:
    values = [value for phase, value in by_phase.items() if phase.startswith("pass-")]
    return statistics.median(values) if values else 0.0


def _divide(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _counted(view: TraceView, span_name: str, key: str, role: Optional[str] = None) -> float:
    """Per-pass sum of a counter recorded on spans (of one simulator role)."""
    where = None if role is None else (lambda span: span.args.get("role") == role)
    return _median_over_passes(view.count_by_phase(span_name, key, where))


def _fill_parallel_layers(metrics: Dict[str, float], view: TraceView) -> None:
    """Counters ``execute_graph_parallel`` returned, and the inline pass."""
    def counted(key: str) -> float:
        return _counted(view, "parallel.execute", key)

    metrics["physical.stages"] = _counted(view, "physical.compile", "stages")
    metrics["parallel.tasks"] = counted("tasks")
    metrics["parallel.shm_blocks"] = counted("shm_blocks")
    metrics["parallel.shm_bytes"] = counted("shm_bytes")
    metrics["parallel.splits_pruned"] = counted("splits_pruned")
    metrics["parallel.stage_wall_s"] = counted("stage_wall_s")
    metrics["parallel.driver_gap_s"] = (
        metrics["parallel.execute_s"] - metrics["parallel.stage_wall_s"]
    )
    metrics["parallel.filter_rows_dropped_frac"] = _divide(
        counted("filter_rows_dropped"), counted("filter_rows_tested")
    )
    metrics["parallel.inline_execute_s"] = view.time_by_phase("parallel.inline_execute")["inline"]


def _fill_simulator_layers(metrics: Dict[str, float], view: TraceView) -> None:
    """``QueryMetrics`` counters by role, and the local-execution contrast."""
    def counted(key: str, role: Optional[str] = None) -> float:
        return _counted(view, "sim.run", key, role)

    wal_run_s = _median_over_passes(
        view.time_by_phase("sim.run", lambda span: span.args.get("role") == "wal")
    )
    metrics["physical.stages"] = counted("stages")
    metrics["physical.local_execute_s"] = view.time_by_phase("physical.local_execute")["local"]
    metrics["core.engine.tasks"] = counted("tasks_executed")
    metrics["core.engine.wall_ms_per_task"] = 1e3 * _divide(
        metrics["sim.run_s"], metrics["core.engine.tasks"]
    )
    metrics["core.engine.overhead_ratio"] = _divide(wal_run_s, metrics["physical.local_execute_s"])
    metrics["gcs.transactions"] = counted("gcs_transactions", "wal")
    metrics["gcs.logged_bytes"] = counted("gcs_logged_bytes", "wal")
    metrics["gcs.lineage_records"] = counted("lineage_records", "wal")
    metrics["gcs.lineage_bytes"] = counted("lineage_bytes", "wal")
    metrics["cluster.network_bytes"] = counted("network_bytes", "wal")
    metrics["cluster.local_disk_write_bytes"] = counted("local_disk_write_bytes", "wal")
    metrics["core.adaptive.revisions"] = counted("adaptive_revisions", "wal")
    metrics["core.filters.rows_dropped_frac"] = _divide(
        counted("filter_rows_dropped", "wal"), counted("filter_rows_tested", "wal")
    )
    metrics["core.recovery.rewound_channels"] = counted("rewound_channels", "kill")
    metrics["core.recovery.replay_tasks"] = counted("replay_tasks", "kill")
    metrics["core.recovery.regenerated_input_tasks"] = counted("regenerated_input_tasks", "kill")
    metrics["core.recovery.virtual_s"] = counted("virtual_s", "kill") - counted("virtual_s", "wal")


def measure_traced(setup: Setup, seconds: float, max_passes: float = math.inf,
                   micro_rows: int = sys.maxsize,
                   results_dir: str = e2e_paths.RESULTS_DIR) -> dict:
    """Alternating untraced / traced passes, then the one-off layer probes.

    The spans are flushed as trace-event JSON under ``results_dir``.
    """
    workload, backend, tracer = setup.workload, setup.backend, setup.tracer
    rng = random.Random(setup.seed)
    untraced_walls: List[float] = []
    traced: List[PassResult] = []
    deadline = time.perf_counter() + seconds * TRACED_LOOP_SHARE
    while True:
        order = _shuffled(workload.statements, rng)
        untraced_walls.append(run_pass(setup, backend, order).wall_s)
        tracer.phase = f"pass-{len(traced)}"
        with tracer.wrapping(backend.wrap_targets()):
            traced.append(run_pass(setup, backend, order, tracer))
        if len(traced) >= max_passes or time.perf_counter() >= deadline:
            break

    tracer.phase = "reference"
    run_reference_pass(setup, workload.statements, tracer)

    spool_runtimes: Dict[str, float] = {}
    if workload.backend == "parallel":
        # The same graphs with no fork and no shared memory: the gap to
        # parallel.execute_s is what transport and the pool cost.
        tracer.phase = "inline"
        inline = ParallelBackend(setup.catalog, workers=0)
        with tracer.wrapping(inline.wrap_targets("parallel.inline_execute")):
            run_pass(setup, inline, workload.statements, tracer)
    else:
        tracer.phase = "spool"
        failure_free = [s for s in workload.statements if _role(s) == "wal"]
        spool = [
            Statement(f"{s.query}/spool", s.sql, s.query, system="quokka-spool")
            for s in failure_free
        ]
        spool_runtimes = run_pass(setup, backend, spool, tracer).runtimes
        # The failure-free graphs again with no cluster, event loop or GCS.
        tracer.phase = "local"
        for statement in failure_free:
            tracer.statement = statement.id
            with tracer.span("physical.local_execute"):
                execute_stage_graph_locally(backend.graphs[statement.id])

    view = TraceView(tracer.spans)
    metrics = {metric.name: 0.0 for metric in PER_LAYER}
    metrics["tpch.generate_s"] = statistics.median(view.time_by_phase("tpch.generate").values())
    metrics["optimizer.analyze_s"] = statistics.median(
        view.time_by_phase("optimizer.analyze").values()
    )
    for span_name in ("sql.parse", "sql.plan", "optimizer.optimize", "physical.compile",
                      "parallel.execute", "core.session.submit", "sim.run"):
        metrics[f"{span_name}_s"] = _median_over_passes(view.time_by_phase(span_name))
    metrics["plan.interpreter_s"] = view.time_by_phase("plan.interpreter")["reference"]
    traced_pass_wall_s = statistics.median(p.wall_s for p in traced)
    metrics["trace_overhead_frac"] = traced_pass_wall_s / statistics.median(untraced_walls) - 1.0

    if workload.backend == "parallel":
        accounted = ("sql.parse_s", "sql.plan_s", "optimizer.optimize_s",
                     "physical.compile_s", "parallel.execute_s")
        _fill_parallel_layers(metrics, view)
        metrics.update(
            e2e_micro.parallel_timings(
                setup.catalog, PARALLEL_WORKERS, _block_prefix() + "micro_", micro_rows
            )
        )
        partitions = PARALLEL_WORKERS
    else:
        accounted = ("core.session.submit_s", "sim.run_s")
        _fill_simulator_layers(metrics, view)
        metrics["ft.spool_overhead_ratio"] = _ratio_geomean(
            list(workload.statements) + spool,
            {**traced[-1].runtimes, **spool_runtimes},
            "spool", "noft",
        )
        partitions = SIM_WORKERS
    metrics.update(
        e2e_micro.kernel_timings(setup.catalog, backend.graphs.values(), partitions, micro_rows)
    )
    _check_no_leaked_blocks(setup)

    trace_path = os.path.join(results_dir, f"e2e_trace_{workload.name}_seed{setup.seed}.json")
    write_chrome_trace(tracer.spans, trace_path)
    return {
        "metrics": metrics,
        "passes": len(traced),
        "samples": sum(len(p.walls) for p in traced),
        "pass_samples": {},
        "trace_file": trace_path,
        # How much of the traced pass the layer spans named above explain.
        "traced_pass_wall_s": traced_pass_wall_s,
        "accounted_share": sum(metrics[name] for name in accounted) / traced_pass_wall_s,
    }


# -- one run, and its report ------------------------------------------------------------


def _environment() -> dict:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=e2e_paths.ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        "affinity_cpus": cpus,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit or "unknown",
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    """Set up and measure one workload in this process; returns the run record."""
    workload = workload_named(name)
    if smoke:
        workload = workload.smoke()
    if trace:
        # The traced run reports no setup_s, so it sets up once.
        workload = replace(workload, setup_repeats=1)
    max_passes = 1 if smoke else math.inf
    setup = set_up(workload, seed)
    if trace:
        micro_rows = SMOKE_MICRO_ROWS if smoke else sys.maxsize
        return make_record(setup, 1, measure_traced(setup, seconds, max_passes, micro_rows))
    return make_record(setup, 0, measure(setup, seconds, max_passes))


def make_record(setup: Setup, trace: int, measured: dict) -> dict:
    """A run's record: what was measured plus the environment stamp."""
    record = {
        "workload": setup.workload.name,
        "backend": setup.workload.backend,
        "seed": setup.seed,
        "trace": trace,
        "scale_factor": setup.workload.scale_factor,
        "attempted": setup.attempted,
        "failed": len(setup.failures),
        "failures": setup.failures[:10],
        "env": _environment(),
    }
    record.update(measured)
    record["metrics"] = {
        metric.name: {"value": measured["metrics"][metric.name], "unit": metric.unit}
        for metric in (PER_LAYER if trace else END_TO_END)
    }
    return record


def print_report(record: dict) -> None:
    env = record["env"]
    print(
        f"# e2e {record['workload']}: seed={record['seed']} trace={record['trace']} "
        f"SF={record['scale_factor']} passes={record['passes']} "
        f"statement_samples={record['samples']} "
        f"attempted={record['attempted']} failed={record['failed']}"
    )
    print(
        f"# env: affinity_cpus={env['affinity_cpus']} python={env['python']} "
        f"numpy={env['numpy']} commit={env['commit']}"
    )
    for name, entry in record["metrics"].items():
        print(f"{record['workload']:<14} {name:<42} {entry['value']:>16.6g} {entry['unit']}")
    for failure in record["failures"]:
        print(f"# FAILED {failure}")
    if record["trace"]:
        print(
            f"# traced pass wall {record['traced_pass_wall_s']:.4g} s, of which the layer "
            f"spans account for {record['accounted_share']:.1%}; spans: {record['trace_file']}"
        )


def _result_line(record: dict) -> str:
    """The one-object line the driver reads: exactly these four keys."""
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    })


#: Prefix of the stdout line carrying a run's full record to ``run_all``.
_RECORD_PREFIX = "# record "


def run_one(args) -> int:
    record = run_workload(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    print_report(record)
    print(_RECORD_PREFIX + json.dumps(record))
    print(_result_line(record))
    # Failures are reported in the result line; the exit code says the run completed.
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each run in a fresh process."""
    records = []
    for workload in WORKLOADS:
        for run in range(args.runs):
            for trace in (0, 1):
                command = [
                    sys.executable, os.path.abspath(__file__),
                    "--workload", workload.name, "--seed", str(args.seed + run),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                ] + (["--smoke"] if args.smoke else [])
                completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
                record = None
                for line in completed.stdout.splitlines():
                    if line.startswith(_RECORD_PREFIX):
                        record = json.loads(line[len(_RECORD_PREFIX):])
                    elif line.startswith(("#", workload.name)):
                        print(line)
                sys.stdout.flush()
                if completed.returncode != 0 or record is None:
                    print(f"# FAILED {workload.name}: run exited with {completed.returncode}")
                    return 1
                records.append(record)
    out = args.out or os.path.join(
        e2e_paths.RESULTS_DIR, f"e2e_runs_{time.strftime('%Y%m%dT%H%M%S')}.json"
    )
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as handle:
        json.dump({"seed": args.seed, "runs": records}, handle, indent=1)
    failed = sum(record["failed"] for record in records)
    print(f"# run set written to {out}; {failed} failed statement(s)")
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS],
                        help="run this one workload and end with the driver's result line")
    parser.add_argument("--seed", type=int, default=1,
                        help="data-generation and permutation seed")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, tracing off; 1: per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help=f"SF {SMOKE_SCALE_FACTOR}, the first {SMOKE_STATEMENTS} statements of "
                             "each workload, one timed pass")
    parser.add_argument("--runs", type=int, default=1,
                        help="without --workload: runs per workload, seeds seed..seed+runs-1")
    parser.add_argument("--out", help="without --workload: where to write the run set")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two run sets metric by metric and exit")
    args = parser.parse_args(argv)
    if args.compare:
        return e2e_compare.compare(*args.compare)
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
