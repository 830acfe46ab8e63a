"""Differential chaos testing: every chaos run must match the reference.

:class:`DifferentialHarness` operationalises the paper's correctness claim
("lineage-based recovery preserves query answers under arbitrary worker
failures") the way Jepsen and FoundationDB-style simulators do: generate an
adversarial fault schedule from a seed, run the query through the full
distributed engine while the schedule plays out, and assert the result is
batch-exactly the single-node reference answer.  A matrix run sweeps
{TPC-H queries x fault-tolerance strategies x seeds}; any failing cell is
reproducible from its seed alone and can be shrunk (:meth:`shrink`) to a
1-minimal fault schedule before a human ever looks at it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.chaos.plan import ChaosOptions, ChaosPlan, ChaosProfile, generate_plan
from repro.chaos.shrink import ddmin
from repro.common.config import ClusterConfig, CostModelConfig, EngineConfig
from repro.common.errors import ReproError
from repro.core.metrics import QueryMetrics
from repro.core.options import QueryOptions
from repro.core.session import Session
from repro.data.batch import Batch
from repro.ft.strategies import make_strategy
from repro.plan.catalog import Catalog
from repro.tpch import build_query, generate_catalog
from repro.tpch.reference import reference_answer
from repro.trace.digest import trace_digest
from repro.trace.recorder import TraceRecorder

#: Every fault-tolerance strategy the engine implements.
ALL_STRATEGIES: Tuple[str, ...] = ("none", "wal", "spool-s3", "spool-hdfs", "checkpoint")

#: The CI smoke tier's query set (one per paper category I/II/III).
SMOKE_QUERIES: Tuple[int, ...] = (1, 6, 9)


def batches_match(result: Optional[Batch], reference: Batch) -> bool:
    """Batch-exact equality up to row order (floats compared within 1e-6)."""
    if result is None:
        return False
    sort_keys = [
        name
        for name in reference.schema.names
        if reference.schema.dtype(name).value != "float64"
    ]
    return result.equals(reference, sort_keys=sort_keys or None)


@dataclass
class CaseOutcome:
    """One cell of the differential matrix."""

    query: int
    strategy: str
    seed: int
    passed: bool
    plan: ChaosPlan
    error: Optional[str] = None
    trace_digest: Optional[str] = None
    metrics: Optional[QueryMetrics] = None

    def describe(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"[{status}] q{self.query} x {self.strategy} x seed {self.seed}"
        if self.error:
            line += f" — {self.error}"
        return line


@dataclass
class MatrixReport:
    """All outcomes of one differential matrix run."""

    outcomes: List[CaseOutcome] = field(default_factory=list)

    @property
    def failures(self) -> List[CaseOutcome]:
        """The failing cells (empty means the matrix passed)."""
        return [outcome for outcome in self.outcomes if not outcome.passed]

    @property
    def passed(self) -> bool:
        """True when every cell matched the reference."""
        return not self.failures

    def summary(self) -> str:
        """Human-readable roll-up, failures first."""
        lines = [
            f"differential matrix: {len(self.outcomes)} cases, "
            f"{len(self.failures)} failures"
        ]
        for outcome in self.failures:
            lines.append(outcome.describe())
            lines.append("  " + outcome.plan.describe().replace("\n", "\n  "))
        return "\n".join(lines)


class DifferentialHarness:
    """Runs chaos cases and compares every result against the reference.

    One harness owns one generated TPC-H catalog (so reference answers and
    failure-free baselines are computed once) and builds a fresh session per
    case — chaos runs never share state, which keeps each cell reproducible
    from its seed alone.
    """

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        scale_factor: float = 0.001,
        data_seed: int = 0,
        num_workers: int = 4,
        cpus_per_worker: int = 2,
        strategy_factory=None,
        base_options: Optional[QueryOptions] = None,
        query_builder=None,
    ):
        """``strategy_factory`` maps a strategy name to an instance; tests use
        it to plant deliberately broken strategies for shrinking exercises.
        ``base_options`` seeds every submission's :class:`QueryOptions`
        (e.g. ``QueryOptions(optimize=False)`` to chaos-test the heuristic
        planning path, or a custom ``broadcast_threshold_bytes``); the
        harness fills in the per-case query name, tracer and chaos schedule
        on top of it.  ``query_builder`` maps ``(catalog, query_number)`` to
        the frame each case submits — the default is the DataFrame
        formulation; pass :func:`repro.tpch.build_sql_query` to chaos-test
        the SQL front-end's decorrelated plans instead (both are checked
        against the same single-node reference answers)."""
        self.catalog = catalog or generate_catalog(scale_factor=scale_factor, seed=data_seed)
        self.query_builder = query_builder or build_query
        self.cluster_config = ClusterConfig(
            num_workers=num_workers, cpus_per_worker=cpus_per_worker
        )
        # Fast failure detection keeps recovery (and therefore wall time) tight;
        # the defaults mirror the existing fault-injection tests.
        self.cost_config = CostModelConfig(
            failure_detection_delay=0.05, heartbeat_interval=0.02
        )
        self.profile = ChaosProfile(min_live_workers=max(2, num_workers - 2))
        self.strategy_factory = strategy_factory or (
            lambda name: make_strategy(EngineConfig(ft_strategy=name))
        )
        self.base_options = base_options or QueryOptions()
        self._references: Dict[int, Batch] = {}
        self._baselines: Dict[Tuple[int, str], float] = {}

    # -- oracles ---------------------------------------------------------------

    def reference(self, query: int) -> Batch:
        """Single-node reference answer for TPC-H ``query`` (cached)."""
        if query not in self._references:
            self._references[query] = reference_answer(self.catalog, query)
        return self._references[query]

    def baseline_runtime(self, query: int, strategy: str) -> float:
        """Failure-free virtual runtime of ``query`` under ``strategy`` (cached).

        This is the horizon chaos schedules are drawn against, mirroring the
        paper's "kill at a fraction of the failure-free runtime" methodology.
        """
        key = (query, strategy)
        if key not in self._baselines:
            session = self._make_session(strategy)
            try:
                result = session.wait(
                    session.submit_options(
                        self.query_builder(self.catalog, query), self.base_options
                    )
                )
            finally:
                session.close()
            self._baselines[key] = result.runtime
        return self._baselines[key]

    def _make_session(self, strategy: str) -> Session:
        return Session(
            cluster_config=self.cluster_config,
            cost_config=self.cost_config,
            engine_config=EngineConfig(ft_strategy=strategy),
            strategy=self.strategy_factory(strategy),
            catalog=self.catalog,
            enable_output_cache=False,
        )

    # -- cases -----------------------------------------------------------------

    def plan_for(self, query: int, strategy: str, seed: int) -> ChaosPlan:
        """The schedule seed ``seed`` produces for this query and strategy."""
        return generate_plan(
            seed,
            self.cluster_config.num_workers,
            horizon=self.baseline_runtime(query, strategy),
            profile=self.profile,
        )

    def run_case(
        self,
        query: int,
        strategy: str = "wal",
        seed: int = 0,
        plan: Optional[ChaosPlan] = None,
        record_trace: bool = True,
    ) -> CaseOutcome:
        """Run one chaos case; the outcome says whether it matched the reference."""
        reference = self.reference(query)
        if plan is None:
            plan = self.plan_for(query, strategy, seed)
        tracer = TraceRecorder() if record_trace else None
        session = self._make_session(strategy)
        outcome = CaseOutcome(query, strategy, seed, passed=False, plan=plan)
        try:
            handle = session.submit_options(
                self.query_builder(self.catalog, query),
                self.base_options.with_overrides(
                    query_name=f"tpch-q{query}",
                    tracer=tracer,
                    chaos=ChaosOptions(seed=seed, plan=plan),
                ),
            )
            result = session.wait(handle)
        except ReproError as error:
            outcome.error = f"{type(error).__name__}: {error}"
            return outcome
        finally:
            session.close()
            if tracer is not None:
                outcome.trace_digest = trace_digest(tracer)
        outcome.metrics = result.metrics
        if batches_match(result.batch, reference):
            outcome.passed = True
        else:
            outcome.error = "result differs from the single-node reference"
        return outcome

    def run_matrix(
        self,
        queries: Sequence[int] = SMOKE_QUERIES,
        strategies: Sequence[str] = ALL_STRATEGIES,
        seeds: Iterable[int] = range(10),
        record_trace: bool = False,
    ) -> MatrixReport:
        """Sweep {queries x strategies x seeds} and collect every outcome."""
        report = MatrixReport()
        for query in queries:
            for strategy in strategies:
                for seed in seeds:
                    report.outcomes.append(
                        self.run_case(
                            query, strategy, seed, record_trace=record_trace
                        )
                    )
        return report

    # -- shrinking -------------------------------------------------------------

    def shrink(self, query: int, strategy: str, plan: ChaosPlan) -> ChaosPlan:
        """Reduce a failing schedule to a 1-minimal failing core.

        Every candidate is re-run through :meth:`run_case` with the reduced
        event list; determinism of the simulator makes the predicate stable.
        """

        def fails(events) -> bool:
            candidate = plan.with_events(events)
            return not self.run_case(
                query, strategy, plan.seed, plan=candidate, record_trace=False
            ).passed

        minimal = ddmin(list(plan.events), fails)
        return plan.with_events(minimal)
