"""Per-query execution options shared by every runner.

Historically each execution path (the since-removed ``ctx.execute*``,
``Session.submit`` and ``Session.run``, and ``Session.run_many``) grew its
own kwarg sprawl.
:class:`QueryOptions` replaces all of them: one frozen dataclass carried from
the user through a :class:`~repro.api.runners.Runner` down to
:meth:`~repro.core.session.Session.submit_options`, the single place queries
enter the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.common.config import DEFAULT_BROADCAST_THRESHOLD_BYTES
from repro.common.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.chaos.plan import ChaosOptions
    from repro.cluster.faults import FailurePlan
    from repro.common.config import EngineConfig


@dataclass(frozen=True)
class QueryOptions:
    """Everything one query run can be parameterised with.

    Engine-configuration precedence (resolved by the runner executing the
    query): an explicit ``engine_config`` wins over a named ``system`` preset,
    which wins over the runner's default (the context's or session's own
    configuration).  A :class:`~repro.core.session.Session` fixes its engine
    configuration at construction, so session submissions must leave both
    fields unset.
    """

    #: Named preset from :data:`repro.api.systems.SYSTEM_PRESETS`
    #: (``"quokka"``, ``"quokka-stagewise"``, ``"trino"``, ...).
    system: Optional[str] = None
    #: Full engine configuration; overrides ``system`` entirely when given.
    engine_config: Optional["EngineConfig"] = None
    #: Worker failures to inject, relative to the submission instant.
    failure_plans: Optional[Sequence["FailurePlan"]] = None
    #: A chaos schedule (or the seed to generate one) to play against the
    #: cluster while this query runs; see :class:`repro.chaos.ChaosOptions`.
    #: Like ``failure_plans``, a chaotic submission is exempt from the result
    #: cache and from coalescing.
    chaos: Optional["ChaosOptions"] = None
    #: Run the logical plan through :mod:`repro.optimizer` before compiling.
    #: ``None`` means "the runner's default": the distributed engine plans
    #: cost-based (optimizer on), while the reference interpreter runs the
    #: plan exactly as written so it stays an independent oracle.  Pass
    #: ``False`` to force the seed-era heuristic planning path.
    optimize: Optional[bool] = None
    #: Speculative execution: an input task in flight far beyond its stage's
    #: median task duration gets a duplicate on another worker, and the first
    #: copy to commit wins; and a shuffle join starts only once its build
    #: side has completed (see ``docs/ADAPTIVE.md``).  ``None`` means "the
    #: runner's default": on for the distributed engine whenever the plan is
    #: planned cost-based, off for the reference interpreter, which executes
    #: the plan directly and has no tasks to speculate on.
    adaptive: Optional[bool] = None
    #: Runtime semi-join filters (sideways information passing): when a hash
    #: join's build side completes, push a compact filter over the build keys
    #: to the probe-side scans and intermediate stages, dropping rows the join
    #: would discard before they are partitioned and shuffled (plus zone-map
    #: split pruning at the scans).  ``None`` means "the runner's default":
    #: on for the distributed engine and the parallel backend whenever the
    #: query is planned cost-based (``optimize`` resolves true), inert on the
    #: reference interpreter, which has no shuffles to save.  Results are
    #: batch-exact either way — filters only ever drop rows the join drops.
    runtime_filters: Optional[bool] = None
    #: A :class:`repro.trace.TraceRecorder` collecting per-task spans.
    tracer: Any = None
    #: Human-readable name attached to the result and traces.
    query_name: str = ""
    #: Consume (and lazily compute) real per-table statistics for planning;
    #: with ``False`` the planner falls back to the fixed System-R constants.
    use_table_stats: bool = True
    #: Estimated build-side size below which a join compiles as a broadcast
    #: join (build replicated to every channel, probe kept channel-local)
    #: instead of hash-partitioning both sides.  ``0`` disables broadcasting.
    broadcast_threshold_bytes: float = DEFAULT_BROADCAST_THRESHOLD_BYTES
    #: Per-worker memory budget for stateful operator state.  ``None`` (the
    #: default) compiles the resident operators — byte-identical plans and
    #: traces to earlier releases.  A finite budget switches every stateful
    #: stage to a spill-capable operator (grace hash join, spilling group-by,
    #: spilling collect) with a fixed per-operator quota;
    #: ``float("inf")`` tracks peak memory without ever spilling.  Spilled
    #: state goes to the FT strategy's durable store when it spools to one
    #: (so recovery re-reads it), to worker-local disk otherwise.
    memory_budget_bytes: Optional[float] = None

    def __post_init__(self):
        """Reject a budget or threshold no run could honour (negative or NaN)."""
        budget = self.memory_budget_bytes
        if budget is not None and not budget >= 0:
            raise ConfigError(
                f"memory_budget_bytes must be None or non-negative, got {budget!r}"
            )
        if not self.broadcast_threshold_bytes >= 0:
            raise ConfigError(
                "broadcast_threshold_bytes must be non-negative, "
                f"got {self.broadcast_threshold_bytes!r}"
            )

    def with_overrides(self, **overrides) -> "QueryOptions":
        """Return a copy with the given fields replaced.

        Unknown field names raise :class:`ConfigError` (catching typos like
        ``query=`` for ``query_name=`` at the call site).
        """
        unknown = set(overrides) - {field.name for field in fields(self)}
        if unknown:
            raise ConfigError(
                f"unknown QueryOptions fields {sorted(unknown)}; "
                f"available: {sorted(field.name for field in fields(self))}"
            )
        return replace(self, **overrides)


def resolve_planning(plan, options: QueryOptions, default_optimize: bool):
    """Resolve ``options``' planner tri-states; plan cost-based if they say so.

    Returns ``(plan, estimator, adaptive, runtime_filters)``.
    ``default_optimize`` is what ``optimize=None`` means to the calling
    runner: cost-based for the engine and the parallel backend, as-written
    for the reference interpreter.  Cost-based planning rewrites the plan
    through :func:`repro.optimizer.optimize_plan` and returns the estimator
    that costed it; otherwise the plan comes back untouched with
    ``estimator=None`` — the seed-era heuristic path (no statistics, no
    broadcast joins, fixed channel counts).  ``adaptive`` and
    ``runtime_filters`` default on exactly when an estimator exists; without
    one even an explicit ``adaptive=True`` resolves false, so the
    heuristic-planning runs keep every task single-copy.
    """
    estimator = None
    if default_optimize if options.optimize is None else options.optimize:
        from repro.optimizer import CardinalityEstimator, optimize_plan

        estimator = CardinalityEstimator(use_table_stats=options.use_table_stats)
        plan = optimize_plan(plan, estimator=estimator)
    planned = estimator is not None
    adaptive = planned and (options.adaptive is None or options.adaptive)
    runtime_filters = (
        planned if options.runtime_filters is None else options.runtime_filters
    )
    return plan, estimator, adaptive, runtime_filters
