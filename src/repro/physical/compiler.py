"""Compile logical plans into stage graphs.

The compilation rules are:

* ``TableScan`` becomes an input stage; filters and projections directly above
  it are fused into the stage as post-ops (predicate/projection pushdown).
* ``Join`` becomes a stateful stage with two upstream links (build = right
  child, probe = left child), hash-partitioned on the respective join keys.
* ``Aggregate`` becomes a stateful stage hash-partitioned on the group keys
  (single channel for scalar aggregations).  When possible, a partial
  aggregation post-op is fused into the producing stage (the paper's
  aggregation pushdown).
* ``Sort`` / ``Limit`` become a single-channel collect stage.
* The compiled graph always ends in a single-channel result stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.common.errors import PlanError
from repro.data.schema import Schema
from repro.expr.nodes import Expr, col
from repro.kernels.aggregate import AggregateFunction, AggregateSpec
from repro.physical.operators import (
    AggregateOperator,
    CollectOperator,
    JoinOperator,
)
from repro.physical.stages import (
    FilterOp,
    PartialAggregateOp,
    ProjectOp,
    Stage,
    StageGraph,
    StatelessOp,
    UpstreamLink,
)
from repro.plan.nodes import (
    Aggregate,
    Filter,
    Join,
    Limit,
    LogicalPlan,
    Project,
    Sort,
    TableScan,
)


@dataclass
class _Compiled:
    """Result of compiling a logical subtree: a stage plus not-yet-fused ops."""

    stage: Stage
    pending_ops: List[StatelessOp] = field(default_factory=list)
    schema: Optional[Schema] = None
    is_collect: bool = False


#: Target estimated stage-output volume per channel: stages whose estimated
#: output is small get fewer channels, which cuts per-task dispatch / GCS
#: overhead without losing parallelism where it matters.
DEFAULT_TARGET_BYTES_PER_CHANNEL = 256_000.0


def sized_channel_count(
    total_bytes: float, target_bytes_per_channel: float, max_channels: int
) -> int:
    """Channels needed for ``total_bytes`` at ``target_bytes_per_channel`` each.

    Ceiling division clamped to ``[1, max_channels]``: the sizing policy of
    the compiler's estimate-driven ``_sized_channels``.
    """
    target = max(target_bytes_per_channel, 1.0)
    wanted = math.ceil(total_bytes / target)
    return max(1, min(max_channels, wanted))


def compile_plan(
    plan: LogicalPlan,
    num_channels: int,
    stage_base: int = 0,
    estimator=None,
    broadcast_threshold_bytes: float = 0.0,
    memory_budget_bytes: Optional[float] = None,
    runtime_filters: bool = False,
) -> StageGraph:
    """Compile ``plan`` into a :class:`StageGraph` with up to ``num_channels``
    channels per data-parallel stage.

    ``stage_base`` offsets the stage ids, giving every query of a shared
    :class:`~repro.core.session.Session` a disjoint id range.

    ``estimator`` (a :class:`~repro.optimizer.stats.CardinalityEstimator`)
    enables the cost-based physical decisions: per-stage channel counts are
    sized from each stage's estimated output bytes, and joins whose estimated
    build side is at most ``broadcast_threshold_bytes`` (and cheaper to
    replicate than to shuffle) compile into **broadcast joins** — the build
    link replicates to every channel while the probe link stays
    channel-aligned (local).  Without an estimator the physical plan is
    exactly the seed-era heuristic one.

    ``memory_budget_bytes`` (per worker) gives every stateful operator a
    memory quota, under which it runs its out-of-core state kernel: after the
    graph is built a post-pass divides the budget by the worst-case number of
    stateful channels one worker hosts (callers compile one channel per
    worker, so one per stateful stage), and that fixed per-operator quota
    drives all spill decisions (see :mod:`repro.memory`).  ``None`` — the
    default — leaves the quota ``None``: the same operators over their
    resident kernels.

    ``runtime_filters`` runs the sideways-information-passing planning pass
    (:func:`repro.optimizer.runtime_filters.plan_runtime_filters`) after the
    graph is built: eligible joins get filter edges from their build-side
    producer to the deepest probe-side stage, and scans get static zone-map
    bounds.  Off by default so the physical plan is unchanged unless the
    caller opted in.
    """
    if num_channels < 1:
        raise PlanError("num_channels must be at least 1")
    compiler = _Compiler(
        num_channels,
        stage_base,
        estimator=estimator,
        broadcast_threshold_bytes=broadcast_threshold_bytes,
        memory_budget_bytes=memory_budget_bytes,
        runtime_filters=runtime_filters,
    )
    return compiler.run(plan)


class OperatorFactory:
    """Builds one stage channel's operator; picklable, unlike a closure.

    ``memory`` is the compiler's shared quota holder: the quota is read when
    the operator is built, after :meth:`_Compiler.run` has filled it in.
    Pickling a whole graph pickles the holder once, so its factories still
    share it on the receiving side.
    """

    def __init__(self, operator_class: type, memory: dict, **kwargs):
        self.operator_class = operator_class
        self.memory = memory
        self.kwargs = kwargs

    def __call__(self):
        return self.operator_class(**self.kwargs, quota=self.memory["quota"])


class _Compiler:
    def __init__(self, num_channels: int, stage_base: int = 0, estimator=None,
                 broadcast_threshold_bytes: float = 0.0,
                 memory_budget_bytes: Optional[float] = None,
                 runtime_filters: bool = False):
        self.graph = StageGraph(stage_base=stage_base)
        self.num_channels = num_channels
        self.estimator = estimator
        self.runtime_filters = runtime_filters
        self.broadcast_threshold_bytes = broadcast_threshold_bytes
        self.memory_budget_bytes = memory_budget_bytes
        # Operator factories read the quota out of this shared holder when the
        # engine instantiates them — i.e. after the post-pass in ``run`` has
        # filled it in.  It stays ``None`` (resident kernels) without a budget.
        self._mem: dict = {"quota": None}
        self._join_counter = 0
        self._agg_counter = 0
        self._collect_counter = 0

    def _sized_channels(self, *nodes: LogicalPlan) -> int:
        """Channel count for a stage fed by ``nodes`` (estimate-driven).

        Without an estimator every stage gets the full ``num_channels`` (the
        seed behaviour); with one, the count is proportional to the combined
        estimated byte volume so single-row lookups do not pay for idle
        channels.
        """
        if self.estimator is None:
            return self.num_channels
        total = sum(self.estimator.bytes(node) for node in nodes)
        return sized_channel_count(
            total, DEFAULT_TARGET_BYTES_PER_CHANNEL, self.num_channels
        )

    # -- public entry -----------------------------------------------------------

    def run(self, plan: LogicalPlan) -> StageGraph:
        compiled = self._compile(plan)
        if compiled.is_collect and not compiled.pending_ops:
            result = compiled.stage
        else:
            self._seal(compiled)
            result = self._new_collect_stage(
                upstream=compiled.stage,
                schema=compiled.schema,
                sort_keys=None,
                descending=None,
                limit=None,
            )
        self.graph.result_stage_id = result.stage_id
        self.graph.validate()
        if self.runtime_filters:
            from repro.optimizer.runtime_filters import plan_runtime_filters

            plan_runtime_filters(self.graph)
        if self.memory_budget_bytes is not None:
            # Fixed per-operator quota: the budget divided by the worst-case
            # number of stateful channels a single worker hosts.  No stage has
            # more than ``num_channels`` channels and callers compile one
            # channel per worker, so that is one channel of every stateful
            # stage; deliberately independent of runtime placement so a
            # retraced channel reproduces its spill schedule exactly.
            stateful_channels = sum(1 for stage in self.graph if stage.stateful)
            # The MemoryManager books integer-exact byte counts; a fractional
            # quota would leak fractions into used/peak accounting, so floor
            # it (an unbounded budget stays the float infinity).
            quota = self.memory_budget_bytes / max(1, stateful_channels)
            self._mem["quota"] = quota if math.isinf(quota) else int(quota)
        return self.graph

    # -- recursive compilation ----------------------------------------------------

    def _compile(self, node: LogicalPlan) -> _Compiled:
        if isinstance(node, TableScan):
            return self._compile_scan(node)
        if isinstance(node, Filter):
            compiled = self._compile(node.child)
            compiled.pending_ops.append(FilterOp(node.predicate))
            compiled.is_collect = False
            return compiled
        if isinstance(node, Project):
            compiled = self._compile(node.child)
            op = ProjectOp(node.projections)
            compiled.pending_ops.append(op)
            compiled.schema = node.schema
            compiled.is_collect = False
            return compiled
        if isinstance(node, Join):
            return self._compile_join(node)
        if isinstance(node, Aggregate):
            return self._compile_aggregate(node)
        if isinstance(node, Sort):
            return self._compile_sort(node, limit=None)
        if isinstance(node, Limit):
            if isinstance(node.child, Sort):
                return self._compile_sort(node.child, limit=node.n)
            return self._compile_limit(node)
        raise PlanError(f"cannot compile logical node {type(node).__name__}")

    def _compile_scan(self, node: TableScan) -> _Compiled:
        channels = max(1, min(self.num_channels, node.table.num_splits))
        stage = self.graph.new_stage(
            name=f"scan_{node.table.name}",
            num_channels=channels,
            table=node.table,
            stateful=False,
        )
        return _Compiled(stage=stage, schema=node.schema)

    def _compile_join(self, node: Join) -> _Compiled:
        probe = self._compile(node.left)
        build = self._compile(node.right)
        self._seal(probe)
        self._seal(build)
        self._join_counter += 1
        if self._should_broadcast(node, probe.stage.num_channels):
            # Broadcast join: every channel receives the full (small) build
            # side, so the probe side can stay channel-aligned — with the
            # default placement that push is worker-local and moves zero
            # network bytes.  Channel counts match the probe stage so the
            # alignment is one-to-one.
            channels = probe.stage.num_channels
            upstreams = [
                UpstreamLink(build.stage.stage_id, None, role="build", mode="broadcast"),
                UpstreamLink(probe.stage.stage_id, None, role="probe", mode="aligned"),
            ]
        else:
            channels = self._sized_channels(node.left, node.right)
            upstreams = [
                UpstreamLink(build.stage.stage_id, list(node.right_keys), role="build"),
                UpstreamLink(probe.stage.stage_id, list(node.left_keys), role="probe"),
            ]
        stage = self.graph.new_stage(
            name=f"join_{self._join_counter}",
            num_channels=channels,
            stateful=True,
            upstreams=upstreams,
        )
        # Structural metadata the runtime-filter planning pass descends over
        # (inert when the pass does not run).
        stage.join_info = {
            "join_type": node.join_type.value,
            "build_id": build.stage.stage_id,
            "probe_id": probe.stage.stage_id,
            "build_keys": list(node.right_keys),
            "probe_keys": list(node.left_keys),
            "broadcast": upstreams[0].mode == "broadcast",
        }
        stage.operator_factory = OperatorFactory(
            JoinOperator,
            self._mem,
            build_upstream_id=build.stage.stage_id,
            probe_upstream_id=probe.stage.stage_id,
            build_keys=list(node.right_keys),
            probe_keys=list(node.left_keys),
            join_type=node.join_type,
            suffix=node.suffix,
            build_schema=build.schema,
        )
        return _Compiled(stage=stage, schema=node.schema)

    def _compile_aggregate(self, node: Aggregate) -> _Compiled:
        compiled = self._compile(node.child)
        specs = list(node.aggregates)
        group_keys = list(node.group_keys)
        if _can_push_down(specs):
            partial_specs, final_specs, post_projections = _two_phase_specs(
                group_keys, specs
            )
            compiled.pending_ops.append(PartialAggregateOp(group_keys, partial_specs))
            compiled.schema = compiled.pending_ops[-1].output_schema(compiled.schema)
        else:
            final_specs = specs
            post_projections = None
        self._seal(compiled)

        self._agg_counter += 1
        channels = self._sized_channels(node) if group_keys else 1
        stage = self.graph.new_stage(
            name=f"agg_{self._agg_counter}",
            num_channels=channels,
            stateful=True,
            upstreams=[
                UpstreamLink(
                    compiled.stage.stage_id,
                    list(group_keys) if group_keys else None,
                    role="input",
                )
            ],
        )
        if group_keys:
            stage.agg_info = {"group_keys": list(group_keys)}
        stage.operator_factory = OperatorFactory(
            AggregateOperator,
            self._mem,
            group_keys=group_keys,
            specs=final_specs,
            input_schema=compiled.schema,
            output_schema=node.schema,
            post_projections=post_projections,
        )
        return _Compiled(stage=stage, schema=node.schema)

    def _compile_sort(self, node: Sort, limit: Optional[int]) -> _Compiled:
        compiled = self._compile(node.child)
        self._seal(compiled)
        stage = self._new_collect_stage(
            upstream=compiled.stage,
            schema=compiled.schema,
            sort_keys=node.keys,
            descending=node.descending,
            limit=limit,
        )
        return _Compiled(stage=stage, schema=node.schema, is_collect=True)

    def _compile_limit(self, node: Limit) -> _Compiled:
        compiled = self._compile(node.child)
        self._seal(compiled)
        stage = self._new_collect_stage(
            upstream=compiled.stage,
            schema=compiled.schema,
            sort_keys=None,
            descending=None,
            limit=node.n,
        )
        return _Compiled(stage=stage, schema=node.schema, is_collect=True)

    # -- helpers -----------------------------------------------------------------

    def _should_broadcast(self, node: Join, probe_channels: int) -> bool:
        if self.estimator is None or self.broadcast_threshold_bytes <= 0:
            return False
        from repro.optimizer.cost import broadcast_build_side

        return broadcast_build_side(
            node, self.estimator, self.broadcast_threshold_bytes, probe_channels
        )

    def _seal(self, compiled: _Compiled) -> None:
        """Fuse pending stateless ops into the producing stage."""
        if compiled.pending_ops:
            compiled.stage.post_ops.extend(compiled.pending_ops)
            compiled.pending_ops = []
        compiled.stage.output_schema = compiled.schema

    def _new_collect_stage(
        self,
        upstream: Stage,
        schema: Schema,
        sort_keys: Optional[Sequence[str]],
        descending: Optional[Sequence[bool]],
        limit: Optional[int],
    ) -> Stage:
        self._collect_counter += 1
        stage = self.graph.new_stage(
            name=f"collect_{self._collect_counter}",
            num_channels=1,
            stateful=True,
            upstreams=[UpstreamLink(upstream.stage_id, None, role="input")],
        )
        stage.output_schema = schema
        stage.operator_factory = OperatorFactory(
            CollectOperator,
            self._mem,
            schema=schema,
            sort_keys=list(sort_keys) if sort_keys else None,
            descending=list(descending) if descending is not None else None,
            limit=limit,
        )
        return stage


# -- two-phase aggregation -------------------------------------------------------


def _can_push_down(specs: Sequence[AggregateSpec]) -> bool:
    """Partial aggregation is possible unless a COUNT DISTINCT is present."""
    return all(s.function is not AggregateFunction.COUNT_DISTINCT for s in specs)


def _two_phase_specs(
    group_keys: Sequence[str], specs: Sequence[AggregateSpec]
) -> Tuple[List[AggregateSpec], List[AggregateSpec], List[Tuple[str, Expr]]]:
    """Decompose aggregates into partial specs, final specs and a post projection.

    Returns ``(partial_specs, final_specs, post_projections)`` where the
    partial specs run inside the producing stage (per output batch), the final
    specs run in the aggregation stage over the partial columns, and the post
    projection maps final columns back to the user-visible output names.
    """
    partial_specs: List[AggregateSpec] = []
    final_specs: List[AggregateSpec] = []
    post_projections: List[Tuple[str, Expr]] = [(k, col(k)) for k in group_keys]

    for spec in specs:
        function = spec.function
        if function is AggregateFunction.AVG:
            sum_name = spec.name + "__psum"
            cnt_name = spec.name + "__pcnt"
            partial_specs.append(AggregateSpec(sum_name, AggregateFunction.SUM, spec.expression))
            partial_specs.append(AggregateSpec(cnt_name, AggregateFunction.COUNT, None))
            final_specs.append(AggregateSpec(sum_name, AggregateFunction.SUM, col(sum_name)))
            final_specs.append(AggregateSpec(cnt_name, AggregateFunction.SUM, col(cnt_name)))
            post_projections.append((spec.name, col(sum_name) / col(cnt_name)))
        elif function is AggregateFunction.COUNT:
            partial_specs.append(AggregateSpec(spec.name, AggregateFunction.COUNT, None))
            final_specs.append(AggregateSpec(spec.name, AggregateFunction.SUM, col(spec.name)))
            post_projections.append((spec.name, col(spec.name)))
        elif function is AggregateFunction.SUM:
            partial_specs.append(AggregateSpec(spec.name, AggregateFunction.SUM, spec.expression))
            final_specs.append(AggregateSpec(spec.name, AggregateFunction.SUM, col(spec.name)))
            post_projections.append((spec.name, col(spec.name)))
        elif function is AggregateFunction.MIN:
            partial_specs.append(AggregateSpec(spec.name, AggregateFunction.MIN, spec.expression))
            final_specs.append(AggregateSpec(spec.name, AggregateFunction.MIN, col(spec.name)))
            post_projections.append((spec.name, col(spec.name)))
        elif function is AggregateFunction.MAX:
            partial_specs.append(AggregateSpec(spec.name, AggregateFunction.MAX, spec.expression))
            final_specs.append(AggregateSpec(spec.name, AggregateFunction.MAX, col(spec.name)))
            post_projections.append((spec.name, col(spec.name)))
        else:
            raise PlanError(f"cannot decompose aggregate function {function}")
    return partial_specs, final_specs, post_projections
