"""Stage graph data structures.

Terminology (matching the paper):

* **Stage** — one operator of the pipelined plan (input reader, join build/
  probe, aggregation, collect).  Stages are connected by shuffle edges.
* **Channel** — one hash partition of a stage.  Each channel is pinned to one
  TaskManager and executes a sequence of tasks ``(stage, channel, 0..n)``.
* **Post-ops** — stateless per-batch operations (filter, project, partial
  aggregation) fused into the *producing* stage, applied to every output
  batch before it is hash-partitioned and pushed downstream.  This is how
  predicate pushdown and the paper's aggregation pushdown are realised; a
  partial aggregation is a segment reduction per batch, not a group table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import PlanError
from repro.data.batch import Batch, concat_batches
from repro.data.partition import hash_partition
from repro.data.schema import Schema
from repro.expr.nodes import Expr
from repro.kernels.aggregate import (
    AggregateFunction,
    AggregateSpec,
    aggregate_schema,
    reduce_batch,
)
from repro.kernels.filter import filter_batch
from repro.kernels.project import project_batch
from repro.plan.catalog import TableMetadata


class StatelessOp:
    """A per-batch operation with no cross-batch state."""

    def apply(self, batch: Batch) -> Batch:
        """Transform one batch."""
        raise NotImplementedError

    def output_schema(self, input_schema: Schema) -> Schema:
        """Schema of the transformed batches."""
        raise NotImplementedError

    def describe(self) -> str:
        """One-line description for EXPLAIN output."""
        return type(self).__name__


class FilterOp(StatelessOp):
    """Keep rows satisfying a predicate."""

    def __init__(self, predicate: Expr):
        self.predicate = predicate

    def apply(self, batch: Batch) -> Batch:
        return filter_batch(batch, self.predicate)

    def output_schema(self, input_schema: Schema) -> Schema:
        return input_schema

    def describe(self) -> str:
        return f"filter({self.predicate!r})"


class ProjectOp(StatelessOp):
    """Compute output columns from expressions."""

    def __init__(self, projections: Sequence[Tuple[str, Expr]]):
        self.projections = list(projections)

    def apply(self, batch: Batch) -> Batch:
        return project_batch(batch, self.projections)

    def output_schema(self, input_schema: Schema) -> Schema:
        from repro.data.schema import Field
        from repro.expr.eval import infer_dtype

        return Schema(
            Field(name, infer_dtype(expr, input_schema)) for name, expr in self.projections
        )

    def describe(self) -> str:
        return f"project({[name for name, _ in self.projections]})"


#: Aggregate functions whose per-batch results the final aggregate can fold.
_PARTIAL_FUNCTIONS = (
    AggregateFunction.SUM,
    AggregateFunction.COUNT,
    AggregateFunction.MIN,
    AggregateFunction.MAX,
)


class PartialAggregateOp(StatelessOp):
    """Within-batch partial aggregation (the paper's "aggregation pushdown").

    Collapsing each output batch to one row per group before the shuffle makes
    the data pushed (and, under the spooling strategy, persisted) negligible
    for aggregation-only queries such as TPC-H Q1 and Q6.

    Each batch is collapsed by one :func:`~repro.kernels.aggregate.reduce_batch`
    and emitted straight as a batch: one row per group in the factorizer's
    code order, with the key columns gathered from the input's own storage
    (dictionary-encoded keys stay encoded).  No group table is built and no
    key is stringified; the final aggregate imposes the output order.  The
    partial specs are the decomposable functions only (SUM, COUNT, MIN, MAX).
    """

    def __init__(self, group_keys: Sequence[str], partial_specs: Sequence[AggregateSpec]):
        for spec in partial_specs:
            if spec.function not in _PARTIAL_FUNCTIONS:
                raise PlanError(
                    f"{spec.function.value} cannot run as a partial aggregate"
                )
        self.group_keys = list(group_keys)
        self.partial_specs = list(partial_specs)

    def apply(self, batch: Batch) -> Batch:
        schema = self.output_schema(batch.schema)
        if batch.num_rows == 0:
            return Batch.empty(schema)
        reduction = reduce_batch(batch, self.group_keys, self.partial_specs)
        columns = batch.select(self.group_keys).take(reduction.first_rows).columns()
        for spec, segment in zip(self.partial_specs, reduction.segments):
            columns[spec.name] = reduction.counts if segment is None else segment
        return Batch(schema, columns)

    def output_schema(self, input_schema: Schema) -> Schema:
        return aggregate_schema(self.group_keys, self.partial_specs, input_schema)

    def describe(self) -> str:
        return f"partial_agg(by={self.group_keys}, aggs={[s.name for s in self.partial_specs]})"


def apply_ops(batch: Batch, ops: Sequence[StatelessOp]) -> Batch:
    """Apply a chain of stateless operations to one batch."""
    for op in ops:
        batch = op.apply(batch)
    return batch


def coalesce_pieces(parts: List[Batch], num_channels: int, schema) -> List[Batch]:
    """Fold ``len(parts)`` hash pieces down to ``num_channels`` pieces.

    Channel ``j`` receives the concatenation of parts ``p ≡ j (mod
    num_channels)`` in ascending part order.  Rows of one hash partition stay
    together, so group/join co-location is preserved.
    """
    return [
        concat_batches(parts[j::num_channels], schema=schema)
        for j in range(num_channels)
    ]


def partition_for_link(
    batch: Batch, link: "UpstreamLink", num_channels: int, producer_channel: int = 0
) -> List[Batch]:
    """Split one producer output batch into per-consumer-channel pieces.

    The semantics per link mode are documented on :class:`UpstreamLink`;
    ``producer_channel`` matters only for ``"aligned"`` links.  The result
    always has exactly ``num_channels`` entries (empty pieces for channels
    that receive nothing), which the push, persist and replay paths rely on.

    When ``link.base_parts`` is set on a partition or broadcast link (an
    adaptive controller revised it after some outputs were already pushed),
    partitioning goes through the
    canonical two-level form: hash into ``base_parts`` pieces first, then
    coalesce or concatenate exactly like the controller's rewrite of
    already-buffered pieces — so fresh outputs and rewritten ones are
    byte-identical.
    """
    if link.mode == "broadcast":
        if link.base_parts and link.partition_keys:
            parts = hash_partition(batch, link.partition_keys, link.base_parts)
            batch = concat_batches(parts, schema=batch.schema)
        return [batch] * num_channels
    if link.mode == "aligned":
        target = producer_channel % num_channels
        return [
            batch if channel == target else batch.slice(0, 0)
            for channel in range(num_channels)
        ]
    if link.partition_keys:
        if link.base_parts and link.base_parts != num_channels:
            parts = hash_partition(batch, link.partition_keys, link.base_parts)
            return coalesce_pieces(parts, num_channels, batch.schema)
        return hash_partition(batch, link.partition_keys, num_channels)
    return [batch] + [batch.slice(0, 0) for _ in range(num_channels - 1)]


#: Valid data-movement modes of an :class:`UpstreamLink`.
LINK_MODES = ("partition", "broadcast", "aligned")


@dataclass(frozen=True)
class RuntimeFilterSpec:
    """One sideways filter edge: build-side values flow *against* the dataflow.

    Unlike an :class:`UpstreamLink`, no batches move along this edge — once
    every channel of ``source_stage_id`` (the join's build-side producer) has
    committed its outputs, a compact :class:`~repro.kernels.runtimefilter
    .RuntimeFilter` over ``build_key`` is published to ``target_stage_id``
    (the deepest probe-side stage whose output still carries the key), which
    drops non-matching rows from its output before partitioning.

    ``target_stage_id`` lies in the join's probe subtree and
    ``source_stage_id`` in its build subtree; plans are trees, so the two are
    disjoint and filter edges can never create a cycle with the shuffle edges.
    """

    filter_id: int
    #: The join stage this filter serves (for explain / tracing).
    join_stage_id: int
    #: Build-side producer stage whose outputs hold the build key.
    source_stage_id: int
    #: Build key column name in the source stage's output schema.
    build_key: str
    #: Probe-side stage whose output the filter is applied to.
    target_stage_id: int
    #: Probe key column name in the target stage's output schema.
    probe_key: str
    #: When the target is an input stage and ``probe_key`` traces to a raw
    #: table column, that column's name — enables zone-map split pruning
    #: against the filter's min/max range.  ``None`` otherwise.
    target_raw_column: Optional[str] = None


@dataclass
class UpstreamLink:
    """One shuffle edge into a stage.

    ``mode`` selects how each producer output batch reaches the consumer's
    channels:

    * ``"partition"`` — hash-partition by ``partition_keys``; with
      ``partition_keys=None`` every row goes to channel 0 (gather);
    * ``"broadcast"`` — replicate the full batch to *every* consumer channel
      (the build side of a broadcast join);
    * ``"aligned"`` — producer channel *i* sends everything to consumer
      channel ``i % num_channels`` (the probe side of a broadcast join; with
      matching channel counts and the default placement this is a local,
      zero-network push).

    ``partition_keys`` name columns of the *upstream's output schema* (after
    its post-ops).  ``role`` distinguishes the build and probe inputs of a
    join stage.

    ``base_parts`` is written only by the adaptive controller when it revises
    a link mid-query (see :mod:`repro.core.adaptive`): hash-partition into
    this many pieces first, then coalesce or concatenate down to the
    consumer's channel count (the canonical two-level form shared with the
    controller's piece rewrites).
    """

    upstream_id: int
    partition_keys: Optional[List[str]]
    role: str = "input"
    mode: str = "partition"
    base_parts: Optional[int] = None

    def __post_init__(self):
        if self.mode not in LINK_MODES:
            raise PlanError(
                f"unknown link mode {self.mode!r}; expected one of {LINK_MODES}"
            )


@dataclass
class Stage:
    """One stage of the physical plan."""

    stage_id: int
    name: str
    num_channels: int
    upstreams: List[UpstreamLink] = field(default_factory=list)
    post_ops: List[StatelessOp] = field(default_factory=list)
    operator_factory: Optional[Callable[[], "object"]] = None
    table: Optional[TableMetadata] = None
    output_schema: Optional[Schema] = None
    stateful: bool = False
    #: Compile-time adaptive metadata (estimates the runtime controller
    #: revisits); ``None`` when the stage is not adaptive-eligible.
    adaptive: Optional[dict] = None
    #: Join-stage metadata for runtime-filter planning: build/probe upstream
    #: ids, the operator's key column names, join type and rename suffix.
    join_info: Optional[dict] = None
    #: Grouped-aggregation metadata (the output group-key column names),
    #: letting filter placement descend through aggregations.
    agg_info: Optional[dict] = None
    #: Static zone-map bounds for input stages: raw table column name ->
    #: ``(low, high)`` extracted from this scan's fused filter predicates.
    #: A split whose per-column min/max range misses a bound is skipped.
    scan_bounds: Optional[dict] = None

    @property
    def is_input(self) -> bool:
        """True for stages that read base tables rather than upstream outputs."""
        return self.table is not None

    def make_operator(self):
        """Instantiate a fresh per-channel operator."""
        if self.operator_factory is None:
            raise PlanError(f"stage {self.name!r} has no operator factory")
        return self.operator_factory()

    def splits_for_channel(self, channel: int) -> List[int]:
        """Indices of the table splits assigned to ``channel`` (input stages only)."""
        if self.table is None:
            raise PlanError(f"stage {self.name!r} is not an input stage")
        return [
            i for i in range(self.table.num_splits) if i % self.num_channels == channel
        ]

    def describe(self) -> str:
        """One-line description of the stage."""
        kind = "input" if self.is_input else ("stateful" if self.stateful else "stateless")
        ops = ", ".join(op.describe() for op in self.post_ops)
        return f"[{self.stage_id}] {self.name} ({kind}, channels={self.num_channels})" + (
            f" post_ops=[{ops}]" if ops else ""
        )


class StageGraph:
    """A DAG of stages with a single result stage.

    Plans compiled by this package are trees (every stage feeds exactly one
    downstream stage), which matches TPC-H join trees and keeps recovery
    bookkeeping identical to the paper's description.
    """

    def __init__(self, stage_base: int = 0):
        """``stage_base`` offsets every stage id in this graph.

        A :class:`~repro.core.session.Session` compiles each admitted query
        with a disjoint id range so task names, flight-buffer keys and
        local-disk backup keys never collide across concurrent queries.
        """
        self._stages: Dict[int, Stage] = {}
        self._next_id = stage_base
        self.stage_base = stage_base
        self.result_stage_id: Optional[int] = None
        #: Sideways filter edges planned for this graph (see
        #: :class:`RuntimeFilterSpec`); empty unless runtime filters are on.
        self.runtime_filters: List[RuntimeFilterSpec] = []

    def new_stage(self, **kwargs) -> Stage:
        """Create and register a new stage."""
        stage = Stage(stage_id=self._next_id, **kwargs)
        self._stages[self._next_id] = stage
        self._next_id += 1
        return stage

    def __len__(self) -> int:
        return len(self._stages)

    def __iter__(self):
        return iter(self._stages.values())

    def stage(self, stage_id: int) -> Stage:
        """Look up a stage by id."""
        try:
            return self._stages[stage_id]
        except KeyError:
            raise PlanError(f"unknown stage id {stage_id}") from None

    @property
    def stages(self) -> Dict[int, Stage]:
        """Mapping of stage id to stage."""
        return dict(self._stages)

    def consumers_of(self, stage_id: int) -> List[Tuple[Stage, UpstreamLink]]:
        """Stages that consume ``stage_id``'s output, with the connecting link."""
        out = []
        for stage in self._stages.values():
            for link in stage.upstreams:
                if link.upstream_id == stage_id:
                    out.append((stage, link))
        return out

    def consumer_of(self, stage_id: int) -> Optional[Tuple[Stage, UpstreamLink]]:
        """The single consumer of ``stage_id`` (None for the result stage)."""
        consumers = self.consumers_of(stage_id)
        if not consumers:
            return None
        if len(consumers) > 1:
            raise PlanError(
                f"stage {stage_id} has {len(consumers)} consumers; plans must be trees"
            )
        return consumers[0]

    def filters_for_target(self, stage_id: int) -> List[RuntimeFilterSpec]:
        """Filter edges whose output `stage_id` must apply (in filter-id order)."""
        return [s for s in self.runtime_filters if s.target_stage_id == stage_id]

    def filters_from_source(self, stage_id: int) -> List[RuntimeFilterSpec]:
        """Filter edges fed by ``stage_id``'s committed outputs."""
        return [s for s in self.runtime_filters if s.source_stage_id == stage_id]

    def topological_order(self, include_filter_edges: bool = False) -> List[int]:
        """Stage ids ordered so every stage appears after its upstreams.

        With ``include_filter_edges`` the sideways filter edges count as
        dependencies too (a filter target orders after its source), which the
        barrier-per-stage parallel backend uses so every filter is built
        before the stage it prunes runs.  Filter edges always point from a
        join's build subtree into its disjoint probe subtree, so the combined
        edge set stays acyclic.
        """
        filter_sources: Dict[int, List[int]] = {}
        if include_filter_edges:
            for spec in self.runtime_filters:
                filter_sources.setdefault(spec.target_stage_id, []).append(
                    spec.source_stage_id
                )
        order: List[int] = []
        visited: set = set()

        def visit(stage_id: int) -> None:
            if stage_id in visited:
                return
            visited.add(stage_id)
            for link in self._stages[stage_id].upstreams:
                visit(link.upstream_id)
            for source_id in filter_sources.get(stage_id, ()):
                visit(source_id)
            order.append(stage_id)

        for stage_id in sorted(self._stages):
            visit(stage_id)
        return order

    def reverse_topological_order(self) -> List[int]:
        """Stage ids ordered so every stage appears before its upstreams."""
        return list(reversed(self.topological_order()))

    def input_stages(self) -> List[Stage]:
        """All stages that read base tables."""
        return [s for s in self._stages.values() if s.is_input]

    def num_pipeline_stages(self) -> int:
        """Number of stateful (pipelined) stages — the recovery parallelism bound."""
        return sum(1 for s in self._stages.values() if s.stateful)

    def explain(self) -> str:
        """Render the stage graph as indented text in topological order."""
        lines = []
        for stage_id in self.topological_order():
            stage = self._stages[stage_id]
            lines.append(stage.describe())
            for link in stage.upstreams:
                mode = "" if link.mode == "partition" else f", mode={link.mode}"
                lines.append(
                    f"    <- stage {link.upstream_id} ({link.role}, "
                    f"keys={link.partition_keys}{mode})"
                )
            for spec in self.filters_for_target(stage_id):
                lines.append(
                    f"    <~ runtime filter #{spec.filter_id} on "
                    f"{spec.probe_key!r} from stage {spec.source_stage_id} "
                    f"(build key {spec.build_key!r} of join "
                    f"{spec.join_stage_id})"
                )
            if stage.scan_bounds:
                bounds = ", ".join(
                    f"{name} in [{low}, {high}]"
                    for name, (low, high) in sorted(stage.scan_bounds.items())
                )
                lines.append(f"    zone-map bounds: {bounds}")
        return "\n".join(lines)

    def validate(self) -> None:
        """Check structural invariants (tree shape, result stage, channel counts)."""
        if self.result_stage_id is None:
            raise PlanError("stage graph has no result stage")
        result = self.stage(self.result_stage_id)
        if result.num_channels != 1:
            raise PlanError("result stage must have exactly one channel")
        if self.consumers_of(self.result_stage_id):
            raise PlanError("result stage must not have consumers")
        for stage in self._stages.values():
            if stage.num_channels < 1:
                raise PlanError(f"stage {stage.name!r} has no channels")
            if stage.stage_id != self.result_stage_id and not self.consumers_of(stage.stage_id):
                raise PlanError(f"stage {stage.name!r} output is never consumed")
            for link in stage.upstreams:
                if link.upstream_id not in self._stages:
                    raise PlanError(f"stage {stage.name!r} references unknown upstream")
            # Tree shape: at most one consumer per stage.
            self.consumer_of(stage.stage_id)
