"""Per-channel stateful operators.

An operator is the execution state of one channel of a stateful stage (the
"state variable" of Figure 1 in the paper): the hash table of a join, the
group table of an aggregation, or the row buffer of the final collect stage.

The engine drives operators through three entry points:

``on_input(upstream_id, batch)``
    A batch from an upstream channel arrived; may emit output batches.
``on_upstream_done(upstream_id)``
    Every task of that upstream *stage* has finished and all its outputs have
    been consumed; may emit output batches (e.g. a join flushing buffered
    probe batches once the build side is complete).
``finalize()``
    All upstreams are done; emit any remaining output (e.g. aggregation
    results).

Operators are deterministic: identical sequences of calls produce identical
outputs, which is the property lineage-based replay relies on.

There is one operator class per kind of stateful stage.  Each takes the
per-operator memory ``quota`` the compiler derived from the query's budget
and picks its *state kernel* once, at construction: ``None`` selects the
resident kernel (:class:`~repro.kernels.join.HashJoin`,
:class:`~repro.kernels.aggregate.ColumnarGroupTable`,
:class:`~repro.kernels.buffer.RowBuffer`), anything else the out-of-core
kernel of :mod:`repro.kernels.outofcore` over a fresh
:class:`~repro.memory.SpillContext` published as ``operator.spill``.  Both
kernels of a kind expose the same methods and emit the same batches bit for
bit, so the methods below hold the protocol only and no memory policy; this
module is the one place outside ``kernels/`` and ``memory/`` that knows the
out-of-core kernels exist (``tests/test_task_step_boundary.py``).
"""

from __future__ import annotations

import copy
from typing import List, Optional, Sequence, Tuple

from repro.common.errors import ExecutionError
from repro.data.batch import Batch, concat_batches
from repro.data.schema import Schema
from repro.expr.nodes import Expr
from repro.kernels.aggregate import AggregateSpec, ColumnarGroupTable
from repro.kernels.buffer import RowBuffer
from repro.kernels.join import JOIN_SUFFIX, HashJoin, JoinType
from repro.kernels.outofcore import GraceHashJoin, SpillingAggregation, SpillingRowBuffer
from repro.kernels.project import project_batch
from repro.kernels.sort import sort_batch
from repro.memory.spill import SpillContext


class Operator:
    """Base class for per-channel operators."""

    #: Spill context of an operator built with a memory quota — the engine
    #: attaches it to the host worker and drains its I/O records after every
    #: step.  ``None`` on resident operators, which never report usage.
    spill: Optional[SpillContext] = None

    def on_input(self, upstream_id: int, batch: Batch) -> List[Batch]:
        """Consume one input batch from upstream stage ``upstream_id``."""
        raise NotImplementedError

    def on_upstream_done(self, upstream_id: int) -> List[Batch]:
        """Handle exhaustion of upstream stage ``upstream_id``."""
        return []

    def finalize(self) -> List[Batch]:
        """Emit any remaining output after every upstream is exhausted."""
        return []

    @property
    def state_nbytes(self) -> int:
        """Approximate size of the operator state (for checkpoint costing)."""
        return 0

    def snapshot(self) -> "Operator":
        """Deep copy of the operator, used by the checkpointing strategy."""
        return copy.deepcopy(self)


class JoinOperator(Operator):
    """Build-probe hash join channel.

    Build-side batches populate the hash table; probe-side batches arriving
    before the build side is complete are buffered and flushed when
    ``on_upstream_done(build)`` fires, preserving pipelined consumption of
    both inputs while keeping classic hash-join semantics.  The buffer lives
    in the join kernel, which under a ``quota`` may park it on storage.
    """

    def __init__(
        self,
        build_upstream_id: int,
        probe_upstream_id: int,
        build_keys: Sequence[str],
        probe_keys: Sequence[str],
        join_type: JoinType = JoinType.INNER,
        suffix: str = JOIN_SUFFIX,
        build_schema: Optional[Schema] = None,
        quota: Optional[float] = None,
    ):
        self.build_upstream_id = build_upstream_id
        self.probe_upstream_id = probe_upstream_id
        # The build-side schema is registered up front so channels whose
        # build partition happens to be empty can still probe (and LEFT joins
        # can emit their null placeholders).
        if quota is None:
            self._join = HashJoin(
                build_keys, probe_keys, join_type, suffix, build_schema=build_schema
            )
        else:
            self.spill = SpillContext(-1, -1, quota)
            self._join = GraceHashJoin(
                build_keys, probe_keys, join_type, suffix, self.spill,
                build_schema=build_schema,
            )
        self._build_done = False

    def on_input(self, upstream_id: int, batch: Batch) -> List[Batch]:
        if upstream_id == self.build_upstream_id:
            if batch.num_rows:
                self._join.build(batch)
            return []
        if upstream_id == self.probe_upstream_id:
            if not self._build_done:
                self._join.pending(batch)
                return []
            return [self._join.probe(batch)] if batch.num_rows else []
        raise ExecutionError(
            f"join received batch from unexpected upstream stage {upstream_id}"
        )

    def on_upstream_done(self, upstream_id: int) -> List[Batch]:
        if upstream_id != self.build_upstream_id:
            return []
        self._build_done = True
        return self._join.build_done()

    def finalize(self) -> List[Batch]:
        return self._join.finalize()

    @property
    def state_nbytes(self) -> int:
        return self._join.state_nbytes


class AggregateOperator(Operator):
    """Grouped (or scalar) aggregation channel.

    ``post_projections`` let the compiler express two-phase aggregation: the
    operator aggregates ``specs`` over its input, then projects the group
    table into the declared output schema (e.g. dividing partial sums by
    partial counts to produce an average).  The group table is the engine's
    own :class:`~repro.kernels.aggregate.ColumnarGroupTable`, not the
    reference interpreter's ``GroupedAggregationState``.
    """

    def __init__(
        self,
        group_keys: Sequence[str],
        specs: Sequence[AggregateSpec],
        input_schema: Schema,
        output_schema: Schema,
        post_projections: Optional[Sequence[Tuple[str, Expr]]] = None,
        quota: Optional[float] = None,
    ):
        self.group_keys = list(group_keys)
        self.specs = list(specs)
        self.input_schema = input_schema
        self.output_schema = output_schema
        self.post_projections = list(post_projections) if post_projections else None
        if quota is None:
            self._state = ColumnarGroupTable(self.group_keys, self.specs)
        else:
            self.spill = SpillContext(-1, -1, quota)
            self._state = SpillingAggregation(self.group_keys, self.specs, self.spill)

    def on_input(self, upstream_id: int, batch: Batch) -> List[Batch]:
        self._state.update(batch)
        return []

    def finalize(self) -> List[Batch]:
        raw = self._state.finalize(input_schema=self.input_schema)
        if self.post_projections is not None:
            raw = project_batch(raw, self.post_projections)
        # Coerce into the declared logical schema (e.g. float partial counts
        # back to INT64 counts).
        coerced = Batch(self.output_schema, {name: raw.column(name) for name in self.output_schema.names})
        return [coerced]

    @property
    def state_nbytes(self) -> int:
        return self._state.state_nbytes


class CollectOperator(Operator):
    """Single-channel result stage: gather, optionally sort/limit, then emit.

    The final sort/limit needs the whole input, so under a ``quota`` the
    buffer parks itself on storage while gathering and ``finalize`` restores
    every chunk (an over-quota result is a forced grant, not hidden).
    """

    def __init__(
        self,
        schema: Schema,
        sort_keys: Optional[Sequence[str]] = None,
        descending: Optional[Sequence[bool]] = None,
        limit: Optional[int] = None,
        quota: Optional[float] = None,
    ):
        self.schema = schema
        self.sort_keys = list(sort_keys) if sort_keys else None
        self.descending = list(descending) if descending is not None else None
        self.limit = limit
        if quota is None:
            self._rows = RowBuffer()
        else:
            self.spill = SpillContext(-1, -1, quota)
            self._rows = SpillingRowBuffer(self.spill)

    def on_input(self, upstream_id: int, batch: Batch) -> List[Batch]:
        if batch.num_rows:
            self._rows.append(batch)
        return []

    def finalize(self) -> List[Batch]:
        merged = concat_batches(self._rows.finalize(), schema=self.schema)
        if self.sort_keys:
            merged = sort_batch(merged, self.sort_keys, self.descending)
        if self.limit is not None:
            merged = merged.slice(0, min(self.limit, merged.num_rows))
        return [merged]

    @property
    def state_nbytes(self) -> int:
        return self._rows.state_nbytes
