"""Spill-capable variants of the per-channel stateful operators.

The physical compiler emits these instead of the resident operators in
:mod:`repro.physical.operators` when the query carries a memory budget
(``QueryOptions.memory_budget_bytes``).  Each variant owns a
:class:`~repro.memory.SpillContext` created with the fixed quota the
compiler's post-pass computed; the engine re-keys and binds the context to
the worker's :class:`~repro.memory.MemoryManager` and spill store when the
channel runtime is created (``bind_spill``).  Unbound operators (the local
interpreter, kernel tests) work too — spilled payloads then simply stay in
the context's staging area.

Output contracts match the resident operators batch-for-batch and
bit-for-bit, so downstream float accumulators see the same per-batch
addition order (see :mod:`repro.kernels.outofcore`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.common.errors import ExecutionError
from repro.data.batch import Batch
from repro.data.schema import Schema
from repro.expr.nodes import Expr
from repro.kernels.aggregate import AggregateSpec
from repro.kernels.join import JoinType
from repro.kernels.outofcore import GraceHashJoin, SpillingAggregation
from repro.kernels.project import project_batch
from repro.memory.manager import MemoryManager
from repro.memory.spill import SpillContext
from repro.physical.operators import CollectOperator, Operator


class _SpillBound:
    """Mixin: lets the engine bind the operator's spill context to a worker."""

    spill: SpillContext

    def bind_spill(self, stage: int, channel: int, manager: MemoryManager, peek) -> None:
        """Adopt the channel identity and the worker's manager + spill store."""
        self.spill.attach(stage, channel, manager, peek)


class GraceJoinOperator(_SpillBound, Operator):
    """Join channel backed by :class:`~repro.kernels.outofcore.GraceHashJoin`."""

    def __init__(
        self,
        build_upstream_id: int,
        probe_upstream_id: int,
        build_keys: Sequence[str],
        probe_keys: Sequence[str],
        join_type: JoinType = JoinType.INNER,
        suffix: str = "_right",
        build_schema: Optional[Schema] = None,
        quota: Optional[float] = None,
    ):
        self.build_upstream_id = build_upstream_id
        self.probe_upstream_id = probe_upstream_id
        self.spill = SpillContext(-1, -1, quota)
        self._grace = GraceHashJoin(
            build_keys, probe_keys, join_type, suffix, self.spill,
            build_schema=build_schema,
        )
        self._build_done = False

    def on_input(self, upstream_id: int, batch: Batch) -> List[Batch]:
        if upstream_id == self.build_upstream_id:
            if batch.num_rows:
                self._grace.build(batch)
            return []
        if upstream_id == self.probe_upstream_id:
            if not self._build_done:
                self._grace.pending(batch)
                return []
            return [self._grace.probe(batch)] if batch.num_rows else []
        raise ExecutionError(
            f"join received batch from unexpected upstream stage {upstream_id}"
        )

    def on_upstream_done(self, upstream_id: int) -> List[Batch]:
        if upstream_id != self.build_upstream_id:
            return []
        self._build_done = True
        return self._grace.build_done()

    def finalize(self) -> List[Batch]:
        return self._grace.finalize()

    @property
    def state_nbytes(self) -> int:
        return self._grace.state_nbytes


class SpillingAggregateOperator(_SpillBound, Operator):
    """Aggregation channel backed by partitioned, spillable group state."""

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
        self.spill = SpillContext(-1, -1, quota)
        self._state = SpillingAggregation(self.group_keys, self.specs, self.spill)

    def on_input(self, upstream_id: int, batch: Batch) -> List[Batch]:
        self._state.update(batch)
        return []

    def finalize(self) -> List[Batch]:
        raw = self._state.finalize(input_schema=self.input_schema)
        if self.post_projections is not None:
            raw = project_batch(raw, self.post_projections)
        coerced = Batch(
            self.output_schema,
            {name: raw.column(name) for name in self.output_schema.names},
        )
        return [coerced]

    @property
    def state_nbytes(self) -> int:
        return self._state.state_nbytes


class SpillingCollectOperator(_SpillBound, CollectOperator):
    """Collect channel that parks its buffer on storage under pressure.

    The final sort/limit requires the whole input, so ``finalize()`` restores
    every chunk; exceeding the quota at that point is reported as a forced
    grant rather than hidden.
    """

    def __init__(
        self,
        schema: Schema,
        sort_keys: Optional[Sequence[str]] = None,
        descending: Optional[Sequence[bool]] = None,
        limit: Optional[int] = None,
        final_ops: Optional[Sequence] = None,
        quota: Optional[float] = None,
    ):
        CollectOperator.__init__(self, schema, sort_keys, descending, limit, final_ops)
        self.spill = SpillContext(-1, -1, quota)
        self._chunks: List = []

    def on_input(self, upstream_id: int, batch: Batch) -> List[Batch]:
        if batch.num_rows:
            self._buffer.append(batch)
            self._buffer_nbytes += batch.nbytes
            self.spill.note_usage(self._buffer_nbytes)
            if self.spill.needs_spill(self._buffer_nbytes):
                key = self.spill.new_key("collect")
                self.spill.spill(key, list(self._buffer), self._buffer_nbytes)
                self._chunks.append(key)
                self._buffer = []
                self._buffer_nbytes = 0
                self.spill.note_usage(0)
        return []

    def finalize(self) -> List[Batch]:
        restored: List[Batch] = []
        for key in self._chunks:
            restored.extend(self.spill.restore(key))
            self.spill.discard(key)
        self._chunks = []
        restored.extend(self._buffer)
        self._buffer = restored
        self._buffer_nbytes = sum(batch.nbytes for batch in restored)
        self.spill.note_usage(self._buffer_nbytes)
        if self.spill.needs_spill(self._buffer_nbytes):
            self.spill.note_forced_grant()
        out = CollectOperator.finalize(self)
        self._buffer = []
        self._buffer_nbytes = 0
        self.spill.note_usage(0)
        return out
