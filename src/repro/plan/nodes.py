"""Logical plan nodes.

A logical plan is a tree; each node knows its output :class:`Schema`, which is
computed eagerly at construction time so schema errors surface where the query
is written rather than at execution time.

Every node states its children once, in :meth:`LogicalPlan.children`, and
rebuilds itself over new ones with :meth:`LogicalPlan.with_children`, so an
optimizer rule that only recurses is one generic rebuild.  The schema rules
live with the kernels that execute them: a join names its output with
:func:`repro.kernels.join.join_output_names` and an aggregation types its
result with :func:`repro.kernels.aggregate.aggregate_schema`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import PlanError
from repro.data.schema import Field, Schema
from repro.expr.eval import expression_columns, infer_dtype
from repro.expr.nodes import Expr
from repro.kernels.aggregate import AggregateSpec, aggregate_schema
from repro.kernels.join import JOIN_SUFFIX, JoinType, join_output_names
from repro.plan.catalog import TableMetadata


class LogicalPlan:
    """Base class of all logical plan nodes."""

    #: Output schema, set by subclasses in ``__init__``.
    schema: Schema

    def children(self) -> List["LogicalPlan"]:
        """Child nodes in evaluation order."""
        return []

    def with_children(self, children: Sequence["LogicalPlan"]) -> "LogicalPlan":
        """This node over ``children``; ``self`` when every child is unchanged."""
        current = self.children()
        if len(children) != len(current):
            raise PlanError(
                f"{type(self).__name__} takes {len(current)} children, got {len(children)}"
            )
        if all(new is old for new, old in zip(children, current)):
            return self
        return self._rebuild(list(children))

    def _rebuild(self, children: List["LogicalPlan"]) -> "LogicalPlan":
        raise NotImplementedError(type(self).__name__)

    def map_children(self, rewrite: Callable[["LogicalPlan"], "LogicalPlan"]) -> "LogicalPlan":
        """This node with ``rewrite`` applied to each child."""
        return self.with_children([rewrite(child) for child in self.children()])

    def node_name(self) -> str:
        """Short human-readable name used in EXPLAIN output."""
        return type(self).__name__

    def explain(self, indent: int = 0) -> str:
        """Render the plan tree as indented text."""
        lines = [" " * indent + self.describe()]
        for child in self.children():
            lines.append(child.explain(indent + 2))
        return "\n".join(lines)

    def describe(self) -> str:
        """One-line description of this node."""
        return self.node_name()

    def _check_columns(self, expr: Expr, schema: Schema, context: str) -> None:
        missing = expression_columns(expr) - set(schema.names)
        if missing:
            raise PlanError(
                f"{context} references unknown columns {sorted(missing)}; "
                f"available: {schema.names}"
            )


class TableScan(LogicalPlan):
    """Read a table registered in the catalog."""

    def __init__(self, table: TableMetadata):
        self.table = table
        self.schema = table.schema

    def describe(self) -> str:
        return f"TableScan({self.table.name}, rows={self.table.num_rows})"


class Filter(LogicalPlan):
    """Keep rows satisfying a boolean predicate."""

    def __init__(self, child: LogicalPlan, predicate: Expr):
        self._check_columns(predicate, child.schema, "filter predicate")
        self.child = child
        self.predicate = predicate
        self.schema = child.schema

    def children(self) -> List[LogicalPlan]:
        return [self.child]

    def _rebuild(self, children: List[LogicalPlan]) -> LogicalPlan:
        return Filter(children[0], self.predicate)

    def describe(self) -> str:
        return f"Filter({self.predicate!r})"


class Project(LogicalPlan):
    """Compute output columns from expressions."""

    def __init__(self, child: LogicalPlan, projections: Sequence[Tuple[str, Expr]]):
        if not projections:
            raise PlanError("projection requires at least one output column")
        for name, expr in projections:
            self._check_columns(expr, child.schema, f"projection {name!r}")
        self.child = child
        self.projections = list(projections)
        self.schema = Schema(
            Field(name, infer_dtype(expr, child.schema)) for name, expr in projections
        )

    def children(self) -> List[LogicalPlan]:
        return [self.child]

    def _rebuild(self, children: List[LogicalPlan]) -> LogicalPlan:
        return Project(children[0], self.projections)

    def describe(self) -> str:
        return f"Project({[name for name, _ in self.projections]})"


class Join(LogicalPlan):
    """Hash join.  The left child is the probe side, the right child the build side."""

    def __init__(
        self,
        left: LogicalPlan,
        right: LogicalPlan,
        left_keys: Sequence[str],
        right_keys: Sequence[str],
        join_type: JoinType = JoinType.INNER,
        suffix: str = JOIN_SUFFIX,
    ):
        if len(left_keys) != len(right_keys) or not left_keys:
            raise PlanError("join requires equal, non-empty key lists")
        for key in left_keys:
            left.schema.field(key)
        for key in right_keys:
            right.schema.field(key)
        self.left = left
        self.right = right
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self.join_type = join_type
        self.suffix = suffix
        if join_type in (JoinType.SEMI, JoinType.ANTI):
            # Only probe rows come out: build columns are not visible above.
            self._right_names: List[str] = []
            self.schema = left.schema
        else:
            self._right_names = join_output_names(
                left.schema.names, right.schema.names, suffix
            )
            self.schema = Schema(
                list(left.schema.fields)
                + [Field(name, f.dtype) for name, f in zip(self._right_names, right.schema)]
            )

    def right_output_names(self) -> Dict[str, str]:
        """Join-output name -> right-child column, for every right column the
        join outputs (none for semi and anti joins)."""
        return dict(zip(self._right_names, self.right.schema.names))

    def children(self) -> List[LogicalPlan]:
        return [self.left, self.right]

    def _rebuild(self, children: List[LogicalPlan]) -> LogicalPlan:
        left, right = children
        return Join(
            left, right, self.left_keys, self.right_keys, self.join_type, self.suffix
        )

    def describe(self) -> str:
        keys = list(zip(self.left_keys, self.right_keys))
        return f"Join({self.join_type.value}, on={keys})"


class Aggregate(LogicalPlan):
    """Group-by aggregation (or a scalar aggregation when ``group_keys`` is empty)."""

    def __init__(
        self,
        child: LogicalPlan,
        group_keys: Sequence[str],
        aggregates: Sequence[AggregateSpec],
    ):
        if not aggregates:
            raise PlanError("aggregation requires at least one aggregate")
        for key in group_keys:
            child.schema.field(key)
        for spec in aggregates:
            if spec.expression is not None:
                self._check_columns(spec.expression, child.schema, f"aggregate {spec.name!r}")
        self.child = child
        self.group_keys = list(group_keys)
        self.aggregates = list(aggregates)
        self.schema = aggregate_schema(self.group_keys, self.aggregates, child.schema)

    def children(self) -> List[LogicalPlan]:
        return [self.child]

    def _rebuild(self, children: List[LogicalPlan]) -> LogicalPlan:
        return Aggregate(children[0], self.group_keys, self.aggregates)

    def describe(self) -> str:
        aggs = [f"{s.function.value}->{s.name}" for s in self.aggregates]
        return f"Aggregate(by={self.group_keys}, aggs={aggs})"


class Sort(LogicalPlan):
    """Totally order the output by one or more keys."""

    def __init__(
        self,
        child: LogicalPlan,
        keys: Sequence[str],
        descending: Optional[Sequence[bool]] = None,
    ):
        if not keys:
            raise PlanError("sort requires at least one key")
        for key in keys:
            child.schema.field(key)
        if descending is not None and len(descending) != len(keys):
            raise PlanError("descending flags must match the number of sort keys")
        self.child = child
        self.keys = list(keys)
        self.descending = list(descending) if descending is not None else [False] * len(keys)
        self.schema = child.schema

    def children(self) -> List[LogicalPlan]:
        return [self.child]

    def _rebuild(self, children: List[LogicalPlan]) -> LogicalPlan:
        return Sort(children[0], self.keys, self.descending)

    def describe(self) -> str:
        return f"Sort(by={self.keys}, descending={self.descending})"


class Limit(LogicalPlan):
    """Keep only the first ``n`` rows."""

    def __init__(self, child: LogicalPlan, n: int):
        if n < 1:
            raise PlanError("limit must be at least 1")
        self.child = child
        self.n = n
        self.schema = child.schema

    def children(self) -> List[LogicalPlan]:
        return [self.child]

    def _rebuild(self, children: List[LogicalPlan]) -> LogicalPlan:
        return Limit(children[0], self.n)

    def describe(self) -> str:
        return f"Limit({self.n})"
