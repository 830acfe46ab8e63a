"""Context-bound, lazily evaluated DataFrames over logical plans.

This is the public query-construction surface, modelled on the DataFrame API
of the real Quokka engine (itself modelled on Spark / Polars)::

    lineitem = ctx.read_table("lineitem")          # bound to ctx
    result = (
        lineitem
        .filter("l_shipdate <= DATE '1998-09-02'")  # or an Expr predicate
        .groupby("l_returnflag", "l_linestatus")
        .agg(sum_qty=("l_quantity", "sum"))
        .sort("l_returnflag", "l_linestatus")
    )
    batch = result.collect()                        # runs on the engine

A :class:`DataFrame` is immutable: every method returns a new frame wrapping
a new logical plan node.  Frames built through a
:class:`~repro.api.context.QuokkaContext` carry that context, so nothing
executes until one of the execution verbs is called — all of which go
through the unified :class:`~repro.api.runners.Runner` protocol:

* :meth:`collect` — run on a fresh simulated cluster, return the result batch;
* :meth:`submit` — start the query (optionally on a persistent
  :class:`~repro.core.session.Session` or any runner) and return a
  :class:`~repro.core.session.QueryHandle` future;
* :meth:`collect_reference` — the single-node reference interpreter;
* :meth:`show` / :meth:`explain` — inspection helpers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Tuple, Union

from repro.common.errors import PlanError
from repro.expr.nodes import Column, Expr, col
from repro.kernels.aggregate import AggregateFunction, AggregateSpec
from repro.kernels.join import JoinType
from repro.plan.nodes import (
    Aggregate,
    Filter,
    Join,
    Limit,
    LogicalPlan,
    Project,
    Sort,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.options import QueryOptions
    from repro.core.session import QueryHandle
    from repro.data.batch import Batch

#: Aggregate function names accepted by the named-kwarg ``agg`` form.
_AGG_FUNCTIONS = {
    "sum": AggregateFunction.SUM,
    "avg": AggregateFunction.AVG,
    "mean": AggregateFunction.AVG,
    "min": AggregateFunction.MIN,
    "max": AggregateFunction.MAX,
    "count": AggregateFunction.COUNT,
    "count_distinct": AggregateFunction.COUNT_DISTINCT,
}


def _parse_predicate(predicate: Union[str, Expr]) -> Expr:
    """Accept an :class:`Expr` or a SQL expression string (``"o_total > 100"``)."""
    if isinstance(predicate, Expr):
        return predicate
    if isinstance(predicate, str):
        from repro.sql.planner import compile_predicate

        return compile_predicate(predicate)
    raise PlanError(f"cannot use {predicate!r} as a filter predicate")


def _named_agg_spec(name: str, spec) -> AggregateSpec:
    """Build an :class:`AggregateSpec` from the named-kwarg ``agg`` form.

    ``total=("o_total", "sum")`` aggregates a column; ``n="count"`` (or
    ``n=("count",)``) counts rows; the column slot may also be an
    :class:`Expr` for computed aggregates.  An :class:`AggregateSpec` value
    is re-named after the keyword.
    """
    if isinstance(spec, AggregateSpec):
        return AggregateSpec(name, spec.function, spec.expression)
    if isinstance(spec, str):
        column, function_name = None, spec
    elif isinstance(spec, tuple) and len(spec) == 1:
        column, function_name = None, spec[0]
    elif isinstance(spec, tuple) and len(spec) == 2:
        column, function_name = spec
    else:
        raise PlanError(
            f"aggregate {name!r} must be ('column', 'function'), a lone "
            f"function name for count, or an AggregateSpec; got {spec!r}"
        )
    if not isinstance(function_name, str) or function_name.lower() not in _AGG_FUNCTIONS:
        raise PlanError(
            f"unknown aggregate function {function_name!r} for {name!r}; "
            f"available: {sorted(_AGG_FUNCTIONS)}"
        )
    function = _AGG_FUNCTIONS[function_name.lower()]
    if function is AggregateFunction.COUNT:
        expression = None  # COUNT(*) semantics; the column slot is ignored
    elif column is None:
        raise PlanError(f"aggregate {name!r} ({function_name}) requires a column")
    else:
        expression = column if isinstance(column, Expr) else col(column)
    return AggregateSpec(name, function, expression)


def _build_aggregates(positional, named) -> list:
    specs = list(positional)
    specs.extend(_named_agg_spec(name, spec) for name, spec in named.items())
    if not specs:
        raise PlanError("agg() requires at least one aggregate")
    return specs


def format_batch(batch: "Batch", n: int = 10) -> str:
    """Render the first ``n`` rows of a batch as an aligned text table."""
    data = batch.to_pydict()
    names = list(data)
    shown = min(n, batch.num_rows)
    rows = [[str(name) for name in names]]
    for index in range(shown):
        rows.append(
            [
                f"{data[name][index]:.4f}"
                if isinstance(data[name][index], float)
                else str(data[name][index])
                for name in names
            ]
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(names))]
    lines = [" | ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)) for row in rows]
    lines.insert(1, "-+-".join("-" * width for width in widths))
    lines.append(f"({batch.num_rows} rows{'' if shown == batch.num_rows else f', showing {shown}'})")
    return "\n".join(lines)


class DataFrame:
    """An immutable, lazily evaluated relational expression.

    ``context`` is the :class:`~repro.api.context.QuokkaContext` the frame is
    bound to (``None`` for a bare frame built straight from plan nodes);
    binding is what lets :meth:`collect` / :meth:`submit` / :meth:`show` run
    without being handed an engine explicitly.
    """

    def __init__(self, plan: LogicalPlan, context=None):
        self._plan = plan
        self._context = context

    @property
    def plan(self) -> LogicalPlan:
        """The underlying logical plan."""
        return self._plan

    @property
    def context(self):
        """The bound :class:`QuokkaContext`, or ``None`` for a bare frame."""
        return self._context

    @property
    def schema(self):
        """The output schema of this frame."""
        return self._plan.schema

    def bind(self, context) -> "DataFrame":
        """Return this frame bound to ``context`` (enables the execution verbs)."""
        return DataFrame(self._plan, context)

    def _wrap(self, plan: LogicalPlan) -> "DataFrame":
        return DataFrame(plan, self._context)

    def _require_columns(self, columns: Sequence[str], verb: str) -> None:
        """Shared column validation for ``select`` / ``rename`` / ``drop``."""
        missing = sorted(set(columns) - set(self.schema.names))
        if missing:
            raise PlanError(
                f"{verb} references unknown columns {missing}; "
                f"available: {self.schema.names}"
            )

    def explain(
        self,
        optimized: bool = False,
        memory_budget_bytes: Optional[float] = None,
    ) -> str:
        """Render the logical plan with per-node cardinality/cost annotations.

        Every line shows the estimated output rows/bytes and cumulative cost
        (from real table statistics when available, System-R constants
        otherwise); join nodes also show the physical strategy (``broadcast``
        or ``shuffle``) the compiler's rule picks at the bound context's
        channel count and the default broadcast threshold — a per-query
        ``broadcast_threshold_bytes`` override or a stage whose sized channel
        count differs can still decide differently at compile time.
        ``optimized=True`` first runs the plan through :mod:`repro.optimizer`
        (predicate pushdown, join reordering, column pruning, ...) — the same
        cost-based pipeline the engine applies by default at submission.
        With ``memory_budget_bytes``, join and aggregate nodes additionally
        show the predicted per-channel peak state bytes and whether that
        state is predicted to stay ``resident`` or spill (``grace``) under
        that per-worker budget.
        """
        from repro.optimizer import (
            CardinalityEstimator,
            explain_with_estimates,
            optimize_plan,
        )

        plan = self._plan
        estimator = CardinalityEstimator()
        if optimized:
            plan = optimize_plan(plan, estimator=estimator)
        channels = 4
        if self._context is not None:
            channels = self._context.cluster_config.num_workers
        return explain_with_estimates(
            plan,
            estimator,
            probe_channels=channels,
            memory_budget_bytes=memory_budget_bytes,
        )

    # -- relational verbs --------------------------------------------------------

    def filter(self, predicate: Union[str, Expr]) -> "DataFrame":
        """Keep rows satisfying ``predicate``.

        The predicate is a boolean :class:`~repro.expr.nodes.Expr` or a SQL
        expression string parsed by the SQL frontend
        (``df.filter("o_total > 100 AND o_status = 'F'")``).  The physical
        compiler fuses filters directly above a table scan into the scan
        stage (predicate pushdown), so filtering early is free.
        """
        return self._wrap(Filter(self._plan, _parse_predicate(predicate)))

    def select(self, *columns: Union[str, Expr, Tuple[str, Expr]]) -> "DataFrame":
        """Project columns or expressions.

        Accepts column names, expressions (named via ``.alias``) or explicit
        ``(name, expression)`` pairs.
        """
        self._require_columns([c for c in columns if isinstance(c, str)], "select")
        projections = []
        for item in columns:
            if isinstance(item, str):
                projections.append((item, col(item)))
            elif isinstance(item, tuple):
                name, expr = item
                projections.append((name, expr))
            elif isinstance(item, Expr):
                projections.append((item.output_name(), item))
            else:
                raise PlanError(f"cannot project {item!r}")
        return self._wrap(Project(self._plan, projections))

    def with_column(self, name: str, expr: Expr) -> "DataFrame":
        """Add (or replace in place) one derived column, keeping all others.

        Replacing an existing column keeps its original schema position; a
        new column is appended at the end.
        """
        if name in self.schema.names:
            projections = [
                (c, expr if c == name else col(c)) for c in self.schema.names
            ]
        else:
            projections = [(c, col(c)) for c in self.schema.names]
            projections.append((name, expr))
        return self._wrap(Project(self._plan, projections))

    def rename(self, mapping: Mapping[str, str]) -> "DataFrame":
        """Rename columns per ``{old: new}``; order and data are unchanged."""
        self._require_columns(list(mapping), "rename")
        new_names = [mapping.get(c, c) for c in self.schema.names]
        duplicates = sorted({n for n in new_names if new_names.count(n) > 1})
        if duplicates:
            raise PlanError(f"rename would duplicate columns {duplicates}")
        projections = [(mapping.get(c, c), col(c)) for c in self.schema.names]
        return self._wrap(Project(self._plan, projections))

    def drop(self, *columns: str) -> "DataFrame":
        """Remove the named columns, keeping the rest in order."""
        self._require_columns(columns, "drop")
        dropped = set(columns)
        keep = [c for c in self.schema.names if c not in dropped]
        if not keep:
            raise PlanError("drop would remove every column")
        return self._wrap(Project(self._plan, [(c, col(c)) for c in keep]))

    def join(
        self,
        other: "DataFrame",
        left_on: Union[str, Sequence[str]],
        right_on: Optional[Union[str, Sequence[str]]] = None,
        how: str = "inner",
        suffix: str = "_right",
    ) -> "DataFrame":
        """Hash-join with ``other`` (this frame is the probe side).

        ``left_on`` / ``right_on`` name the join keys on each side — a single
        column name or a sequence of names; ``right_on`` defaults to
        ``left_on``.  ``how`` is one of ``"inner"``, ``"left"``, ``"semi"`` or
        ``"anti"`` (see :class:`~repro.kernels.join.JoinType`).  Columns of ``other``
        whose names collide with this frame's are renamed with ``suffix``.
        The right side becomes the join stage's build input, the left side
        its probe input.
        """
        left_keys = [left_on] if isinstance(left_on, str) else list(left_on)
        if right_on is None:
            right_keys = list(left_keys)
        else:
            right_keys = [right_on] if isinstance(right_on, str) else list(right_on)
        try:
            join_type = JoinType(how)
        except ValueError:
            raise PlanError(
                f"unknown join type {how!r}; expected one of "
                f"{[jt.value for jt in JoinType]}"
            ) from None
        return DataFrame(
            Join(self._plan, other._plan, left_keys, right_keys, join_type, suffix),
            self._context if self._context is not None else other._context,
        )

    def groupby(self, *keys: str) -> "GroupedDataFrame":
        """Start a grouped aggregation over the named key columns.

        Call :meth:`GroupedDataFrame.agg` on the result with aggregate specs
        (``sum_agg``, ``count_agg``, ...) or named kwargs
        (``total=("o_total", "sum")``).
        """
        return GroupedDataFrame(self, list(keys))

    def agg(self, *aggregates: AggregateSpec, **named) -> "DataFrame":
        """Scalar aggregation over the whole frame (no grouping).

        Aggregates are positional :class:`AggregateSpec` helpers or named
        kwargs: ``df.agg(total=("o_total", "sum"), n="count")``.
        """
        return self._wrap(
            Aggregate(self._plan, [], _build_aggregates(aggregates, named))
        )

    def sort(self, *keys: str, descending: Optional[Sequence[bool]] = None) -> "DataFrame":
        """Sort the output by ``keys``.

        ``descending`` gives one flag per key (all-ascending by default).
        Sorting happens in the final single-channel collect stage.
        """
        return self._wrap(Sort(self._plan, list(keys), descending))

    def limit(self, n: int) -> "DataFrame":
        """Keep only the first ``n`` rows (after any preceding sort)."""
        return self._wrap(Limit(self._plan, n))

    # -- execution verbs (the unified Runner protocol) ---------------------------

    def submit(
        self,
        target=None,
        options: Optional["QueryOptions"] = None,
        **overrides,
    ) -> "QueryHandle":
        """Start this query and return its :class:`QueryHandle` future.

        ``target`` selects the runner: ``None`` runs one-shot on the bound
        context's configuration (a fresh simulated cluster); a
        :class:`~repro.core.session.Session` submits onto that persistent
        session; any :class:`~repro.api.runners.Runner` is used directly.
        ``options`` is a :class:`~repro.core.options.QueryOptions`; keyword
        ``overrides`` patch individual fields, e.g.
        ``frame.submit(query_name="q3", failure_plans=[plan])``.
        """
        from repro.api.runners import as_runner
        from repro.core.options import QueryOptions

        options = options or QueryOptions()
        if overrides:
            options = options.with_overrides(**overrides)
        return as_runner(target, self._context).submit(self, options)

    def collect(
        self,
        target=None,
        options: Optional["QueryOptions"] = None,
        **overrides,
    ) -> "Batch":
        """Run this query to completion and return the result batch.

        Equivalent to ``submit(...).wait().batch`` — same targets, options
        and overrides as :meth:`submit`.  Use :meth:`submit` when you need
        the :class:`~repro.core.metrics.QueryResult` metrics too.
        """
        return self.submit(target, options, **overrides).wait().batch

    def collect_reference(self) -> "Batch":
        """Run through the single-node reference interpreter and return the batch."""
        from repro.api.runners import ReferenceRunner

        return ReferenceRunner().submit(self).wait().batch

    def show(self, n: int = 10, target=None) -> None:
        """Execute and print the first ``n`` result rows as a text table."""
        print(format_batch(self.collect(target), n))


class GroupedDataFrame:
    """Intermediate object returned by :meth:`DataFrame.groupby`."""

    def __init__(self, frame: DataFrame, keys: Sequence[str]):
        self._frame = frame
        self._keys = list(keys)

    def agg(self, *aggregates: AggregateSpec, **named) -> DataFrame:
        """Apply aggregate functions per group.

        Aggregates are positional :class:`AggregateSpec` helpers or named
        kwargs: ``gdf.agg(total=("o_total", "sum"), orders="count")``.
        """
        return self._frame._wrap(
            Aggregate(self._frame.plan, self._keys, _build_aggregates(aggregates, named))
        )


# -- aggregate spec helpers ------------------------------------------------------


def sum_agg(name: str, expr: Expr) -> AggregateSpec:
    """``SUM(expr) AS name``."""
    return AggregateSpec(name, AggregateFunction.SUM, expr)


def count_agg(name: str) -> AggregateSpec:
    """``COUNT(*) AS name``."""
    return AggregateSpec(name, AggregateFunction.COUNT, None)


def avg_agg(name: str, expr: Expr) -> AggregateSpec:
    """``AVG(expr) AS name``."""
    return AggregateSpec(name, AggregateFunction.AVG, expr)


def min_agg(name: str, expr: Expr) -> AggregateSpec:
    """``MIN(expr) AS name``."""
    return AggregateSpec(name, AggregateFunction.MIN, expr)


def max_agg(name: str, expr: Expr) -> AggregateSpec:
    """``MAX(expr) AS name``."""
    return AggregateSpec(name, AggregateFunction.MAX, expr)


def count_distinct_agg(name: str, expr: Expr) -> AggregateSpec:
    """``COUNT(DISTINCT expr) AS name``."""
    return AggregateSpec(name, AggregateFunction.COUNT_DISTINCT, expr)


# Column is re-exported for the convenience of query definitions.
__all__ = [
    "DataFrame",
    "GroupedDataFrame",
    "format_batch",
    "sum_agg",
    "count_agg",
    "avg_agg",
    "min_agg",
    "max_agg",
    "count_distinct_agg",
    "Column",
]
