"""Statistics-driven cardinality estimation.

The estimator derives, bottom-up, a :class:`PlanEstimate` for every logical
plan node: estimated output rows, average row width, and per-column
:class:`~repro.optimizer.statistics.ColumnStats` propagated from real table
statistics (see :mod:`repro.optimizer.statistics`).  When a table has been
``ANALYZE``d — or has resident data, in which case the estimator analyzes it
lazily — selectivities come from the data itself:

* equality against a literal: ``1 / NDV`` of the column;
* range predicates: linear interpolation between the column's min and max;
* ``IN`` lists: ``len(values) / NDV``;
* join cardinality: containment on the actual key NDVs,
  ``|L| * |R| / max(ndv_L, ndv_R)``;
* group-by cardinality: the product of the group keys' NDVs.

Without statistics the estimator falls back to the classic System-R constants
(kept below), which still rank join sides well enough for build-side
selection — the standard the seed code was held to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.expr.nodes import (
    Between,
    BinaryOp,
    Column,
    Expr,
    InList,
    Literal,
    UnaryOp,
)
from repro.kernels.join import JoinType
from repro.optimizer.expressions import is_pass_through_projection
from repro.optimizer.statistics import ColumnStats, TableStats, analyze_table
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

#: Default selectivity of a predicate we cannot classify.
DEFAULT_SELECTIVITY = 0.25
#: Selectivity of an equality comparison against a literal (no stats).
EQUALITY_SELECTIVITY = 0.05
#: Selectivity of a range comparison (<, <=, >, >=) against a literal (no stats).
RANGE_SELECTIVITY = 0.3
#: Selectivity of a BETWEEN predicate (no stats).
BETWEEN_SELECTIVITY = 0.15
#: Selectivity added per element of an IN list (no stats).
IN_LIST_PER_VALUE_SELECTIVITY = 0.05
#: Assumed number of distinct values per grouping key column (no stats).
DISTINCT_VALUES_PER_KEY = 50
#: Default byte width of a column with unknown statistics.
DEFAULT_COLUMN_WIDTH = 8.0


@dataclass(frozen=True)
class PlanEstimate:
    """Derived statistics of one plan node's output."""

    rows: float
    row_bytes: float
    #: Column stats propagated from base tables; absent names are unknown.
    columns: Dict[str, ColumnStats] = field(default_factory=dict)

    @property
    def total_bytes(self) -> float:
        """Estimated output size in bytes."""
        return self.rows * self.row_bytes

    def column(self, name: str) -> Optional[ColumnStats]:
        """Stats of output column ``name`` (``None`` when unknown)."""
        return self.columns.get(name)


@dataclass
class CardinalityEstimator:
    """Estimates output rows, bytes and column statistics for plan nodes.

    ``table_rows`` optionally overrides base-table row counts (used by
    tests); ``use_table_stats`` controls whether per-column statistics are
    consumed (and lazily computed from resident data) — with it off the
    estimator behaves like the original constant-based heuristics.
    """

    #: Optional overrides of base-table row counts (used by tests).
    table_rows: Dict[str, int] = field(default_factory=dict)
    #: Consume (and lazily compute) real per-column table statistics.
    use_table_stats: bool = True

    def __post_init__(self):
        if self.table_rows is None:  # tolerate the legacy explicit-None call
            self.table_rows = {}
        # Memo keyed by node identity; the node itself is retained so CPython
        # cannot recycle an id onto a different plan object.
        self._memo: Dict[int, Tuple[LogicalPlan, PlanEstimate]] = {}

    # -- public API ---------------------------------------------------------------

    def estimate(self, plan: LogicalPlan) -> PlanEstimate:
        """Derived output statistics of ``plan`` (memoized per node)."""
        cached = self._memo.get(id(plan))
        if cached is not None and cached[0] is plan:
            return cached[1]
        estimate = self._derive(plan)
        self._memo[id(plan)] = (plan, estimate)
        return estimate

    def rows(self, plan: LogicalPlan) -> float:
        """Estimated number of output rows of ``plan``."""
        return self.estimate(plan).rows

    def bytes(self, plan: LogicalPlan) -> float:
        """Estimated output size of ``plan`` in bytes."""
        return self.estimate(plan).total_bytes

    def selectivity(self, predicate: Expr, columns: Optional[Dict[str, ColumnStats]] = None) -> float:
        """Estimated fraction of rows satisfying ``predicate`` (clamped to (0, 1])."""
        return min(1.0, max(1e-4, self._selectivity(predicate, columns or {})))

    # -- per-node derivations --------------------------------------------------------

    def _derive(self, plan: LogicalPlan) -> PlanEstimate:
        if isinstance(plan, TableScan):
            return self._derive_scan(plan)
        if isinstance(plan, Filter):
            child = self.estimate(plan.child)
            fraction = self.selectivity(plan.predicate, child.columns)
            rows = max(child.rows * fraction, 1e-4)
            columns = {
                name: stats.scaled_to(rows) for name, stats in child.columns.items()
            }
            return PlanEstimate(rows, child.row_bytes, columns)
        if isinstance(plan, Project):
            return self._derive_project(plan)
        if isinstance(plan, Join):
            return self._derive_join(plan)
        if isinstance(plan, Aggregate):
            return self._derive_aggregate(plan)
        if isinstance(plan, Sort):
            return self.estimate(plan.child)
        if isinstance(plan, Limit):
            child = self.estimate(plan.child)
            rows = min(float(plan.n), child.rows)
            columns = {
                name: stats.scaled_to(rows) for name, stats in child.columns.items()
            }
            return PlanEstimate(rows, child.row_bytes, columns)
        return PlanEstimate(1.0, DEFAULT_COLUMN_WIDTH)

    def _derive_scan(self, plan: TableScan) -> PlanEstimate:
        table = plan.table
        stats: Optional[TableStats] = None
        if self.use_table_stats:
            stats = analyze_table(table)
        if table.name in self.table_rows:
            rows = float(self.table_rows[table.name])
        elif stats is not None:
            rows = float(max(stats.row_count, 1))
        else:
            rows = float(max(table.num_rows, 1))
        if stats is not None:
            columns = {
                name: column.scaled_to(rows) for name, column in stats.columns.items()
            }
            row_bytes = stats.avg_row_bytes
        else:
            columns = {}
            row_bytes = (
                float(table.nbytes) / max(table.num_rows, 1)
                if table.num_rows
                else DEFAULT_COLUMN_WIDTH * len(table.schema.names)
            )
        return PlanEstimate(rows, max(row_bytes, 1.0), columns)

    def _derive_project(self, plan: Project) -> PlanEstimate:
        child = self.estimate(plan.child)
        pass_through = is_pass_through_projection(plan.projections)
        columns: Dict[str, ColumnStats] = {}
        row_bytes = 0.0
        for name, _expr in plan.projections:
            source = pass_through.get(name)
            stats = child.columns.get(source) if source is not None else None
            if stats is not None:
                columns[name] = stats
                row_bytes += stats.avg_width
            else:
                row_bytes += DEFAULT_COLUMN_WIDTH
        return PlanEstimate(child.rows, max(row_bytes, 1.0), columns)

    def _derive_join(self, plan: Join) -> PlanEstimate:
        left = self.estimate(plan.left)
        right = self.estimate(plan.right)
        key_ndvs = [
            (self._key_ndv(left, lk), self._key_ndv(right, rk))
            for lk, rk in zip(plan.left_keys, plan.right_keys)
        ]
        if plan.join_type in (JoinType.SEMI, JoinType.ANTI):
            fraction = self._semi_match_fraction(key_ndvs)
            if plan.join_type is JoinType.ANTI:
                fraction = 1.0 - fraction
            rows = max(left.rows * max(min(fraction, 1.0), 1e-4), 1e-4)
            columns = {
                name: stats.scaled_to(rows) for name, stats in left.columns.items()
            }
            return PlanEstimate(rows, left.row_bytes, columns)
        rows = self._inner_join_rows(left, right, key_ndvs)
        if plan.join_type is JoinType.LEFT:
            rows = max(rows, left.rows)
        columns = {
            name: stats.scaled_to(rows) for name, stats in left.columns.items()
        }
        for output_name, source_name in plan.right_output_names().items():
            stats = right.columns.get(source_name)
            if stats is not None:
                columns[output_name] = stats.scaled_to(rows)
        return PlanEstimate(rows, left.row_bytes + right.row_bytes, columns)

    def _inner_join_rows(self, left, right, key_ndvs) -> float:
        denominator = 1.0
        any_known = False
        for left_ndv, right_ndv in key_ndvs:
            if left_ndv is not None and right_ndv is not None:
                denominator *= float(max(left_ndv, right_ndv, 1))
                any_known = True
        if any_known:
            return max(left.rows * right.rows / denominator, 1e-4)
        # Containment fallback: the join key's distinct count is bounded by
        # the smaller input, so the output is about the size of the larger.
        return max(left.rows, right.rows)

    def _semi_match_fraction(self, key_ndvs) -> float:
        for left_ndv, right_ndv in key_ndvs:
            if left_ndv is not None and right_ndv is not None:
                return min(1.0, float(min(left_ndv, right_ndv)) / max(left_ndv, 1))
        return 0.5

    @staticmethod
    def _key_ndv(estimate: PlanEstimate, key: str) -> Optional[int]:
        stats = estimate.columns.get(key)
        return stats.ndv if stats is not None and stats.ndv > 0 else None

    def _derive_aggregate(self, plan: Aggregate) -> PlanEstimate:
        child = self.estimate(plan.child)
        if not plan.group_keys:
            return PlanEstimate(1.0, DEFAULT_COLUMN_WIDTH * max(len(plan.aggregates), 1))
        groups = 1.0
        for key in plan.group_keys:
            stats = child.columns.get(key)
            groups *= float(stats.ndv) if stats is not None and stats.ndv > 0 else float(
                DISTINCT_VALUES_PER_KEY
            )
        rows = max(min(child.rows, groups), 1.0)
        columns: Dict[str, ColumnStats] = {}
        row_bytes = 0.0
        for key in plan.group_keys:
            stats = child.columns.get(key)
            if stats is not None:
                columns[key] = stats.scaled_to(rows)
                row_bytes += stats.avg_width
            else:
                row_bytes += DEFAULT_COLUMN_WIDTH
        row_bytes += DEFAULT_COLUMN_WIDTH * len(plan.aggregates)
        return PlanEstimate(rows, max(row_bytes, 1.0), columns)

    # -- predicate selectivity ----------------------------------------------------------

    def _selectivity(self, predicate: Expr, columns: Dict[str, ColumnStats]) -> float:
        if isinstance(predicate, BinaryOp):
            if predicate.op == "and":
                return self._selectivity(predicate.left, columns) * self._selectivity(
                    predicate.right, columns
                )
            if predicate.op == "or":
                left = self._selectivity(predicate.left, columns)
                right = self._selectivity(predicate.right, columns)
                return left + right - left * right
            if predicate.op == "==":
                return self._equality_selectivity(predicate, columns)
            if predicate.op == "!=":
                return 1.0 - self._equality_selectivity(predicate, columns)
            if predicate.op in ("<", "<=", ">", ">="):
                return self._range_selectivity(predicate, columns)
        if isinstance(predicate, UnaryOp) and predicate.op == "not":
            return 1.0 - self._selectivity(predicate.child, columns)
        if isinstance(predicate, Between):
            return self._between_selectivity(predicate, columns)
        if isinstance(predicate, InList):
            stats = self._column_stats(predicate.child, columns)
            if stats is not None and stats.ndv > 0:
                return min(1.0, len(predicate.values) / float(stats.ndv))
            return min(1.0, IN_LIST_PER_VALUE_SELECTIVITY * len(predicate.values))
        return DEFAULT_SELECTIVITY

    def _equality_selectivity(self, predicate: BinaryOp, columns) -> float:
        # Column-to-column equality first: _column_and_literal would otherwise
        # report (left column, no literal) and shadow this case.
        if isinstance(predicate.left, Column) and isinstance(predicate.right, Column):
            left = columns.get(predicate.left.name)
            right = columns.get(predicate.right.name)
            if left is not None and right is not None and left.ndv > 0 and right.ndv > 0:
                return 1.0 / float(max(left.ndv, right.ndv))
            return 0.1
        column, literal = _column_and_literal(predicate)
        if column is not None:
            stats = columns.get(column.name)
            if stats is not None and stats.ndv > 0:
                if literal is not None and not _value_in_bounds(literal.value, stats):
                    return 1e-4
                return 1.0 / float(stats.ndv)
            return EQUALITY_SELECTIVITY if literal is not None else 0.1
        return DEFAULT_SELECTIVITY

    def _range_selectivity(self, predicate: BinaryOp, columns) -> float:
        column, literal = _column_and_literal(predicate)
        if column is None or literal is None:
            return RANGE_SELECTIVITY
        stats = columns.get(column.name)
        span = _numeric_span(stats)
        if span is None or not isinstance(literal.value, (int, float)):
            return RANGE_SELECTIVITY
        low, high, width = span
        fraction = (float(literal.value) - low) / width
        op = predicate.op
        if isinstance(predicate.left, Literal):
            # literal OP column: flip the comparison around the column.
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
        if op in (">", ">="):
            fraction = 1.0 - fraction
        return min(1.0, max(1e-4, fraction))

    def _between_selectivity(self, predicate: Between, columns) -> float:
        stats = self._column_stats(predicate.child, columns)
        span = _numeric_span(stats)
        if (
            span is None
            or not isinstance(predicate.low, Literal)
            or not isinstance(predicate.high, Literal)
            or not isinstance(predicate.low.value, (int, float))
            or not isinstance(predicate.high.value, (int, float))
        ):
            return BETWEEN_SELECTIVITY
        low, high, width = span
        clipped_low = max(float(predicate.low.value), low)
        clipped_high = min(float(predicate.high.value), high)
        if clipped_high < clipped_low:
            return 1e-4
        return min(1.0, max(1e-4, (clipped_high - clipped_low) / width))

    @staticmethod
    def _column_stats(expr: Expr, columns) -> Optional[ColumnStats]:
        if isinstance(expr, Column):
            return columns.get(expr.name)
        return None


def _column_and_literal(predicate: BinaryOp) -> Tuple[Optional[Column], Optional[Literal]]:
    """The (column, literal) operands of a comparison, in either order."""
    left, right = predicate.left, predicate.right
    if isinstance(left, Column) and isinstance(right, Literal):
        return left, right
    if isinstance(left, Literal) and isinstance(right, Column):
        return right, left
    if isinstance(left, Column):
        return left, None
    if isinstance(right, Column):
        return right, None
    return None, None


def _value_in_bounds(value, stats: ColumnStats) -> bool:
    """False only when the literal provably lies outside the column's range."""
    if stats.min_value is None or stats.max_value is None:
        return True
    try:
        return stats.min_value <= value <= stats.max_value
    except TypeError:
        return True


def _numeric_span(stats: Optional[ColumnStats]):
    """``(low, high, width)`` of a numeric column's range, else ``None``."""
    if stats is None:
        return None
    low, high = stats.min_value, stats.max_value
    if not isinstance(low, (int, float)) or not isinstance(high, (int, float)):
        return None
    low, high = float(low), float(high)
    if high <= low:
        return None
    return low, high, high - low


def estimate_rows(plan: LogicalPlan) -> float:
    """Convenience wrapper: estimated output rows with default settings."""
    return CardinalityEstimator().rows(plan)
