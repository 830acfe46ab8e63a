"""Plan SQL SELECT statements into the engine's logical plans.

The planner does what the DataFrame API would otherwise make the user do by
hand:

* resolves (qualified) column references against the FROM tables through a
  chain of scopes, so subqueries see the enclosing query's columns;
* renames columns per table binding when the same table appears twice
  (self-joins), keeping physical column names unique across the scope;
* inlines derived tables (``FROM (SELECT ...) AS name``) as recursively
  planned subplans;
* pushes single-table WHERE conjuncts below the joins they do not span;
* extracts equi-join conditions from the WHERE clause (for comma-separated
  FROM lists, the classic TPC-H style) and from explicit JOIN ... ON clauses,
  then joins the tables along a connected order;
* decorrelates subqueries: ``[NOT] EXISTS`` and ``[NOT] IN (SELECT ...)``
  become semi / anti joins (with a distinct-witness rewrite when the
  correlation includes non-equality predicates), correlated scalar
  subqueries become a group-by on the correlation keys joined back to the
  outer plan, and uncorrelated scalar subqueries become one-row aggregates
  joined through a constant key;
* splits aggregate queries into a pre-aggregation projection, an
  :class:`~repro.plan.nodes.Aggregate` node and a post-aggregation projection
  (so ``SELECT sum(a*b) / sum(c) ...`` works);
* translates HAVING (including scalar-subquery thresholds), ORDER BY and
  LIMIT.

The result is an ordinary :class:`~repro.plan.nodes.LogicalPlan`, so SQL
queries run through exactly the same compiler, engine and fault-tolerance
machinery as DataFrame queries.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.common.errors import ReproError
from repro.data.dates import add_days, add_months, add_years, date_literal
from repro.expr.eval import expression_columns
from repro.expr.nodes import (
    CaseWhen,
    Expr,
    col,
    contains,
    ends_with,
    like,
    lit,
    starts_with,
    substr,
    year,
)
from repro.kernels.aggregate import AggregateFunction, AggregateSpec
from repro.kernels.join import JoinType, join_output_names
from repro.plan.catalog import Catalog
from repro.plan.dataframe import DataFrame
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
from repro.sql import ast
from repro.sql.ast import (
    AGGREGATE_FUNCTIONS,
    AllColumns,
    BetweenPredicate,
    BinaryExpr,
    CaseExpr,
    CastExpr,
    ColumnRef,
    ExistsPredicate,
    ExtractExpr,
    FunctionExpr,
    InPredicate,
    InSubquery,
    LikePredicate,
    LiteralValue,
    ScalarSubquery,
    SelectItem,
    SelectStatement,
    SqlExpr,
    UnaryExpr,
)


class SqlPlanError(ReproError):
    """Raised when a parsed statement cannot be planned for this engine."""


def plan_query(statement: SelectStatement, catalog: Catalog) -> DataFrame:
    """Plan one parsed SELECT statement against ``catalog``."""
    return DataFrame(_QueryPlanner(catalog).plan(statement))


def translate_expression(expression: SqlExpr) -> Expr:
    """Translate a parsed SQL expression into the engine's expression AST.

    Aggregate calls are rejected (there is no aggregation context); column
    references are resolved by name at plan-construction time, exactly as in
    the DataFrame API.
    """
    return _QueryPlanner(Catalog())._translate(expression)


def compile_predicate(text: str) -> Expr:
    """Parse and translate one SQL expression string into an :class:`Expr`.

    Backs string predicates in the DataFrame API
    (``df.filter("o_total > 100 AND o_status = 'F'")``).
    """
    from repro.sql.parser import parse_expression

    return translate_expression(parse_expression(text))


class _TableBinding:
    """One table of the FROM clause with the columns it contributes.

    ``physical`` maps the table's own column names to the globally unique
    names they carry in the joined plan.  When two bindings expose the same
    column name (self-joins, or a derived table echoing a base column), the
    later binding's columns are renamed ``<column>__<binding>`` through a
    Project so that join keys and filters stay unambiguous.
    """

    def __init__(self, ref: ast.TableRef, plan: LogicalPlan, taken: Set[str]):
        self.ref = ref
        self.column_order: List[str] = list(plan.schema.names)
        self.columns: Set[str] = set(self.column_order)
        self.physical: Dict[str, str] = {}
        renamed = False
        for column in self.column_order:
            name = column
            if name in taken:
                name = f"{column}__{self.binding}"
                if name in taken:
                    raise SqlPlanError(
                        f"cannot disambiguate column {column!r} of table "
                        f"binding {self.binding!r}"
                    )
                renamed = True
            self.physical[column] = name
            taken.add(name)
        if renamed:
            plan = Project(
                plan, [(self.physical[c], col(c)) for c in self.column_order]
            )
        self.plan = plan
        self.filters: List[Expr] = []

    @property
    def binding(self) -> str:
        return self.ref.binding


class _Scope:
    """Name-resolution scope: the bindings of one query level plus its parent.

    Unqualified names resolve inner-first; qualified names walk the scope
    chain looking for the binding.  A reference that lands in a parent scope
    is a *correlated* reference — the planner decorrelates it rather than
    translating it in place.
    """

    def __init__(self, bindings: Sequence[_TableBinding], parent: Optional["_Scope"] = None):
        self.bindings = list(bindings)
        self.parent = parent
        self.owners: Dict[str, _TableBinding] = {}
        self.ambiguous: Set[str] = set()
        for binding in self.bindings:
            for column in binding.columns:
                if column in self.owners:
                    self.ambiguous.add(column)
                else:
                    self.owners[column] = binding
        for column in self.ambiguous:
            self.owners.pop(column, None)

    def find_binding(self, name: str) -> Optional[_TableBinding]:
        for binding in self.bindings:
            if binding.binding == name:
                return binding
        return None

    def locate(self, ref: ColumnRef) -> Optional[Tuple["_Scope", _TableBinding, str]]:
        """Find the scope, binding and physical column name for a reference.

        Returns ``None`` when an unqualified name matches nothing anywhere in
        the chain; raises for unknown qualifiers, missing columns on a known
        qualifier, and ambiguous unqualified names.
        """
        if ref.qualifier is not None:
            scope: Optional[_Scope] = self
            while scope is not None:
                binding = scope.find_binding(ref.qualifier)
                if binding is not None:
                    if ref.name not in binding.columns:
                        raise SqlPlanError(
                            f"table {ref.qualifier!r} has no column {ref.name!r}"
                        )
                    return scope, binding, binding.physical[ref.name]
                scope = scope.parent
            raise SqlPlanError(f"unknown table alias {ref.qualifier!r}")
        scope = self
        while scope is not None:
            if ref.name in scope.ambiguous:
                raise SqlPlanError(
                    f"ambiguous column reference {ref.name!r} (qualify it with "
                    "a table alias)"
                )
            owner = scope.owners.get(ref.name)
            if owner is not None:
                return scope, owner, owner.physical[ref.name]
            scope = scope.parent
        return None

    def resolve(self, ref: ColumnRef) -> str:
        """Resolver used during expression translation: local physical name."""
        located = self.locate(ref)
        if located is None:
            raise SqlPlanError(f"unknown column {ref.name!r}")
        scope, _binding, physical = located
        if scope is not self:
            raise SqlPlanError(
                f"correlated column {ref} was not decorrelated; correlated "
                "references are only supported in EXISTS / IN / scalar "
                "subquery predicates"
            )
        return physical


class _Sinks:
    """Classification buckets for the conjuncts of one WHERE/ON tree."""

    def __init__(self) -> None:
        self.joins: List[Tuple[str, str, str, str]] = []
        self.residual: List[SqlExpr] = []
        self.exists: List[Tuple[SelectStatement, bool]] = []
        self.in_subqueries: List[Tuple[SqlExpr, SelectStatement, bool]] = []
        self.scalar: List[SqlExpr] = []
        self.correlated: List[SqlExpr] = []


class _QueryPlanner:
    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._counter = 0

    def _fresh(self, prefix: str) -> str:
        """A plan-unique helper column name (shared counter across subqueries)."""
        self._counter += 1
        return f"{prefix}_{self._counter}"

    # -- top level -----------------------------------------------------------------

    def plan(self, statement: SelectStatement) -> LogicalPlan:
        if statement.distinct:
            raise SqlPlanError("SELECT DISTINCT is not supported")
        plan, scope, correlated = self._plan_relational(statement, outer_scope=None)
        if correlated:
            raise SqlPlanError(
                "top-level queries cannot contain correlated predicates"
            )
        plan = self._plan_projection_and_aggregation(plan, statement, scope)
        plan = self._plan_order_and_limit(plan, statement)
        return plan

    def _plan_relational(
        self, statement: SelectStatement, outer_scope: Optional[_Scope]
    ) -> Tuple[LogicalPlan, _Scope, List[SqlExpr]]:
        """Plan FROM + WHERE of one query level.

        Returns the joined-and-filtered plan, its scope and the conjuncts
        that reference the enclosing scope (for the caller to decorrelate).
        """
        bindings = self._bind_tables(statement)
        scope = _Scope(bindings, parent=outer_scope)
        sinks = _Sinks()

        if statement.where is not None:
            self._classify(statement.where, scope, sinks, allow_subqueries=True)
        for join in statement.joins:
            if join.join_type == "cross":
                continue
            if join.condition is None:
                raise SqlPlanError("JOIN requires an ON condition")
            self._classify(join.condition, scope, sinks, allow_subqueries=False)

        plan = self._join_tables(statement, bindings, sinks.joins)
        for conjunct in sinks.residual:
            plan = Filter(plan, self._translate(conjunct, resolver=scope.resolve))
        for operand, subquery, negated in sinks.in_subqueries:
            plan = self._apply_in_subquery(plan, scope, operand, subquery, negated)
        for subquery, negated in sinks.exists:
            plan = self._apply_exists(plan, scope, subquery, negated)
        for conjunct in sinks.scalar:
            plan = self._apply_scalar_conjunct(plan, scope, conjunct)
        return plan, scope, sinks.correlated

    # -- FROM clause ------------------------------------------------------------------

    def _scan(self, name: str) -> LogicalPlan:
        """Resolve a FROM name: a registered view's plan, or a base-table scan.

        Splicing view plans in here is what makes SQL and DataFrame queries
        compose — ``ctx.create_view("v", frame)`` followed by
        ``ctx.sql("SELECT ... FROM v JOIN orders ...")`` plans ``v`` as the
        frame's logical subplan.
        """
        if self.catalog.has_view(name):
            return self.catalog.view(name)
        return TableScan(self.catalog.table(name))

    def _bind_tables(self, statement: SelectStatement) -> List[_TableBinding]:
        refs = list(statement.from_tables) + [join.table for join in statement.joins]
        if not refs:
            raise SqlPlanError("the FROM clause is empty")
        bindings: List[_TableBinding] = []
        seen: Set[str] = set()
        taken: Set[str] = set()
        for ref in refs:
            if ref.binding in seen:
                raise SqlPlanError(f"duplicate table binding {ref.binding!r} in FROM")
            seen.add(ref.binding)
            if ref.subquery is not None:
                plan = self.plan(ref.subquery)
            else:
                plan = self._scan(ref.name)
            bindings.append(_TableBinding(ref, plan, taken))
        return bindings

    # -- WHERE classification ------------------------------------------------------------

    def _classify(
        self,
        predicate: SqlExpr,
        scope: _Scope,
        sinks: _Sinks,
        allow_subqueries: bool,
    ) -> None:
        """Split a WHERE tree's conjuncts into joins, filters, subqueries etc."""
        for conjunct in _split_conjuncts(predicate):
            exists, negated = _as_exists(conjunct)
            if exists is not None:
                if not allow_subqueries:
                    raise SqlPlanError("EXISTS is only supported in the WHERE clause")
                sinks.exists.append((exists.subquery, negated))
                continue
            in_subquery = _as_in_subquery(conjunct)
            if in_subquery is not None:
                if not allow_subqueries:
                    raise SqlPlanError(
                        "IN subqueries are only supported in the WHERE clause"
                    )
                sinks.in_subqueries.append(in_subquery)
                continue
            nodes = ast.walk_expression(conjunct)
            if any(isinstance(n, (ExistsPredicate, InSubquery)) for n in nodes):
                raise SqlPlanError(
                    "EXISTS / IN subqueries must be top-level WHERE conjuncts "
                    "(they cannot sit under OR or inside other expressions)"
                )
            correlated = False
            for node in nodes:
                if isinstance(node, ColumnRef):
                    located = scope.locate(node)
                    if located is not None and located[0] is not scope:
                        correlated = True
            if correlated:
                sinks.correlated.append(conjunct)
                continue
            if any(isinstance(n, ScalarSubquery) for n in nodes):
                if not allow_subqueries:
                    raise SqlPlanError(
                        "scalar subqueries are only supported in WHERE and HAVING"
                    )
                sinks.scalar.append(conjunct)
                continue
            equi = self._as_equi_join(conjunct, scope)
            if equi is not None:
                sinks.joins.append(equi)
                continue
            owner = self._single_table_owner(conjunct, scope)
            if owner is not None:
                owner.filters.append(self._translate(conjunct, resolver=scope.resolve))
            else:
                sinks.residual.append(conjunct)

    def _as_equi_join(
        self, conjunct: SqlExpr, scope: _Scope
    ) -> Optional[Tuple[str, str, str, str]]:
        """Return ``(left_binding, left_col, right_binding, right_col)`` for ``a.x = b.y``."""
        if not isinstance(conjunct, BinaryExpr) or conjunct.op != "==":
            return None
        if not isinstance(conjunct.left, ColumnRef) or not isinstance(conjunct.right, ColumnRef):
            return None
        left = scope.locate(conjunct.left)
        right = scope.locate(conjunct.right)
        if left is None or right is None:
            return None
        if left[0] is not scope or right[0] is not scope:
            return None
        if left[1] is right[1]:
            return None
        return (left[1].binding, left[2], right[1].binding, right[2])

    def _single_table_owner(
        self, conjunct: SqlExpr, scope: _Scope
    ) -> Optional[_TableBinding]:
        owners: Set[int] = set()
        owner: Optional[_TableBinding] = None
        for node in ast.walk_expression(conjunct):
            if isinstance(node, ColumnRef):
                located = scope.locate(node)
                if located is None or located[0] is not scope:
                    return None
                owner = located[1]
                owners.add(id(owner))
        if len(owners) == 1:
            return owner
        return None

    # -- join ordering -------------------------------------------------------------------

    def _join_tables(
        self,
        statement: SelectStatement,
        bindings: List[_TableBinding],
        join_conditions: List[Tuple[str, str, str, str]],
    ) -> LogicalPlan:
        """Join the FROM tables left-deep along the extracted equi-join graph."""
        plans: Dict[str, LogicalPlan] = {}
        for binding in bindings:
            plan = binding.plan
            for predicate in binding.filters:
                plan = Filter(plan, predicate)
            plans[binding.binding] = plan

        explicit_types = {
            join.table.binding: join.join_type
            for join in statement.joins
            if join.join_type != "cross"
        }

        order = [binding.binding for binding in bindings]
        joined: Set[str] = {order[0]}
        current = plans[order[0]]
        pending = list(join_conditions)
        remaining = [name for name in order[1:]]

        while remaining:
            progress = False
            for name in list(remaining):
                keys = self._keys_for(name, joined, pending)
                if keys is None:
                    continue
                left_keys, right_keys, used = keys
                join_type = JoinType(explicit_types.get(name, "inner"))
                current = Join(current, plans[name], left_keys, right_keys, join_type)
                joined.add(name)
                remaining.remove(name)
                for condition in used:
                    pending.remove(condition)
                progress = True
            if progress:
                continue
            # No join condition connects the next table: fall back to a cross
            # join through a constant key (needed for scalar subquery rewrites).
            name = remaining.pop(0)
            current = _cross_join(current, plans[name])
            joined.add(name)
        if pending:
            # Conditions between tables already joined become plain filters
            # (physical names are unique, so unqualified columns are safe).
            for _lb, left_col, _rb, right_col in pending:
                current = Filter(current, col(left_col) == col(right_col))
        return current

    @staticmethod
    def _keys_for(
        name: str, joined: Set[str], conditions: List[Tuple[str, str, str, str]]
    ) -> Optional[Tuple[List[str], List[str], List[Tuple[str, str, str, str]]]]:
        """Join keys connecting ``name`` to the already-joined tables, if any."""
        left_keys: List[str] = []
        right_keys: List[str] = []
        used: List[Tuple[str, str, str, str]] = []
        for condition in conditions:
            left_binding, left_col, right_binding, right_col = condition
            if left_binding in joined and right_binding == name:
                left_keys.append(left_col)
                right_keys.append(right_col)
                used.append(condition)
            elif right_binding in joined and left_binding == name:
                left_keys.append(right_col)
                right_keys.append(left_col)
                used.append(condition)
        if not left_keys:
            return None
        return left_keys, right_keys, used

    # -- subquery decorrelation ----------------------------------------------------------

    def _correlation_pairs(
        self,
        correlated: List[SqlExpr],
        outer_scope: _Scope,
        inner_scope: _Scope,
    ) -> Tuple[List[Tuple[str, str]], List[SqlExpr]]:
        """Partition correlated conjuncts into equi pairs and residual predicates."""
        pairs: List[Tuple[str, str]] = []
        residual: List[SqlExpr] = []
        for conjunct in correlated:
            pair = self._correlated_equality(conjunct, outer_scope, inner_scope)
            if pair is not None:
                pairs.append(pair)
            else:
                residual.append(conjunct)
        return pairs, residual

    def _correlated_equality(
        self, conjunct: SqlExpr, outer_scope: _Scope, inner_scope: _Scope
    ) -> Optional[Tuple[str, str]]:
        """Return ``(outer_physical, inner_physical)`` for ``inner.x = outer.y``."""
        if not isinstance(conjunct, BinaryExpr) or conjunct.op != "==":
            return None
        left, right = conjunct.left, conjunct.right
        if not isinstance(left, ColumnRef) or not isinstance(right, ColumnRef):
            return None

        def place(ref: ColumnRef) -> Optional[Tuple[str, str]]:
            located = inner_scope.locate(ref)
            if located is None:
                return None
            scope, _binding, physical = located
            if scope is inner_scope:
                return ("inner", physical)
            if scope is outer_scope:
                return ("outer", physical)
            return None

        left_place, right_place = place(left), place(right)
        if left_place is None or right_place is None:
            return None
        if left_place[0] == "inner" and right_place[0] == "outer":
            return (right_place[1], left_place[1])
        if left_place[0] == "outer" and right_place[0] == "inner":
            return (left_place[1], right_place[1])
        return None

    def _apply_exists(
        self,
        plan: LogicalPlan,
        scope: _Scope,
        statement: SelectStatement,
        negated: bool,
    ) -> LogicalPlan:
        """Rewrite ``[NOT] EXISTS (subquery)`` into a semi / anti join."""
        if statement.group_by or statement.having is not None:
            raise SqlPlanError("EXISTS subqueries cannot use GROUP BY or HAVING")
        inner_plan, inner_scope, correlated = self._plan_relational(statement, scope)
        pairs, residual = self._correlation_pairs(correlated, scope, inner_scope)
        if not pairs and not residual:
            # Uncorrelated EXISTS: count the subquery's rows once and gate the
            # whole outer plan on it.  LEFT join through the constant key so
            # an empty inner relation still yields count 0 for NOT EXISTS.
            outer_names = list(plan.schema.names)
            count_name = self._fresh("__exists")
            counted = Aggregate(
                inner_plan, [], [AggregateSpec(count_name, AggregateFunction.COUNT, None)]
            )
            joined = _cross_join(plan, counted, join_type=JoinType.LEFT)
            condition = (
                col(count_name) == lit(0) if negated else col(count_name) > lit(0)
            )
            filtered = Filter(joined, condition)
            return Project(filtered, [(name, col(name)) for name in outer_names])
        return self._semi_join(plan, scope, inner_plan, inner_scope, pairs, residual, negated)

    def _semi_join(
        self,
        plan: LogicalPlan,
        scope: _Scope,
        inner_plan: LogicalPlan,
        inner_scope: _Scope,
        pairs: List[Tuple[str, str]],
        residual: List[SqlExpr],
        negated: bool,
    ) -> LogicalPlan:
        """Semi/anti join ``plan`` against ``inner_plan`` on correlation pairs.

        Residual (non-equality) correlated predicates use a distinct-witness
        rewrite: project the outer columns the residual needs, deduplicate
        them, join against the inner relation, filter the residual, and semi /
        anti join the outer plan on the surviving witnesses.
        """
        join_type = JoinType.ANTI if negated else JoinType.SEMI
        outer_keys: List[str] = []
        inner_keys: List[str] = []
        seen: Set[Tuple[str, str]] = set()
        for outer_key, inner_key in pairs:
            if (outer_key, inner_key) in seen:
                continue
            seen.add((outer_key, inner_key))
            outer_keys.append(outer_key)
            inner_keys.append(inner_key)
        if not residual:
            return Join(plan, inner_plan, outer_keys, inner_keys, join_type)

        witness_cols = list(outer_keys)
        for conjunct in residual:
            for node in ast.walk_expression(conjunct):
                if not isinstance(node, ColumnRef):
                    continue
                located = inner_scope.locate(node)
                if located is None:
                    raise SqlPlanError(f"unknown column {node.name!r}")
                located_scope, _binding, physical = located
                if located_scope is inner_scope:
                    continue
                if located_scope is not scope:
                    raise SqlPlanError(
                        "subquery predicates may only reference the immediate "
                        "outer query"
                    )
                if physical not in witness_cols:
                    witness_cols.append(physical)

        witness: LogicalPlan = Project(plan, [(c, col(c)) for c in witness_cols])
        helper = self._fresh("__witness")
        witness = Aggregate(
            witness, list(witness_cols), [AggregateSpec(helper, AggregateFunction.COUNT, None)]
        )
        witness = Project(witness, [(c, col(c)) for c in witness_cols])
        if outer_keys:
            joined: LogicalPlan = Join(
                witness, inner_plan, outer_keys, inner_keys, JoinType.INNER
            )
        else:
            joined = _cross_join(witness, inner_plan)
        inner_names = dict(
            zip(
                inner_plan.schema.names,
                join_output_names(witness_cols, inner_plan.schema.names),
            )
        )

        def residual_resolver(ref: ColumnRef) -> str:
            located = inner_scope.locate(ref)
            if located is None:
                raise SqlPlanError(f"unknown column {ref.name!r}")
            located_scope, _binding, physical = located
            if located_scope is inner_scope:
                return inner_names[physical]
            return physical

        for conjunct in residual:
            joined = Filter(joined, self._translate(conjunct, resolver=residual_resolver))
        matched = Project(joined, [(c, col(c)) for c in witness_cols])
        return Join(plan, matched, witness_cols, witness_cols, join_type)

    def _apply_in_subquery(
        self,
        plan: LogicalPlan,
        scope: _Scope,
        operand: SqlExpr,
        statement: SelectStatement,
        negated: bool,
    ) -> LogicalPlan:
        """Rewrite ``expr [NOT] IN (SELECT ...)`` into a semi / anti join.

        NOT IN maps directly to an anti join because the engine's data model
        has no NULLs (SQL's three-valued NOT IN trap cannot arise).
        """
        if statement.limit is not None:
            raise SqlPlanError("IN subqueries cannot use LIMIT")
        join_type = JoinType.ANTI if negated else JoinType.SEMI

        helper: Optional[str] = None
        if isinstance(operand, ColumnRef):
            outer_key = scope.resolve(operand)
        else:
            helper = self._fresh("__in_key")
            plan = Project(
                plan,
                [(name, col(name)) for name in plan.schema.names]
                + [(helper, self._translate(operand, resolver=scope.resolve))],
            )
            outer_key = helper

        if statement.is_aggregate():
            # e.g. ``o_orderkey IN (SELECT l_orderkey ... GROUP BY ... HAVING ...)``
            value_plan = self.plan(statement)
            names = value_plan.schema.names
            if len(names) != 1:
                raise SqlPlanError("IN subqueries must produce exactly one column")
            result: LogicalPlan = Join(plan, value_plan, [outer_key], [names[0]], join_type)
        else:
            items = [item for item in statement.select_items]
            if len(items) != 1 or not isinstance(items[0], SelectItem):
                raise SqlPlanError("IN subqueries must select exactly one column")
            item = items[0]
            inner_plan, inner_scope, correlated = self._plan_relational(statement, scope)
            pairs, residual = self._correlation_pairs(correlated, scope, inner_scope)
            if pairs or residual:
                if not isinstance(item.expression, ColumnRef):
                    raise SqlPlanError(
                        "correlated IN subqueries must select a plain column"
                    )
                located = inner_scope.locate(item.expression)
                if located is None or located[0] is not inner_scope:
                    raise SqlPlanError(
                        "correlated IN subqueries must select a column of the subquery"
                    )
                pairs = [(outer_key, located[2])] + pairs
                result = self._semi_join(
                    plan, scope, inner_plan, inner_scope, pairs, residual, negated
                )
            else:
                value_name = self._fresh("__in_value")
                value_plan = Project(
                    inner_plan,
                    [(value_name, self._translate(item.expression, resolver=inner_scope.resolve))],
                )
                result = Join(plan, value_plan, [outer_key], [value_name], join_type)

        if helper is not None:
            keep = [name for name in result.schema.names if name != helper]
            result = Project(result, [(name, col(name)) for name in keep])
        return result

    def _apply_scalar_conjunct(
        self, plan: LogicalPlan, scope: _Scope, conjunct: SqlExpr
    ) -> LogicalPlan:
        """Join each scalar subquery's value onto the plan, then filter."""
        scalar_map: Dict[int, str] = {}
        for node in ast.walk_expression(conjunct):
            if isinstance(node, ScalarSubquery):
                plan, name = self._join_scalar_subquery(plan, scope, node.subquery)
                scalar_map[id(node)] = name
        predicate = self._translate(conjunct, resolver=scope.resolve, scalar_map=scalar_map)
        return Filter(plan, predicate)

    def _join_scalar_subquery(
        self,
        plan: LogicalPlan,
        scope: _Scope,
        statement: SelectStatement,
        name: Optional[str] = None,
    ) -> Tuple[LogicalPlan, str]:
        """Attach a scalar subquery's value to ``plan`` as one extra column.

        Correlated subqueries aggregate grouped on the correlation keys and
        join back on them (magic-set style); uncorrelated ones aggregate to a
        single row joined through a constant key.  Returns the augmented plan
        and the column holding the scalar.
        """
        if (
            statement.group_by
            or statement.having is not None
            or statement.order_by
            or statement.limit is not None
            or statement.distinct
        ):
            raise SqlPlanError(
                "scalar subqueries must be a single ungrouped aggregate query"
            )
        items = [item for item in statement.select_items]
        if len(items) != 1 or not isinstance(items[0], SelectItem):
            raise SqlPlanError("scalar subqueries must select exactly one value")
        if not statement.is_aggregate():
            raise SqlPlanError(
                "scalar subqueries must aggregate (a single row cannot be "
                "guaranteed otherwise)"
            )
        inner_plan, inner_scope, correlated = self._plan_relational(statement, scope)
        pairs, residual = self._correlation_pairs(correlated, scope, inner_scope)
        if residual:
            raise SqlPlanError(
                "correlated scalar subqueries only decorrelate through "
                "equality predicates"
            )
        specs: List[AggregateSpec] = []

        def aggregate_hook(call: FunctionExpr) -> Expr:
            spec_name = self._fresh("__agg_sub")
            specs.append(self._aggregate_spec(spec_name, call, inner_scope.resolve))
            return col(spec_name)

        value = self._translate(
            items[0].expression, aggregate_hook=aggregate_hook, resolver=inner_scope.resolve
        )
        scalar_name = name or self._fresh("__scalar")
        if pairs:
            outer_keys: List[str] = []
            inner_keys: List[str] = []
            seen: Set[Tuple[str, str]] = set()
            for outer_key, inner_key in pairs:
                if (outer_key, inner_key) in seen:
                    continue
                seen.add((outer_key, inner_key))
                outer_keys.append(outer_key)
                inner_keys.append(inner_key)
            grouped = Aggregate(inner_plan, inner_keys, specs)
            valued = Project(
                grouped,
                [(key, col(key)) for key in inner_keys] + [(scalar_name, value)],
            )
            return Join(plan, valued, outer_keys, inner_keys, JoinType.INNER), scalar_name
        aggregated = Aggregate(inner_plan, [], specs)
        valued = Project(aggregated, [(scalar_name, value)])
        return _cross_join(plan, valued), scalar_name

    # -- SELECT list / aggregation ----------------------------------------------------------

    def _plan_projection_and_aggregation(
        self, plan: LogicalPlan, statement: SelectStatement, scope: _Scope
    ) -> LogicalPlan:
        items = self._expand_select_items(statement, scope)
        if not statement.is_aggregate():
            if statement.having is not None:
                raise SqlPlanError("HAVING requires GROUP BY or aggregate functions")
            projections = [
                (name, self._translate(expression, resolver=scope.resolve))
                for name, expression in items
            ]
            return Project(plan, projections)
        return self._plan_aggregate(plan, statement, items, scope)

    def _expand_select_items(
        self, statement: SelectStatement, scope: _Scope
    ) -> List[Tuple[str, SqlExpr]]:
        items: List[Tuple[str, SqlExpr]] = []
        for index, item in enumerate(statement.select_items):
            if isinstance(item, AllColumns):
                if item.qualifier is not None:
                    binding = scope.find_binding(item.qualifier)
                    if binding is None:
                        raise SqlPlanError(f"unknown table alias {item.qualifier!r}")
                    star_bindings = [binding]
                else:
                    star_bindings = scope.bindings
                for binding in star_bindings:
                    for column in binding.column_order:
                        items.append(
                            (
                                binding.physical[column],
                                ColumnRef(column, qualifier=binding.binding),
                            )
                        )
                continue
            name = item.alias or _default_output_name(item.expression, index)
            items.append((name, item.expression))
        if not items:
            raise SqlPlanError("the SELECT list is empty")
        return items

    def _plan_aggregate(
        self,
        plan: LogicalPlan,
        statement: SelectStatement,
        items: List[Tuple[str, SqlExpr]],
        scope: _Scope,
    ) -> LogicalPlan:
        plan, group_names, computed_groups = self._prepare_group_keys(
            plan, statement, items, scope
        )
        specs: List[AggregateSpec] = []
        post_projections: List[Tuple[str, Expr]] = []

        def plan_aggregate_call(call: FunctionExpr) -> Expr:
            spec_name = self._fresh("__agg")
            specs.append(self._aggregate_spec(spec_name, call, scope.resolve))
            return col(spec_name)

        for name, expression in items:
            if name in computed_groups:
                # The item is a computed GROUP BY key (e.g. EXTRACT(YEAR ...));
                # it was materialised below the aggregation, so just pass it through.
                post_projections.append((name, col(name)))
                continue
            post_projections.append(
                (
                    name,
                    self._translate(
                        expression, aggregate_hook=plan_aggregate_call, resolver=scope.resolve
                    ),
                )
            )

        # HAVING: split conjuncts, pre-assigning a column for each scalar
        # subquery so aggregate specs accumulate before the Aggregate node is
        # built; the subqueries themselves join on after aggregation.
        having_plain: List[Expr] = []
        having_scalar: List[Expr] = []
        pending_scalars: List[Tuple[str, SelectStatement]] = []
        if statement.having is not None:
            for conjunct in _split_conjuncts(statement.having):
                scalar_map: Dict[int, str] = {}
                for node in ast.walk_expression(conjunct):
                    if isinstance(node, (ExistsPredicate, InSubquery)):
                        raise SqlPlanError(
                            "EXISTS / IN subqueries are not supported in HAVING"
                        )
                    if isinstance(node, ScalarSubquery):
                        scalar_name = self._fresh("__scalar")
                        pending_scalars.append((scalar_name, node.subquery))
                        scalar_map[id(node)] = scalar_name
                translated = self._translate(
                    conjunct,
                    aggregate_hook=plan_aggregate_call,
                    resolver=scope.resolve,
                    scalar_map=scalar_map,
                )
                if scalar_map:
                    having_scalar.append(translated)
                else:
                    having_plain.append(translated)

        aggregated: LogicalPlan = Aggregate(plan, group_names, specs)
        available = set(aggregated.schema.names)
        for name, expression in post_projections:
            missing = expression_columns(expression) - available
            if missing:
                raise SqlPlanError(
                    f"SELECT item {name!r} references {sorted(missing)} which are neither "
                    "grouped nor aggregated"
                )
        for predicate in having_plain:
            aggregated = Filter(aggregated, predicate)
        for scalar_name, subquery in pending_scalars:
            aggregated, _ = self._join_scalar_subquery(
                aggregated, scope, subquery, name=scalar_name
            )
        for predicate in having_scalar:
            aggregated = Filter(aggregated, predicate)
        return Project(aggregated, post_projections)

    def _prepare_group_keys(
        self,
        plan: LogicalPlan,
        statement: SelectStatement,
        items: List[Tuple[str, SqlExpr]],
        scope: _Scope,
    ) -> Tuple[LogicalPlan, List[str], Set[str]]:
        """Resolve GROUP BY keys, materialising keys that refer to SELECT aliases.

        ``GROUP BY o_year`` where the SELECT list defines
        ``EXTRACT(YEAR FROM o_orderdate) AS o_year`` is planned by projecting
        the computed column below the aggregation.  Returns the (possibly
        wrapped) plan, the group key names and the set of computed key names.
        """
        alias_expressions = {name: expression for name, expression in items}
        group_names: List[str] = []
        computed: List[Tuple[str, SqlExpr]] = []
        for expression in statement.group_by:
            if not isinstance(expression, ColumnRef):
                raise SqlPlanError(
                    "GROUP BY supports plain columns or SELECT aliases, not expressions"
                )
            located = scope.locate(expression)
            if located is not None:
                if located[0] is not scope:
                    raise SqlPlanError(
                        "GROUP BY cannot reference outer-query columns"
                    )
                group_names.append(located[2])
                continue
            name = expression.name
            if name in alias_expressions and isinstance(alias_expressions[name], ColumnRef):
                # ``GROUP BY nation`` where the SELECT list says ``n_name AS nation``:
                # group on the underlying column; the post-projection renames it.
                underlying = alias_expressions[name]
                under_located = scope.locate(underlying)
                group_names.append(
                    under_located[2] if under_located is not None else underlying.name
                )
            elif name in alias_expressions:
                group_names.append(name)
                computed.append((name, alias_expressions[name]))
            else:
                raise SqlPlanError(f"GROUP BY references unknown column {name!r}")
        if computed:
            projections = [(column, col(column)) for column in plan.schema.names]
            projections.extend(
                (name, self._translate(expression, resolver=scope.resolve))
                for name, expression in computed
            )
            plan = Project(plan, projections)
        return plan, group_names, {name for name, _expression in computed}

    def _aggregate_spec(
        self, name: str, call: FunctionExpr, resolver: Optional[Callable] = None
    ) -> AggregateSpec:
        function_name = call.name
        if function_name == "count":
            if call.star or not call.args:
                return AggregateSpec(name, AggregateFunction.COUNT, None)
            if call.distinct:
                return AggregateSpec(
                    name,
                    AggregateFunction.COUNT_DISTINCT,
                    self._translate(call.args[0], resolver=resolver),
                )
            return AggregateSpec(name, AggregateFunction.COUNT, None)
        if call.distinct:
            raise SqlPlanError("DISTINCT is only supported inside COUNT")
        try:
            function = {
                "sum": AggregateFunction.SUM,
                "avg": AggregateFunction.AVG,
                "min": AggregateFunction.MIN,
                "max": AggregateFunction.MAX,
            }[function_name]
        except KeyError:
            raise SqlPlanError(f"unknown aggregate function {function_name!r}") from None
        if len(call.args) != 1:
            raise SqlPlanError(f"{function_name} expects exactly one argument")
        return AggregateSpec(name, function, self._translate(call.args[0], resolver=resolver))

    # -- ORDER BY / LIMIT -----------------------------------------------------------------

    def _plan_order_and_limit(self, plan: LogicalPlan, statement: SelectStatement) -> LogicalPlan:
        if statement.order_by:
            keys: List[str] = []
            descending: List[bool] = []
            for item in statement.order_by:
                keys.append(self._order_key_name(item.expression, statement))
                descending.append(item.descending)
            plan = Sort(plan, keys, descending)
        if statement.limit is not None:
            plan = Limit(plan, statement.limit)
        return plan

    def _order_key_name(self, expression: SqlExpr, statement: SelectStatement) -> str:
        if isinstance(expression, ColumnRef):
            return expression.name
        if isinstance(expression, LiteralValue) and isinstance(expression.value, int):
            index = expression.value - 1
            items = [item for item in statement.select_items if isinstance(item, SelectItem)]
            if 0 <= index < len(items) and items[index].alias:
                return items[index].alias
            raise SqlPlanError("ORDER BY ordinals must point at an aliased SELECT item")
        raise SqlPlanError("ORDER BY only supports column references or SELECT ordinals")

    # -- expression translation ----------------------------------------------------------------

    def _translate(
        self,
        expression: SqlExpr,
        aggregate_hook: Optional[Callable] = None,
        resolver: Optional[Callable] = None,
        scalar_map: Optional[Dict[int, str]] = None,
    ) -> Expr:
        """Translate a SQL expression into the engine's expression AST.

        ``aggregate_hook`` is called for aggregate function calls (planning
        them into AggregateSpecs and returning the column that will hold the
        result); when it is ``None`` aggregates are rejected.  ``resolver``
        maps column references to physical column names (scope resolution);
        without one, names pass through verbatim.  ``scalar_map`` maps
        ``id(ScalarSubquery-node)`` to the column already holding its value.
        """
        recurse = lambda child: self._translate(  # noqa: E731
            child, aggregate_hook=aggregate_hook, resolver=resolver, scalar_map=scalar_map
        )
        if isinstance(expression, ColumnRef):
            if resolver is not None:
                return col(resolver(expression))
            return col(expression.name)
        if isinstance(expression, ScalarSubquery):
            if scalar_map is not None and id(expression) in scalar_map:
                return col(scalar_map[id(expression)])
            raise SqlPlanError(
                "scalar subqueries are only supported as WHERE or HAVING conjuncts"
            )
        if isinstance(expression, (InSubquery, ExistsPredicate)):
            raise SqlPlanError(
                "EXISTS / IN subqueries must be top-level WHERE conjuncts"
            )
        if isinstance(expression, LiteralValue):
            if expression.is_date:
                return lit(date_literal(str(expression.value)))
            return lit(expression.value)
        if isinstance(expression, BinaryExpr):
            return self._translate_binary(expression, recurse)
        if isinstance(expression, UnaryExpr):
            operand = recurse(expression.operand)
            if expression.op == "not":
                return ~operand
            return -operand
        if isinstance(expression, BetweenPredicate):
            result = recurse(expression.operand).between(
                recurse(expression.low), recurse(expression.high)
            )
            return ~result if expression.negated else result
        if isinstance(expression, InPredicate):
            values = [self._literal_value(value) for value in expression.values]
            result = recurse(expression.operand).is_in(values)
            return ~result if expression.negated else result
        if isinstance(expression, LikePredicate):
            return self._translate_like(expression, recurse)
        if isinstance(expression, CaseExpr):
            branches = [
                (recurse(condition), recurse(value))
                for condition, value in expression.branches
            ]
            default = (
                recurse(expression.default)
                if expression.default is not None
                else lit(0.0)
            )
            return CaseWhen(branches, default)
        if isinstance(expression, CastExpr):
            # The engine's kernels are dynamically typed; CAST is a no-op marker.
            return recurse(expression.operand)
        if isinstance(expression, ExtractExpr):
            if expression.field_name != "year":
                raise SqlPlanError("only EXTRACT(YEAR FROM ...) is supported")
            return year(recurse(expression.operand))
        if isinstance(expression, FunctionExpr):
            return self._translate_function(expression, aggregate_hook, recurse)
        raise SqlPlanError(f"cannot translate SQL expression {expression!r}")

    def _translate_binary(self, expression: BinaryExpr, recurse: Callable) -> Expr:
        folded = self._fold_date_arithmetic(expression)
        if folded is not None:
            return folded
        left = recurse(expression.left)
        right = recurse(expression.right)
        operators = {
            "+": lambda: left + right,
            "-": lambda: left - right,
            "*": lambda: left * right,
            "/": lambda: left / right,
            "==": lambda: left == right,
            "!=": lambda: left != right,
            "<": lambda: left < right,
            "<=": lambda: left <= right,
            ">": lambda: left > right,
            ">=": lambda: left >= right,
            "and": lambda: left & right,
            "or": lambda: left | right,
        }
        try:
            return operators[expression.op]()
        except KeyError:
            raise SqlPlanError(f"unknown operator {expression.op!r}") from None

    def _fold_date_arithmetic(self, expression: BinaryExpr) -> Optional[Expr]:
        """Fold ``DATE '...' +/- INTERVAL 'n' unit`` into a date literal."""
        if expression.op not in ("+", "-"):
            return None
        interval = None
        other = None
        if _is_interval(expression.right):
            interval, other = expression.right, expression.left
        elif _is_interval(expression.left) and expression.op == "+":
            interval, other = expression.left, expression.right
        if interval is None:
            return None
        if not (isinstance(other, LiteralValue) and other.is_date):
            return None
        amount = int(interval.args[0].value)  # type: ignore[union-attr]
        unit = str(interval.args[1].value)  # type: ignore[union-attr]
        if expression.op == "-":
            amount = -amount
        base = date_literal(str(other.value))
        shifted = {
            "day": add_days,
            "month": add_months,
            "year": add_years,
        }[unit](base, amount)
        return lit(shifted)

    def _translate_like(self, expression: LikePredicate, recurse: Callable) -> Expr:
        operand = recurse(expression.operand)
        pattern = expression.pattern
        interior = pattern.strip("%")
        if "%" in interior or "_" in pattern:
            # Interior wildcards (e.g. '%special%requests%') need the full
            # LIKE matcher; edge-anchored patterns use the cheaper kernels.
            result = like(operand, pattern)
        elif pattern.startswith("%") and pattern.endswith("%"):
            result = contains(operand, interior)
        elif pattern.endswith("%"):
            result = starts_with(operand, interior)
        elif pattern.startswith("%"):
            result = ends_with(operand, interior)
        else:
            result = operand == lit(pattern)
        return ~result if expression.negated else result

    def _translate_function(
        self, expression: FunctionExpr, aggregate_hook: Optional[Callable], recurse: Callable
    ) -> Expr:
        name = expression.name
        if name in AGGREGATE_FUNCTIONS:
            if aggregate_hook is None:
                raise SqlPlanError(
                    f"aggregate function {name!r} is not allowed in this clause"
                )
            return aggregate_hook(expression)
        if name == "substring":
            operand = recurse(expression.args[0])
            start = self._literal_value(expression.args[1])
            length = self._literal_value(expression.args[2])
            return substr(operand, int(start), int(length))
        if name == "interval":
            raise SqlPlanError(
                "INTERVAL literals are only supported in DATE +/- INTERVAL arithmetic"
            )
        raise SqlPlanError(f"unknown function {name!r}")

    def _literal_value(self, expression: SqlExpr):
        if isinstance(expression, LiteralValue):
            if expression.is_date:
                return date_literal(str(expression.value))
            return expression.value
        if isinstance(expression, UnaryExpr) and expression.op == "-":
            value = self._literal_value(expression.operand)
            return -value
        raise SqlPlanError(f"expected a literal, got {expression!r}")


# -- helpers ------------------------------------------------------------------------------


def _split_conjuncts(expression: SqlExpr) -> List[SqlExpr]:
    """Flatten a tree of AND nodes into its conjuncts."""
    if isinstance(expression, BinaryExpr) and expression.op == "and":
        return _split_conjuncts(expression.left) + _split_conjuncts(expression.right)
    return [expression]


def _as_exists(conjunct: SqlExpr) -> Tuple[Optional[ExistsPredicate], bool]:
    """Recognise ``EXISTS (...)`` and ``NOT EXISTS (...)`` conjuncts.

    Returns the EXISTS node and whether it is negated (folding an enclosing
    NOT and the predicate's own ``negated`` flag together).
    """
    negated = False
    node = conjunct
    while isinstance(node, UnaryExpr) and node.op == "not":
        negated = not negated
        node = node.operand
    if isinstance(node, ExistsPredicate):
        return node, negated ^ node.negated
    return None, False


def _as_in_subquery(conjunct: SqlExpr) -> Optional[Tuple[SqlExpr, SelectStatement, bool]]:
    """Recognise ``expr [NOT] IN (SELECT ...)`` conjuncts (folding NOTs)."""
    negated = False
    node = conjunct
    while isinstance(node, UnaryExpr) and node.op == "not":
        negated = not negated
        node = node.operand
    if isinstance(node, InSubquery):
        return (node.operand, node.subquery, negated ^ node.negated)
    return None


def _is_interval(expression: SqlExpr) -> bool:
    return isinstance(expression, FunctionExpr) and expression.name == "interval"


def _cross_join(
    left: LogicalPlan, right: LogicalPlan, join_type: JoinType = JoinType.INNER
) -> LogicalPlan:
    """Cross join through a constant key (the engine only has hash joins).

    ``join_type=JoinType.LEFT`` keeps every left row even when the right side
    is empty (its columns are filled with the engine's zero values), which the
    uncorrelated-EXISTS rewrite relies on.
    """
    left_keyed = Project(
        left, [(name, col(name)) for name in left.schema.names] + [("__cross_key", lit(1))]
    )
    right_keyed = Project(
        right, [(name, col(name)) for name in right.schema.names] + [("__cross_key", lit(1))]
    )
    joined = Join(left_keyed, right_keyed, ["__cross_key"], ["__cross_key"], join_type)
    keep = [name for name in joined.schema.names if not name.startswith("__cross_key")]
    return Project(joined, [(name, col(name)) for name in keep])


def _default_output_name(expression: SqlExpr, index: int) -> str:
    if isinstance(expression, ColumnRef):
        return expression.name
    if isinstance(expression, FunctionExpr):
        return f"{expression.name}_{index}"
    return f"col_{index}"
