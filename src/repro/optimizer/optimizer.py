"""The plan optimizer: a small rule engine over logical plans.

Rules are applied top-down, each producing a rewritten plan tree — logical
plans are treated as immutable, and a rule that only recurses rebuilds a node
through :meth:`~repro.plan.nodes.LogicalPlan.map_children`, which hands back
the node itself when no child changed.  The optimizer runs the rule list to a
fixpoint (bounded by ``max_passes``) because one rewrite can expose another:
merging two filters can enable a pushdown, a pushdown can enable pruning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from repro.expr.eval import expression_columns
from repro.expr.nodes import Expr, col
from repro.kernels.join import JoinType
from repro.optimizer.cost import PlanCostModel
from repro.optimizer.expressions import (
    combine_conjuncts,
    fold_constants,
    is_pass_through_projection,
    rename_columns,
    split_conjunction,
)
from repro.optimizer.join_order import MAX_DP_RELATIONS, reorder_joins
from repro.optimizer.stats import CardinalityEstimator
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


@dataclass(frozen=True)
class OptimizerConfig:
    """Which rewrites to apply."""

    fold_constants: bool = True
    merge_filters: bool = True
    pushdown_predicates: bool = True
    prune_columns: bool = True
    choose_build_side: bool = True
    #: Enumerate join orders for INNER-join chains (cost-gated, see
    #: :mod:`repro.optimizer.join_order`).
    join_reorder: bool = True
    #: Exact DP up to this many relations per chain; greedy above.
    max_dp_relations: int = MAX_DP_RELATIONS
    max_passes: int = 5

    def validate(self) -> None:
        """Raise ``ValueError`` for nonsensical settings."""
        if self.max_passes < 1:
            raise ValueError("max_passes must be at least 1")
        if self.max_dp_relations < 2:
            raise ValueError("max_dp_relations must be at least 2")


class PlanOptimizer:
    """Applies the configured rewrite rules to a logical plan.

    Rules that trade one plan shape for another (join reordering, build-side
    selection) are gated on ``cost_model`` — a
    :class:`~repro.optimizer.cost.PlanCostModel` wrapping the estimator — so
    they only fire when the rewritten plan is estimated cheaper.
    """

    def __init__(
        self,
        config: Optional[OptimizerConfig] = None,
        estimator: Optional[CardinalityEstimator] = None,
    ):
        self.config = config or OptimizerConfig()
        self.config.validate()
        self.estimator = estimator or CardinalityEstimator()
        self.cost_model = PlanCostModel(self.estimator)

    def optimize(self, plan: LogicalPlan) -> LogicalPlan:
        """Return an equivalent, cheaper plan."""
        for _pass in range(self.config.max_passes):
            rewritten = plan
            if self.config.fold_constants:
                rewritten = _fold_plan_constants(rewritten)
            if self.config.merge_filters:
                rewritten = _merge_filters(rewritten)
            if self.config.pushdown_predicates:
                rewritten = _pushdown(rewritten)
            if self.config.join_reorder:
                rewritten = reorder_joins(
                    rewritten, self.cost_model, self.config.max_dp_relations
                )
            if self.config.choose_build_side:
                rewritten = _choose_build_sides(rewritten, self.estimator)
            if self.config.prune_columns:
                rewritten = _prune(rewritten, required=None)
            rewritten = _collapse_projects(rewritten)
            if rewritten.explain() == plan.explain():
                return rewritten
            plan = rewritten
        return plan


def optimize_plan(
    plan: LogicalPlan,
    config: Optional[OptimizerConfig] = None,
    estimator: Optional[CardinalityEstimator] = None,
) -> LogicalPlan:
    """One-call convenience wrapper around :class:`PlanOptimizer`."""
    return PlanOptimizer(config=config, estimator=estimator).optimize(plan)


# -- constant folding -----------------------------------------------------------------


def _fold_plan_constants(plan: LogicalPlan) -> LogicalPlan:
    """Fold the constants of every filter predicate and projection."""
    plan = plan.map_children(_fold_plan_constants)
    if isinstance(plan, Filter):
        predicate = fold_constants(plan.predicate)
        if predicate is not plan.predicate:
            return Filter(plan.child, predicate)
    elif isinstance(plan, Project):
        projections = [(name, fold_constants(expr)) for name, expr in plan.projections]
        if any(new is not old for (_, new), (_, old) in zip(projections, plan.projections)):
            return Project(plan.child, projections)
    return plan


# -- filter merging --------------------------------------------------------------------


def _merge_filters(plan: LogicalPlan) -> LogicalPlan:
    if isinstance(plan, Filter):
        child = _merge_filters(plan.child)
        conjuncts = split_conjunction(plan.predicate)
        while isinstance(child, Filter):
            conjuncts.extend(split_conjunction(child.predicate))
            child = child.child
        return Filter(child, combine_conjuncts(conjuncts))
    return plan.map_children(_merge_filters)


# -- predicate pushdown ------------------------------------------------------------------


def _pushdown(plan: LogicalPlan) -> LogicalPlan:
    if isinstance(plan, Filter):
        child = plan.child
        conjuncts = split_conjunction(plan.predicate)
        if isinstance(child, Project):
            return _pushdown_through_project(conjuncts, child)
        if isinstance(child, Join):
            return _pushdown_into_join(conjuncts, child)
        if isinstance(child, Filter):
            # _merge_filters runs first, but stay correct if it is disabled.
            merged = Filter(child.child, combine_conjuncts(
                conjuncts + split_conjunction(child.predicate)))
            return _pushdown(merged)
    return plan.map_children(_pushdown)


def _pushdown_through_project(conjuncts: List[Expr], project: Project) -> LogicalPlan:
    """Move conjuncts that only touch pass-through columns below the projection."""
    pass_through = is_pass_through_projection(project.projections)
    pushed: List[Expr] = []
    kept: List[Expr] = []
    for conjunct in conjuncts:
        columns = expression_columns(conjunct)
        if columns <= set(pass_through):
            pushed.append(rename_columns(conjunct, pass_through))
        else:
            kept.append(conjunct)
    child: LogicalPlan = project.child
    if pushed:
        child = Filter(child, combine_conjuncts(pushed))
    rebuilt = project.with_children([_pushdown(child)])
    if kept:
        rebuilt = Filter(rebuilt, combine_conjuncts(kept))
    return rebuilt


def _pushdown_into_join(conjuncts: List[Expr], join: Join) -> LogicalPlan:
    """Send single-side conjuncts below the join they apply to."""
    left_names = set(join.left.schema.names)
    right_mapping = join.right_output_names()

    left_pushed: List[Expr] = []
    right_pushed: List[Expr] = []
    kept: List[Expr] = []
    for conjunct in conjuncts:
        columns = expression_columns(conjunct)
        if columns <= left_names:
            left_pushed.append(conjunct)
        elif columns <= set(right_mapping) and join.join_type is JoinType.INNER:
            # Only inner joins allow filtering the build side below the join:
            # for left joins it would turn matches into non-matches, and for
            # anti joins it would change which probe rows survive.
            right_pushed.append(rename_columns(conjunct, right_mapping))
        else:
            kept.append(conjunct)

    left: LogicalPlan = join.left
    right: LogicalPlan = join.right
    if left_pushed:
        left = Filter(left, combine_conjuncts(left_pushed))
    if right_pushed:
        right = Filter(right, combine_conjuncts(right_pushed))
    rebuilt = join.with_children([_pushdown(left), _pushdown(right)])
    if kept:
        rebuilt = Filter(rebuilt, combine_conjuncts(kept))
    return rebuilt


# -- join build-side selection ----------------------------------------------------------------


def _choose_build_sides(plan: LogicalPlan, estimator: CardinalityEstimator) -> LogicalPlan:
    plan = plan.map_children(lambda child: _choose_build_sides(child, estimator))
    if isinstance(plan, Join) and _should_swap(plan, estimator):
        swapped = Join(
            plan.right, plan.left, plan.right_keys, plan.left_keys, plan.join_type, plan.suffix
        )
        # Restore the original output column order so downstream nodes and
        # the user-visible schema are unchanged by the swap.
        restore = [(name, col(name)) for name in plan.schema.names]
        return Project(swapped, restore)
    return plan


def _should_swap(join: Join, estimator: CardinalityEstimator) -> bool:
    if join.join_type is not JoinType.INNER:
        return False
    # A swap is only safe when no column names collide (otherwise the suffix
    # renaming would change which side gets renamed).
    if set(join.left.schema.names) & set(join.right.schema.names):
        return False
    left_rows = estimator.rows(join.left)
    right_rows = estimator.rows(join.right)
    # The right child is the build side; swap when the probe side is clearly
    # smaller than the current build side.
    return left_rows * 1.5 < right_rows


# -- column pruning ----------------------------------------------------------------------------


def _prune(plan: LogicalPlan, required: Optional[Set[str]]) -> LogicalPlan:
    """Drop columns nobody above needs, inserting narrow projections below joins.

    ``required`` is the set of columns the parent needs from this node's
    output; ``None`` means "everything" (the root must keep its full schema).
    """
    if isinstance(plan, TableScan):
        if required is None or set(plan.schema.names) <= required:
            return plan
        keep = [name for name in plan.schema.names if name in required]
        if not keep:
            keep = [plan.schema.names[0]]
        return Project(plan, [(name, col(name)) for name in keep])
    if isinstance(plan, Filter):
        child_required = None
        if required is not None:
            child_required = required | expression_columns(plan.predicate)
        return plan.with_children([_prune(plan.child, child_required)])
    if isinstance(plan, Project):
        needed = plan.projections
        if required is not None:
            needed = [(name, expr) for name, expr in plan.projections if name in required]
            if not needed:
                needed = plan.projections[:1]
        child_required: Set[str] = set()
        for _name, expr in needed:
            child_required |= expression_columns(expr)
        child = _prune(plan.child, child_required or None)
        if len(needed) == len(plan.projections):
            return plan.with_children([child])
        return Project(child, needed)
    if isinstance(plan, Join):
        return _prune_join(plan, required)
    if isinstance(plan, Aggregate):
        child_required = set(plan.group_keys)
        for spec in plan.aggregates:
            if spec.expression is not None:
                child_required |= expression_columns(spec.expression)
        return plan.with_children([_prune(plan.child, child_required or None)])
    if isinstance(plan, Sort):
        child_required = None
        if required is not None:
            child_required = required | set(plan.keys)
        return plan.with_children([_prune(plan.child, child_required)])
    if isinstance(plan, Limit):
        return plan.with_children([_prune(plan.child, required)])
    return plan


def _prune_join(join: Join, required: Optional[Set[str]]) -> LogicalPlan:
    right_mapping = join.right_output_names()
    left_required: Optional[Set[str]]
    right_required: Optional[Set[str]]
    if required is None:
        left_required = None
        right_required = None
    else:
        left_required = (required & set(join.left.schema.names)) | set(join.left_keys)
        right_required = {
            right_mapping[name] for name in required if name in right_mapping
        } | set(join.right_keys)
    pruned = join.with_children(
        [_prune(join.left, left_required), _prune(join.right, right_required)]
    )
    # Dropping a column can end a name collision, and so change the name the
    # join gives a build column: name those columns as the parent saw them.
    names = {source: name for name, source in right_mapping.items()}
    renamed = {name: names[source] for name, source in pruned.right_output_names().items()}
    if all(old == new for old, new in renamed.items()):
        return pruned
    restore = [(name, col(name)) for name in pruned.left.schema.names]
    restore += [(new, col(old)) for old, new in renamed.items()]
    return Project(pruned, restore)


# -- project collapsing ---------------------------------------------------------------------


def _collapse_projects(plan: LogicalPlan) -> LogicalPlan:
    """Merge stacked projections so repeated rewrite passes do not pile them up.

    Two adjacent Project nodes collapse when the inner one is pure column
    pass-through/renaming: the outer expressions are rewritten through the
    rename map and applied directly to the inner child.
    """
    plan = plan.map_children(_collapse_projects)
    while isinstance(plan, Project) and isinstance(plan.child, Project):
        inner = plan.child
        mapping = is_pass_through_projection(inner.projections)
        if len(mapping) != len(inner.projections):
            break  # the inner projection computes something; keep both
        projections = [
            (name, rename_columns(expr, mapping)) for name, expr in plan.projections
        ]
        plan = Project(inner.child, projections)
    return plan

