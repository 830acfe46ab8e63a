"""Join-order enumeration (System-R style, left-deep).

Chains of INNER joins are flattened into a set of *relations* (the
non-flattenable subtrees: scans, filtered scans, aggregates, semi/anti/left
joins, ...) plus the equality *pairs* the original joins expressed.  The
enumerator then searches for the cheapest left-deep order under the
``C_out`` metric (sum of intermediate cardinalities):

* up to :data:`MAX_DP_RELATIONS` relations: exact dynamic programming over
  connected subsets (Selinger DP restricted to left-deep trees);
* beyond that: a greedy heuristic (repeatedly join the connected relation
  that minimises the next intermediate result).

A reorder is only applied when its estimated cost beats the original order's,
and only when it is provably safe: every join in the chain must be INNER and
no two relations may share a column name (so the suffix-renaming of colliding
columns can never fire and change the output schema).  The rewritten tree is
wrapped in a projection restoring the original column order, so downstream
nodes and the user-visible schema are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.expr.nodes import col
from repro.kernels.join import JoinType
from repro.plan.nodes import Join, LogicalPlan, Project

#: Exact DP is used up to this many relations; larger chains fall back to the
#: greedy heuristic (DP over left-deep orders is exponential in relations).
MAX_DP_RELATIONS = 8

#: Relative improvement a reorder must show before it replaces the original
#: order (guards against churn on cost ties / estimate noise).
MIN_IMPROVEMENT = 0.999


@dataclass
class _JoinChain:
    """A flattened maximal chain of INNER joins."""

    relations: List[LogicalPlan] = field(default_factory=list)
    #: Equality pairs ``(rel_a, col_a, rel_b, col_b)`` between two relations.
    pairs: List[Tuple[int, str, int, str]] = field(default_factory=list)
    #: Column name -> index of the owning relation (valid only when the
    #: chain's relation schemas are pairwise disjoint).
    owner: Dict[str, int] = field(default_factory=dict)
    collision: bool = False

    def add_relation(self, relation: LogicalPlan) -> None:
        index = len(self.relations)
        self.relations.append(relation)
        for name in relation.schema.names:
            if name in self.owner:
                self.collision = True
            self.owner[name] = index


def _flatten(plan: LogicalPlan, chain: _JoinChain) -> None:
    """Collect the relations and key pairs of a maximal INNER-join subtree."""
    if isinstance(plan, Join) and plan.join_type is JoinType.INNER:
        _flatten(plan.left, chain)
        _flatten(plan.right, chain)
        for left_key, right_key in zip(plan.left_keys, plan.right_keys):
            left_owner = chain.owner.get(left_key)
            right_owner = chain.owner.get(right_key)
            if left_owner is None or right_owner is None or left_owner == right_owner:
                chain.collision = True
                return
            chain.pairs.append((left_owner, left_key, right_owner, right_key))
        return
    chain.add_relation(plan)


def _join_onto(
    prefix: LogicalPlan,
    prefix_members: FrozenSet[int],
    relation_index: int,
    chain: _JoinChain,
    used_pairs: FrozenSet[int],
) -> Optional[Tuple[Join, FrozenSet[int]]]:
    """Join ``relation_index`` onto ``prefix`` using every connecting pair."""
    left_keys: List[str] = []
    right_keys: List[str] = []
    used = set()
    for pair_index, (rel_a, col_a, rel_b, col_b) in enumerate(chain.pairs):
        if pair_index in used_pairs:
            continue
        if rel_a in prefix_members and rel_b == relation_index:
            left_keys.append(col_a)
            right_keys.append(col_b)
        elif rel_b in prefix_members and rel_a == relation_index:
            left_keys.append(col_b)
            right_keys.append(col_a)
        else:
            continue
        used.add(pair_index)
    if not left_keys:
        return None
    join = Join(prefix, chain.relations[relation_index], left_keys, right_keys)
    return join, used_pairs | frozenset(used)


def _enumerate_dp(chain: _JoinChain, cost_model) -> Optional[LogicalPlan]:
    """Cheapest left-deep order by DP over connected subsets (Selinger)."""
    n = len(chain.relations)
    best: Dict[FrozenSet[int], Tuple[float, LogicalPlan, FrozenSet[int]]] = {
        frozenset([i]): (0.0, chain.relations[i], frozenset()) for i in range(n)
    }
    for _size in range(1, n):
        grown: Dict[FrozenSet[int], Tuple[float, LogicalPlan, FrozenSet[int]]] = {}
        for members, (cost, plan, used_pairs) in best.items():
            for j in range(n):
                if j in members:
                    continue
                joined = _join_onto(plan, members, j, chain, used_pairs)
                if joined is None:
                    continue
                join, used = joined
                new_cost = cost + cost_model.rows(join)
                key = members | {j}
                current = grown.get(key)
                if current is None or new_cost < current[0]:
                    grown[key] = (new_cost, join, used)
        if not grown:
            return None  # disconnected chain: keep the original order
        best = grown
    full = best.get(frozenset(range(n)))
    return full[1] if full is not None else None


def _enumerate_greedy(chain: _JoinChain, cost_model) -> Optional[LogicalPlan]:
    """Greedy left-deep order: always join the cheapest connected relation."""
    n = len(chain.relations)
    # Deterministic start: the smallest relation by estimated rows (ties by
    # index), matching the intuition of building outward from the most
    # selective input.
    start = min(range(n), key=lambda i: (cost_model.rows(chain.relations[i]), i))
    members = frozenset([start])
    plan: LogicalPlan = chain.relations[start]
    used_pairs: FrozenSet[int] = frozenset()
    while len(members) < n:
        candidates = []
        for j in range(n):
            if j in members:
                continue
            joined = _join_onto(plan, members, j, chain, used_pairs)
            if joined is None:
                continue
            join, used = joined
            candidates.append((cost_model.rows(join), j, join, used))
        if not candidates:
            return None  # disconnected from the chosen start
        _rows, j, join, used = min(candidates, key=lambda item: (item[0], item[1]))
        plan = join
        members = members | {j}
        used_pairs = used
    return plan


def _chain_cost(plan: LogicalPlan, cost_model) -> float:
    """``C_out`` restricted to the INNER-join nodes of a flattened chain."""
    if isinstance(plan, Join) and plan.join_type is JoinType.INNER:
        return (
            cost_model.rows(plan)
            + _chain_cost(plan.left, cost_model)
            + _chain_cost(plan.right, cost_model)
        )
    return 0.0


def reorder_joins(
    plan: LogicalPlan,
    cost_model,
    max_dp_relations: int = MAX_DP_RELATIONS,
) -> LogicalPlan:
    """Rewrite every reorderable INNER-join chain of ``plan`` into the
    cheapest left-deep order the enumerator finds (cost-gated)."""
    if isinstance(plan, Join) and plan.join_type is JoinType.INNER:
        chain = _JoinChain()
        _flatten(plan, chain)
        # Recurse into the relation subtrees first, then decide whether the
        # chain around them is worth reordering.
        rewritten = [
            reorder_joins(relation, cost_model, max_dp_relations)
            for relation in chain.relations
        ]
        original = _substitute(plan, chain.relations, rewritten)
        if chain.collision or len(chain.relations) < 3:
            return original
        chain.relations = rewritten
        if len(chain.relations) <= max_dp_relations:
            candidate = _enumerate_dp(chain, cost_model)
        else:
            candidate = _enumerate_greedy(chain, cost_model)
        if candidate is None:
            return original
        if _chain_cost(candidate, cost_model) >= _chain_cost(original, cost_model) * MIN_IMPROVEMENT:
            return original
        if candidate.schema.names == original.schema.names:
            return candidate
        # Restore the original output column order so downstream nodes and
        # the user-visible schema are unchanged by the reorder.
        return Project(candidate, [(name, col(name)) for name in original.schema.names])
    return plan.map_children(lambda child: reorder_joins(child, cost_model, max_dp_relations))


def _substitute(
    plan: LogicalPlan, originals: List[LogicalPlan], replacements: List[LogicalPlan]
) -> LogicalPlan:
    """Rebuild a flattened chain with its relation subtrees replaced."""
    mapping = {id(orig): new for orig, new in zip(originals, replacements)}
    if all(orig is new for orig, new in zip(originals, replacements)):
        return plan

    def rebuild(node: LogicalPlan) -> LogicalPlan:
        replacement = mapping.get(id(node))
        if replacement is not None:
            return replacement
        if isinstance(node, Join) and node.join_type is JoinType.INNER:
            return node.map_children(rebuild)
        return node

    return rebuild(plan)
