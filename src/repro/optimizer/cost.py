"""The planner's cost model and cost-annotated EXPLAIN rendering.

:class:`PlanCostModel` is the interface rewrite rules are gated on: it wraps a
:class:`~repro.optimizer.stats.CardinalityEstimator` and exposes estimated
rows, bytes and a ``C_out``-style plan cost (the sum of every node's estimated
output cardinality — the classic metric join enumeration minimises).  Rules
ask "does the rewritten plan cost less?" instead of firing unconditionally.

The module also owns the logical side of the broadcast-vs-shuffle decision
(:func:`broadcast_build_side`), shared by the physical compiler and the
annotated EXPLAIN output so ``explain()`` applies the very rule the compiler
applies (at the channel count and threshold the caller supplies — the
compiler evaluates it per join stage with that stage's sized probe channel
count).
"""

from __future__ import annotations

from typing import Optional

from repro.common.config import DEFAULT_BROADCAST_THRESHOLD_BYTES
from repro.optimizer.stats import CardinalityEstimator
from repro.plan.nodes import Aggregate, Join, LogicalPlan

__all__ = [
    "DEFAULT_BROADCAST_THRESHOLD_BYTES",
    "PlanCostModel",
    "broadcast_build_side",
    "broadcast_decision",
    "explain_with_estimates",
    "memory_strategy",
    "runtime_filter_decision",
]


class PlanCostModel:
    """Cost interface used to gate optimizer rules.

    ``cost`` is ``C_out``: the sum of estimated output rows over every node of
    the plan.  Two rewrites of the same subtree share the leaf terms, so
    comparing costs compares exactly the intermediate results they create.
    """

    def __init__(self, estimator: Optional[CardinalityEstimator] = None):
        self.estimator = estimator or CardinalityEstimator()

    def rows(self, plan: LogicalPlan) -> float:
        """Estimated output rows of ``plan``."""
        return self.estimator.rows(plan)

    def bytes(self, plan: LogicalPlan) -> float:
        """Estimated output bytes of ``plan``."""
        return self.estimator.bytes(plan)

    def cost(self, plan: LogicalPlan) -> float:
        """``C_out`` of the whole plan tree rooted at ``plan``."""
        return self.rows(plan) + sum(self.cost(child) for child in plan.children())


def broadcast_build_side(
    join: Join,
    estimator: CardinalityEstimator,
    threshold_bytes: float,
    probe_channels: int,
) -> bool:
    """True when ``join`` should replicate its build side to every channel.

    A broadcast is chosen when the estimated build side is below the
    configured threshold **and** replicating it to every probe channel moves
    fewer bytes than hash-partitioning both sides would (the probe side stays
    channel-aligned, i.e. local, under a broadcast).
    """
    return broadcast_decision(
        estimator.bytes(join.right),
        estimator.bytes(join.left),
        threshold_bytes,
        probe_channels,
    )


def broadcast_decision(
    build_bytes: float,
    probe_bytes: float,
    threshold_bytes: float,
    probe_channels: int,
) -> bool:
    """The pure byte-level broadcast gate behind :func:`broadcast_build_side`.

    Factored out so the adaptive controller can re-run the identical decision
    at runtime with *observed* instead of estimated build/probe bytes.
    """
    if threshold_bytes <= 0:
        return False
    if build_bytes > threshold_bytes:
        return False
    return build_bytes * max(probe_channels - 1, 0) < probe_bytes


def runtime_filter_decision(join_type) -> bool:
    """True when a join of ``join_type`` should publish runtime filters.

    Only **inner** and **semi** joins are eligible: for those, a probe row
    whose key has no build-side match contributes nothing to the output, so
    dropping it early is exact.  Left joins preserve unmatched probe rows and
    anti joins *output* them, so a filter would change their results.

    The gate is deliberately semantic rather than cost-based: a finalized
    filter is at most a few hundred KiB while the rows it saves cross the
    network per row, so for any non-trivial probe side the filter pays for
    itself; keeping the rule deterministic also keeps the physical plan (and
    hence lineage) independent of estimator drift.  ``join_type`` may be a
    :class:`~repro.kernels.join.JoinType` or its string value.
    """
    value = getattr(join_type, "value", join_type)
    return value in ("inner", "semi")


def memory_strategy(
    predicted_bytes: Optional[float],
    channels: int,
    memory_budget_bytes: Optional[float],
) -> str:
    """Predict whether one stateful operator will spill under a budget.

    ``predicted_bytes`` is the estimated state the operator holds (build
    side, group table) across ``channels`` channels.  Returns:

    * ``"resident"`` — no budget, or the per-channel state is predicted to
      fit it.
    * ``"grace"`` — the state is predicted to outgrow the budget, so cold
      partitions will spill.

    This only annotates ``explain``: the compiler emits the same
    spill-capable operators whenever a budget is set, so a misestimate
    degrades to spilling, not to an OOM.  The comparison uses the whole
    per-channel budget rather than the final per-operator quota because the
    quota (budget / stateful channels per worker) is only known after the
    whole graph is built; the budget is the optimistic upper bound of what
    the operator could be granted.
    """
    if memory_budget_bytes is None or memory_budget_bytes == float("inf"):
        return "resident"
    if predicted_bytes is None:
        return "grace"
    if predicted_bytes / max(1, channels) <= memory_budget_bytes:
        return "resident"
    return "grace"


def _fmt(value: float) -> str:
    """Compact human-readable magnitude (``1.2K``, ``3.4M``, ...)."""
    magnitude = abs(value)
    for divisor, unit in ((1e9, "G"), (1e6, "M"), (1e3, "K")):
        if magnitude >= divisor:
            return f"{value / divisor:.1f}{unit}"
    if magnitude >= 10:
        return f"{value:.0f}"
    return f"{value:.1f}"


def explain_with_estimates(
    plan: LogicalPlan,
    estimator: Optional[CardinalityEstimator] = None,
    probe_channels: int = 4,
    memory_budget_bytes: Optional[float] = None,
) -> str:
    """Render ``plan`` with per-node cardinality/cost annotations.

    Every line carries the estimated output rows and bytes plus the
    cumulative ``C_out`` of its subtree; join nodes additionally show the
    physical strategy (``broadcast`` or ``shuffle``) the compiler would pick
    at the given channel count and the default broadcast threshold.  With a
    ``memory_budget_bytes``, join and aggregate nodes also show the predicted peak state bytes per channel and
    the predicted memory strategy (``resident`` / ``grace``).
    """
    estimator = estimator or CardinalityEstimator()
    cost_model = PlanCostModel(estimator)
    lines = []

    def render(node: LogicalPlan, indent: int) -> None:
        annotation = (
            f"[est_rows={_fmt(estimator.rows(node))} "
            f"est_bytes={_fmt(estimator.bytes(node))} "
            f"cost={_fmt(cost_model.cost(node))}"
        )
        if isinstance(node, Join):
            strategy = (
                "broadcast"
                if broadcast_build_side(
                    node, estimator, DEFAULT_BROADCAST_THRESHOLD_BYTES, probe_channels
                )
                else "shuffle"
            )
            annotation += f" strategy={strategy}"
            if memory_budget_bytes is not None:
                build_bytes = estimator.bytes(node.right)
                mem = memory_strategy(
                    build_bytes, probe_channels, memory_budget_bytes
                )
                annotation += (
                    f" build_bytes={_fmt(build_bytes / max(1, probe_channels))}"
                    f" mem={mem}"
                )
        elif isinstance(node, Aggregate) and memory_budget_bytes is not None:
            state_bytes = estimator.bytes(node)
            channels = probe_channels if node.group_keys else 1
            mem = memory_strategy(state_bytes, channels, memory_budget_bytes)
            annotation += (
                f" state_bytes={_fmt(state_bytes / max(1, channels))} mem={mem}"
            )
        annotation += "]"
        lines.append(" " * indent + node.describe() + "  " + annotation)
        for child in node.children():
            render(child, indent + 2)

    render(plan, 0)
    return "\n".join(lines)
