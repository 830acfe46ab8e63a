"""Planning pass for runtime semi-join filters and zone-map scan pruning.

Runs over a compiled :class:`~repro.physical.stages.StageGraph` (after
``validate``) and does two things:

1. **Filter edges.**  For every eligible hash join (inner / semi — the types
   where dropping a probe row whose key has no build match is exact), each key
   column gets a :class:`~repro.physical.stages.RuntimeFilterSpec` from the
   build-side producer to the *deepest* probe-side stage whose output still
   carries the key.  The descent rules are what make early dropping exact:

   * through a stage's fused post-ops when the key passes unchanged
     (``FilterOp`` never renames; ``ProjectOp`` only via a pure column
     reference; ``PartialAggregateOp`` only when the key is a group key);
   * through a join stage only into its **probe** side — every output row of
     any join type derives from exactly one probe row and probe columns keep
     their names, so dropping probe inputs with key ∉ F drops exactly the
     outputs the upper join would discard;
   * through an aggregation only when the key is a group key — all rows of a
     group share the key, so the filter removes *whole* groups the upper join
     would discard and leaves every surviving group's aggregates untouched;
   * never through collect stages (sort / limit change which rows survive).

2. **Zone-map scan bounds.**  Static ``col <op> literal`` conjuncts fused
   directly above a scan are distilled into per-column ``(low, high)`` bounds
   stamped as ``stage.scan_bounds``; at runtime a scan task compares them (and
   any ready min/max runtime filter) against the split's zone map
   (:func:`repro.optimizer.statistics.split_zone_maps`) and skips splits no
   row of which could survive.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.expr.nodes import (
    Between,
    BinaryOp,
    Column,
    InList,
    Literal,
    column_reference,
)
from repro.optimizer.cost import runtime_filter_decision
from repro.optimizer.expressions import split_conjunction
from repro.physical.stages import (
    FilterOp,
    PartialAggregateOp,
    ProjectOp,
    RuntimeFilterSpec,
    StageGraph,
)

__all__ = [
    "extract_scan_bounds",
    "plan_runtime_filters",
    "split_is_prunable",
]


def plan_runtime_filters(graph: StageGraph) -> None:
    """Attach filter edges and static scan bounds to ``graph`` (in place)."""
    next_id = len(graph.runtime_filters)
    for stage in graph:
        info = stage.join_info
        if not info or not runtime_filter_decision(info["join_type"]):
            continue
        for build_key, probe_key in zip(info["build_keys"], info["probe_keys"]):
            target_id, name = _descend(graph, info["probe_id"], probe_key)
            target = graph.stage(target_id)
            raw_column: Optional[str] = None
            if target.table is not None:
                raw_column = _trace_through_post_ops(target.post_ops, name)
            graph.runtime_filters.append(
                RuntimeFilterSpec(
                    filter_id=next_id,
                    join_stage_id=stage.stage_id,
                    source_stage_id=info["build_id"],
                    build_key=build_key,
                    target_stage_id=target_id,
                    probe_key=name,
                    target_raw_column=raw_column,
                )
            )
            next_id += 1
    for stage in graph:
        if stage.table is not None and stage.scan_bounds is None:
            bounds = extract_scan_bounds(stage.post_ops)
            if bounds:
                stage.scan_bounds = bounds


def _descend(graph: StageGraph, stage_id: int, name: str) -> Tuple[int, str]:
    """Deepest ``(stage_id, output_column)`` the key can be pushed down to."""
    stage = graph.stage(stage_id)
    traced = _trace_through_post_ops(stage.post_ops, name)
    if traced is None or stage.table is not None:
        return stage_id, name
    if stage.join_info is not None:
        probe_id = stage.join_info["probe_id"]
        probe_schema = graph.stage(probe_id).output_schema
        if probe_schema is not None and traced in probe_schema:
            # Probe columns pass through every join type unchanged (build
            # columns are the ones renamed on collision), so the key below
            # the join is the same column of the probe upstream's output.
            return _descend(graph, probe_id, traced)
        return stage_id, name
    if stage.agg_info is not None:
        if traced in stage.agg_info["group_keys"] and stage.upstreams:
            return _descend(graph, stage.upstreams[0].upstream_id, traced)
        return stage_id, name
    # Collect (sort/limit) and any other opaque stage: stop above it.
    return stage_id, name


def _trace_through_post_ops(post_ops, name: str) -> Optional[str]:
    """Column name at the stage's operator output (or scan read) that flows
    unchanged into output column ``name`` — ``None`` when not a pure rename."""
    for op in reversed(list(post_ops)):
        if isinstance(op, FilterOp):
            continue
        if isinstance(op, ProjectOp):
            source = None
            for out_name, expr in op.projections:
                if out_name == name:
                    source = column_reference(expr)
                    break
            if source is None:
                return None
            name = source
        elif isinstance(op, PartialAggregateOp):
            if name not in op.group_keys:
                return None
        else:
            return None
    return name


# -- static scan bounds ----------------------------------------------------------


def extract_scan_bounds(post_ops) -> Dict[str, Tuple[object, object]]:
    """Per-raw-column ``(low, high)`` bounds implied by the scan's filters.

    Walks the fused post-ops in order, tracking which current column names
    are pure renames of raw table columns (column-pruning projections leave
    names intact; computed projections drop out of the map).  Conjuncts of
    the shape ``col <op> literal`` / ``literal <op> col`` / ``col BETWEEN``
    / ``col IN (...)`` whose column still maps to a raw column contribute a
    bound under the raw name.  Bounds are conservative: a one-sided
    constraint leaves the other side ``None`` (unbounded).
    """
    bounds: Dict[str, Tuple[object, object]] = {}
    mapping: Optional[Dict[str, str]] = None  # None = identity (no project yet)
    for op in post_ops:
        if isinstance(op, FilterOp):
            for conjunct in split_conjunction(op.predicate):
                constraint = _range_constraint(conjunct)
                if constraint is None:
                    continue
                name, low, high = constraint
                raw = name if mapping is None else mapping.get(name)
                if raw is None:
                    continue
                old_low, old_high = bounds.get(raw, (None, None))
                if low is not None and (old_low is None or low > old_low):
                    old_low = low
                if high is not None and (old_high is None or high < old_high):
                    old_high = high
                bounds[raw] = (old_low, old_high)
        elif isinstance(op, ProjectOp):
            new_mapping: Dict[str, str] = {}
            for out_name, expr in op.projections:
                source = column_reference(expr)
                if source is None:
                    continue
                raw = source if mapping is None else mapping.get(source)
                if raw is not None:
                    new_mapping[out_name] = raw
            mapping = new_mapping
        elif isinstance(op, PartialAggregateOp):
            break  # Bounds below an aggregation still hold; past it, stop.
        else:
            break
    return bounds


def _range_constraint(expr) -> Optional[Tuple[str, object, object]]:
    """``(column, low, high)`` implied by one conjunct, or ``None``."""
    if isinstance(expr, Between):
        if (
            isinstance(expr.child, Column)
            and isinstance(expr.low, Literal)
            and isinstance(expr.high, Literal)
            and _is_ordered(expr.low.value)
            and _is_ordered(expr.high.value)
        ):
            return expr.child.name, expr.low.value, expr.high.value
        return None
    if isinstance(expr, InList):
        if isinstance(expr.child, Column) and all(
            _is_ordered(v) for v in expr.values
        ):
            return expr.child.name, min(expr.values), max(expr.values)
        return None
    if not isinstance(expr, BinaryOp):
        return None
    op, left, right = expr.op, expr.left, expr.right
    if isinstance(left, Literal) and isinstance(right, Column):
        # Normalise to column-on-the-left.
        left, right = right, left
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
    if not (isinstance(left, Column) and isinstance(right, Literal)):
        return None
    value = right.value
    if not _is_ordered(value):
        return None
    if op == "==":
        return left.name, value, value
    if op in ("<", "<="):
        return left.name, None, value
    if op in (">", ">="):
        return left.name, value, None
    return None


def _is_ordered(value) -> bool:
    """Only numeric literals participate in zone-map bounds (strings are
    dictionary-encoded and zone maps are kept for numeric columns only)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# -- split pruning (shared by the simulator and parallel backends) ----------------


def split_is_prunable(
    zone_map: Dict[str, Tuple[object, object, bool]],
    scan_bounds: Optional[Dict[str, Tuple[object, object]]],
    runtime_filters: Optional[List] = None,
) -> bool:
    """True when no row of a split can survive the scan's filters.

    ``zone_map`` holds ``column -> (min, max, has_nan)`` for the split
    (``(None, None, True)`` for an all-NaN float column);  ``scan_bounds`` the
    static per-column bounds; ``runtime_filters`` pairs of
    ``(raw_column_name, RuntimeFilter)`` for ready filters whose probe key
    traces to a raw column of this scan.  Pruning a split is exactly
    equivalent to reading it: every row would fail a predicate (or the
    filter), so the task's output is the same empty batch either way.
    """
    for name, (low, high) in (scan_bounds or {}).items():
        zone = zone_map.get(name)
        if zone is None:
            continue
        zone_low, zone_high, _zone_nan = zone
        if zone_low is None:
            # All-NaN split: every comparison against a literal is False.
            return True
        if high is not None and zone_low > high:
            return True
        if low is not None and zone_high < low:
            return True
    for name, rf in runtime_filters or ():
        zone = zone_map.get(name)
        if zone is None:
            continue
        if not rf.may_contain_range(zone[0], zone[1], zone[2]):
            return True
    return False
