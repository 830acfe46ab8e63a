"""Runtime semi-join filter coordination for the simulated engine.

One :class:`FilterCoordinator` per :class:`~repro.core.engine.ExecutionContext`
owns the lifecycle of every :class:`~repro.physical.stages.RuntimeFilterSpec`
on the compiled graph:

* **Accumulation.**  Every committed output of a filter's source stage (the
  join's build-side producer) folds its key column into a
  :class:`~repro.kernels.runtimefilter.RuntimeFilterBuilder`.  The fold runs
  *synchronously* right after the commit transaction — before any simulation
  yield — so no process can observe the channel-done mark of a commit whose
  values are not yet in the builder.  Re-commits from rewound or retraced
  producers re-add identical values into idempotent reductions, so recovery
  needs no deduplication.

* **Publication.**  When the last source channel marks done, the filter is
  finalized on the spot (its content is now a pure function of the build
  value set) and the shipped bytes are charged on the simulated network from
  the committing worker to every worker hosting a target channel.  The gate
  on the target stage lifts only after those transfers complete.

* **Gating (the epoch discipline).**  Tasks of a target stage are held back —
  exactly like the adaptive controller's pending-decision gate — until every
  filter aimed at them is published.  A target task therefore always observes
  the *final* filter, and a retraced producer re-running arbitrarily later
  observes the very same one: filters never change after publication, which
  is what keeps lineage-driven reconstruction byte-identical.

  Gating is deadlock-free: every filter edge points from a join's build
  subtree into its disjoint probe subtree of a tree-shaped plan, so a cycle
  among "target waits for source completion" dependencies would require two
  subtrees to be simultaneously nested and disjoint.

* **Application.**  :meth:`apply` drops non-matching rows from a target
  stage's output after its fused post-ops;
  :meth:`split_prunable` skips whole scan splits whose zone map cannot
  intersect a published min/max filter or the static predicate bounds.

The coordinator owns *when* (commit-synchronous folds, publication, the gate)
and the per-filter counters; *what* a fold, a filter application and a prune
test compute is :mod:`repro.physical.task`, shared with every executor.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional

from repro.data.batch import Batch
from repro.kernels.runtimefilter import RuntimeFilter
from repro.physical import task
from repro.physical.stages import RuntimeFilterSpec, Stage


class FilterCoordinator:
    """Builds, publishes and applies runtime filters for one query."""

    def __init__(self, execution):
        self.execution = execution
        self.graph = execution.graph
        self.specs: List[RuntimeFilterSpec] = list(self.graph.runtime_filters)
        #: Running builder folds by source stage id, dropped at finalization.
        self._folds: Dict[int, task.FilterFold] = {}
        #: Finalized filters by filter id (content frozen at source completion).
        self.filters: Dict[int, RuntimeFilter] = {}
        #: Filter ids whose shipped bytes have been charged (gate lifted).
        self.published: set = set()
        #: Not-yet-published filters per target stage id: the gate itself,
        #: kept as a count because every task attempt asks.
        self._unpublished = Counter(spec.target_stage_id for spec in self.specs)
        #: Finalized but not yet network-charged, in finalization order.
        self._pending_publish: List[RuntimeFilterSpec] = []
        #: Observed probe traffic per filter id: [rows_tested, rows_dropped].
        self._observed: Dict[int, List[int]] = {
            spec.filter_id: [0, 0] for spec in self.specs
        }

    # -- gating -------------------------------------------------------------------

    def gated(self, stage_id: int) -> bool:
        """True while any filter aimed at ``stage_id`` is not yet published."""
        return self._unpublished.get(stage_id, 0) > 0

    # -- accumulation / publication -------------------------------------------------

    def observe_commit(self, stage: Stage, out_batch: Batch) -> None:
        """Fold one committed source output; finalize on source completion.

        Must be called synchronously after the commit transaction (no yield in
        between): the completion check below reads the channel-done marks that
        the same transaction wrote, and every earlier commit's fold already
        ran under the same no-yield discipline.
        """
        specs = self.graph.filters_from_source(stage.stage_id)
        # Every filter fed by one source stage finalizes in the same commit,
        # so the first spec stands for all of them; later re-commits (a
        # retraced producer) leave the frozen filters untouched.
        if not specs or specs[0].filter_id in self.filters:
            return
        fold = self._folds.get(stage.stage_id)
        if fold is None:
            fold = self._folds[stage.stage_id] = task.FilterFold(stage, specs)
        fold.add(out_batch)
        gcs = self.execution.gcs
        if all(
            gcs.channel_done.is_done(stage.stage_id, channel)
            for channel in range(stage.num_channels)
        ):
            for spec, rf in self._folds.pop(stage.stage_id).finalize():
                self.filters[spec.filter_id] = rf
                self._pending_publish.append(spec)

    def publish_ready(self, worker):
        """Process: charge the network for newly finalized filters.

        The filter travels from the worker that committed the completing
        build output to every worker hosting a channel of the target stage
        (the simulated analogue of a coordinator fan-out).  Only after the
        transfers complete does the filter count as published, i.e. does the
        target's gate lift.
        """
        execution = self.execution
        while self._pending_publish:
            spec = self._pending_publish.pop(0)
            rf = self.filters[spec.filter_id]
            target = execution.graph.stage(spec.target_stage_id)
            nbytes = rf.nbytes
            scaled = execution.cost_model.scaled(nbytes)
            destinations = {
                execution.gcs.placement.worker_for(target.stage_id, channel)
                for channel in range(target.num_channels)
            }
            for destination in sorted(destinations):
                yield from execution.cluster.network.transfer(
                    worker.worker_id,
                    destination,
                    scaled + execution.PIECE_OVERHEAD,
                )
            self.published.add(spec.filter_id)
            self._unpublished[spec.target_stage_id] -= 1
            execution.metrics.filters_published += 1
            execution.metrics.filter_bytes += float(nbytes)
            if execution.tracer.enabled:
                execution.tracer.record_filter(
                    execution.env.now,
                    spec.filter_id,
                    spec.join_stage_id,
                    spec.source_stage_id,
                    spec.target_stage_id,
                    spec.build_key,
                    spec.probe_key,
                    rf.kind,
                    nbytes,
                    rf.build_rows,
                )

    # -- application ----------------------------------------------------------------

    def apply(self, stage: Stage, batch: Batch) -> Batch:
        """Drop rows of a target-stage output that no published filter keeps.

        The gate guarantees every filter aimed at ``stage`` is published by
        the time its tasks run, so lookups are plain dict hits.
        """
        metrics = self.execution.metrics
        for spec in self.graph.filters_for_target(stage.stage_id):
            # One filter per call keeps the per-filter counters exact.
            batch, tested, dropped = task.apply_runtime_filters(
                batch, [(spec.probe_key, self.filters[spec.filter_id])]
            )
            metrics.filter_rows_tested += tested
            metrics.filter_rows_dropped += dropped
            observed = self._observed[spec.filter_id]
            observed[0] += tested
            observed[1] += dropped
        return batch

    def split_prunable(self, stage: Stage, split_index: int) -> bool:
        """True when no row of the split could survive the scan's filters."""
        specs = self.graph.filters_for_target(stage.stage_id)
        return task.split_prunable(stage, split_index, specs, self.filters)

    # -- adaptive feedback ------------------------------------------------------------

    def probe_scale(self, join_stage_id: int) -> float:
        """Observed shrink factor of a join's probe input from ready filters.

        The product of kept/tested ratios over every published filter whose
        target lies in the join's probe subtree and has seen traffic.  Feeds
        the adaptive controller's channel re-sizing: a probe side the filters
        cut by 10x needs far fewer join channels than its compile-time
        estimate implied.
        """
        subtree = self._probe_subtree(join_stage_id)
        scale = 1.0
        for spec in self.specs:
            if spec.target_stage_id not in subtree:
                continue
            if spec.filter_id not in self.published:
                continue
            tested, dropped = self._observed[spec.filter_id]
            if tested:
                scale *= (tested - dropped) / tested
        return scale

    def _probe_subtree(self, join_stage_id: int) -> set:
        graph = self.graph
        stage = graph.stage(join_stage_id)
        if not stage.join_info:
            return set()
        seen: set = set()
        pending = [stage.join_info["probe_id"]]
        while pending:
            stage_id = pending.pop()
            if stage_id in seen:
                continue
            seen.add(stage_id)
            pending.extend(
                link.upstream_id for link in graph.stage(stage_id).upstreams
            )
        return seen

    # -- introspection (tests / benches) ----------------------------------------------

    def selectivities(self) -> Dict[int, Optional[float]]:
        """Kept/tested ratio per published filter (``None`` before traffic)."""
        out: Dict[int, Optional[float]] = {}
        for spec in self.specs:
            tested, dropped = self._observed[spec.filter_id]
            out[spec.filter_id] = (tested - dropped) / tested if tested else None
        return out
