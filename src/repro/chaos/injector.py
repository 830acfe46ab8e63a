"""Drive a :class:`~repro.chaos.plan.ChaosPlan` through a live session.

The injector is the bridge between a declarative fault schedule and the
simulated cluster: for every primitive it starts one simulation process that
sleeps until the primitive's fire time (relative to the moment the injector is
created, i.e. query submission) and then perturbs the cluster through the
public chaos hooks — ``Worker.fail``, ``ObjectStore.set_throttle`` on the
worker's disk / ``Network.set_worker_throttle``, ``ObjectStore.inject_outage``
on S3 or HDFS and the cost model's ``gcs_latency_factor``.  Recovery itself
stays entirely with the session's coordinator (:mod:`repro.core.recovery`);
chaos only breaks things.

Every fired event is counted in :class:`InjectionStats`, recorded on the
optional tracer (so it lands in the trace digest used for replay equality)
and tallied into the ``chaos_events`` metric of every query that is admitted
and unfinished at that instant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.chaos.plan import (
    STORAGE_TARGETS,
    ChaosPlan,
    FaultPrimitive,
    GcsSlowdown,
    StorageOutage,
    Straggler,
    WorkerCrash,
)
from repro.common.errors import ConfigError
from repro.sim.core import Interrupt


@dataclass
class InjectionStats:
    """What the injector actually did (events targeting dead workers are skipped)."""

    crashes: int = 0
    stragglers: int = 0
    storage_outages: int = 0
    gcs_slowdowns: int = 0
    skipped: int = 0
    fired: List[FaultPrimitive] = field(default_factory=list)

    @property
    def total(self) -> int:
        """Number of primitives that had an effect."""
        return self.crashes + self.stragglers + self.storage_outages + self.gcs_slowdowns


class ChaosInjector:
    """Schedules a chaos plan's primitives against one session's cluster."""

    def __init__(self, session, plan: ChaosPlan, tracer=None):
        """``session`` is a :class:`~repro.core.session.Session`; fire times
        count virtual seconds from now.  ``tracer`` (a
        :class:`~repro.trace.TraceRecorder`) receives one chaos record per
        fired event."""
        from repro.trace.recorder import NullTracer

        self.session = session
        self.cluster = session.cluster
        self.env = session.env
        self.plan = plan
        self.tracer = tracer if tracer is not None else NullTracer()
        self.stats = InjectionStats()
        #: Active straggler factors per worker / active GCS brownout factors.
        #: Overlapping windows compose: the most severe active factor applies,
        #: and ending one window re-applies the remaining ones instead of
        #: silently restoring full speed.
        self._worker_throttles: dict = {}
        self._gcs_slowdowns: List[float] = []
        num_workers = self.cluster.num_workers
        for event in plan.events:
            target = getattr(event, "worker_id", None)
            if target is not None and not 0 <= target < num_workers:
                raise ConfigError(
                    f"chaos event targets unknown worker {target} "
                    f"(cluster has {num_workers})"
                )
            if isinstance(event, StorageOutage) and event.target not in STORAGE_TARGETS:
                raise ConfigError(
                    f"chaos storage outage targets unknown store {event.target!r}"
                )
        for index, event in enumerate(plan.sorted_events()):
            self.env.process(
                self._drive(event), name=f"chaos-{event.kind}-{index}"
            )

    # -- the per-event process --------------------------------------------------

    def _drive(self, event: FaultPrimitive):
        try:
            yield self.env.timeout(event.at_time)
            if isinstance(event, WorkerCrash):
                fired = self._crash(event)
            elif isinstance(event, Straggler):
                fired = yield from self._straggle(event)
            elif isinstance(event, StorageOutage):
                fired = self._storage_outage(event)
            elif isinstance(event, GcsSlowdown):
                fired = yield from self._gcs_slowdown(event)
            else:  # pragma: no cover - the plan layer rejects unknown kinds
                raise ConfigError(f"unknown chaos primitive {event!r}")
            if not fired:
                self.stats.skipped += 1
        except Interrupt:  # pragma: no cover - injector processes are not interrupted
            return

    def _record(self, event: FaultPrimitive) -> None:
        self.stats.fired.append(event)
        if self.tracer.enabled:
            self.tracer.record_chaos(self.env.now, event.kind, event.describe())
        for handle in self.session.handles.values():
            if handle.execution is not None and not handle.execution.query_finished:
                handle.execution.metrics.chaos_events += 1

    def _crash(self, event: WorkerCrash) -> bool:
        worker = self.cluster.worker(event.worker_id)
        if not worker.alive:
            return False
        worker.fail()
        self.stats.crashes += 1
        self._record(event)
        return True

    def _apply_worker_throttle(self, worker_id: int) -> None:
        factors = self._worker_throttles.get(worker_id) or [1.0]
        factor = max(factors)
        self.cluster.worker(worker_id).disk.set_throttle(factor)
        self.cluster.network.set_worker_throttle(worker_id, factor)

    def _straggle(self, event: Straggler):
        self._worker_throttles.setdefault(event.worker_id, []).append(event.factor)
        self._apply_worker_throttle(event.worker_id)
        self.stats.stragglers += 1
        self._record(event)
        yield self.env.timeout(event.duration)
        self._worker_throttles[event.worker_id].remove(event.factor)
        self._apply_worker_throttle(event.worker_id)
        return True

    def _storage_outage(self, event: StorageOutage) -> bool:
        store = self.cluster.s3 if event.target == "s3" else self.cluster.hdfs
        now = self.env.now
        store.inject_outage(now, now + event.duration, event.retry_latency)
        self.stats.storage_outages += 1
        self._record(event)
        return True

    def _gcs_slowdown(self, event: GcsSlowdown):
        self._gcs_slowdowns.append(event.factor)
        self.cluster.cost_model.gcs_latency_factor = max(self._gcs_slowdowns)
        self.stats.gcs_slowdowns += 1
        self._record(event)
        yield self.env.timeout(event.duration)
        self._gcs_slowdowns.remove(event.factor)
        self.cluster.cost_model.gcs_latency_factor = max(self._gcs_slowdowns, default=1.0)
        return True
