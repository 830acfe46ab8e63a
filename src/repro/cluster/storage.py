"""Storage services: one object-store model for worker disks, S3 and HDFS.

A worker's instance-attached NVMe disk, simulated S3 and simulated HDFS are
the same service with different parameters.  Each :class:`ObjectStore` keeps
the actual Python payloads, so replays and spooled reads return real data,
and charges every transfer against a
:class:`~repro.sim.resources.BandwidthResource` queue, so a saturated device
becomes the bottleneck.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import ConfigError, ExecutionError
from repro.sim.core import Environment
from repro.sim.resources import BandwidthResource


@dataclass
class StorageStats:
    """Bytes and operation counts for one storage service."""

    bytes_written: float = 0.0
    bytes_read: float = 0.0
    writes: int = 0
    reads: int = 0
    #: Requests that hit an injected outage window and had to retry.
    transient_errors: int = 0


class ObjectStore:
    """A keyed object store: a worker's disk, or a durable S3 / HDFS service.

    A worker disk (``name="local"``) has a capacity and no request latency,
    and loses its contents when the worker fails (:meth:`wipe`) — exactly the
    "unreliable upstream backup" the paper assumes for Spark and Quokka local
    backups.  S3 and HDFS are ``durable``: their contents survive any worker
    failure, every request pays a fixed latency on top of the shared
    bandwidth, and chaos can inject outage windows.  The latency is what
    makes spooling expensive relative to local-disk backup.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        write_bps: float,
        read_bps: float,
        request_latency: float = 0.0,
        capacity_bytes: Optional[float] = None,
        durable: bool = False,
    ):
        self.env = env
        self.name = name
        self.durable = durable
        self.capacity_bytes = capacity_bytes
        self._write = BandwidthResource(env, write_bps, latency=request_latency)
        self._read = BandwidthResource(env, read_bps, latency=request_latency)
        self._objects: Dict[Any, Any] = {}
        self._sizes: Dict[Any, float] = {}
        self._int_sizes: Dict[Any, int] = {}
        #: Injected outage windows ``(start, end, retry_latency)`` during which
        #: requests fail transiently and clients retry (see :meth:`inject_outage`).
        self._outages: List[Tuple[float, float, float]] = []
        self.stats = StorageStats()

    @property
    def used_bytes(self) -> int:
        """Bytes currently stored (integer-exact; fractional sizes round up)."""
        return sum(self._int_sizes.values())

    def set_throttle(self, factor: float) -> None:
        """Throttle both directions by ``factor`` (chaos stragglers and brownouts)."""
        self._write.set_throttle(factor)
        self._read.set_throttle(factor)

    def inject_outage(self, start: float, end: float, retry_latency: float = 0.05) -> None:
        """Declare a transient-error window: requests in ``[start, end)`` fail.

        The model follows real object-store clients (boto, the HDFS client):
        each request issued during the window is rejected, retried with
        ``retry_latency`` backoff, and finally succeeds once the outage lifts —
        so an outage costs time (and shifts every downstream schedule) but
        never loses data.  Retries are counted in ``stats.transient_errors``.
        """
        if end <= start:
            raise ConfigError("outage window must have positive duration")
        if retry_latency <= 0:
            raise ConfigError("outage retry latency must be positive")
        self._outages.append((float(start), float(end), float(retry_latency)))

    def _ride_out_outages(self):
        """Process: absorb any active outage windows before a request proceeds."""
        while True:
            now = self.env.now
            active = [w for w in self._outages if w[0] <= now < w[1]]
            if not active:
                return
            end = max(w[1] for w in active)
            retry_latency = min(w[2] for w in active)
            self.stats.transient_errors += max(
                1, int(math.ceil((end - now) / retry_latency))
            )
            # Retry with backoff until just past the end of the window.
            yield self.env.timeout((end - now) + retry_latency)

    def contains(self, key: Any) -> bool:
        """True if ``key`` is stored."""
        return key in self._objects

    def _missing(self, key: Any, how: str = "not found") -> ExecutionError:
        return ExecutionError(f"{self.name} object {key!r} {how}")

    def register(self, key: Any, payload: Any, nbytes: float) -> None:
        """Store ``payload`` without charging time (e.g. TPC-H input tables)."""
        self._objects[key] = payload
        self._sizes[key] = nbytes
        self._int_sizes[key] = int(math.ceil(nbytes))

    def write(self, key: Any, payload: Any, nbytes: float):
        """Process: store ``payload`` under ``key``, charging write time."""
        if self.capacity_bytes is not None and self.used_bytes + nbytes > self.capacity_bytes:
            raise ExecutionError(f"{self.name} store capacity exceeded")
        yield from self._ride_out_outages()
        yield self.env.process(self._write.transfer(nbytes))
        self.register(key, payload, nbytes)
        self.stats.bytes_written += nbytes
        self.stats.writes += 1
        return key

    def peek(self, key: Any) -> Any:
        """Return the payload under ``key`` without charging read time.

        Used by the spill protocol: operators restore partitions synchronously
        mid-task while the engine charges the corresponding read time when it
        drains the operator's spill I/O records.
        """
        if key not in self._objects:
            raise self._missing(key)
        return self._objects[key]

    def read(self, key: Any):
        """Process: load the payload stored under ``key``, charging read time."""
        if key not in self._objects:
            raise self._missing(key)
        nbytes = self._sizes[key]
        yield from self._ride_out_outages()
        yield self.env.process(self._read.transfer(nbytes))
        if key not in self._objects:
            # The disk was wiped (worker failure) while the read was in flight;
            # callers treat this like any other lost-input and trigger recovery.
            raise self._missing(key, "lost during read")
        self.stats.bytes_read += nbytes
        self.stats.reads += 1
        return self._objects[key]

    def delete(self, key: Any) -> None:
        """Remove an object (no time charged; deletions are metadata only)."""
        self._objects.pop(key, None)
        self._sizes.pop(key, None)
        self._int_sizes.pop(key, None)

    def replace(self, key: Any, payload: Any) -> None:
        """Rewrite an existing object in place (no time charged, size kept).

        Used by the adaptive controller to re-shape already-persisted task
        outputs after a runtime plan revision; modelled as a metadata-level
        swap since the bytes were already paid for when first written (the
        logical object did not change, only its piece layout).  Reads already
        in flight deliver the new payload (they resolve the object at
        completion time), which is exactly what a replay needs.
        """
        if key not in self._objects:
            raise self._missing(key)
        self._objects[key] = payload

    def wipe(self) -> int:
        """Destroy all contents (worker failure).  Returns the object count lost."""
        lost = len(self._objects)
        self._objects.clear()
        self._sizes.clear()
        self._int_sizes.clear()
        return lost

    def wipe_stages(self, stage_ids) -> int:
        """Drop every object produced by a stage in ``stage_ids``.

        Task-backup keys are :class:`~repro.gcs.naming.TaskName` instances
        and spill keys :class:`~repro.memory.spill.SpillKey` instances, both
        carrying a session-unique stage id, so this removes exactly one
        query's objects when that query is restarted inside a shared session.
        Returns the number of objects dropped.
        """
        doomed = [
            key for key in self._objects if getattr(key, "stage", None) in stage_ids
        ]
        for key in doomed:
            self.delete(key)
        return len(doomed)
