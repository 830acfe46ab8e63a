"""Shared-resource primitives for the simulation kernel.

``Resource``
    A counted resource (e.g. CPU slots on a worker); ``request`` waits until a
    slot is free and ``release`` frees it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.common.errors import SimulationError
from repro.sim.core import Environment, Event


class Resource:
    """A counted resource with FIFO queuing.

    Typical usage inside a process::

        request = resource.request()
        yield request
        try:
            yield env.timeout(work_duration)
        finally:
            resource.release(request)
    """

    def __init__(self, env: Environment, capacity: int):
        if capacity < 1:
            raise SimulationError("resource capacity must be at least 1")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        self._granted: set = set()

    @property
    def in_use(self) -> int:
        """Number of currently granted slots."""
        return self._in_use

    @property
    def queued(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiters)

    def request(self) -> Event:
        """Return an event that succeeds when a slot is granted."""
        request = Event(self.env)
        self._waiters.append(request)
        self._dispatch()
        return request

    def release(self, request: Event) -> None:
        """Release a previously granted slot."""
        if id(request) in self._granted:
            self._granted.discard(id(request))
            self._in_use -= 1
        else:
            # The request never got granted (e.g. process interrupted while
            # waiting); drop it from the waiter queue if still there.
            try:
                self._waiters.remove(request)
            except ValueError:
                pass
        self._dispatch()

    def _dispatch(self) -> None:
        while self._waiters and self._in_use < self.capacity:
            request = self._waiters.popleft()
            if request.triggered:
                continue
            self._in_use += 1
            self._granted.add(id(request))
            request.succeed()


class BandwidthResource:
    """Models a shared link/disk with a fixed total bandwidth.

    Transfers acquire the resource for ``bytes / bandwidth`` seconds under a
    processor-sharing approximation: each transfer's *bandwidth share* is
    serialised FIFO through a single queue, which keeps the kernel simple
    while still making a busy resource the bottleneck.  The per-request
    ``latency`` term is paid by each transfer individually but does **not**
    occupy the queue: like real object stores and network links, many
    requests can be in their latency phase concurrently, so heavy multi-query
    traffic is limited by aggregate bandwidth rather than by the sum of
    per-request round-trips.
    """

    def __init__(self, env: Environment, bytes_per_second: float, latency: float = 0.0):
        if bytes_per_second <= 0:
            raise SimulationError("bandwidth must be positive")
        self.env = env
        self.base_bytes_per_second = float(bytes_per_second)
        self.bytes_per_second = float(bytes_per_second)
        self.latency = float(latency)
        self._available_at = 0.0
        self.total_bytes = 0.0
        self.total_transfers = 0

    @property
    def throttle_factor(self) -> float:
        """Current slowdown factor (1.0 = full speed)."""
        return self.base_bytes_per_second / self.bytes_per_second

    def set_throttle(self, factor: float) -> None:
        """Divide the base bandwidth by ``factor`` (chaos stragglers).

        Only transfers that *start* after the call see the reduced rate; a
        transfer already queued keeps the rate it was admitted with, like a
        TCP flow that drains at its negotiated share.  ``factor=1.0`` restores
        full speed.  Overlapping throttles do not stack: the last call wins.
        """
        if factor <= 0:
            raise SimulationError("throttle factor must be positive")
        self.bytes_per_second = self.base_bytes_per_second / factor

    def transfer_time(self, nbytes: float) -> float:
        """Pure service time for ``nbytes`` ignoring queueing."""
        return self.latency + nbytes / self.bytes_per_second

    def transfer(self, nbytes: float):
        """Process generator: wait for the transfer of ``nbytes`` to finish."""
        start = max(self.env.now, self._available_at)
        bandwidth_done = start + nbytes / self.bytes_per_second
        self._available_at = bandwidth_done
        finish = bandwidth_done + self.latency
        self.total_bytes += nbytes
        self.total_transfers += 1
        yield self.env.timeout(finish - self.env.now)
        return finish
