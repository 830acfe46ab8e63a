"""A virtual worker machine."""

from __future__ import annotations

from typing import List, Optional

from repro.common.config import ClusterConfig, CostModelConfig
from repro.common.errors import WorkerFailedError
from repro.cluster.flight import FlightServer
from repro.cluster.storage import LocalDisk
from repro.sim.core import Environment, Process
from repro.sim.resources import Resource

#: Instance-attached NVMe capacity of one simulated worker.
LOCAL_DISK_CAPACITY_BYTES = 474 * 10**9


class Worker:
    """One machine of the cluster: CPU slots, NVMe disk, flight server, liveness."""

    def __init__(
        self,
        env: Environment,
        worker_id: int,
        cluster_config: ClusterConfig,
        cost_config: CostModelConfig,
    ):
        self.env = env
        self.worker_id = worker_id
        self.cpu = Resource(env, capacity=cluster_config.cpus_per_worker)
        self.disk = LocalDisk(
            env,
            write_bps=cost_config.local_disk_write_bps,
            read_bps=cost_config.local_disk_read_bps,
            capacity_bytes=LOCAL_DISK_CAPACITY_BYTES,
        )
        self.flight = FlightServer(worker_id)
        self.alive = True
        self.failed_at: Optional[float] = None
        self._registered_processes: List[Process] = []

    def register_process(self, process: Process) -> None:
        """Track a process so it can be interrupted when the worker fails."""
        self._registered_processes.append(process)

    def check_alive(self) -> None:
        """Raise :class:`WorkerFailedError` if the worker is dead."""
        if not self.alive:
            raise WorkerFailedError(f"worker {self.worker_id} has failed")

    def fail(self) -> None:
        """Kill the worker: wipe volatile state and interrupt its processes."""
        if not self.alive:
            return
        self.alive = False
        self.failed_at = self.env.now
        self.disk.wipe()
        self.flight.wipe()
        for process in self._registered_processes:
            if process.is_alive:
                process.interrupt("worker-failure")
        self._registered_processes = []

    def __repr__(self) -> str:
        state = "alive" if self.alive else f"failed@{self.failed_at:.2f}"
        return f"Worker({self.worker_id}, {state})"
