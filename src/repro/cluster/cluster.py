"""Cluster assembly: workers, network, storage services and input data layout."""

from __future__ import annotations

from typing import List, Optional

from repro.common.config import ClusterConfig, CostModelConfig
from repro.common.errors import ConfigError
from repro.cluster.costmodel import CostModel
from repro.cluster.network import Network
from repro.cluster.storage import ObjectStore
from repro.cluster.worker import Worker
from repro.plan.catalog import Catalog
from repro.sim.core import Environment


class Cluster:
    """A simulated cluster: workers + network + S3 + HDFS + head node services.

    The head node (hosting the GCS and coordinator) is assumed never to fail,
    exactly as in the paper, so it is not modelled as a Worker.
    """

    def __init__(
        self,
        cluster_config: Optional[ClusterConfig] = None,
        cost_config: Optional[CostModelConfig] = None,
    ):
        self.cluster_config = cluster_config or ClusterConfig()
        self.cost_config = cost_config or CostModelConfig()
        self.cluster_config.validate()
        self.cost_config.validate()

        self.env = Environment()
        self.cost_model = CostModel(self.cost_config)
        self.workers: List[Worker] = [
            Worker(self.env, worker_id, self.cluster_config, self.cost_config)
            for worker_id in range(self.cluster_config.num_workers)
        ]
        self.network = Network(
            self.env,
            num_workers=self.cluster_config.num_workers,
            bps=self.cost_config.network_bps,
            latency=self.cost_config.network_latency,
        )
        # S3 and HDFS aggregate throughput grows with the number of concurrent
        # clients (HDFS datanodes live on the workers themselves), so the
        # durable stores expose cluster-wide bandwidth proportional to the
        # worker count while per-request latency stays constant.
        workers = self.cluster_config.num_workers
        self.s3 = ObjectStore(
            self.env,
            name="s3",
            write_bps=self.cost_config.s3_write_bps * workers,
            read_bps=self.cost_config.s3_read_bps * workers,
            request_latency=self.cost_config.s3_request_latency,
            durable=True,
        )
        self.hdfs = ObjectStore(
            self.env,
            name="hdfs",
            write_bps=self.cost_config.hdfs_write_bps * workers,
            read_bps=self.cost_config.hdfs_read_bps * workers,
            request_latency=self.cost_config.hdfs_request_latency,
            durable=True,
        )

    # -- workers ----------------------------------------------------------------

    def worker(self, worker_id: int) -> Worker:
        """Look up a worker by id."""
        try:
            return self.workers[worker_id]
        except IndexError:
            raise ConfigError(f"unknown worker id {worker_id}") from None

    def live_workers(self) -> List[Worker]:
        """Workers that have not failed."""
        return [w for w in self.workers if w.alive]

    def live_worker_ids(self) -> List[int]:
        """Ids of workers that have not failed."""
        return [w.worker_id for w in self.workers if w.alive]

    @property
    def num_workers(self) -> int:
        """Total number of workers (live or failed)."""
        return len(self.workers)

    # -- input data --------------------------------------------------------------

    def load_catalog(self, catalog: Catalog) -> None:
        """Place every catalog table's splits into simulated S3.

        The splits are registered without charging time — they represent data
        that already lives in the data lake before the query starts.
        """
        for table in catalog:
            for index, split in enumerate(table.splits()):
                self.s3.register(
                    ("table", table.name, index),
                    split,
                    self.cost_config.scaled_bytes(float(split.nbytes)),
                )
