"""The simulated cluster substrate.

This package is the stand-in for the paper's AWS EC2 testbed: virtual workers
with CPU slots, instance-attached NVMe disks, NICs, simulated S3/HDFS object
storage and a failure injector, all driven by the discrete-event kernel in
:mod:`repro.sim`.  Real relational data flows through it; only *time* is
virtual.
"""

from repro.cluster.costmodel import CostModel
from repro.cluster.storage import ObjectStore
from repro.cluster.network import Network
from repro.cluster.flight import FlightServer
from repro.cluster.worker import Worker
from repro.cluster.cluster import Cluster
from repro.cluster.faults import FailurePlan, FailureInjector

__all__ = [
    "CostModel",
    "ObjectStore",
    "Network",
    "FlightServer",
    "Worker",
    "Cluster",
    "FailurePlan",
    "FailureInjector",
]
