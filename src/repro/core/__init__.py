"""The paper's contribution: write-ahead lineage execution and recovery.

``ExecutionContext`` (:mod:`repro.core.engine`) runs one compiled stage graph
on the simulated cluster using the write-ahead lineage protocol of Algorithm 1 (tasks consume only inputs with
committed lineage; lineage is committed, the task queue advanced and the
output registered in a single GCS transaction) and recovers from worker
failures with the pipeline-parallel procedure of Algorithm 2.

``Session`` extends the same machinery to sustained multi-query traffic: one
long-lived cluster + GCS admits many queries concurrently (per-query table
namespaces, fair-share TaskManagers, admission control) and reuses committed
outputs across them (result cache, coalesced duplicate submissions,
shared scans) while recovering failures per query.
"""

from repro.core.cache import OutputCache
from repro.core.metrics import QueryMetrics, QueryResult
from repro.core.options import QueryOptions
from repro.core.runtime import ChannelRuntime, FairShareScheduler
from repro.core.session import QueryHandle, Session

__all__ = [
    "QueryMetrics",
    "QueryOptions",
    "QueryResult",
    "ChannelRuntime",
    "FairShareScheduler",
    "OutputCache",
    "QueryHandle",
    "Session",
]
