"""Runtime state and scheduling policy shared by TaskManagers.

:class:`ChannelRuntime` is the per-channel state held in a TaskManager's
memory — precisely the state that is *lost* when a worker fails: the
operator's state variable, the consumption watermarks and the output sequence
counter.  Everything needed to rebuild it deterministically lives in the GCS
lineage log, which is what write-ahead lineage recovery exploits.

:class:`FairShareScheduler` is the session-level admission and fair-share
policy: it decides which submitted queries are *admitted* (bounded
concurrency, FIFO queue) and in which rotating order the shared TaskManagers
serve them each sweep.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.physical.stages import Stage


class FairShareScheduler:
    """Admission control plus round-robin fair-share over admitted queries.

    ``max_concurrent`` caps how many queries execute at once; the rest wait in
    submission order.
    """

    #: Committed-task budget one query may use per TaskManager sweep while
    #: other queries are admitted: one task interleaves queries finely (low
    #: latency under load) at the cost of per-query locality.
    TASKS_PER_SWEEP = 1

    def __init__(self, max_concurrent: int = 4):
        self.max_concurrent = max_concurrent
        #: Admitted queries, in admission order.
        self.active: List = []
        #: Submitted-but-not-admitted queries, in submission order.
        self.queued: List = []
        self._rotation = 0

    def enqueue(self, handle) -> None:
        """Add a freshly submitted query to the admission queue."""
        self.queued.append(handle)

    def admit(self) -> List:
        """Admit queued queries while concurrency slots are free.

        Returns the newly admitted handles (callers place their tasks).
        """
        admitted = []
        while self.queued and len(self.active) < self.max_concurrent:
            handle = self.queued.pop(0)
            self.active.append(handle)
            admitted.append(handle)
        return admitted

    def retire(self, handle) -> None:
        """Remove a finished (or cancelled) query from the policy's books."""
        if handle in self.active:
            self.active.remove(handle)
        elif handle in self.queued:
            self.queued.remove(handle)

    def sweep_order(self) -> List:
        """Admitted queries in this sweep's service order.

        The start position rotates every sweep so no query is systematically
        served last; with one admitted query this is just that query.
        """
        active = list(self.active)
        if len(active) <= 1:
            return active
        rotation = self._rotation % len(active)
        self._rotation += 1
        return active[rotation:] + active[:rotation]


class ChannelRuntime:
    """Mutable execution state of one channel on its current host worker."""

    def __init__(self, stage: Stage, channel: int):
        self.stage = stage
        self.stage_id = stage.stage_id
        self.channel = channel
        #: The operator (state variable); input channels have none.
        self.operator = stage.make_operator() if not stage.is_input else None
        #: Sequence number of the next output this channel will produce.
        self.next_seq = 0
        #: Number of outputs consumed so far from each upstream channel.
        self._watermarks: Dict[Tuple[int, int], int] = {}
        #: Upstream stages whose exhaustion has been delivered to the operator.
        self.acked_upstreams: Set[int] = set()
        #: True once the channel has produced its final output.
        self.finalized = False
        #: (GCS version, flight version) at this channel's
        #: last fruitless input selection; None after it commits.  See
        #: :meth:`repro.core.engine.ExecutionContext.idle`.
        self.idle_key: Optional[Tuple] = None
        #: Checkpoint bookkeeping (used by the checkpoint strategy).
        self.tasks_since_checkpoint = 0
        self.last_checkpoint_bytes = 0.0

    def watermark(self, upstream_stage: int, upstream_channel: int) -> int:
        """Outputs consumed so far from ``(upstream_stage, upstream_channel)``."""
        return self._watermarks.get((upstream_stage, upstream_channel), 0)

    def advance_watermark(self, upstream_stage: int, upstream_channel: int, count: int) -> None:
        """Record the consumption of ``count`` more outputs from an upstream channel."""
        key = (upstream_stage, upstream_channel)
        self._watermarks[key] = self._watermarks.get(key, 0) + count

    @property
    def state_nbytes(self) -> int:
        """Size of the operator state (0 for stateless input channels)."""
        return self.operator.state_nbytes if self.operator is not None else 0

    def __repr__(self) -> str:
        return (
            f"ChannelRuntime(stage={self.stage_id}, channel={self.channel}, "
            f"next_seq={self.next_seq}, finalized={self.finalized})"
        )
