"""Per-worker Arrow-Flight-server substitute.

Producer tasks push the pieces of their output objects directly to the flight
server of the worker hosting each consumer channel.  The buffer is keyed by
``(consumer stage, consumer channel)``, within that by the producing upstream
channel, and within that by the producer's sequence number — so re-pushed
duplicates (which happen during recovery) simply overwrite the original piece
instead of being consumed twice, and a consumer's scan of one upstream
channel's run never looks at the pieces of another.

Flight buffers live in worker memory and are lost when the worker fails.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.data.batch import Batch
from repro.gcs.naming import TaskName

ConsumerKey = Tuple[int, int]
UpstreamKey = Tuple[int, int]


class FlightServer:
    """In-memory buffer of not-yet-consumed input pieces, per consumer channel."""

    def __init__(self, worker_id: int):
        self.worker_id = worker_id
        #: consumer -> (upstream stage, upstream channel) -> sequence -> piece.
        self._buffers: Dict[ConsumerKey, Dict[UpstreamKey, Dict[int, Batch]]] = {}
        #: Bumped by every call that changes (or may change) the buffers, so an
        #: unchanged version means unchanged buffers.
        self.version = 0

    def put(self, consumer: ConsumerKey, producer_task: TaskName, piece: Batch) -> None:
        """Store one piece destined for ``consumer``; duplicates overwrite."""
        upstreams = self._buffers.setdefault(consumer, {})
        upstreams.setdefault((producer_task.stage, producer_task.channel), {})[
            producer_task.seq
        ] = piece
        self.version += 1

    def peek(self, consumer: ConsumerKey, producer_task: TaskName) -> Optional[Batch]:
        """Return a buffered piece without removing it."""
        run = self.pieces_from(consumer, producer_task.stage, producer_task.channel)
        return run.get(producer_task.seq)

    def pieces_from(
        self, consumer: ConsumerKey, upstream_stage: int, upstream_channel: int
    ) -> Dict[int, Batch]:
        """Read-only view: sequence -> piece buffered for ``consumer`` from one
        upstream channel (empty when there is none)."""
        upstreams = self._buffers.get(consumer)
        if upstreams is None:
            return {}
        return upstreams.get((upstream_stage, upstream_channel), {})

    def take(self, consumer: ConsumerKey, producer_task: TaskName) -> Batch:
        """Remove and return a buffered piece."""
        run = self._buffers[consumer][(producer_task.stage, producer_task.channel)]
        piece = run.pop(producer_task.seq)
        self.version += 1
        return piece

    def discard_below(self, consumer: ConsumerKey, upstream_stage: int,
                      upstream_channel: int, watermark_seq: int) -> int:
        """Drop already-consumed duplicates re-pushed during recovery.

        Removes every buffered piece from ``(upstream_stage, upstream_channel)``
        with a sequence number below ``watermark_seq``.  Returns the number of
        pieces dropped.
        """
        run = self.pieces_from(consumer, upstream_stage, upstream_channel)
        stale = [seq for seq in run if seq < watermark_seq]
        if stale:
            for seq in stale:
                del run[seq]
            self.version += 1
        return len(stale)

    def buffered_bytes(self) -> int:
        """Total bytes buffered on this flight server."""
        return sum(
            piece.nbytes
            for upstreams in self._buffers.values()
            for run in upstreams.values()
            for piece in run.values()
        )

    def wipe(self) -> int:
        """Destroy all buffered pieces (worker failure).  Returns pieces lost."""
        lost = sum(
            len(run) for upstreams in self._buffers.values() for run in upstreams.values()
        )
        self._buffers.clear()
        self.version += 1
        return lost

    def wipe_stages(self, stage_ids) -> int:
        """Drop every buffer belonging to a consumer stage in ``stage_ids``.

        Used when one query of a shared session is restarted from scratch:
        its stage ids are session-unique, so this removes exactly that query's
        in-flight pieces.  Returns the number of pieces dropped.
        """
        doomed = [key for key in self._buffers if key[0] in stage_ids]
        lost = 0
        for key in doomed:
            lost += sum(len(run) for run in self._buffers.pop(key).values())
        self.version += 1
        return lost
