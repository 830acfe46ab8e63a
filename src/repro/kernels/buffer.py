"""Row buffer: the state kernel of a collect (gather, then sort/limit) stage."""

from __future__ import annotations

from typing import List

from repro.data.batch import Batch


class RowBuffer:
    """Arrival-ordered batch buffer with a running byte total."""

    def __init__(self) -> None:
        self._batches: List[Batch] = []
        self.state_nbytes = 0

    def append(self, batch: Batch) -> None:
        """Buffer one non-empty input batch."""
        self._batches.append(batch)
        self.state_nbytes += batch.nbytes

    def finalize(self) -> List[Batch]:
        """Every buffered batch, in arrival order."""
        return self._batches
