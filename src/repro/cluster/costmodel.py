"""Cost model translating work (rows, bytes) into virtual time.

All constants come from :class:`~repro.common.config.CostModelConfig`; this
class only adds the formulas.  Keeping the formulas in one place makes the
calibration assumptions auditable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import CostModelConfig


@dataclass
class CostModel:
    """Formulas for CPU, disk, network and object-storage time.

    ``gcs_latency_factor`` is a mutable chaos hook: the injector raises it
    during a simulated GCS brownout window so every metadata operation and
    transaction pays proportionally more, then restores it to 1.0.
    """

    config: CostModelConfig
    gcs_latency_factor: float = 1.0

    def cpu_seconds(self, rows: int, nbytes: int) -> float:
        """Time to run a relational kernel over ``rows`` rows / ``nbytes`` bytes."""
        rows_time = rows / self.config.cpu_rows_per_second
        bytes_time = self.scaled(nbytes) / self.config.cpu_bytes_per_second
        return max(rows_time, bytes_time)

    def scaled(self, nbytes: float) -> float:
        """Bytes scaled by the configured I/O multiplier (emulating larger SF)."""
        return self.config.scaled_bytes(nbytes)

    def gcs_txn_seconds(self) -> float:
        """Latency of one multi-key GCS transaction."""
        return self.config.gcs_txn_latency * self.gcs_latency_factor

    def dispatch_seconds(self) -> float:
        """Fixed per-task scheduling overhead."""
        return self.config.task_dispatch_overhead
