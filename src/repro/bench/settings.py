"""Benchmark settings: one frozen dataclass, no environment variables.

The defaults are the configuration ``FIGURES.json`` is generated at — sized
so the whole figure table finishes in minutes on a laptop while still showing
the paper's figure shapes (the paper's 16- and 32-worker clusters are 8 and
16 workers here).  Anything else — the tiny configurations the tests use —
is passed explicitly as ``BenchSettings(...)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class BenchSettings:
    """Resolved benchmark configuration."""

    #: TPC-H scale factor actually generated.
    scale_factor: float = 0.0005
    #: Scale factor the cost model *emulates* (the paper's SF100); the ratio
    #: becomes the cost model's ``io_scale_multiplier``.
    target_scale_factor: float = 100.0
    #: Data-generation and placement seed.
    seed: int = 0
    #: Figure 6 sweeps all 22 queries instead of the eight representative ones.
    full_query_set: bool = False
    small_cluster_workers: int = 4
    large_cluster_workers: int = 8
    scalability_workers: int = 16
    cpus_per_worker: int = 4
    failure_fraction: float = 0.5
    case_study_fractions: tuple = (1 / 6, 2 / 6, 3 / 6, 4 / 6, 5 / 6)

    @property
    def io_scale_multiplier(self) -> float:
        """Multiplier emulating the paper's SF100 data volumes."""
        return max(1.0, self.target_scale_factor / self.scale_factor)

    def figure6_queries(self) -> List[int]:
        """Queries swept in Figure 6."""
        if self.full_query_set:
            return list(range(1, 23))
        return self.representative_queries()

    def representative_queries(self) -> List[int]:
        """The paper's eight representative queries (Figures 7-11)."""
        from repro.tpch.queries import REPRESENTATIVE_QUERIES

        return list(REPRESENTATIVE_QUERIES)
