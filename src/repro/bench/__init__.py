"""Experiment harness behind the ``benchmarks/`` directory.

``benchmarks/bench_figures.py`` holds the paper's evaluation as one table of
figures; what each figure measures is an :class:`ExperimentRunner` series
method here, configured by a :class:`BenchSettings` value, and the table and
JSON rendering shared with the other benchmarks lives in
:mod:`repro.bench.reporting`.
"""

from repro.bench.settings import BenchSettings
from repro.bench.runner import ExperimentRunner
from repro.bench.reporting import format_table, geometric_mean, write_report

__all__ = [
    "BenchSettings",
    "ExperimentRunner",
    "format_table",
    "geometric_mean",
    "write_report",
]
