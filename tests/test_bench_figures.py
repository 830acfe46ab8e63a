"""The figure table (``benchmarks/bench_figures.py``) and the fences around it.

Tier-1 cannot afford the table at its real settings (CI's ``figures`` job
does that), so it checks what is cheap: every series runs and returns its
declared columns at a tiny scale, the committed ``FIGURES.json`` belongs to
this table and to ``BenchSettings()``, cells are deterministic to the byte,
and the things the table replaced stay gone.
"""

import ast
import dataclasses
import importlib.util
import json
import math
import os
import re

import pytest

from repro.bench.runner import ExperimentRunner
from repro.bench.settings import BenchSettings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_bench_figures():
    path = os.path.join(ROOT, "benchmarks", "bench_figures.py")
    spec = importlib.util.spec_from_file_location("bench_figures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_figures = _load_bench_figures()

#: No SF100 emulation, two workers on every "cluster size", one query.
TINY = BenchSettings(
    scale_factor=0.0005,
    target_scale_factor=1.0,
    seed=3,
    small_cluster_workers=2,
    large_cluster_workers=2,
    scalability_workers=2,
)

#: What the series tests this smoke absorbed asserted beyond the row shape.
ROW_EXPECTATIONS = {
    "fig6_small": lambda row: row["speedup_vs_sparksql"] > 0 and row["speedup_vs_trino"] > 0,
    "lineage": lambda row: (
        row["lineage_records"] > 0 and row["lineage_kb"] > 0 and row["data_to_lineage_ratio"] > 1
    ),
    "optimizer": lambda row: (
        row["plain_s"] > 0
        and row["optimized_s"] > 0
        and row["speedup"] == pytest.approx(row["plain_s"] / row["optimized_s"])
    ),
    "placement": lambda row: row["pipelined_overhead"] > 1.0 and row["single_worker_overhead"] > 1.0,
}


@pytest.fixture(scope="module")
def tiny_runner():
    return ExperimentRunner(TINY)


@pytest.mark.parametrize("figure", bench_figures.FIGURES, ids=lambda figure: figure.id)
def test_series_returns_declared_columns(figure, tiny_runner):
    cell = bench_figures.compute(figure, tiny_runner, queries=[3])
    assert cell["workers"] == 2
    assert cell["rows"]
    for row in cell["rows"]:
        assert sorted(row) == sorted(figure.columns)
        assert all(math.isfinite(v) for v in row.values() if isinstance(v, float))
        assert ROW_EXPECTATIONS.get(figure.id, lambda row: True)(row)
    assert figure.id in bench_figures.render(figure, cell)


class TestCommittedTable:
    @pytest.fixture(scope="class")
    def committed(self):
        with open(bench_figures.FIGURES_JSON, encoding="utf-8") as handle:
            return json.load(handle)

    def test_ids_match_the_table(self, committed):
        ids = [figure.id for figure in bench_figures.FIGURES]
        assert len(set(ids)) == len(ids)
        assert set(committed["figures"]) == set(ids)

    def test_header_is_the_default_settings(self, committed):
        defaults = json.loads(json.dumps(dataclasses.asdict(BenchSettings())))
        assert committed["settings"] == defaults
        for figure in bench_figures.FIGURES:
            assert committed["figures"][figure.id]["workers"] == defaults[figure.workers]

    def test_committed_cells_hold_their_paper_shape(self, committed):
        for figure in bench_figures.FIGURES:
            cell = committed["figures"][figure.id]
            figure.check(cell["rows"], cell["summary"])


def test_cells_are_deterministic_to_the_byte():
    figure = next(f for f in bench_figures.FIGURES if f.id == "fig9_small")
    first, second = (
        json.dumps(bench_figures.compute(figure, ExperimentRunner(TINY), queries=[6]), sort_keys=True)
        for _ in range(2)
    )
    assert first == second


class TestFences:
    """What the figure table replaced stays deleted."""

    def _sources(self, *parts):
        for directory, _dirs, files in os.walk(os.path.join(ROOT, *parts)):
            for name in files:
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    with open(path, encoding="utf-8") as handle:
                        yield path, handle.read()

    def test_bench_package_reads_no_environment(self):
        for path, source in self._sources("src", "repro", "bench"):
            for node in ast.walk(ast.parse(source)):
                assert not (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")), path

    def test_no_second_engine_front_door(self):
        name = "Quokka" + "Engine"  # spelled apart so greps for the name stay empty
        for path, source in self._sources("src"):
            assert name not in source, path

    def test_one_figure_script(self):
        stale = [
            name for name in os.listdir(os.path.join(ROOT, "benchmarks"))
            if re.match(r"bench_(fig\d|extra_|table1_)", name)
        ]
        assert stale == []
        assert os.path.exists(os.path.join(ROOT, "benchmarks", "bench_figures.py"))
