"""Tests for the benchmark harness plumbing: settings, table rendering, reports."""

import math

import pytest

from repro.bench.reporting import format_table, geometric_mean, write_report
from repro.bench.settings import BenchSettings


class TestGeometricMean:
    def test_matches_closed_form(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([1.0, 1.0, 1.0]) == pytest.approx(1.0)

    def test_ignores_non_positive_values(self):
        assert geometric_mean([4.0, 0.0, -3.0]) == pytest.approx(4.0)

    def test_empty_input_is_zero(self):
        assert geometric_mean([]) == 0.0

    def test_accepts_generators(self):
        values = (x for x in [1.0, 4.0, 16.0])
        assert geometric_mean(values) == pytest.approx(4.0)

    def test_log_domain_stability(self):
        # Large spreads must not overflow: computed in log space.
        spread = [1e-6, 1e6]
        assert math.isfinite(geometric_mean(spread))
        assert geometric_mean(spread) == pytest.approx(1.0)


class TestFormatTable:
    def test_columns_align_and_floats_format(self):
        rows = [
            {"query": "Q1", "speedup": 1.23456, "runtime_s": 10.0},
            {"query": "Q10", "speedup": 0.5, "runtime_s": 123.456},
        ]
        table = format_table(rows, ["query", "speedup", "runtime_s"])
        lines = table.splitlines()
        assert lines[0].startswith("query")
        assert set(lines[1]) <= {"-", " "}
        assert "1.235" in table and "0.500" in table
        # All rows render the same number of columns.
        assert len(lines) == 4

    def test_missing_cells_render_empty(self):
        table = format_table([{"a": 1}], ["a", "b"])
        assert "b" in table.splitlines()[0]

    def test_custom_float_format(self):
        table = format_table([{"x": 1234.5678}], ["x"], floatfmt="{:,.1f}")
        assert "1,234.6" in table

    def test_empty_rows_still_render_header(self):
        table = format_table([], ["a", "b"])
        assert table.splitlines()[0].startswith("a")


class TestWriteReport:
    def test_writes_file_and_returns_path(self, tmp_path):
        path = write_report("unit_test_report", "hello\n\n", directory=str(tmp_path))
        assert path.endswith("unit_test_report.txt")
        content = (tmp_path / "unit_test_report.txt").read_text()
        assert content == "hello\n"

    def test_creates_directory(self, tmp_path):
        target = tmp_path / "nested" / "dir"
        write_report("r", "body", directory=str(target))
        assert (target / "r.txt").exists()


class TestBenchSettings:
    def test_defaults_are_laptop_sized(self):
        settings = BenchSettings()
        assert settings.small_cluster_workers == 4
        assert settings.large_cluster_workers == 8
        assert settings.scalability_workers == 16
        assert settings.io_scale_multiplier == pytest.approx(100.0 / 0.0005)

    def test_query_lists(self):
        settings = BenchSettings()
        representative = settings.representative_queries()
        assert representative == [1, 6, 3, 10, 5, 7, 8, 9]
        assert settings.figure6_queries() == representative
        full = BenchSettings(full_query_set=True)
        assert full.figure6_queries() == list(range(1, 23))

    def test_io_multiplier_never_below_one(self):
        settings = BenchSettings(scale_factor=10.0, target_scale_factor=1.0)
        assert settings.io_scale_multiplier == 1.0
