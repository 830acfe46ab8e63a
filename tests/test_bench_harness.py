"""Tests for the benchmark harness utilities (settings, reporting, taxonomy)."""


import pytest

from repro.bench import BenchSettings, format_table, geometric_mean, write_report
from repro.bench.runner import SYSTEM_CONFIGS, ExperimentRunner
from repro.ft import SYSTEM_TAXONOMY, render_taxonomy_table


class TestSettings:
    def test_defaults(self):
        settings = BenchSettings()
        assert settings.small_cluster_workers == 4
        assert settings.io_scale_multiplier == pytest.approx(100.0 / 0.0005)
        assert settings.figure6_queries() == [1, 6, 3, 10, 5, 7, 8, 9]

    def test_full_query_set(self):
        settings = BenchSettings(full_query_set=True)
        assert settings.figure6_queries() == list(range(1, 23))


class TestReporting:
    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([1.0, 1.0, 1.0]) == pytest.approx(1.0)

    def test_format_table_alignment(self):
        rows = [
            {"query": "Q1", "speedup": 1.2345},
            {"query": "Q10", "speedup": 10.5},
        ]
        text = format_table(rows, ["query", "speedup"])
        lines = text.splitlines()
        assert lines[0].startswith("query")
        assert "1.234" in text and "10.500" in text
        assert len(lines) == 4  # header, rule, two rows

    def test_write_report(self, tmp_path):
        path = write_report("demo", "hello", directory=str(tmp_path))
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == "hello\n"


class TestTaxonomy:
    def test_table_mentions_all_systems(self):
        text = render_taxonomy_table()
        for system in SYSTEM_TAXONOMY:
            assert system.name in text
        assert "Lineage" in text and "Spooling" in text

    def test_quokka_column_matches_paper(self):
        quokka = next(s for s in SYSTEM_TAXONOMY if s.name == "Quokka")
        assert (quokka.spooling, quokka.state_checkpoint, quokka.lineage) == (False, False, True)


class TestRunner:
    def test_system_configs_are_valid(self):
        for config in SYSTEM_CONFIGS.values():
            config.validate()

    def test_run_caches_results(self):
        runner = ExperimentRunner(
            BenchSettings(scale_factor=0.0005, small_cluster_workers=2, cpus_per_worker=2)
        )
        first = runner.run(6, "quokka", 2)
        second = runner.run(6, "quokka", 2)
        assert first is second
        assert first.runtime > 0
