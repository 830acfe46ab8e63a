"""Tests for the command-line interface (invoked in-process through ``main``)."""

import re

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    def test_no_command_prints_help(self, capsys):
        code, out, _err = run_cli(capsys)
        assert code == 2
        assert "usage:" in out

    def test_unknown_system_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["tpch", "--query", "1", "--system", "bogus"])

    def test_tpch_requires_query(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["tpch"])


class TestSystems:
    def test_lists_all_presets(self, capsys):
        code, out, _err = run_cli(capsys, "systems")
        assert code == 0
        for name in ("quokka", "quokka-stagewise", "trino", "quokka-spool"):
            assert name in out
        # `sparksql` names only the baseline engine of the paper's figures.
        assert "sparksql" not in out


class TestExplain:
    def test_explain_tpch_query(self, capsys):
        code, out, _err = run_cli(capsys, "explain", "--query", "3")
        assert code == 0
        assert "TableScan(lineitem" in out
        assert "Join" in out

    def test_explain_sql_statement(self, capsys):
        code, out, _err = run_cli(
            capsys, "explain", "--statement", "SELECT count(*) AS n FROM orders"
        )
        assert code == 0
        assert "Aggregate" in out

    def test_explain_with_optimizer(self, capsys):
        code, out, _err = run_cli(capsys, "explain", "--query", "6", "--optimize")
        assert code == 0
        assert "optimized plan:" in out

    def test_explain_needs_exactly_one_input(self, capsys):
        code, _out, err = run_cli(capsys, "explain")
        assert code == 2
        assert "exactly one" in err


class TestTpchCommand:
    def test_runs_simple_query(self, capsys):
        code, out, _err = run_cli(
            capsys, "tpch", "--query", "6", "--workers", "2", "--scale-factor", "0.001"
        )
        assert code == 0
        assert "runtime" in out
        assert "revenue" in out

    def test_runs_sql_formulation_with_failure(self, capsys):
        code, out, _err = run_cli(
            capsys,
            "tpch", "--query", "6", "--use-sql", "--workers", "2",
            "--scale-factor", "0.001", "--fail-worker", "1", "--fail-at", "0.5",
        )
        assert code == 0
        assert "killing worker 1" in out
        assert re.search(r"failures_injected\s*: 1\b", out)
        assert re.search(r"recovery_events\s*: 1\b", out)

    def test_sql_formulation_covers_decorrelated_queries(self, capsys):
        # Q2 needs a correlated scalar subquery; the SQL dialect covers it.
        code, out, _err = run_cli(
            capsys, "tpch", "--query", "2", "--use-sql", "--workers", "2",
            "--scale-factor", "0.001",
        )
        assert code == 0
        assert "query" in out.lower() or out


class TestChaosCommand:
    def test_chaos_without_mode_prints_help(self, capsys):
        code, out, _err = run_cli(capsys, "chaos")
        assert code == 2
        assert "matrix" in out and "replay" in out

    def test_replay_is_a_one_command_repro(self, capsys):
        code, out, _err = run_cli(
            capsys,
            "chaos", "replay", "--query", "6", "--strategy", "wal", "--seed", "1",
            "--workers", "4", "--scale-factor", "0.001",
        )
        assert code == 0
        assert "chaos plan (seed=1" in out
        assert "[PASS] q6 x wal x seed 1" in out
        assert "trace digest: " in out

    def test_small_matrix_passes(self, capsys):
        code, out, _err = run_cli(
            capsys,
            "chaos", "matrix", "--queries", "6", "--strategies", "wal,none",
            "--seeds", "2", "--scale-factor", "0.001",
        )
        assert code == 0
        assert "4 cases, 0 failures" in out

    def test_unknown_strategy_rejected(self, capsys):
        code, _out, err = run_cli(
            capsys, "chaos", "matrix", "--queries", "6", "--strategies", "bogus",
        )
        assert code == 1
        assert "unknown strategies" in err


class TestSqlCommand:
    def test_adhoc_sql(self, capsys):
        code, out, _err = run_cli(
            capsys,
            "sql",
            "SELECT o_orderpriority, count(*) AS n FROM orders "
            "GROUP BY o_orderpriority ORDER BY o_orderpriority",
            "--workers", "2", "--scale-factor", "0.001",
        )
        assert code == 0
        # Rendered by the shared format_batch table (right-aligned header).
        assert "o_orderpriority |   n" in out
        assert "(5 rows)" in out

    def test_negative_memory_budget_is_reported(self, capsys):
        code, _out, err = run_cli(
            capsys, "sql", "SELECT count(*) AS n FROM orders",
            "--workers", "2", "--scale-factor", "0.001", "--memory-budget-mb", "-1",
        )
        assert code == 1
        assert "error:" in err and "memory_budget_bytes" in err

    def test_sql_error_is_reported(self, capsys):
        code, _out, err = run_cli(
            capsys, "sql", "SELECT FROM WHERE", "--workers", "2", "--scale-factor", "0.001"
        )
        assert code == 1
        assert "error:" in err
