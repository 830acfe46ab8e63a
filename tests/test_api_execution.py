"""Tests for the unified execution protocol: bound frames, runners, options.

Covers the redesign's acceptance criteria: every public path is a wrapper
over ``Runner``/``QueryOptions``/``QueryHandle``, a bound frame's
``collect()`` is reference-checked on TPC-H Q1/Q3/Q6 under both planning
paths, and ``QueryOptions`` resolves engine configuration with
engine_config > system preset > context default precedence.
"""

import pytest

from repro.api import (
    OneShotRunner,
    QueryHandle,
    QueryOptions,
    QuokkaContext,
    ReferenceRunner,
    Runner,
    SessionRunner,
)
from repro.common.config import EngineConfig
from repro.common.errors import ConfigError
from repro.data import Batch
from repro.tpch import build_query, generate_catalog, reference_answer


@pytest.fixture()
def ctx():
    context = QuokkaContext(num_workers=3, cpus_per_worker=2)
    context.register_table(
        "sales",
        Batch.from_pydict(
            {
                "region": [f"r{i % 4}" for i in range(200)],
                "amount": [float(i % 97) for i in range(200)],
            }
        ),
        num_splits=6,
    )
    return context


def sales_query(ctx):
    return (
        ctx.read_table("sales")
        .filter("amount > 5.0")
        .groupby("region")
        .agg(total=("amount", "sum"), n="count")
        .sort("region")
    )


class TestBoundFrames:
    def test_read_table_binds_the_context(self, ctx):
        frame = ctx.read_table("sales")
        assert frame.context is ctx
        assert frame.filter("amount > 5.0").context is ctx

    def test_collect_matches_reference(self, ctx):
        frame = sales_query(ctx)
        assert frame.collect().equals(frame.collect_reference(), sort_keys=["region"])

    def test_unbound_frame_needs_a_target(self, ctx):
        from repro.plan import TableScan
        from repro.plan.dataframe import DataFrame

        bare = DataFrame(TableScan(ctx.catalog.table("sales")))
        with pytest.raises(ConfigError):
            bare.collect()
        # Binding (or an explicit runner) makes the same frame runnable.
        assert bare.bind(ctx).collect().num_rows == 200
        assert bare.collect(OneShotRunner(ctx)).num_rows == 200

    def test_submit_returns_a_query_handle(self, ctx):
        handle = sales_query(ctx).submit(query_name="sales")
        assert isinstance(handle, QueryHandle)
        result = handle.wait()
        assert result.query_name == "sales"
        assert handle.done
        # The one-shot session is private to the handle and closed after wait.
        assert handle.owns_session and not handle.session._open

    def test_show_prints_rows(self, ctx, capsys):
        sales_query(ctx).show(2)
        out = capsys.readouterr().out
        assert "region" in out and "total" in out
        assert "showing 2" in out

    def test_explain_optimized(self, ctx):
        frame = sales_query(ctx)
        assert "Filter" in frame.explain()
        assert isinstance(frame.explain(optimized=True), str)

    def test_sql_frames_are_bound(self, ctx):
        frame = ctx.sql("SELECT region, sum(amount) AS total FROM sales GROUP BY region")
        assert frame.context is ctx
        assert frame.collect().equals(frame.collect_reference(), sort_keys=["region"])


class TestRunners:
    def test_all_runners_satisfy_the_protocol(self, ctx):
        with ctx.session() as session:
            for runner in (OneShotRunner(ctx), SessionRunner(session), ReferenceRunner()):
                assert isinstance(runner, Runner)

    def test_session_runner_and_frame_submit_agree(self, ctx):
        frame = sales_query(ctx)
        expected = frame.collect_reference()
        with ctx.session() as session:
            via_frame = frame.submit(session).wait().batch
            via_runner = SessionRunner(session).submit(frame).wait().batch
        assert via_frame.equals(expected, sort_keys=["region"])
        assert via_runner.equals(expected, sort_keys=["region"])

    def test_reference_runner_returns_finished_handle(self, ctx):
        handle = ReferenceRunner().submit(sales_query(ctx), QueryOptions(query_name="ref"))
        assert handle.done and handle.session is None
        assert handle.wait().query_name == "ref"

    def test_reference_runner_rejects_cluster_options(self, ctx):
        # No cluster exists to honor failure plans, tracers or presets:
        # silently ignoring them would fake fault-tolerance results.
        for options in (
            QueryOptions(system="trino"),
            QueryOptions(failure_plans=[]),
            QueryOptions(tracer=object()),
            QueryOptions(engine_config=EngineConfig()),
        ):
            with pytest.raises(ConfigError):
                ReferenceRunner().submit(sales_query(ctx), options)

    def test_session_rejects_per_query_engine_config(self, ctx):
        with ctx.session() as session:
            with pytest.raises(ConfigError):
                sales_query(ctx).submit(session, system="trino")
            with pytest.raises(ConfigError):
                sales_query(ctx).submit(session, engine_config=EngineConfig())

    def test_bad_target_rejected(self, ctx):
        with pytest.raises(ConfigError):
            sales_query(ctx).submit(target=object())

    def test_dataframe_target_rejected(self, ctx):
        # A frame structurally satisfies the Runner protocol (it has submit),
        # so it must be rejected explicitly rather than recursing forever.
        with pytest.raises(ConfigError):
            sales_query(ctx).submit(target=sales_query(ctx))


class TestQueryOptions:
    def test_engine_config_beats_system_preset(self, ctx):
        override = EngineConfig(execution_mode="stagewise", ft_strategy="none")
        handle = sales_query(ctx).submit(system="quokka", engine_config=override)
        assert handle.session.engine_config is override
        handle.wait()

    def test_system_preset_beats_context_default(self, ctx):
        handle = sales_query(ctx).submit(system="trino")
        assert handle.session.engine_config.ft_strategy == "spool-hdfs"
        assert handle.session.engine_config.scheduling == "static"
        handle.wait()

    def test_context_default_applies_without_overrides(self):
        context = QuokkaContext(
            num_workers=2, engine_config=EngineConfig(ft_strategy="none")
        )
        context.register_table("t", Batch.from_pydict({"x": [1.0, 2.0]}))
        handle = context.read_table("t").submit()
        assert handle.session.engine_config.ft_strategy == "none"
        handle.wait()

    def test_unknown_system_rejected(self, ctx):
        with pytest.raises(ConfigError):
            sales_query(ctx).collect(system="duckdb")

    def test_unknown_override_field_rejected(self, ctx):
        with pytest.raises(ConfigError):
            sales_query(ctx).submit(query="typo-for-query_name")

    def test_each_preset_system_produces_the_same_answer(self, ctx):
        frame = sales_query(ctx)
        expected = frame.collect_reference()
        for system in ("quokka", "sparksql", "trino"):
            assert frame.collect(system=system).equals(expected, sort_keys=["region"])

    def test_optimize_option_preserves_the_answer(self, ctx):
        frame = sales_query(ctx)
        assert frame.collect(optimize=True).equals(
            frame.collect_reference(), sort_keys=["region"]
        )


class TestVerbsOnTpch:
    """The verbs agree with the reference under both planning paths."""

    @pytest.mark.parametrize("query_number", [1, 3, 6])
    def test_collect_matches_reference_on_tpch(self, query_number):
        catalog = generate_catalog(scale_factor=0.001, seed=0)
        ctx = QuokkaContext(num_workers=2, cpus_per_worker=2, catalog=catalog)
        frame = build_query(catalog, query_number).bind(ctx)
        heuristic = frame.collect(optimize=False)
        cost_based = frame.collect()
        expected = reference_answer(catalog, query_number)
        assert cost_based.equals(heuristic)
        assert cost_based.equals(expected)
        assert frame.collect_reference().equals(expected)

    def test_session_run_many_names_and_answers(self, ctx):
        frame = sales_query(ctx)
        with ctx.session() as session:
            results = session.run_many([frame, frame], query_names=["a", "b"])
        expected = frame.collect_reference()
        assert [r.query_name for r in results] == ["a", "b"]
        for result in results:
            assert result.batch.equals(expected, sort_keys=["region"])
