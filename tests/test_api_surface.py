"""Public-API snapshot: exported names and signatures of ``repro.api``.

API drift should break this build, not the docs.  When a change here is
intentional, update the snapshot below *and* the migration table in
``docs/API.md`` in the same commit.
"""

import inspect

import repro.api as api

EXPECTED_EXPORTS = [
    "ChaosOptions",
    "DataFrame",
    "GroupedDataFrame",
    "OneShotRunner",
    "ParallelRunner",
    "QueryHandle",
    "QueryOptions",
    "QuokkaContext",
    "ReferenceRunner",
    "Runner",
    "SYSTEM_PRESETS",
    "Session",
    "SessionRunner",
    "SystemUnderTest",
]

#: Signature snapshot of the user-facing callables (name -> str(signature),
#: quote characters stripped so postponed-annotation stringification does not
#: make the comparison brittle).
EXPECTED_SIGNATURES = {
    "QuokkaContext.__init__": (
        "(self, num_workers: int = 4, cpus_per_worker: int = 4, "
        "cost_config: Optional[CostModelConfig] = None, "
        "engine_config: Optional[EngineConfig] = None, "
        "catalog: Optional[Catalog] = None, "
        "task_managers_per_worker: int = 1)"
    ),
    "QuokkaContext.register_table": (
        "(self, name: str, data: Batch, num_splits: int = 8) -> None"
    ),
    "QuokkaContext.create_view": "(self, name: str, frame: DataFrame) -> None",
    "QuokkaContext.read_table": "(self, name: str) -> DataFrame",
    "QuokkaContext.sql": "(self, text: str) -> DataFrame",
    "QuokkaContext.session": (
        "(self, system: Optional[str] = None, "
        "engine_config: Optional[EngineConfig] = None) -> Session"
    ),
    "DataFrame.filter": "(self, predicate: Union[str, Expr]) -> DataFrame",
    "DataFrame.rename": "(self, mapping: Mapping[str, str]) -> DataFrame",
    "DataFrame.drop": "(self, *columns: str) -> DataFrame",
    "DataFrame.with_column": "(self, name: str, expr: Expr) -> DataFrame",
    "DataFrame.agg": "(self, *aggregates: AggregateSpec, **named) -> DataFrame",
    "DataFrame.explain": (
        "(self, optimized: bool = False, "
        "memory_budget_bytes: Optional[float] = None) -> str"
    ),
    "DataFrame.submit": (
        "(self, target=None, options: Optional[QueryOptions] = None, "
        "**overrides) -> QueryHandle"
    ),
    "DataFrame.collect": (
        "(self, target=None, options: Optional[QueryOptions] = None, "
        "**overrides) -> Batch"
    ),
    "DataFrame.collect_reference": "(self) -> Batch",
    "DataFrame.show": "(self, n: int = 10, target=None) -> None",
    "GroupedDataFrame.agg": (
        "(self, *aggregates: AggregateSpec, **named) -> DataFrame"
    ),
    "QueryOptions.with_overrides": "(self, **overrides) -> QueryOptions",
    "QueryHandle.wait": "(self) -> QueryResult",
    "Session.submit_options": (
        "(self, query: DataFrame | LogicalPlan, options: QueryOptions) "
        "-> QueryHandle"
    ),
    "Session.wait": "(self, handle: QueryHandle) -> QueryResult",
    "Session.wait_all": (
        "(self, handles: Sequence[QueryHandle]) -> List[QueryResult]"
    ),
    "OneShotRunner.submit": (
        "(self, query: Query, options: Optional[QueryOptions] = None) "
        "-> QueryHandle"
    ),
    "SessionRunner.submit": (
        "(self, query: Query, options: Optional[QueryOptions] = None) "
        "-> QueryHandle"
    ),
    "ReferenceRunner.submit": (
        "(self, query: Query, options: Optional[QueryOptions] = None) "
        "-> QueryHandle"
    ),
    "ParallelRunner.__init__": (
        "(self, workers: Optional[int] = None, "
        "morsel_rows: Optional[int] = None, "
        "num_channels: Optional[int] = None)"
    ),
    "ParallelRunner.submit": (
        "(self, query: Query, options: Optional[QueryOptions] = None) "
        "-> QueryHandle"
    ),
    "ParallelRunner.close": "(self) -> None",
}


def _normalized(signature: str) -> str:
    """Strip quotes and module prefixes postponed annotations introduce."""
    cleaned = signature.replace("'", "").replace('"', "")
    for prefix in (
        "repro.common.config.",
        "repro.plan.catalog.",
        "repro.plan.dataframe.",
        "repro.plan.nodes.",
        "repro.core.options.",
        "repro.core.session.",
        "repro.core.metrics.",
    ):
        cleaned = cleaned.replace(prefix, "")
    return cleaned


def test_exported_names_match_snapshot():
    assert sorted(api.__all__) == sorted(EXPECTED_EXPORTS)
    for name in EXPECTED_EXPORTS:
        assert hasattr(api, name), f"repro.api.{name} missing"


def test_signatures_match_snapshot():
    mismatches = {}
    for dotted, expected in EXPECTED_SIGNATURES.items():
        owner_name, _, attr = dotted.partition(".")
        callable_obj = getattr(getattr(api, owner_name), attr)
        actual = _normalized(str(inspect.signature(callable_obj)))
        if actual != _normalized(expected):
            mismatches[dotted] = actual
    assert not mismatches, (
        "public signatures drifted (update the snapshot AND docs/API.md):\n"
        + "\n".join(f"  {name}: {sig}" for name, sig in sorted(mismatches.items()))
    )


def test_query_options_fields_are_stable():
    import dataclasses

    assert [f.name for f in dataclasses.fields(api.QueryOptions)] == [
        "system",
        "engine_config",
        "failure_plans",
        "chaos",
        "optimize",
        "adaptive",
        "runtime_filters",
        "tracer",
        "query_name",
        "use_table_stats",
        "broadcast_threshold_bytes",
        "memory_budget_bytes",
    ]


def test_context_has_no_execution_methods():
    # Execution is a verb on the frame; the pre-redesign ctx.execute* shims
    # are gone and must not grow back.
    for name in ("execute", "execute_reference", "execute_many"):
        assert not hasattr(api.QuokkaContext, name)


#: Snapshot of the cost-annotated EXPLAIN output: every node carries its
#: estimated rows/bytes and cumulative C_out cost, derived from the table's
#: (lazily analyzed) statistics.  Estimates are deterministic functions of
#: the fixture data, so this is an exact-text snapshot.
EXPECTED_EXPLAIN = """\
Aggregate(by=['region'], aggs=['sum->total'])  [est_rows=2.0 est_bytes=40 cost=8.0]
  Filter((col('yr') == lit(2025)))  [est_rows=2.0 est_bytes=56 cost=6.0]
    TableScan(sales, rows=4)  [est_rows=4.0 est_bytes=113 cost=4.0]"""


def _explain_fixture_frame():
    from repro.data.batch import Batch

    ctx = api.QuokkaContext(num_workers=2)
    ctx.register_table(
        "sales",
        Batch.from_pydict(
            {
                "region": ["east", "west", "east", "north"],
                "amount": [10.0, 20.0, 30.0, 40.0],
                "yr": [2024, 2024, 2025, 2025],
            }
        ),
    )
    return (
        ctx.read_table("sales")
        .filter("yr = 2025")
        .groupby("region")
        .agg(total=("amount", "sum"))
    )


def test_explain_output_matches_snapshot():
    frame = _explain_fixture_frame()
    assert frame.explain() == EXPECTED_EXPLAIN


def test_optimized_explain_keeps_cost_annotations():
    frame = _explain_fixture_frame()
    optimized = frame.explain(optimized=True)
    for line in optimized.splitlines():
        assert "est_rows=" in line and "est_bytes=" in line and "cost=" in line


#: Snapshot of the memory-annotated EXPLAIN: with ``memory_budget_bytes`` each
#: stateful node carries its predicted per-channel peak state bytes and
#: whether that state is predicted to stay resident or spill (grace).
#: Without a budget the plain snapshot above is unchanged.
EXPECTED_MEMORY_EXPLAIN = """\
Aggregate(by=['manager'], aggs=['sum->total'])  [est_rows=2.0 est_bytes=37 \
cost=13 state_bytes=18 mem=resident]
  Join(inner, on=[('region', 'region')])  [est_rows=2.0 est_bytes=102 \
cost=11 strategy=shuffle build_bytes=34 mem=grace]
    Filter((col('yr') == lit(2025)))  [est_rows=2.0 est_bytes=56 cost=6.0]
      TableScan(sales, rows=4)  [est_rows=4.0 est_bytes=113 cost=4.0]
    TableScan(regions, rows=3)  [est_rows=3.0 est_bytes=68 cost=3.0]"""


def _memory_explain_fixture_frame():
    from repro.data.batch import Batch

    ctx = api.QuokkaContext(num_workers=2)
    ctx.register_table(
        "sales",
        Batch.from_pydict(
            {
                "region": ["east", "west", "east", "north"],
                "amount": [10.0, 20.0, 30.0, 40.0],
                "yr": [2024, 2024, 2025, 2025],
            }
        ),
    )
    ctx.register_table(
        "regions",
        Batch.from_pydict(
            {"region": ["east", "west", "north"], "manager": ["ann", "bo", "cy"]}
        ),
    )
    return (
        ctx.read_table("sales")
        .filter("yr = 2025")
        .join(ctx.read_table("regions"), left_on="region")
        .groupby("manager")
        .agg(total=("amount", "sum"))
    )


def test_memory_explain_output_matches_snapshot():
    frame = _memory_explain_fixture_frame()
    assert frame.explain(memory_budget_bytes=20) == EXPECTED_MEMORY_EXPLAIN
    # However tight the budget, both the join and the aggregation are
    # predicted to spill through the one grace-labelled path.
    tight = frame.explain(memory_budget_bytes=1)
    assert tight.count("mem=grace") == 2 and "mem=resident" not in tight
    # No budget: not a single memory annotation, byte-identical legacy text.
    assert "mem=" not in frame.explain()
