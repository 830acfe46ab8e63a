"""Out-of-core execution: spilled state must be *batch-exact* vs resident.

Three layers of differential coverage:

* **Kernel properties** (Hypothesis): the grace hash join and the spilling
  aggregation are compared against the resident kernels they fall back
  from, over random schemas, key dtypes,
  unicode-heavy strings, empty batches and quota fractions down to zero.
  The comparison is *exact* — including float payloads drawn from a messy
  pool — because the out-of-core kernels preserve the resident kernels'
  accumulation and emission order, not merely the result multiset.
* **Compile path**: there is one operator class per stateful stage kind; a
  memory budget only picks its out-of-core state kernel — for a join always
  the grace join, however oversize its predicted build side — and no budget
  leaves ``operator.spill`` unset over the resident kernel.
* **Engine end-to-end**: TPC-H under a budget of 25% of the measured
  resident peak completes, spills, and returns bit-identical batches (Q5 at
  2% only with runtime filters off — see ``TestExactnessLimit``); the chaos
  differential matrix (worker kills mid-spill) stays reference-exact
  for both ``wal`` and the durable ``spool-s3`` strategy, whose retraced
  channels re-hit their previous spill writes instead of re-writing them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.batch import Batch
from repro.data.schema import DataType, Field, Schema
from repro.expr.nodes import Column
from repro.kernels.aggregate import (
    AggregateFunction,
    AggregateSpec,
    GroupedAggregationState,
)
from repro.kernels.buffer import RowBuffer
from repro.kernels.join import HashJoin, JoinType
from repro.kernels.outofcore import (
    GraceHashJoin,
    SpillingAggregation,
    SpillingRowBuffer,
    spill_partition_indices,
)
from repro.memory import MemoryManager, SpillContext, SpillKey
from repro.physical.operators import AggregateOperator, CollectOperator, JoinOperator

# -- strategies ----------------------------------------------------------------

#: Unicode-heavy pool; repetition is likely, which exercises duplicate keys.
STRING_POOL = ["", "a", "aa", "b", "é", "λx", "商人", "🦆", "key", "KEY", "-1", "0"]

#: Deliberately reassociation-*unsafe* float pool: sums over these values
#: differ in final ULPs when the addition order changes, so exact equality
#: below proves the out-of-core kernels preserve accumulation order.
FLOAT_POOL = [0.1, -0.3, 1e9, -1e9, 3.7, 0.2, 1e-7, 123456.789, -0.1]

KEY_DTYPES = [DataType.INT64, DataType.STRING, DataType.BOOL, DataType.DATE]


def _value_strategy(dtype: DataType):
    if dtype is DataType.INT64:
        return st.integers(-3, 3)
    if dtype is DataType.FLOAT64:
        return st.sampled_from(FLOAT_POOL)
    if dtype is DataType.STRING:
        return st.sampled_from(STRING_POOL)
    if dtype is DataType.BOOL:
        return st.booleans()
    return st.integers(0, 5)  # DATE (days)


@st.composite
def schemas(draw, min_keys=1, max_keys=2):
    num_keys = draw(st.integers(min_keys, max_keys))
    key_dtypes = [draw(st.sampled_from(KEY_DTYPES)) for _ in range(num_keys)]
    fields = [Field(f"k{i}", dtype) for i, dtype in enumerate(key_dtypes)]
    fields.append(Field("payload", DataType.FLOAT64))
    fields.append(Field("tag", DataType.STRING))
    return Schema(fields)


@st.composite
def batch_for(draw, schema, max_rows=10):
    num_rows = draw(st.integers(0, max_rows))
    columns = {
        field.name: np.asarray(
            draw(
                st.lists(
                    _value_strategy(field.dtype),
                    min_size=num_rows,
                    max_size=num_rows,
                )
            ),
            dtype=field.dtype.numpy_dtype,
        )
        for field in schema
    }
    return Batch(schema, columns)


@st.composite
def batch_lists(draw, schema, max_batches=3, max_rows=8):
    count = draw(st.integers(0, max_batches))
    return [draw(batch_for(schema, max_rows=max_rows)) for _ in range(count)]


#: Quotas from "spill everything" to "spill nothing"; tiny batches make a
#: few hundred bytes an aggressive-but-partial threshold.
quotas = st.sampled_from([None, 0, 64, 256, 4096])
partition_counts = st.sampled_from([1, 2, 3, 8])


def assert_batches_identical(actual: Batch, expected: Batch):
    """Exact equality: schema, dtypes and every value (floats bit-for-bit)."""
    assert actual.schema.names == expected.schema.names
    assert [f.dtype for f in actual.schema] == [f.dtype for f in expected.schema]
    assert actual.num_rows == expected.num_rows
    for field in expected.schema:
        assert np.array_equal(
            actual.column(field.name), expected.column(field.name)
        ), field.name


def _context(quota, partitions=2) -> SpillContext:
    return SpillContext(0, 0, quota, partitions)


# -- unit: memory manager ------------------------------------------------------


class TestMemoryManager:
    def test_used_bytes_is_integer_exact(self):
        manager = MemoryManager(1000)
        manager.update("a", 300)
        manager.update("b", 457)
        assert manager.used_bytes == 757
        assert isinstance(manager.used_bytes, int)
        manager.update("a", 100)
        assert manager.used_bytes == 557
        assert manager.peak_bytes == 757  # high-water mark survives shrinking

    def test_release_drops_reservation(self):
        manager = MemoryManager(None)
        manager.update("op", 512)
        manager.release("op")
        assert manager.used_bytes == 0
        assert manager.peak_bytes == 512
        manager.release("never-registered")  # idempotent

    def test_forced_grants_are_counted(self):
        manager = MemoryManager(10)
        assert manager.forced_grants == 0
        manager.note_forced_grant()
        manager.note_forced_grant()
        assert manager.forced_grants == 2


# -- unit: spill context -------------------------------------------------------


class TestSpillContext:
    def test_keys_are_deterministic_per_label(self):
        ctx = _context(quota=None)
        assert ctx.new_key("build0") == SpillKey(0, 0, "build0", 0)
        assert ctx.new_key("build0") == SpillKey(0, 0, "build0", 1)
        assert ctx.new_key("pending") == SpillKey(0, 0, "pending", 0)
        # A fresh context (a retraced channel) regenerates the same keys.
        again = _context(quota=None)
        assert again.new_key("build0") == SpillKey(0, 0, "build0", 0)

    def test_restore_hits_staging_area_when_unbound(self):
        ctx = _context(quota=0)
        key = ctx.new_key("x")
        ctx.spill(key, "payload", 11)
        assert ctx.restore(key) == "payload"
        kinds = [record.kind for record in ctx.take_io()]
        assert kinds == ["write", "read"]

    def test_discard_keeps_payload_until_engine_forgets(self):
        # The delete record is chronological: the pending *write* of the same
        # key drains first and still needs the staged payload.  (A spill
        # written, read and discarded inside one engine task hits this.)
        ctx = _context(quota=0)
        key = ctx.new_key("x")
        ctx.spill(key, "payload", 11)
        ctx.discard(key)
        payload, nbytes = ctx.staged_payload(key)
        assert (payload, nbytes) == ("payload", 11)
        ctx.forget(key)
        with pytest.raises(KeyError):
            ctx.staged_payload(key)

    def test_needs_spill_respects_quota(self):
        assert not _context(quota=None).needs_spill(1e18)
        assert not _context(quota=100).needs_spill(100)
        assert _context(quota=100).needs_spill(101)
        assert _context(quota=0).needs_spill(1)

    def test_attach_rekeys_before_any_key_is_minted(self):
        ctx = SpillContext(-1, -1, 10, 2)
        ctx.attach(7, 3, MemoryManager(10), peek=lambda key: None)
        assert ctx.new_key("a") == SpillKey(7, 3, "a", 0)
        ctx.note_usage(25)
        assert ctx.manager.used_bytes == 25
        assert ctx.manager.peak_bytes == 25


# -- unit: spill partitioning --------------------------------------------------


class TestSpillPartitioning:
    def test_partition_indices_cover_every_row_once(self):
        batch = Batch.from_pydict({"k": list(range(100)), "v": [0.5] * 100})
        parts = spill_partition_indices(batch, ["k"], 4)
        assert len(parts) == 4
        combined = np.sort(np.concatenate(parts))
        assert np.array_equal(combined, np.arange(100))

    def test_high_bits_do_not_alias_channel_routing(self):
        # Channel routing uses hash % num_channels (low bits); the spill
        # partition must not collapse onto one partition for rows that were
        # routed to one channel.
        from repro.data.partition import hash_rows

        batch = Batch.from_pydict({"k": list(range(4096)), "v": [0.0] * 4096})
        hashes = hash_rows(batch, ["k"])
        channel0 = batch.filter((hashes % np.uint64(4)) == 0)
        parts = spill_partition_indices(channel0, ["k"], 4)
        populated = sum(1 for idx in parts if len(idx))
        assert populated == 4


# -- properties: grace hash join vs resident ----------------------------------


@settings(max_examples=60, deadline=None)
@given(data=st.data(), join_type=st.sampled_from(list(JoinType)), quota=quotas)
def test_grace_join_matches_resident_bit_for_bit(data, join_type, quota):
    schema = data.draw(schemas())
    keys = [f.name for f in schema][: data.draw(st.integers(1, len(schema) - 2))]
    build_batches = data.draw(batch_lists(schema, max_batches=3))
    if not build_batches:
        build_batches = [data.draw(batch_for(schema))]
    early_probes = data.draw(batch_lists(schema, max_batches=2))
    late_probes = data.draw(batch_lists(schema, max_batches=2))
    partitions = data.draw(partition_counts)

    resident = HashJoin(keys, keys, join_type, build_suffix="_b")
    grace = GraceHashJoin(keys, keys, join_type, "_b", _context(quota, partitions))
    for batch in build_batches:
        resident.build(batch)
        grace.build(batch)
    # Probe batches that arrive before the build side completes are buffered
    # (and spilled under pressure); build_done flushes them in arrival order.
    # Both kernels speak this protocol — JoinOperator drives either one.
    for batch in early_probes:
        resident.pending(batch)
        grace.pending(batch)
    assert resident.state_nbytes >= sum(b.nbytes for b in early_probes)
    expected = [resident.probe(b) for b in early_probes if b.num_rows]
    expected = [out for out in expected if out.num_rows]
    for flushed in (grace.build_done(), resident.build_done()):
        assert len(flushed) == len(expected)
        for actual_out, expected_out in zip(flushed, expected):
            assert_batches_identical(actual_out, expected_out)
    for batch in late_probes:
        if batch.num_rows:
            assert_batches_identical(grace.probe(batch), resident.probe(batch))
    assert grace.finalize() == resident.finalize() == []


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_grace_join_all_duplicate_keys_under_zero_quota(data):
    schema = Schema([Field("k", DataType.STRING), Field("v", DataType.INT64)])
    rows = data.draw(st.integers(1, 8))
    build = Batch.from_pydict({"k": ["🦆"] * rows, "v": list(range(rows))}, schema=schema)
    probe = Batch.from_pydict({"k": ["🦆", "x"], "v": [100, 200]}, schema=schema)
    resident = HashJoin(["k"], ["k"])
    grace = GraceHashJoin(["k"], ["k"], JoinType.INNER, "_right", _context(0, 4))
    resident.build(build)
    grace.build(build)
    grace.build_done()
    assert_batches_identical(grace.probe(probe), resident.probe(probe))


# -- properties: spilling aggregation vs resident ------------------------------

AGG_SPECS = [
    AggregateSpec("total", AggregateFunction.SUM, Column("payload")),
    AggregateSpec("n", AggregateFunction.COUNT),
    AggregateSpec("lo", AggregateFunction.MIN, Column("payload")),
    AggregateSpec("mean", AggregateFunction.AVG, Column("payload")),
]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), quota=quotas)
def test_spilling_aggregation_matches_resident_bit_for_bit(data, quota):
    schema = data.draw(schemas())
    group_keys = [f.name for f in schema][: data.draw(st.integers(1, 2))]
    batches = data.draw(batch_lists(schema, max_batches=4))
    specs = data.draw(
        st.lists(st.sampled_from(AGG_SPECS), min_size=1, max_size=3, unique_by=lambda s: s.name)
    )

    resident = GroupedAggregationState(group_keys, specs)
    spilling = SpillingAggregation(group_keys, specs, _context(quota))
    for batch in batches:
        resident.update(batch)
        spilling.update(batch)
    assert_batches_identical(
        spilling.finalize(input_schema=schema),
        resident.finalize(input_schema=schema),
    )


def test_spilling_aggregation_freeze_preserves_float_association():
    # Three batches whose float sums differ in the last ULP if the addition
    # order is reassociated; the freeze-and-replay design must reproduce the
    # resident order even when the quota forces a freeze after batch one.
    schema = Schema([Field("g", DataType.INT64), Field("payload", DataType.FLOAT64)])
    batches = [
        Batch.from_pydict({"g": [1, 1], "payload": [1e9, 0.1]}, schema=schema),
        Batch.from_pydict({"g": [1, 1], "payload": [-1e9, 0.2]}, schema=schema),
        Batch.from_pydict({"g": [1], "payload": [0.3]}, schema=schema),
    ]
    specs = [AggregateSpec("total", AggregateFunction.SUM, Column("payload"))]
    resident = GroupedAggregationState(["g"], specs)
    spilling = SpillingAggregation(["g"], specs, _context(0))
    for batch in batches:
        resident.update(batch)
        spilling.update(batch)
    assert spilling.state_nbytes == 0  # frozen: everything parked on storage
    assert_batches_identical(
        spilling.finalize(input_schema=schema),
        resident.finalize(input_schema=schema),
    )


# -- properties: spilling row buffer vs resident --------------------------------


@settings(max_examples=40, deadline=None)
@given(data=st.data(), quota=quotas)
def test_spilling_row_buffer_restores_arrival_order(data, quota):
    schema = data.draw(schemas())
    batches = [b for b in data.draw(batch_lists(schema, max_batches=5)) if b.num_rows]
    manager = MemoryManager(quota)
    context = _context(quota)
    context.attach(0, 0, manager, peek=lambda key: None)
    resident, spilling = RowBuffer(), SpillingRowBuffer(context)
    for batch in batches:
        resident.append(batch)
        spilling.append(batch)
        assert quota is None or spilling.state_nbytes <= quota
    total = resident.state_nbytes
    restored = spilling.finalize()
    assert len(restored) == len(batches)
    for actual_out, expected_out in zip(restored, resident.finalize()):
        assert_batches_identical(actual_out, expected_out)
    # The restored rows belong to the caller: the books show the peak they
    # reached (a forced grant when over quota) and nothing held afterwards.
    assert manager.peak_bytes == total
    assert manager.used_bytes == spilling.state_nbytes == 0
    assert manager.forced_grants == int(quota is not None and total > quota)


# -- compile path --------------------------------------------------------------


class TestCompilePath:
    @pytest.fixture()
    def catalog(self):
        from repro.plan import Catalog

        cat = Catalog()
        cat.register(
            "facts",
            Batch.from_pydict(
                {
                    "k": [i % 5 for i in range(50)],
                    "v": [float(i) for i in range(50)],
                }
            ),
            num_splits=2,
        )
        cat.register(
            "dims",
            Batch.from_pydict({"k": list(range(5)), "name": list("abcde")}),
            num_splits=2,
        )
        return cat

    def _join_agg_plan(self, catalog):
        from repro.plan import DataFrame, TableScan

        frame = (
            DataFrame(TableScan(catalog.table("facts")))
            .join(DataFrame(TableScan(catalog.table("dims"))), left_on="k")
            .groupby("name")
            .agg(total=("v", "sum"))
        )
        return frame.plan

    #: stage kind -> (operator, its kernel attribute, resident kernel, out-of-core kernel)
    KINDS = {
        "join": (JoinOperator, "_join", HashJoin, GraceHashJoin),
        "agg": (AggregateOperator, "_state", GroupedAggregationState, SpillingAggregation),
        "collect": (CollectOperator, "_rows", RowBuffer, SpillingRowBuffer),
    }

    def _stateful_operators(self, graph):
        return {
            stage.name.rsplit("_", 1)[0]: stage.make_operator()
            for stage in graph
            if stage.stateful
        }

    @pytest.mark.parametrize("budget", [None, float("inf"), 1 << 20], ids=str)
    def test_budget_picks_the_kernel_not_the_operator_class(self, catalog, budget):
        from repro.physical import compile_plan

        graph = compile_plan(
            self._join_agg_plan(catalog), num_channels=2, memory_budget_bytes=budget
        )
        ops = self._stateful_operators(graph)
        assert set(ops) == set(self.KINDS)
        for kind, (operator, attr, resident, out_of_core) in self.KINDS.items():
            op = ops[kind]
            kernel = getattr(op, attr)
            assert type(op) is operator
            if budget is None:
                assert op.spill is None and type(kernel) is resident
            else:
                assert type(kernel) is out_of_core and kernel.spill is op.spill

    def test_predicted_oversize_build_stays_grace_and_bit_exact(self, catalog):
        """A build side predicted not to fit even one grace partition still
        compiles to the grace join: oversize partitions are forced grants,
        not a reason for a second join path."""
        from repro.optimizer.stats import CardinalityEstimator
        from repro.physical import compile_plan
        from repro.physical.local import execute_stage_graph_locally

        plan = self._join_agg_plan(catalog)
        graph = compile_plan(
            plan,
            num_channels=2,
            estimator=CardinalityEstimator(table_rows={"dims": 10_000_000}),
            memory_budget_bytes=64,
        )
        join = self._stateful_operators(graph)["join"]
        assert type(join) is JoinOperator and type(join._join) is GraceHashJoin
        resident = compile_plan(
            plan,
            num_channels=2,
            estimator=CardinalityEstimator(table_rows={"dims": 10_000_000}),
        )
        assert_batches_identical(
            execute_stage_graph_locally(graph), execute_stage_graph_locally(resident)
        )

    def test_memory_strategy_decision_table(self):
        from repro.optimizer.cost import memory_strategy

        assert memory_strategy(1e9, 4, None) == "resident"
        assert memory_strategy(1e9, 4, float("inf")) == "resident"
        assert memory_strategy(None, 4, 1000.0) == "grace"
        assert memory_strategy(4000.0, 4, 1000.0) == "resident"
        assert memory_strategy(8000.0, 4, 1000.0) == "grace"
        assert memory_strategy(1e9, 4, 1000.0) == "grace"


# -- engine end-to-end ---------------------------------------------------------


@pytest.fixture(scope="module")
def tpch_catalog():
    from repro.tpch import generate_catalog

    return generate_catalog(scale_factor=0.001, seed=0)


def _run(catalog, query, budget, tracer=None):
    from repro.api import QuokkaContext
    from repro.core.options import QueryOptions
    from repro.tpch import build_query

    ctx = QuokkaContext(num_workers=2, catalog=catalog)
    session = ctx.session()
    try:
        handle = session.submit_options(
            build_query(catalog, query),
            QueryOptions(memory_budget_bytes=budget, tracer=tracer),
        )
        return session.wait(handle)
    finally:
        session.close()


class TestEngineTightBudget:
    @pytest.mark.parametrize("query", [3, 9, 18])
    def test_quarter_budget_is_batch_exact_and_spills(self, tpch_catalog, query):
        resident = _run(tpch_catalog, query, budget=float("inf"))
        assert resident.metrics.spill_writes == 0
        peak = resident.metrics.memory_peak_bytes
        assert peak > 0 and isinstance(peak, int)

        tight = _run(tpch_catalog, query, budget=0.25 * peak)
        assert tight.metrics.spill_writes > 0
        assert tight.metrics.spill_reads > 0
        assert tight.metrics.spill_bytes_written > 0
        assert_batches_identical(tight.batch, resident.batch)

    @pytest.mark.parametrize("query", [3, 5, 9, 18])
    def test_unlimited_budget_matches_no_budget_run(self, tpch_catalog, query):
        """The two kernel families are the same program: under an infinite
        budget the out-of-core kernels never spill, and the run differs from
        the resident one only in that its memory is tracked."""
        from repro.trace.digest import trace_digest
        from repro.trace.recorder import TraceRecorder

        plain_tracer = TraceRecorder()
        plain = _run(tpch_catalog, query, budget=None, tracer=plain_tracer)
        assert plain.metrics.spill_writes == 0
        assert plain.metrics.memory_peak_bytes == 0  # nothing is even tracked

        tracked_tracer = TraceRecorder()
        tracked = _run(tpch_catalog, query, budget=float("inf"), tracer=tracked_tracer)
        assert tracked.metrics.spill_writes == 0
        assert tracked.metrics.memory_peak_bytes > 0
        assert_batches_identical(tracked.batch, plain.batch)
        assert repr(tracked.metrics.runtime_seconds) == repr(plain.metrics.runtime_seconds)
        assert trace_digest(tracked_tracer) == trace_digest(plain_tracer)

        # The resident path itself is replay-deterministic, digest included.
        again_tracer = TraceRecorder()
        again = _run(tpch_catalog, query, budget=None, tracer=again_tracer)
        assert_batches_identical(again.batch, plain.batch)
        assert trace_digest(again_tracer) == trace_digest(plain_tracer)

    def test_spill_traffic_lands_in_trace_and_digest(self, tpch_catalog):
        from repro.trace.digest import trace_digest
        from repro.trace.recorder import TraceRecorder

        resident = _run(tpch_catalog, 3, budget=float("inf"))
        budget = 0.25 * resident.metrics.memory_peak_bytes
        first_tracer = TraceRecorder()
        first = _run(tpch_catalog, 3, budget=budget, tracer=first_tracer)
        assert first.metrics.spill_writes > 0
        assert len(first_tracer.spills) == (
            first.metrics.spill_writes
            + first.metrics.spill_write_rehits
            + first.metrics.spill_reads
            + sum(1 for record in first_tracer.spills if record.kind == "delete")
        )
        # Spill schedules are deterministic: the digest (which folds in every
        # spill record) reproduces run over run.
        second_tracer = TraceRecorder()
        _run(tpch_catalog, 3, budget=budget, tracer=second_tracer)
        assert trace_digest(first_tracer) == trace_digest(second_tracer)


class TestExactnessLimit:
    """What "bit-identical to the resident run" depends on (docs/MEMORY.md).

    Q5 at SF 0.005 on 4 workers under 2% of its resident peak: the budgeted
    run always matches within the float tolerance, and is bit-identical
    whenever runtime filters are off, adaptive execution on or off.  With
    runtime filters on (the default) ``revenue`` differs from the resident
    run below the 1e-6 tolerance: the last join's per-task partial sums and
    their arrival order at the final aggregation both follow the timing a
    budget shifts (docs/MEMORY.md).  The ADAPTIVE cell holds because its four
    partials sum alike in either arrival order, not by construction.  The
    strict xfails pin the open limit: closing it (ROADMAP item 7a/7b) turns
    them into failures that say the caveat in the docs can go.
    """

    STATIC = {"runtime_filters": False, "adaptive": False}
    ADAPTIVE = {"runtime_filters": False}
    FILTERED = [{}, {"adaptive": False}]

    @pytest.fixture(scope="class")
    def run_pair(self):
        from repro.api import QuokkaContext
        from repro.core.options import QueryOptions
        from repro.tpch import build_query, generate_catalog
        from repro.tpch.generator import BENCHMARK_SPLITS

        catalog = generate_catalog(
            scale_factor=0.005, seed=0, splits=BENCHMARK_SPLITS
        )
        pairs = {}

        def run(budget, overrides):
            with QuokkaContext(num_workers=4, catalog=catalog).session() as session:
                return session.wait(
                    session.submit_options(
                        build_query(catalog, 5),
                        QueryOptions(memory_budget_bytes=budget, **overrides),
                    )
                )

        def pair(overrides):
            key = tuple(sorted(overrides.items()))
            if key not in pairs:
                resident = run(float("inf"), overrides)
                budget = 0.02 * resident.metrics.memory_peak_bytes
                pairs[key] = (run(budget, overrides), resident)
            return pairs[key]

        return pair

    @pytest.mark.parametrize("overrides", [STATIC, ADAPTIVE, *FILTERED], ids=str)
    def test_tight_budget_is_tolerance_exact_and_spills(self, run_pair, overrides):
        from repro.chaos.harness import batches_match

        tight, resident = run_pair(overrides)
        assert tight.metrics.spill_writes > 0
        assert batches_match(tight.batch, resident.batch)

    @pytest.mark.parametrize(
        "overrides",
        [STATIC, ADAPTIVE]
        + [
            pytest.param(
                overrides,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="revenue drifts below 1e-6 from the resident run when "
                    "runtime filters are on (ROADMAP 7a)",
                ),
            )
            for overrides in FILTERED
        ],
        ids=str,
    )
    def test_tight_budget_is_bit_exact(self, run_pair, overrides):
        tight, resident = run_pair(overrides)
        assert_batches_identical(tight.batch, resident.batch)


class TestChaosWithTightBudget:
    """Worker kills mid-spill: results stay reference-exact, durable spills re-hit."""

    @pytest.fixture(scope="class")
    def harness(self, tpch_catalog):
        from repro.chaos import DifferentialHarness
        from repro.core.options import QueryOptions

        # Runtime filters off: they drop most probe rows before the join, so
        # operator state stays under the tight budget and nothing ever spills
        # — this matrix exists to kill workers *mid-spill*.
        return DifferentialHarness(
            catalog=tpch_catalog,
            base_options=QueryOptions(
                memory_budget_bytes=24000, runtime_filters=False
            ),
        )

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("strategy", ["wal", "spool-s3"])
    def test_chaos_cell_is_reference_exact(self, harness, strategy, seed):
        outcome = harness.run_case(3, strategy, seed)
        assert outcome.passed, outcome.describe()
        assert outcome.metrics.spill_writes > 0

    def test_durable_spill_writes_rehit_on_retrace(self, harness):
        rehits = 0
        for seed in range(3):
            outcome = harness.run_case(3, "spool-s3", seed)
            assert outcome.passed, outcome.describe()
            rehits += outcome.metrics.spill_write_rehits
        assert rehits > 0
