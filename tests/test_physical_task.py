"""Unit tests for the shared stage-task step (``repro.physical.task``) and the
cross-backend agreement it exists to guarantee."""

import numpy as np
import pytest

from repro.api import OneShotRunner, ParallelRunner, QueryOptions, QuokkaContext
from repro.data import Batch
from repro.data.schema import DataType
from repro.expr import col, lit
from repro.kernels.runtimefilter import RuntimeFilterBuilder
from repro.physical import compile_plan
from repro.physical.stages import FilterOp
from repro.physical.task import (
    apply_runtime_filters,
    drain_operator,
    finish_output,
    route_output,
)
from repro.plan import Catalog, DataFrame, TableScan
from repro.tpch import build_query, generate_catalog


def _int_filter(values):
    builder = RuntimeFilterBuilder(DataType.INT64)
    builder.add(np.asarray(values, dtype=np.int64))
    return builder.finalize()


@pytest.fixture()
def join_graph():
    catalog = Catalog()
    catalog.register(
        "orders",
        Batch.from_pydict(
            {
                "o_orderkey": list(range(1, 41)),
                "o_custkey": [i % 7 for i in range(1, 41)],
            }
        ),
        num_splits=4,
    )
    catalog.register(
        "customers",
        Batch.from_pydict({"c_custkey": list(range(5)), "c_rank": list(range(5))}),
        num_splits=2,
    )
    orders = DataFrame(TableScan(catalog.table("orders")))
    customers = DataFrame(TableScan(catalog.table("customers")))
    joined = orders.join(customers, left_on="o_custkey", right_on="c_custkey")
    return compile_plan(joined.plan, num_channels=2)


def _join_stage(graph):
    (stage,) = [s for s in graph if len(s.upstreams) == 2]
    return stage


class TestFinishOutput:
    def test_skips_empty_inputs_and_drops_emptied_outputs(self, join_graph):
        (scan,) = [s for s in join_graph.input_stages() if s.table.name == "orders"]
        split = scan.table.splits()[0]  # o_orderkey 1..10
        keep_big = FilterOp(col("o_orderkey") > lit(5))
        scan.post_ops = [keep_big]
        keeps = split.slice(8, 2)  # keys 9, 10
        loses = split.slice(0, 1)  # key 1: non-empty in, empty out
        out = finish_output(scan, [split.slice(0, 0), keeps, loses])
        assert [b.num_rows for b in out] == [2]
        assert out[0].equals(keep_big.apply(keeps))


class TestDrainOperator:
    def test_two_upstream_join_matches_the_hand_written_protocol(self, join_graph):
        stage = _join_stage(join_graph)
        tables = {
            s.stage_id: s.table.splits() for s in join_graph.input_stages()
        }
        inputs = [tables[link.upstream_id] for link in stage.upstreams]

        expected = []
        by_hand = stage.make_operator()
        for link, batches in zip(stage.upstreams, inputs):
            for batch in batches:
                expected.extend(by_hand.on_input(link.upstream_id, batch))
            expected.extend(by_hand.on_upstream_done(link.upstream_id))
        expected.extend(by_hand.finalize())

        # Generators: the drain must not need its inputs materialised.
        lazy = [(batch for batch in batches) for batches in inputs]
        emitted = drain_operator(stage, stage.make_operator(), lazy)

        assert sum(b.num_rows for b in emitted) > 0
        assert len(emitted) == len(expected)
        for got, want in zip(emitted, expected):
            assert got.to_pydict() == want.to_pydict()


class TestApplyRuntimeFilters:
    def test_stacked_filters_count_what_each_one_saw(self):
        batch = Batch.from_pydict({"a": [1, 2, 3, 4, 5, 6], "b": [1, 1, 2, 2, 3, 3]})
        first = _int_filter([1, 2, 3, 4])   # keeps 4 of 6
        second = _int_filter([2])           # keeps 2 of the surviving 4
        out, tested, dropped = apply_runtime_filters(
            batch, [("a", first), ("b", second)]
        )
        assert out.to_pydict() == {"a": [3, 4], "b": [2, 2]}
        assert (tested, dropped) == (6 + 4, 2 + 2)

    def test_an_emptied_batch_ends_the_chain(self):
        batch = Batch.from_pydict({"a": [1, 2, 3]})
        nothing = _int_filter([99])
        out, tested, dropped = apply_runtime_filters(
            batch, [("a", nothing), ("a", _int_filter([1, 2, 3]))]
        )
        assert out.num_rows == 0
        assert (tested, dropped) == (3, 3)  # the second filter never ran

    def test_no_filters_and_empty_batches_are_free(self):
        batch = Batch.from_pydict({"a": [1, 2]})
        assert apply_runtime_filters(batch, []) == (batch, 0, 0)
        empty = batch.slice(0, 0)
        out, tested, dropped = apply_runtime_filters(empty, [("a", _int_filter([1]))])
        assert (out.num_rows, tested, dropped) == (0, 0, 0)


class TestRouteOutput:
    @pytest.fixture()
    def routed(self, join_graph):
        """(graph, a scan stage, its link into the join, one split as the output)."""
        stage = _join_stage(join_graph)
        producer = join_graph.stage(stage.upstreams[0].upstream_id)
        _consumer, link = join_graph.consumer_of(producer.stage_id)
        batch = producer.table.splits()[0]
        return join_graph, producer, link, batch

    def test_partition_places_every_row_once(self, routed):
        graph, producer, link, batch = routed
        assert link.mode == "partition" and link.partition_keys
        pieces = route_output(graph, producer, 0, batch)
        assert sorted(pieces) == [0, 1]
        assert sum(p.num_rows for p in pieces.values()) == batch.num_rows
        key = link.partition_keys[0]
        seen = [set(pieces[target].to_pydict()[key]) for target in (0, 1)]
        assert not (seen[0] & seen[1])  # a key lives on exactly one channel

    def test_broadcast_repeats_the_same_batch_object(self, routed):
        graph, producer, link, batch = routed
        link.mode = "broadcast"
        pieces = route_output(graph, producer, 1, batch)
        assert sorted(pieces) == [0, 1] and all(p is batch for p in pieces.values())

    def test_aligned_sends_everything_to_the_same_index_channel(self, routed):
        graph, producer, link, batch = routed
        link.mode = "aligned"
        for channel in (0, 1, 3):
            pieces = route_output(graph, producer, channel, batch)
            assert {target: p.num_rows for target, p in pieces.items()} == {
                target: batch.num_rows if target == channel % 2 else 0
                for target in (0, 1)
            }

    def test_gather_without_keys_goes_to_channel_zero(self, routed):
        graph, producer, link, batch = routed
        link.partition_keys = None
        pieces = route_output(graph, producer, 1, batch)
        assert {t: p.num_rows for t, p in pieces.items()} == {0: batch.num_rows, 1: 0}

    def test_result_stage_routes_whole_to_pseudo_channel_zero(self, routed):
        graph, _producer, _link, batch = routed
        result = graph.stage(graph.result_stage_id)
        assert route_output(graph, result, 0, batch) == {0: batch}


class TestBackendsShareTheStep:
    """PR 10 claimed the simulator and the parallel backend filter and prune
    identically; with one task step under both it is now an equality."""

    @pytest.fixture(scope="class")
    def tpch(self):
        return generate_catalog(scale_factor=0.005, seed=0)

    @pytest.mark.parametrize("query_number", [5, 9])
    def test_filter_and_pruning_counters_are_equal(self, tpch, query_number):
        ctx = QuokkaContext(num_workers=4, catalog=tpch)
        frame = build_query(tpch, query_number).bind(ctx)
        options = QueryOptions(adaptive=False)
        simulated = OneShotRunner(ctx).submit(frame, options).wait().metrics
        inline = (
            ParallelRunner(workers=0, num_channels=4).submit(frame, options).wait().metrics
        )
        assert simulated.filter_rows_dropped > 0  # the filters actually fired
        for counter in ("filter_rows_tested", "filter_rows_dropped", "splits_pruned"):
            assert getattr(simulated, counter) == getattr(inline, counter), counter
