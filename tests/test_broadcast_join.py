"""Broadcast joins: compilation, execution, byte savings and fault tolerance.

A broadcast join replicates the (small) build side to every join channel
(``UpstreamLink.mode="broadcast"``) while the probe side stays
channel-aligned (``mode="aligned"``) — a worker-local push under the default
placement.  These tests cover the physical compilation rule, correctness on
all join types through the in-process executor, the end-to-end engine path
(including the bytes-shuffled saving the rule exists for), and recovery of
replicated (non-partitioned) upstream links under injected failures and
chaos schedules.
"""

import pytest

from repro.chaos import ALL_STRATEGIES, DifferentialHarness, batches_match
from repro.cluster.faults import FailurePlan
from repro.common.config import ClusterConfig
from repro.core.options import QueryOptions
from repro.core.session import Session
from repro.data.batch import Batch
from repro.optimizer import CardinalityEstimator
from repro.physical import compile_plan
from repro.physical.local import execute_stage_graph_locally
from repro.plan.catalog import Catalog
from repro.plan.dataframe import DataFrame
from repro.plan.interpreter import execute_plan
from repro.plan.nodes import TableScan
from repro.tpch import build_query, generate_catalog, reference_answer


@pytest.fixture()
def catalog():
    cat = Catalog()
    cat.register(
        "facts",
        Batch.from_pydict(
            {
                "f_key": list(range(2000)),
                "f_dim": [i % 9 for i in range(2000)],
                "f_value": [float(i % 31) for i in range(2000)],
            }
        ),
        num_splits=8,
    )
    cat.register(
        "dims",
        Batch.from_pydict(
            {
                "d_key": list(range(9)),
                "d_name": [f"dim{i}" for i in range(9)],
            }
        ),
        num_splits=1,
    )
    return cat


def frame(catalog, name):
    return DataFrame(TableScan(catalog.table(name)))


def broadcast_links(graph):
    return [
        (stage.name, link.role, link.mode)
        for stage in graph
        for link in stage.upstreams
        if link.mode != "partition"
    ]


class TestCompilation:
    def test_small_build_side_compiles_to_broadcast(self, catalog):
        df = frame(catalog, "facts").join(
            frame(catalog, "dims"), left_on="f_dim", right_on="d_key"
        )
        graph = compile_plan(
            df.plan, num_channels=4,
            estimator=CardinalityEstimator(), broadcast_threshold_bytes=1e6,
        )
        join_stage = next(s for s in graph if s.name.startswith("join"))
        modes = {link.role: link.mode for link in join_stage.upstreams}
        assert modes == {"build": "broadcast", "probe": "aligned"}
        # Channel counts align with the probe stage for the local push.
        probe_link = next(l for l in join_stage.upstreams if l.role == "probe")
        assert join_stage.num_channels == graph.stage(probe_link.upstream_id).num_channels

    def test_zero_threshold_disables_broadcast(self, catalog):
        df = frame(catalog, "facts").join(
            frame(catalog, "dims"), left_on="f_dim", right_on="d_key"
        )
        graph = compile_plan(
            df.plan, num_channels=4,
            estimator=CardinalityEstimator(), broadcast_threshold_bytes=0.0,
        )
        assert broadcast_links(graph) == []

    def test_no_estimator_means_no_broadcast(self, catalog):
        df = frame(catalog, "facts").join(
            frame(catalog, "dims"), left_on="f_dim", right_on="d_key"
        )
        graph = compile_plan(df.plan, num_channels=4, broadcast_threshold_bytes=1e6)
        assert broadcast_links(graph) == []

    def test_large_build_side_stays_shuffled(self, catalog):
        df = frame(catalog, "dims").join(
            frame(catalog, "facts"), left_on="d_key", right_on="f_dim"
        )
        graph = compile_plan(
            df.plan, num_channels=4,
            estimator=CardinalityEstimator(), broadcast_threshold_bytes=64.0,
        )
        assert broadcast_links(graph) == []


class TestCorrectness:
    @pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
    def test_all_join_types_match_the_interpreter(self, catalog, how):
        df = frame(catalog, "facts").join(
            frame(catalog, "dims"), left_on="f_dim", right_on="d_key", how=how
        ).sort("f_key")
        graph = compile_plan(
            df.plan, num_channels=4,
            estimator=CardinalityEstimator(), broadcast_threshold_bytes=1e6,
        )
        assert broadcast_links(graph), "broadcast must actually fire for this test"
        result = execute_stage_graph_locally(graph, batch_rows=300)
        assert batches_match(result, execute_plan(df.plan))

    @pytest.mark.parametrize("number", [5, 9, 21])
    def test_tpch_through_engine_with_broadcast(self, number):
        catalog = generate_catalog(scale_factor=0.002, seed=11)
        with Session(
            cluster_config=ClusterConfig(num_workers=2, cpus_per_worker=2),
            catalog=catalog,
        ) as session:
            handle = build_query(catalog, number).submit(session)
            result = session.wait(handle)
            assert broadcast_links(handle.execution.graph)
            assert batches_match(result.batch, reference_answer(catalog, number))

    def test_result_cache_does_not_cross_physical_plans(self):
        """Submissions probing a different physical plan (broadcast off) must
        actually run — the result cache key includes the planner knobs."""
        catalog = generate_catalog(scale_factor=0.002, seed=11)
        query = build_query(catalog, 5)
        with Session(
            cluster_config=ClusterConfig(num_workers=2, cpus_per_worker=2),
            catalog=catalog,
        ) as session:
            broadcast = session.wait(session.submit_options(query, QueryOptions()))
            shuffled = session.wait(
                session.submit_options(
                    query, QueryOptions(broadcast_threshold_bytes=0.0)
                )
            )
            repeat = session.wait(session.submit_options(query, QueryOptions()))
        assert not shuffled.metrics.result_from_cache
        assert shuffled.metrics.network_bytes > broadcast.metrics.network_bytes
        # An identical resubmission still hits the cache.
        assert repeat.metrics.result_from_cache

    def test_broadcast_cuts_network_bytes(self):
        """The point of the rule: fewer bytes shuffled than hash partitioning."""
        catalog = generate_catalog(scale_factor=0.002, seed=11)
        query = build_query(catalog, 5)

        def run(options):
            with Session(
                cluster_config=ClusterConfig(num_workers=4, cpus_per_worker=2),
                catalog=catalog,
                enable_output_cache=False,
            ) as session:
                return session.wait(session.submit_options(query, options))

        # Runtime filters off: they cut the probe side's shuffle traffic on
        # their own, which is exactly the saving this test attributes to the
        # broadcast decision.
        broadcast = run(QueryOptions(runtime_filters=False))
        shuffled = run(
            QueryOptions(broadcast_threshold_bytes=0.0, runtime_filters=False)
        )
        assert batches_match(broadcast.batch, shuffled.batch)
        assert broadcast.metrics.network_bytes < shuffled.metrics.network_bytes


class TestRecovery:
    """Replicated (non-partitioned) upstream links must recover like any other."""

    def test_worker_failure_mid_broadcast_join(self):
        catalog = generate_catalog(scale_factor=0.002, seed=11)
        query = build_query(catalog, 5)
        cluster = ClusterConfig(num_workers=4, cpus_per_worker=2)

        def session():
            return Session(cluster_config=cluster, catalog=catalog,
                           enable_output_cache=False)

        with session() as s:
            baseline = query.submit(s).wait()
        with session() as s:
            handle = s.submit_options(
                query,
                QueryOptions(
                    failure_plans=[FailurePlan.at_fraction(1, 0.5, baseline.runtime)]
                ),
            )
            failed = s.wait(handle)
            assert broadcast_links(handle.execution.graph)
        assert batches_match(failed.batch, reference_answer(catalog, 5))
        assert failed.metrics.failures_injected == 1

    @pytest.mark.parametrize("strategy", ["wal", "spool-s3"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_chaos_matrix_tier_with_broadcast_joins(self, strategy, seed):
        """One {strategy x seed} differential-chaos tier with broadcast joins
        enabled (the default planner), on the join-heavy Q5: every chaos
        schedule must still reproduce the reference answer byte-exactly."""
        harness = DifferentialHarness(scale_factor=0.001, data_seed=0)
        assert strategy in ALL_STRATEGIES
        outcome = harness.run_case(5, strategy, seed)
        assert outcome.passed, outcome.describe()
