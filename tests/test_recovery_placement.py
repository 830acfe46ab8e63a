"""Recovery-placement ablation: both policies must recover to the exact answer.

The `recovery_placement` knob only changes *where* rewound channels are
rebuilt (pipeline-parallel across workers, or all on one worker); it must
never change the answer, and the pipeline-parallel policy should not be slower
than the single-worker policy on a multi-stage query.
"""

import pytest

from repro.cluster import FailurePlan
from repro.api import QuokkaContext
from repro.common.config import EngineConfig
from repro.data import Batch
from repro.expr import col
from repro.plan import Catalog, DataFrame, TableScan, execute_plan
from repro.plan.dataframe import count_agg, sum_agg


@pytest.fixture(scope="module")
def catalog():
    rows = 600
    catalog = Catalog()
    catalog.register(
        "orders",
        Batch.from_pydict(
            {
                "o_orderkey": list(range(rows)),
                "o_custkey": [i % 23 for i in range(rows)],
                "o_total": [float((i * 19) % 310) for i in range(rows)],
            }
        ),
        num_splits=12,
    )
    catalog.register(
        "customers",
        Batch.from_pydict(
            {
                "c_custkey": list(range(23)),
                "c_nation": [f"nation{i % 7}" for i in range(23)],
            }
        ),
        num_splits=4,
    )
    return catalog


def two_stage_query(catalog):
    orders = DataFrame(TableScan(catalog.table("orders")))
    customers = DataFrame(TableScan(catalog.table("customers")))
    return (
        orders.join(customers, left_on="o_custkey", right_on="c_custkey")
        .groupby("c_nation")
        .agg(sum_agg("total", col("o_total")), count_agg("orders"))
        .sort("c_nation")
    )


def run(catalog, placement, failure_fraction=None, num_workers=4):
    context = QuokkaContext(
        num_workers=num_workers,
        engine_config=EngineConfig(ft_strategy="wal", recovery_placement=placement),
        catalog=catalog,
    )
    frame = two_stage_query(catalog).bind(context)
    failure_plans = None
    if failure_fraction is not None:
        baseline = frame.submit().wait()
        failure_plans = [FailurePlan.at_fraction(1, failure_fraction, baseline.runtime)]
    return frame.submit(failure_plans=failure_plans).wait()


@pytest.mark.parametrize("placement", ["pipelined", "single-worker"])
def test_both_placements_recover_to_the_reference_answer(catalog, placement):
    expected = execute_plan(two_stage_query(catalog).plan)
    result = run(catalog, placement, failure_fraction=0.5)
    assert result.metrics.failures_injected == 1
    assert result.metrics.recovery_events >= 1
    assert result.batch.equals(expected, sort_keys=["c_nation"])


def test_placements_differ_only_in_where_channels_land(catalog):
    pipelined = run(catalog, "pipelined", failure_fraction=0.5)
    single = run(catalog, "single-worker", failure_fraction=0.5)
    # Both policies rewind the failed worker's channels...
    assert pipelined.metrics.rewound_channels >= 1
    assert single.metrics.rewound_channels >= 1
    # ...and both recover the same answer.
    assert pipelined.batch.equals(single.batch, sort_keys=["c_nation"])


def test_pipelined_placement_not_slower_on_multi_stage_failure(catalog):
    pipelined = run(catalog, "pipelined", failure_fraction=0.5)
    single = run(catalog, "single-worker", failure_fraction=0.5)
    # The pipeline-parallel policy overlaps the rebuild of the join and
    # aggregation channels, so end-to-end it must not be meaningfully slower.
    assert pipelined.runtime <= single.runtime * 1.05
