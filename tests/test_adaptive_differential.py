"""Differential matrix for speculative execution under chaos.

Every cell runs a TPC-H query on the Zipf-skewed adversarial catalog with
adaptive execution (speculation) forced on, against a seeded chaos schedule,
under both the write-ahead-lineage and the S3-spool fault-tolerance
strategies.  The result must match the single-node reference batch-exactly:
a speculative duplicate racing its original through mid-query recovery is
precisely the class of bug this matrix exists to catch.
"""

import pytest

from repro.chaos import DifferentialHarness
from repro.core.options import QueryOptions
from repro.tpch.adversarial import adversarial_catalog


@pytest.fixture(scope="module")
def adaptive_harness():
    return DifferentialHarness(
        catalog=adversarial_catalog("skew", scale_factor=0.001, seed=0),
        base_options=QueryOptions(use_table_stats=False, adaptive=True),
    )


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("strategy", ["wal", "spool-s3"])
@pytest.mark.parametrize("query", [3, 9, 10])
def test_adaptive_cell_matches_reference(adaptive_harness, query, strategy, seed):
    outcome = adaptive_harness.run_case(query, strategy, seed)
    assert outcome.passed, (
        f"adaptive {outcome.describe()}\n{outcome.plan.describe()}"
    )


def test_adaptive_cells_actually_adapt(adaptive_harness):
    """The matrix must exercise the controller, not just tolerate it: under
    the matrix's own options a straggling worker gets a speculative copy
    that wins its race, and the result still matches the reference."""
    from repro.api.context import QuokkaContext
    from repro.chaos.harness import batches_match
    from repro.chaos.plan import ChaosOptions, ChaosPlan, Straggler
    from repro.common.config import CostModelConfig
    from repro.tpch import build_query
    from repro.tpch.reference import reference_answer

    catalog = adaptive_harness.catalog
    ctx = QuokkaContext(
        num_workers=4,
        catalog=catalog,
        cost_config=CostModelConfig(heartbeat_interval=0.01),
    )
    straggler = ChaosPlan(
        seed=-1,
        horizon=1.0,
        events=(Straggler(at_time=0.002, worker_id=1, duration=30.0, factor=50000.0),),
    )
    options = adaptive_harness.base_options.with_overrides(
        chaos=ChaosOptions(plan=straggler)
    )
    result = build_query(catalog, 10).bind(ctx).submit(options=options).wait()
    assert result.metrics.speculative_wins >= 1
    assert batches_match(result.batch, reference_answer(catalog, 10))
