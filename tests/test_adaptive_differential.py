"""Differential matrix for adaptive execution under chaos.

Every cell runs a TPC-H query on the Zipf-skewed adversarial catalog with
adaptive execution forced on (and ``use_table_stats=False`` so the System-R
constant estimates misprice the joins — the setting where the controller
actually revises the plan), against a seeded chaos schedule, under both the
write-ahead-lineage and the S3-spool fault-tolerance strategies.  The result
must match the single-node reference batch-exactly: a runtime plan revision
that interleaves badly with mid-query recovery re-planning is precisely the
class of bug this matrix exists to catch.
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
    """The matrix must exercise the controller, not just tolerate it: a
    failure-free run under the matrix's own options makes at least one
    runtime revision on this catalog."""
    from repro.api.context import QuokkaContext
    from repro.tpch import build_query

    catalog = adaptive_harness.catalog
    ctx = QuokkaContext(num_workers=4, catalog=catalog)
    result = build_query(catalog, 3).bind(ctx).submit(
        options=QueryOptions(use_table_stats=False, adaptive=True)
    ).wait()
    metrics = result.metrics
    assert metrics.adaptive_broadcast_joins + metrics.adaptive_channel_resizes >= 1
