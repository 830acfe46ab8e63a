"""Dictionary-encoded string columns stay encoded from scan to state.

The optimizer puts a column-pruning projection first after every scan.  If
that projection materialised its string columns, every kernel downstream
(factorize, vocabulary predicates, partitioning, shared-memory transport)
would see Python string objects instead of codes.  These tests pin that it
does not, on every executor that runs the stage-task step.
"""

import pytest

from repro.api import OneShotRunner, ParallelRunner, QueryOptions, QuokkaContext
from repro.core.options import resolve_planning
from repro.data.dictionary import DictionaryArray
from repro.expr.nodes import column_reference
from repro.kernels.aggregate import GroupedAggregationState
from repro.physical import compile_plan
from repro.physical.local import execute_stage_graph_locally
from repro.physical.stages import ProjectOp, apply_ops
from repro.plan.interpreter import execute_plan
from repro.tpch import build_query, generate_catalog

Q1_KEYS = ("l_returnflag", "l_linestatus")


@pytest.fixture(scope="module")
def tpch():
    return generate_catalog(scale_factor=0.002, seed=1)


def _compiled(catalog, number):
    plan, estimator, _adaptive, runtime_filters = resolve_planning(
        build_query(catalog, number).plan, QueryOptions(), default_optimize=True
    )
    return compile_plan(
        plan, num_channels=2, estimator=estimator, runtime_filters=runtime_filters
    )


@pytest.fixture()
def q1_key_storage(monkeypatch):
    """Storage types of Q1's group keys at every scan-side partial aggregate.

    The scan stage's partial aggregate is the one whose input still carries
    the raw ``l_quantity`` column; the final aggregate sees partial results.
    """
    seen = []
    update = GroupedAggregationState.update

    def recording_update(self, batch):
        if "l_quantity" in batch.schema:
            seen.append(tuple(type(batch.column_data(key)) for key in Q1_KEYS))
        return update(self, batch)

    monkeypatch.setattr(GroupedAggregationState, "update", recording_update)
    return seen


def _run_simulator(catalog):
    ctx = QuokkaContext(num_workers=2, catalog=catalog)
    return OneShotRunner(ctx).submit(build_query(catalog, 1).bind(ctx)).wait().batch


def _run_inline(catalog):
    return ParallelRunner(workers=0).submit(build_query(catalog, 1)).wait().batch


def _run_local(catalog):
    return execute_stage_graph_locally(_compiled(catalog, 1))


@pytest.mark.parametrize("run", [_run_simulator, _run_inline, _run_local],
                         ids=["simulator", "parallel-inline", "local"])
def test_q1_group_keys_reach_the_partial_aggregate_encoded(tpch, q1_key_storage, run):
    result = run(tpch)
    assert q1_key_storage, "the scan stage's partial aggregate never ran"
    assert set(q1_key_storage) == {(DictionaryArray, DictionaryArray)}
    expected = execute_plan(build_query(tpch, 1).plan)
    assert result.equals(expected, sort_keys=list(Q1_KEYS))


def test_scan_projections_keep_bare_string_columns_encoded(tpch):
    """Fence: over all 22 TPC-H queries, a scan stage's projection never
    materialises an encoded string column it only passes through or renames
    (every string column of a generated TPC-H split is encoded)."""
    checked = 0
    offenders = []
    for number in range(1, 23):
        for stage in _compiled(tpch, number).input_stages():
            batch = stage.table.splits()[0]
            for op in stage.post_ops:
                out = apply_ops(batch, [op])
                if isinstance(op, ProjectOp):
                    for name, expr in op.projections:
                        source = column_reference(expr)
                        # Computed strings (Q22's substr) are plain by design.
                        if source is None or not isinstance(
                            batch.column_data(source), DictionaryArray
                        ):
                            continue
                        checked += 1
                        if not isinstance(out.column_data(name), DictionaryArray):
                            offenders.append(f"Q{number} {stage.name}: {name} <- {source}")
                batch = out
    assert checked > 0
    assert not offenders, "materialised by a projection:\n  " + "\n  ".join(offenders)
