"""Property tests for subquery decorrelation.

Hypothesis generates small random tables plus random subquery shapes —
correlated and uncorrelated EXISTS / NOT EXISTS / IN / NOT IN, correlated
and global scalar aggregates, aggregating derived tables — and checks three
independent implementations of the same query agree row-for-row
(order-insensitively):

* the decorrelated plan run through the reference interpreter vs a naive
  nested-loop oracle written directly in Python (the semantics bar);
* the decorrelated plan run through the distributed engine vs the reference
  interpreter (the engine bar);
* the plan optimized with join reordering on vs off (the optimizer bar).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.batch import Batch
from repro.optimizer import OptimizerConfig, optimize_plan
from repro.plan.catalog import Catalog
from repro.plan.interpreter import execute_plan
from repro.sql import parse, plan_query


def make_catalog(outer_rows, inner_rows):
    catalog = Catalog()
    catalog.register(
        "t",
        Batch.from_pydict(
            {
                "t_key": [key for key, _val in outer_rows],
                "t_val": [val for _key, val in outer_rows],
            }
        ),
        num_splits=2,
    )
    catalog.register(
        "u",
        Batch.from_pydict(
            {
                "u_key": [key for key, _val in inner_rows],
                "u_val": [val for _key, val in inner_rows],
            }
        ),
        num_splits=2,
    )
    return catalog


def rows_multiset(batch):
    return sorted(
        tuple(round(v, 6) if isinstance(v, float) else v for v in row)
        for row in batch.to_rows()
    )


# -- the naive oracles ------------------------------------------------------------------


def oracle_exists(outer, inner, threshold, negated):
    hits = {key for key, val in inner if val > threshold}
    return sorted(row for row in outer if (row[0] in hits) != negated)


def oracle_in(outer, inner, threshold, negated):
    keys = {key for key, val in inner if val > threshold}
    return sorted(row for row in outer if (row[0] in keys) != negated)


def oracle_correlated_min(outer, inner):
    groups = {}
    for key, val in inner:
        groups[key] = min(val, groups.get(key, val))
    return sorted(row for row in outer if row[0] in groups and row[1] > groups[row[0]])


def oracle_global_avg(outer, inner):
    mean = sum(val for _key, val in inner) / len(inner)
    return sorted(row for row in outer if row[1] >= mean)


def oracle_derived_sums(inner, threshold):
    totals = {}
    for key, val in inner:
        totals[key] = totals.get(key, 0) + val
    return sorted((key, total) for key, total in totals.items() if total > threshold)


def oracle_exists_residual(outer, inner):
    keyed = {}
    for key, val in inner:
        keyed.setdefault(key, []).append(val)
    return sorted(
        row for row in outer if any(val != row[1] for val in keyed.get(row[0], []))
    )


QUERY_SHAPES = [
    (
        "SELECT t_key, t_val FROM t WHERE EXISTS "
        "(SELECT * FROM u WHERE u_key = t_key AND u_val > {c})",
        lambda outer, inner, c: oracle_exists(outer, inner, c, negated=False),
    ),
    (
        "SELECT t_key, t_val FROM t WHERE NOT EXISTS "
        "(SELECT * FROM u WHERE u_key = t_key AND u_val > {c})",
        lambda outer, inner, c: oracle_exists(outer, inner, c, negated=True),
    ),
    (
        "SELECT t_key, t_val FROM t WHERE t_key IN "
        "(SELECT u_key FROM u WHERE u_val > {c})",
        lambda outer, inner, c: oracle_in(outer, inner, c, negated=False),
    ),
    (
        "SELECT t_key, t_val FROM t WHERE t_key NOT IN "
        "(SELECT u_key FROM u WHERE u_val > {c})",
        lambda outer, inner, c: oracle_in(outer, inner, c, negated=True),
    ),
    (
        "SELECT t_key, t_val FROM t WHERE t_val > "
        "(SELECT min(u_val) FROM u WHERE u_key = t_key)",
        lambda outer, inner, c: oracle_correlated_min(outer, inner),
    ),
    (
        "SELECT d_key, total FROM "
        "(SELECT u_key AS d_key, sum(u_val) AS total FROM u GROUP BY u_key) AS d "
        "WHERE total > {c}",
        lambda outer, inner, c: oracle_derived_sums(inner, c),
    ),
    (
        "SELECT t_key, t_val FROM t WHERE EXISTS "
        "(SELECT * FROM u WHERE u_key = t_key AND u_val <> t_val)",
        lambda outer, inner, c: oracle_exists_residual(outer, inner),
    ),
]


def rows_strategy(max_rows):
    return st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 9)), min_size=0, max_size=max_rows
    )


@st.composite
def decorrelation_case(draw):
    outer = draw(rows_strategy(10))
    inner = draw(rows_strategy(12))
    shape = draw(st.integers(0, len(QUERY_SHAPES) - 1))
    threshold = draw(st.integers(0, 9))
    return outer, inner, shape, threshold


@given(decorrelation_case())
@settings(max_examples=120, deadline=None)
def test_decorrelated_plan_matches_python_oracle(case):
    outer, inner, shape, threshold = case
    template, oracle = QUERY_SHAPES[shape]
    catalog = make_catalog(outer, inner)
    frame = plan_query(parse(template.format(c=threshold)), catalog)
    assert rows_multiset(execute_plan(frame.plan)) == sorted(oracle(outer, inner, threshold))


@given(rows_strategy(10), st.lists(st.tuples(st.integers(0, 4), st.integers(0, 9)), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_global_scalar_subquery_matches_python_oracle(outer, inner):
    """Uncorrelated scalar aggregate (inner side non-empty by construction)."""
    catalog = make_catalog(outer, inner)
    frame = plan_query(
        parse("SELECT t_key, t_val FROM t WHERE t_val >= (SELECT avg(u_val) FROM u)"),
        catalog,
    )
    assert rows_multiset(execute_plan(frame.plan)) == sorted(oracle_global_avg(outer, inner))


@given(decorrelation_case())
@settings(max_examples=60, deadline=None)
def test_optimized_and_unoptimized_plans_agree(case):
    outer, inner, shape, threshold = case
    template, _oracle = QUERY_SHAPES[shape]
    catalog = make_catalog(outer, inner)
    frame = plan_query(parse(template.format(c=threshold)), catalog)
    with_reorder = optimize_plan(frame.plan, config=OptimizerConfig(join_reorder=True))
    without = optimize_plan(frame.plan, config=OptimizerConfig(join_reorder=False))
    assert rows_multiset(execute_plan(with_reorder)) == rows_multiset(execute_plan(without))


@given(decorrelation_case())
@settings(max_examples=15, deadline=None)
def test_engine_matches_reference_interpreter(case):
    from repro.chaos import batches_match
    from repro.common.config import ClusterConfig
    from repro.core.session import Session

    outer, inner, shape, threshold = case
    template, _oracle = QUERY_SHAPES[shape]
    catalog = make_catalog(outer, inner)
    frame = plan_query(parse(template.format(c=threshold)), catalog)
    reference = execute_plan(frame.plan)
    with Session(
        cluster_config=ClusterConfig(num_workers=2, cpus_per_worker=2), catalog=catalog
    ) as session:
        result = frame.submit(session, query_name=f"decorrelation-shape-{shape}").wait().batch
    assert batches_match(result, reference)
