"""Property tests: vectorized kernels vs. row-at-a-time reference oracles.

The factorized join/aggregate/partition kernels must be *behaviourally
identical* to the original implementations preserved in
:mod:`repro.kernels.reference` — identical output rows, identical row order,
identical ``state_nbytes`` accounting (trace digests depend on it).  Random
schemas, keys and dtypes are drawn from deliberately small value pools so
Hypothesis hits empty batches, all-duplicate keys and unicode strings often.

Float values are restricted to exact binary fractions so sequential and
segment-reduced summation agree bit for bit, making every comparison exact.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.batch import Batch, concat_batches
from repro.data.dictionary import DictionaryArray
from repro.data.partition import hash_partition, hash_rows
from repro.data.schema import DataType, Field, Schema
from repro.expr.nodes import Column, substr
from repro.kernels.aggregate import (
    AggregateFunction,
    AggregateSpec,
    GroupedAggregationState,
)
from repro.kernels.join import HashJoin, JoinType
from repro.kernels.project import project_batch
from repro.kernels.reference import (
    NaiveGroupedAggregation,
    NaiveHashJoin,
    naive_hash_partition,
    naive_hash_rows,
)

#: Unicode-heavy pool; repetition is likely, which exercises duplicate keys.
STRING_POOL = ["", "a", "aa", "b", "é", "λx", "商人", "🦆", "key", "KEY", "-1", "0"]

KEY_DTYPES = [
    DataType.INT64,
    DataType.FLOAT64,
    DataType.STRING,
    DataType.BOOL,
    DataType.DATE,
]


def _value_strategy(dtype: DataType):
    if dtype is DataType.INT64:
        return st.integers(-3, 3)
    if dtype is DataType.FLOAT64:
        # Exact binary fractions: reassociation-safe summation.
        return st.integers(-8, 8).map(lambda v: v * 0.25)
    if dtype is DataType.STRING:
        return st.sampled_from(STRING_POOL)
    if dtype is DataType.BOOL:
        return st.booleans()
    return st.integers(0, 5)  # DATE (days)


def _column_array(dtype: DataType, values):
    return np.asarray(values, dtype=dtype.numpy_dtype)


@st.composite
def schemas(draw, min_keys=1, max_keys=3):
    num_keys = draw(st.integers(min_keys, max_keys))
    key_dtypes = [draw(st.sampled_from(KEY_DTYPES)) for _ in range(num_keys)]
    fields = [Field(f"k{i}", dtype) for i, dtype in enumerate(key_dtypes)]
    fields.append(Field("payload", DataType.FLOAT64))
    fields.append(Field("tag", DataType.STRING))
    return Schema(fields)


@st.composite
def batch_for(draw, schema, max_rows=12, encode=None):
    num_rows = draw(st.integers(0, max_rows))
    columns = {
        field.name: _column_array(
            field.dtype,
            draw(
                st.lists(
                    _value_strategy(field.dtype),
                    min_size=num_rows,
                    max_size=num_rows,
                )
            ),
        )
        for field in schema
    }
    batch = Batch(schema, columns)
    if encode is None:
        encode = draw(st.booleans())
    return batch.dictionary_encode() if encode else batch


@st.composite
def batch_lists(draw, schema, max_batches=3, max_rows=10):
    count = draw(st.integers(0, max_batches))
    return [draw(batch_for(schema, max_rows=max_rows)) for _ in range(count)]


def assert_batches_identical(actual: Batch, expected: Batch):
    assert actual.schema.names == expected.schema.names
    assert [f.dtype for f in actual.schema] == [f.dtype for f in expected.schema]
    assert actual.to_rows() == expected.to_rows()


# -- string hashing / partitioning ---------------------------------------------


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_hash_rows_matches_naive(data):
    schema = data.draw(schemas())
    batch = data.draw(batch_for(schema, max_rows=20))
    keys = [f.name for f in schema][: data.draw(st.integers(1, len(schema) - 1))]
    assert np.array_equal(hash_rows(batch, keys), naive_hash_rows(batch, keys))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), num_partitions=st.integers(1, 5))
def test_hash_partition_matches_naive(data, num_partitions):
    schema = data.draw(schemas())
    batch = data.draw(batch_for(schema, max_rows=20))
    keys = [f.name for f in schema][:2]
    fast = hash_partition(batch, keys, num_partitions)
    naive = naive_hash_partition(batch, keys, num_partitions)
    assert len(fast) == len(naive) == num_partitions
    for fast_part, naive_part in zip(fast, naive):
        assert_batches_identical(fast_part, naive_part)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dictionary_encoding_is_transparent(data):
    schema = data.draw(schemas())
    batch = data.draw(batch_for(schema, encode=False))
    encoded = batch.dictionary_encode()
    assert encoded.nbytes == batch.nbytes
    assert encoded.to_rows() == batch.to_rows()
    for field in schema:
        if field.dtype is DataType.STRING:
            column = encoded.column_data(field.name)
            assert isinstance(column, DictionaryArray)
            assert column.materialize().tolist() == batch.column(field.name).tolist()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_column_projection_passes_storage_through(data):
    # Bare references, renames and repeats share the input's storage: a
    # dictionary column keeps its codes and the same vocabulary object, a
    # fixed-width column is the input array.  Computed outputs stay plain.
    schema = data.draw(schemas())
    batch = data.draw(batch_for(schema, encode=True))
    projections = []
    for field in schema:
        projections.append((f"{field.name}_bare", Column(field.name)))
        projections.append((f"{field.name}_renamed", Column(field.name).alias("x")))
        projections.append((f"{field.name}_again", Column(field.name).alias("x").alias("y")))
    projections.append(("doubled", Column("payload") * 2.0))
    projections.append(("tag_head", substr(Column("tag"), 1, 1)))
    out = project_batch(batch, projections)

    for field in schema:
        source = batch.column_data(field.name)
        for suffix in ("bare", "renamed", "again"):
            projected = out.column_data(f"{field.name}_{suffix}")
            if isinstance(source, DictionaryArray):
                assert isinstance(projected, DictionaryArray)
                assert projected.values is source.values
                assert np.array_equal(projected.codes, source.codes)
            else:
                assert projected is source
    assert type(out.column_data("doubled")) is np.ndarray
    assert type(out.column_data("tag_head")) is np.ndarray
    assert out.column("tag_bare").tolist() == batch.column("tag").tolist()


# -- join ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(data=st.data(), join_type=st.sampled_from(list(JoinType)))
def test_hash_join_matches_naive(data, join_type):
    schema = data.draw(schemas())
    keys = [f.name for f in schema][: data.draw(st.integers(1, len(schema) - 2))]
    build_batches = data.draw(batch_lists(schema, max_batches=3))
    probe_batches = data.draw(batch_lists(schema, max_batches=2))
    if not build_batches:
        build_batches = [data.draw(batch_for(schema))]

    fast = HashJoin(keys, keys, join_type, build_suffix="_b")
    naive = NaiveHashJoin(keys, keys, join_type, build_suffix="_b")
    for batch in build_batches:
        fast.build(batch)
        naive.build(batch)
    assert fast.state_nbytes == naive.state_nbytes
    for batch in probe_batches:
        assert_batches_identical(fast.probe(batch), naive.probe(batch))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_hash_join_all_duplicate_keys(data):
    schema = Schema([Field("k", DataType.STRING), Field("v", DataType.INT64)])
    rows = data.draw(st.integers(1, 8))
    build = Batch.from_pydict(
        {"k": ["🦆"] * rows, "v": list(range(rows))}, schema=schema
    )
    probe = Batch.from_pydict({"k": ["🦆", "x"], "v": [100, 200]}, schema=schema)
    fast = HashJoin(["k"], ["k"])
    naive = NaiveHashJoin(["k"], ["k"])
    fast.build(build)
    naive.build(build)
    result = fast.probe(probe)
    assert result.num_rows == rows  # cross product of the duplicate key
    assert_batches_identical(result, naive.probe(probe))


def test_probe_with_incomparable_key_dtype_matches_nothing():
    # The original tuple-dict lookup silently missed when build and probe key
    # dtypes could never be equal (e.g. string vs int); the factorized probe
    # must degrade the same way instead of raising from np.searchsorted.
    build = Batch.from_pydict(
        {"k": np.array(["a", "b"], dtype=object), "v": [1, 2]},
        schema=Schema([Field("k", DataType.STRING), Field("v", DataType.INT64)]),
    )
    probe = Batch.from_pydict(
        {"k": [1, 2, 3], "v": [7, 8, 9]},
        schema=Schema([Field("k", DataType.INT64), Field("v", DataType.INT64)]),
    )
    join = HashJoin(["k"], ["k"])
    join.build(build)
    assert join.probe(probe).num_rows == 0
    anti = HashJoin(["k"], ["k"], JoinType.ANTI)
    anti.build(build)
    assert anti.probe(probe).num_rows == 3


def test_join_state_nbytes_polled_between_build_batches():
    # Checkpoint costing polls state_nbytes after every committed task; the
    # distinct-key directory must accumulate incrementally and agree with the
    # naive dict-based accounting at every step.
    schema = Schema([Field("k", DataType.INT64), Field("v", DataType.FLOAT64)])
    fast = HashJoin(["k"], ["k"])
    naive = NaiveHashJoin(["k"], ["k"])
    for start in range(0, 30, 10):
        batch = Batch.from_pydict(
            {"k": [(start + i) % 13 for i in range(10)],
             "v": [float(i) for i in range(10)]},
            schema=schema,
        )
        fast.build(batch)
        naive.build(batch)
        assert fast.state_nbytes == naive.state_nbytes


def test_semi_anti_join_without_build_batches():
    schema = Schema([Field("k", DataType.INT64)])
    probe = Batch.from_pydict({"k": [1, 2, 3]}, schema=schema)
    semi = HashJoin(["k"], ["k"], JoinType.SEMI)
    anti = HashJoin(["k"], ["k"], JoinType.ANTI)
    assert semi.probe(probe).num_rows == 0
    assert anti.probe(probe).num_rows == 3


# -- aggregation ---------------------------------------------------------------


def _aggregate_specs():
    return [
        AggregateSpec("total", AggregateFunction.SUM, Column("payload")),
        AggregateSpec("n", AggregateFunction.COUNT, None),
        AggregateSpec("lo", AggregateFunction.MIN, Column("payload")),
        AggregateSpec("hi", AggregateFunction.MAX, Column("payload")),
        AggregateSpec("mean", AggregateFunction.AVG, Column("payload")),
        AggregateSpec("tags", AggregateFunction.COUNT_DISTINCT, Column("tag")),
        AggregateSpec("first_tag", AggregateFunction.MIN, Column("tag")),
    ]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_grouped_aggregation_matches_naive(data):
    schema = data.draw(schemas())
    group_keys = [f.name for f in schema][: data.draw(st.integers(0, len(schema) - 2))]
    batches = data.draw(batch_lists(schema, max_batches=3, max_rows=12))
    specs = _aggregate_specs()

    fast = GroupedAggregationState(group_keys, specs)
    naive = NaiveGroupedAggregation(group_keys, specs)
    for batch in batches:
        fast.update(batch)
        naive.update(batch)
        assert fast.state_nbytes == naive.state_nbytes
    assert len(fast) == len(naive)
    assert_batches_identical(
        fast.finalize(input_schema=schema), naive.finalize(input_schema=schema)
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_aggregation_merge_matches_single_state(data):
    schema = data.draw(schemas())
    group_keys = [f.name for f in schema][: data.draw(st.integers(0, len(schema) - 2))]
    left_batches = data.draw(batch_lists(schema, max_batches=2, max_rows=10))
    right_batches = data.draw(batch_lists(schema, max_batches=2, max_rows=10))
    specs = _aggregate_specs()

    merged = GroupedAggregationState(group_keys, specs)
    partial = GroupedAggregationState(group_keys, specs)
    single = GroupedAggregationState(group_keys, specs)
    for batch in left_batches:
        merged.update(batch)
        single.update(batch)
    for batch in right_batches:
        partial.update(batch)
        single.update(batch)
    merged.merge(partial)
    assert merged.state_nbytes == single.state_nbytes
    assert_batches_identical(
        merged.finalize(input_schema=schema), single.finalize(input_schema=schema)
    )


def test_aggregation_empty_batches_only():
    schema = Schema([Field("k", DataType.STRING), Field("payload", DataType.FLOAT64),
                     Field("tag", DataType.STRING)])
    specs = _aggregate_specs()
    state = GroupedAggregationState(["k"], specs)
    state.update(Batch.empty(schema))
    result = state.finalize(input_schema=schema)
    assert result.num_rows == 0
    assert result.schema.names == ["k"] + [s.name for s in specs]


# -- concat / schema satellite -------------------------------------------------


def test_concat_batches_respects_explicit_schema():
    loose = Batch.from_pydict({"x": [1, 2]})
    target = Schema([Field("x", DataType.FLOAT64)])
    merged = concat_batches([loose, loose], schema=target)
    assert merged.schema == target
    assert merged.column("x").dtype == np.float64
    single = concat_batches([loose], schema=target)
    assert single.schema == target
    assert single.column("x").dtype == np.float64
