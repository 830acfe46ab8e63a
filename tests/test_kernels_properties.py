"""Property tests: vectorized kernels vs. row-at-a-time reference oracles.

The factorized join/aggregate/partition kernels must be *behaviourally
identical* to the original implementations preserved in
:mod:`repro.kernels.reference` — identical output rows, identical row order,
identical ``state_nbytes`` accounting (trace digests depend on it).  Random
schemas, keys and dtypes are drawn from deliberately small value pools so
Hypothesis hits empty batches, all-duplicate keys and unicode strings often.

Float values are restricted to exact binary fractions so sequential and
segment-reduced summation agree bit for bit, making every comparison exact.
The engine's final group table (:class:`ColumnarGroupTable`) is checked
against :class:`GroupedAggregationState`, the reference interpreter's
kernel, which folds in the same order, so its payloads are arbitrary floats.
"""

import copy
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import PlanError
from repro.data.batch import Batch, concat_batches
from repro.data.dictionary import DictionaryArray
from repro.data.partition import hash_partition, hash_rows
from repro.data.schema import DataType, Field, Schema
from repro.expr.nodes import Column, substr
from repro.kernels.aggregate import (
    AggregateFunction,
    AggregateSpec,
    ColumnarGroupTable,
    GroupedAggregationState,
    aggregate_schema,
)
from repro.kernels import factorize
from repro.kernels.factorize import KeyEncoder
from repro.kernels.join import HashJoin, JoinType
from repro.kernels.project import project_batch
from repro.kernels.reference import (
    NaiveGroupedAggregation,
    NaiveHashJoin,
    naive_hash_partition,
    naive_hash_rows,
)
from repro.physical.stages import PartialAggregateOp

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


@settings(max_examples=100, deadline=None)
@given(vocabulary=st.integers(1, 80), codes=st.lists(st.integers(0, 79), max_size=12))
def test_used_vocabulary_keeps_exactly_the_referenced_entries(vocabulary, codes):
    # Vocabularies from 1 to 80 entries against 0 to 12 rows fall on both
    # sides of the count-versus-sort threshold.
    values = np.array([f"v{i:02d}" for i in range(vocabulary)], dtype=object)
    codes = np.array([c % vocabulary for c in codes], dtype=np.int64)
    used, remapped = DictionaryArray(codes, values).used_vocabulary()
    referenced = sorted(set(codes.tolist()))
    assert used.tolist() == values[referenced].tolist()
    assert remapped.dtype == np.int64
    assert remapped.tolist() == [referenced.index(c) for c in codes.tolist()]


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


# -- direct-address key encoding ------------------------------------------------

INT64_MIN, INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def _clamped(value: int) -> int:
    return min(max(value, INT64_MIN), INT64_MAX)


@st.composite
def int_key_columns(draw, rows, probe_rows):
    """A build and a probe key column: ``rows`` build values stepping from an
    anchor anywhere in ``int64`` (both edges included), dense or sparse past
    the lookup table's span limit, and ``probe_rows`` probe values on,
    between and beyond them."""
    dtype = draw(st.sampled_from([DataType.INT64, DataType.DATE]))
    anchors = [INT64_MIN, INT64_MIN + 3, -40, 0, 8035, 10**12, INT64_MAX - 60, INT64_MAX]
    anchor = draw(st.sampled_from(anchors))
    sign = draw(st.sampled_from([-1, 1]))
    stride = draw(st.sampled_from([1, 2, 4, 5, 40]))
    steps = draw(st.lists(st.integers(0, 12), min_size=rows, max_size=rows))
    build = [_clamped(anchor + sign * stride * k) for k in steps]
    candidates = [
        st.integers(-2 * stride, 14 * stride).map(lambda d: _clamped(anchor + sign * d)),
        st.sampled_from([INT64_MIN, INT64_MAX, 0, -1]),
    ]
    if build:
        candidates.append(st.sampled_from(build))
    probe = draw(st.lists(st.one_of(candidates), min_size=probe_rows, max_size=probe_rows))
    return _column_array(dtype, build), _column_array(dtype, probe)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_direct_address_encode_matches_the_binary_search(data):
    rows = data.draw(st.integers(0, 30))
    probe_rows = data.draw(st.integers(0, 20))
    num_keys = data.draw(st.integers(1, 3))
    pairs = [data.draw(int_key_columns(rows, probe_rows)) for _ in range(num_keys)]
    build = [b for b, _ in pairs]
    probe = [p for _, p in pairs]
    if data.draw(st.booleans()):
        # A float probe column is never looked up by address.
        probe[0] = probe[0].astype(np.float64)

    encoder = KeyEncoder(build)
    got = encoder.encode(probe)
    with mock.patch.object(factorize, "_DENSE_SPAN_FACTOR", 0):
        searched = KeyEncoder(build)
        expected = searched.encode(probe)
    assert got.dtype == expected.dtype == np.int64
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(encoder.codes, searched.codes)
    for unique, ranker in zip(encoder._col_uniques, encoder._col_rankers):
        dense = len(unique) > 0 and (
            int(unique[-1]) - int(unique[0]) + 1 <= factorize._DENSE_SPAN_FACTOR * len(unique)
        )
        assert (ranker.table is not None) == dense


def test_dense_multi_column_keys_use_lookup_tables_for_every_level():
    build = [np.repeat(np.arange(50), 4), np.tile(np.arange(-2, 2), 50)]
    encoder = KeyEncoder(build)
    probe = [np.array([0, 49, 49, 50, -1, 7]), np.array([-2, 1, 2, 0, 0, -3])]
    codes = encoder.encode(probe)
    assert all(r.table is not None for r in encoder._col_rankers + encoder._level_rankers)
    sentinel = encoder.num_codes
    assert codes.tolist() == [0, 199, sentinel, sentinel, sentinel, sentinel]


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


def test_aggregation_empty_batches_only():
    schema = Schema([Field("k", DataType.STRING), Field("payload", DataType.FLOAT64),
                     Field("tag", DataType.STRING)])
    specs = _aggregate_specs()
    state = GroupedAggregationState(["k"], specs)
    state.update(Batch.empty(schema))
    result = state.finalize(input_schema=schema)
    assert result.num_rows == 0
    assert result.schema.names == ["k"] + [s.name for s in specs]


# -- partial aggregation --------------------------------------------------------


def _partial_specs():
    # What the compiler pushes below a shuffle: the decomposable functions.
    return [
        AggregateSpec("total", AggregateFunction.SUM, Column("payload")),
        AggregateSpec("n", AggregateFunction.COUNT, None),
        AggregateSpec("lo", AggregateFunction.MIN, Column("payload")),
        AggregateSpec("hi", AggregateFunction.MAX, Column("payload")),
        AggregateSpec("first_tag", AggregateFunction.MIN, Column("tag")),
        AggregateSpec("last_tag", AggregateFunction.MAX, Column("tag")),
    ]


def _partial_by_group_table(batch, group_keys, specs):
    """The group-table partial: one state per batch, updated once, finalized."""
    state = GroupedAggregationState(group_keys, specs)
    if batch.num_rows == 0:
        return Batch.empty(aggregate_schema(group_keys, specs, batch.schema))
    state.update(batch)
    return state.finalize(input_schema=batch.schema)


def _sorted_by_keys(batch, group_keys):
    if not group_keys:
        return batch
    keys = list(zip(*[batch.column(k).tolist() for k in group_keys]))
    return batch.take(np.asarray(sorted(range(batch.num_rows), key=keys.__getitem__),
                                 dtype=np.int64))


def assert_same_partial(actual, expected, group_keys):
    """Same schema, dtypes, ``nbytes`` and rows up to row order; float
    columns bit for bit."""
    assert actual.schema == expected.schema
    assert actual.num_rows == expected.num_rows
    assert actual.nbytes == expected.nbytes
    actual = _sorted_by_keys(actual, group_keys)
    expected = _sorted_by_keys(expected, group_keys)
    for name in expected.schema.names:
        got, want = actual.column(name), expected.column(name)
        assert got.dtype == want.dtype, name
        if want.dtype == np.float64:
            assert got.tobytes() == want.tobytes(), name
        else:
            assert got.tolist() == want.tolist(), name


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_partial_aggregate_matches_the_group_table(data):
    # Key dtypes span int64, float64, date, bool and plain or dictionary
    # strings; zero-row batches and no-key (scalar) partials are drawn too.
    schema = data.draw(schemas())
    group_keys = [f.name for f in schema][: data.draw(st.integers(0, len(schema) - 2))]
    batch = data.draw(batch_for(schema, max_rows=20))
    specs = _partial_specs()
    out = PartialAggregateOp(group_keys, specs).apply(batch)
    assert_same_partial(out, _partial_by_group_table(batch, group_keys, specs), group_keys)
    for key in group_keys:
        if isinstance(batch.column_data(key), DictionaryArray):
            assert isinstance(out.column_data(key), DictionaryArray)


def test_partial_aggregate_edge_batches():
    schema = Schema([Field("k", DataType.STRING), Field("payload", DataType.FLOAT64),
                     Field("tag", DataType.STRING)])
    specs = _partial_specs()
    empty = Batch.empty(schema)
    for group_keys in (["k"], []):
        out = PartialAggregateOp(group_keys, specs).apply(empty)
        assert out.num_rows == 0
        assert out.schema == _partial_by_group_table(empty, group_keys, specs).schema
    batch = Batch.from_pydict(
        {"k": ["b", "a", "b"], "payload": [0.5, 1.25, -2.0], "tag": ["x", "y", "z"]},
        schema=schema,
    ).dictionary_encode()
    scalar = PartialAggregateOp([], specs).apply(batch)
    assert scalar.to_rows() == [(-0.25, 3, -2.0, 1.25, "x", "z")]
    assert_same_partial(scalar, _partial_by_group_table(batch, [], specs), [])


def test_partial_aggregate_rejects_functions_the_final_cannot_fold():
    with pytest.raises(PlanError):
        PartialAggregateOp([], [AggregateSpec("m", AggregateFunction.AVG, Column("x"))])


def _high_cardinality_batch(rows, seed):
    # ~16 k distinct (int, string, float) key triples over 40 k rows, strings
    # dictionary-encoded as a scan would leave them.
    rng = np.random.default_rng(seed)
    schema = Schema([
        Field("k_int", DataType.INT64),
        Field("k_str", DataType.STRING),
        Field("k_float", DataType.FLOAT64),
        Field("payload", DataType.FLOAT64),
        Field("tag", DataType.STRING),
    ])
    batch = Batch(schema, {
        "k_int": rng.integers(0, 400, rows),
        "k_str": np.asarray([STRING_POOL[i] for i in rng.integers(0, 10, rows)], dtype=object),
        "k_float": rng.integers(0, 4, rows) * 0.5,
        "payload": rng.integers(-64, 64, rows) * 0.125,
        "tag": np.asarray([STRING_POOL[i] for i in rng.integers(0, len(STRING_POOL), rows)],
                          dtype=object),
    })
    return batch.dictionary_encode(["k_str"])


def test_high_cardinality_multi_key_matches_naive():
    group_keys = ["k_str", "k_int", "k_float"]
    batches = [_high_cardinality_batch(40_000, seed) for seed in (1, 2)]
    specs = _aggregate_specs()
    fast = GroupedAggregationState(group_keys, specs)
    naive = NaiveGroupedAggregation(group_keys, specs)
    for batch in batches:
        fast.update(batch)
        naive.update(batch)
        assert fast.state_nbytes == naive.state_nbytes
    assert len(fast) == len(naive) >= 10_000
    schema = batches[0].schema
    assert_batches_identical(fast.finalize(input_schema=schema),
                             naive.finalize(input_schema=schema))

    partial_specs = _partial_specs()
    batch = batches[0]
    out = PartialAggregateOp(group_keys, partial_specs).apply(batch)
    one_batch = NaiveGroupedAggregation(group_keys, partial_specs)
    one_batch.update(batch)
    assert out.num_rows >= 10_000
    assert_same_partial(out, one_batch.finalize(input_schema=schema), group_keys)


# -- the engine's final group table -----------------------------------------------

#: Float keys where ``str`` order, ``-0.0 == 0.0`` and exponent notation bite.
FLOAT_KEYS = [1e16, -1e16, 2.5e15, -0.0, 0.0, 0.25, -3.5, 1e-05, 7.0]


def _table_key_value(dtype: DataType):
    if dtype is DataType.INT64:
        return st.sampled_from([-(2**63), -120, -12, -1, 0, 1, 9, 10, 12, 100, 2**63 - 1])
    if dtype is DataType.FLOAT64:
        return st.sampled_from(FLOAT_KEYS)
    if dtype is DataType.DATE:
        return st.integers(0, 20_000)
    return _value_strategy(dtype)


@st.composite
def table_batches(draw):
    """1-8 batches over 0-3 keys; payloads are arbitrary finite floats, since
    both tables fold in arrival order.  Strings are plain or dictionary
    encoded batch by batch, so vocabularies differ between batches, or all
    batches are slices sharing one vocabulary."""
    key_dtypes = draw(st.lists(st.sampled_from(KEY_DTYPES), max_size=3))
    fields = [Field(f"k{i}", dtype) for i, dtype in enumerate(key_dtypes)]
    fields += [Field("payload", DataType.FLOAT64), Field("tag", DataType.STRING)]
    schema = Schema(fields)
    sizes = draw(st.lists(st.integers(0, 12), min_size=1, max_size=8))
    payload = st.floats(allow_nan=False, width=64, min_value=-1e300, max_value=1e300)

    def column(field, rows):
        values = st.lists(
            payload if field.name == "payload"
            else _table_key_value(field.dtype) if field.name.startswith("k")
            else st.sampled_from(STRING_POOL),
            min_size=rows, max_size=rows,
        )
        return _column_array(field.dtype, draw(values))

    if draw(st.booleans()):
        whole = Batch(schema, {f.name: column(f, sum(sizes)) for f in schema})
        whole = whole.dictionary_encode()
        starts = np.cumsum([0] + sizes[:-1])
        return schema, [whole.slice(int(s), n) for s, n in zip(starts, sizes)]
    batches = []
    for rows in sizes:
        batch = Batch(schema, {f.name: column(f, rows) for f in schema})
        batches.append(batch.dictionary_encode() if draw(st.booleans()) else batch)
    return schema, batches


def _table_specs(group_keys):
    specs = _aggregate_specs()
    for key in group_keys[:1]:
        specs.append(AggregateSpec("key_max", AggregateFunction.MAX, Column(key)))
    return specs


def assert_batches_byte_equal(actual: Batch, expected: Batch):
    assert actual.schema == expected.schema
    for name in expected.schema.names:
        got, want = actual.column(name), expected.column(name)
        assert got.dtype == want.dtype, name
        if want.dtype == object:
            assert got.tolist() == want.tolist(), name
        else:
            assert got.tobytes() == want.tobytes(), name


@settings(max_examples=120, deadline=None)
@given(drawn=table_batches(), snapshot=st.sampled_from(["none", "deepcopy", "pickle"]),
       at=st.integers(0, 7))
def test_columnar_group_table_matches_the_reference_state(drawn, snapshot, at):
    schema, batches = drawn
    group_keys = [f.name for f in schema if f.name.startswith("k")]
    specs = _table_specs(group_keys)
    reference = GroupedAggregationState(group_keys, specs)
    table = ColumnarGroupTable(group_keys, specs)
    copied = None
    for i, batch in enumerate(batches):
        reference.update(batch)
        table.update(batch)
        if i == at and snapshot != "none":
            # A checkpoint snapshot or a spilled state is taken mid-stream,
            # before anything interned the rows kept since the last read.
            copied = (copy.deepcopy(table) if snapshot == "deepcopy"
                      else pickle.loads(pickle.dumps(table)))
            for later in batches[i + 1:]:
                copied.update(later)
        assert table.state_nbytes == reference.state_nbytes
    assert len(table) == len(reference)
    expected = reference.finalize(input_schema=schema)
    assert_batches_byte_equal(table.finalize(input_schema=schema), expected)
    if copied is not None:
        assert_batches_byte_equal(copied.finalize(input_schema=schema), expected)


def test_columnar_group_table_without_input():
    schema = Schema([Field("k", DataType.STRING), Field("payload", DataType.FLOAT64),
                     Field("tag", DataType.STRING)])
    for group_keys in (["k"], []):
        specs = _aggregate_specs()
        table = ColumnarGroupTable(group_keys, specs)
        table.update(Batch.empty(schema))
        assert table.state_nbytes == 0
        reference = GroupedAggregationState(group_keys, specs)
        assert_batches_byte_equal(table.finalize(input_schema=schema),
                                  reference.finalize(input_schema=schema))


def test_columnar_group_table_high_cardinality_multi_key():
    group_keys = ["k_str", "k_int", "k_float"]
    batches = [_high_cardinality_batch(40_000, seed) for seed in (1, 2)]
    batches.append(_high_cardinality_batch(20_000, 3).dictionary_encode())
    specs = _aggregate_specs()
    reference = GroupedAggregationState(group_keys, specs)
    table = ColumnarGroupTable(group_keys, specs)
    for batch in batches:
        reference.update(batch)
        table.update(batch)
        assert table.state_nbytes == reference.state_nbytes
    assert len(table) == len(reference) >= 10_000
    schema = batches[0].schema
    assert_batches_byte_equal(table.finalize(input_schema=schema),
                              reference.finalize(input_schema=schema))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_columnar_group_table_nan_keys_are_one_group(data):
    # The dict table makes one NaN group per batch (every NaN float is a new
    # key); the columnar table makes one, as a single-batch run does.
    schema = Schema([Field("k", DataType.FLOAT64), Field("j", DataType.INT64),
                     Field("payload", DataType.FLOAT64), Field("tag", DataType.STRING)])
    group_keys = data.draw(st.sampled_from([["k"], ["k", "j"], ["j", "k"]]))
    sizes = data.draw(st.lists(st.integers(0, 10), min_size=1, max_size=6))
    rows = sum(sizes)
    whole = Batch(schema, {
        "k": np.asarray(data.draw(st.lists(st.sampled_from([np.nan, 1.0, -0.5, 0.0]),
                                           min_size=rows, max_size=rows)), dtype=np.float64),
        "j": np.asarray(data.draw(st.lists(st.integers(-2, 2), min_size=rows, max_size=rows)),
                        dtype=np.int64),
        "payload": np.asarray(data.draw(st.lists(_value_strategy(DataType.FLOAT64),
                                                 min_size=rows, max_size=rows))),
        "tag": np.asarray(data.draw(st.lists(st.sampled_from(STRING_POOL),
                                             min_size=rows, max_size=rows)), dtype=object),
    })
    specs = _aggregate_specs()
    table = ColumnarGroupTable(group_keys, specs)
    start = 0
    for size in sizes:
        table.update(whole.slice(start, size))
        start += size
    one_batch = GroupedAggregationState(group_keys, specs)
    one_batch.update(whole)
    assert table.state_nbytes == one_batch.state_nbytes
    assert_batches_byte_equal(table.finalize(input_schema=schema),
                              one_batch.finalize(input_schema=schema))


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
