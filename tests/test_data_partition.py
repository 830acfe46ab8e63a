"""Tests for hash partitioning."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.data import Batch, DataType, hash_partition
from repro.data.partition import hash_column, partition_assignment


def key_batch(keys, extra=None):
    data = {"k": keys}
    if extra is not None:
        data["v"] = extra
    return Batch.from_pydict(data)


class TestHashPartition:
    def test_partitions_cover_all_rows(self):
        batch = key_batch(list(range(100)), extra=[float(i) for i in range(100)])
        parts = hash_partition(batch, ["k"], 4)
        assert sum(p.num_rows for p in parts) == 100
        all_keys = sorted(k for p in parts for k in p.column("k").tolist())
        assert all_keys == list(range(100))

    def test_same_key_same_partition(self):
        batch = key_batch([7, 7, 7, 13, 13, 7])
        parts = hash_partition(batch, ["k"], 8)
        non_empty = [i for i, p in enumerate(parts) if p.num_rows]
        for part_index in non_empty:
            keys = set(parts[part_index].column("k").tolist())
            # Each partition contains complete key groups.
            assert keys <= {7, 13}
        assignment = partition_assignment(batch, ["k"], 8)
        assert len(set(assignment[batch.column("k") == 7])) == 1
        assert len(set(assignment[batch.column("k") == 13])) == 1

    def test_deterministic_across_calls(self):
        batch = key_batch(list(range(50)))
        a = partition_assignment(batch, ["k"], 5)
        b = partition_assignment(batch, ["k"], 5)
        np.testing.assert_array_equal(a, b)

    def test_string_keys(self):
        batch = Batch.from_pydict({"name": ["alice", "bob", "alice", "carol"]})
        assignment = partition_assignment(batch, ["name"], 4)
        assert assignment[0] == assignment[2]

    def test_single_partition_short_circuit(self):
        batch = key_batch(list(range(10)))
        parts = hash_partition(batch, ["k"], 1)
        assert len(parts) == 1
        assert parts[0].equals(batch)

    def test_equal_float_keys_hash_equal(self):
        nans = np.array(
            [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0x7FF0000000000ABC],
            dtype=np.uint64,
        ).view(np.float64)
        with np.errstate(invalid="raise"):
            zeros = hash_column(np.array([0.0, -0.0]), DataType.FLOAT64)
            nan_hashes = hash_column(nans, DataType.FLOAT64)
        assert zeros[0] == zeros[1]
        assert len(set(nan_hashes.tolist())) == 1

    def test_other_floats_hash_by_their_bits(self):
        values = np.array([1.5, -2.25, 1e16, -1e-300, np.inf, -np.inf, 5e-324])
        np.testing.assert_array_equal(
            hash_column(values, DataType.FLOAT64),
            hash_column(values.view(np.int64), DataType.INT64),
        )

    def test_reasonable_balance_on_many_keys(self):
        batch = key_batch(list(range(4000)))
        parts = hash_partition(batch, ["k"], 8)
        sizes = [p.num_rows for p in parts]
        assert min(sizes) > 0.5 * (4000 / 8)
        assert max(sizes) < 1.5 * (4000 / 8)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(min_value=-10**9, max_value=10**9), min_size=1, max_size=300),
    st.integers(min_value=1, max_value=16),
)
def test_property_partition_is_exact_cover(keys, num_partitions):
    batch = key_batch(keys)
    parts = hash_partition(batch, ["k"], num_partitions)
    assert len(parts) == num_partitions
    collected = sorted(k for p in parts for k in p.column("k").tolist())
    assert collected == sorted(keys)
