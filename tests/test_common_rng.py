"""Tests for deterministic RNG helpers."""

import numpy as np
from hypothesis import given, strategies as st

from repro.common.rng import DeterministicRNG, derive_seed, stable_hash, stable_hash_array


class TestDeriveSeed:
    def test_same_inputs_same_seed(self):
        assert derive_seed(42, "a", 1) == derive_seed(42, "a", 1)

    def test_different_names_different_seed(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_different_roots_different_seed(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_seed_fits_in_64_bits(self):
        assert 0 <= derive_seed(123, "x", "y") < 2**64


class TestDeterministicRNG:
    def test_reproducible_streams(self):
        a = DeterministicRNG(7, "gen").integers(0, 1000, size=100)
        b = DeterministicRNG(7, "gen").integers(0, 1000, size=100)
        np.testing.assert_array_equal(a, b)

    def test_children_are_independent_of_siblings(self):
        parent = DeterministicRNG(7, "gen")
        child_a = parent.child("a").integers(0, 10**9, size=10)
        child_b = parent.child("b").integers(0, 10**9, size=10)
        assert not np.array_equal(child_a, child_b)

    def test_choice_single_and_vector(self):
        rng = DeterministicRNG(1, "choice")
        options = ["x", "y", "z"]
        single = rng.choice(options)
        assert single in options
        many = rng.choice(options, size=20)
        assert len(many) == 20
        assert set(many) <= set(options)

    def test_shuffle_is_permutation(self):
        rng = DeterministicRNG(5, "shuffle")
        items = list(range(50))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items


class TestSeedAudit:
    def test_hypothesis_runs_derandomized(self):
        """The conftest profile makes property tests bit-reproducible run-to-run."""
        from hypothesis import settings

        assert settings.default.derandomize is True

    def test_chaos_plans_are_bit_reproducible(self):
        """Chaos schedules flow through DeterministicRNG, never ambient RNG."""
        from repro.chaos import generate_plan

        assert generate_plan(11, 4, 1.0) == generate_plan(11, 4, 1.0)


class TestStableHash:
    def test_stable_across_calls(self):
        assert stable_hash("lineitem", 16) == stable_hash("lineitem", 16)

    def test_within_bucket_range(self):
        for value in ["a", "b", 123, ("x", 4)]:
            assert 0 <= stable_hash(value, 7) < 7

    @given(st.integers(min_value=1, max_value=64), st.text(max_size=20))
    def test_property_in_range(self, buckets, value):
        assert 0 <= stable_hash(value, buckets) < buckets

    def test_array_matches_scalar(self):
        values = ["a", "b", "c", "a"]
        arr = stable_hash_array(values, 8)
        expected = np.array([stable_hash(v, 8) for v in values])
        np.testing.assert_array_equal(arr, expected)

