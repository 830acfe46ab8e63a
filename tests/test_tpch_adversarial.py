"""Adversarial data profiles: generator properties and differential equality.

Two layers: first, each named profile must actually exhibit its adversarial
trait (skew concentrates keys, nullrich plants orphans, and so on) and be
byte-deterministic in its seed.  Second — the acceptance bar for the profiles
— every TPC-H query must produce batch-exactly the same answer through the
distributed engine's SQL path as through the single-node reference runner on
skewed and NULL-rich data, not just on the well-behaved standard generator.
"""

import numpy as np
import pytest

from repro.chaos import batches_match
from repro.common.config import ClusterConfig
from repro.core.session import Session
from repro.plan.interpreter import execute_plan
from repro.tpch import (
    ADVERSARIAL_PROFILES,
    adversarial_catalog,
    adversarial_tables,
    build_sql_query,
    sql_query_numbers,
)


class TestProfileGenerators:
    def test_profile_registry(self):
        assert ADVERSARIAL_PROFILES[0] == "standard"
        assert set(ADVERSARIAL_PROFILES) == {
            "standard", "skew", "nullrich", "empty", "wide", "unicode",
        }

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            adversarial_tables("cursed", scale_factor=0.001, seed=0)

    @pytest.mark.parametrize("profile", ADVERSARIAL_PROFILES)
    def test_profiles_are_deterministic(self, profile):
        first = adversarial_tables(profile, scale_factor=0.001, seed=5)
        second = adversarial_tables(profile, scale_factor=0.001, seed=5)
        for name in first:
            assert first[name].equals(second[name]), f"{profile}/{name} not deterministic"

    def test_standard_profile_is_the_plain_generator(self):
        from repro.tpch import TPCHGenerator

        plain = TPCHGenerator(scale_factor=0.001, seed=2).tables()
        profiled = adversarial_tables("standard", scale_factor=0.001, seed=2)
        for name in plain:
            assert plain[name].equals(profiled[name])

    def test_skew_concentrates_foreign_keys(self):
        standard = adversarial_tables("standard", scale_factor=0.001, seed=0)
        skewed = adversarial_tables("skew", scale_factor=0.001, seed=0)

        def top_share(batch, column):
            values = np.asarray(batch.column(column))
            _, counts = np.unique(values, return_counts=True)
            return counts.max() / len(values)

        # The hottest customer owns a far larger share of orders under skew.
        assert top_share(skewed["orders"], "o_custkey") > 3 * top_share(
            standard["orders"], "o_custkey"
        )
        assert top_share(skewed["lineitem"], "l_partkey") > 3 * top_share(
            standard["lineitem"], "l_partkey"
        )

    def test_nullrich_plants_orphans_and_sentinels(self):
        from repro.tpch import TPCHGenerator

        generator = TPCHGenerator(scale_factor=0.001, seed=0)
        tables = adversarial_tables("nullrich", scale_factor=0.001, seed=0)
        custkeys = np.asarray(tables["orders"].column("o_custkey"))
        orphans = (custkeys > generator.num_customers).mean()
        assert 0.1 < orphans < 0.3
        comments = list(tables["orders"].column("o_comment"))
        assert any(comment == "" for comment in comments)
        assert any(comment != "" for comment in comments)

    def test_empty_profile_zeroes_the_fact_tables(self):
        tables = adversarial_tables("empty", scale_factor=0.001, seed=0)
        assert tables["orders"].num_rows == 0
        assert tables["lineitem"].num_rows == 0
        assert tables["customer"].num_rows > 0

    def test_wide_profile_adds_decoy_columns(self):
        tables = adversarial_tables("wide", scale_factor=0.001, seed=0)
        for name, batch in tables.items():
            assert f"{name}_pad_int" in batch.schema.names
            assert f"{name}_pad_str" in batch.schema.names

    def test_unicode_profile_is_non_ascii(self):
        tables = adversarial_tables("unicode", scale_factor=0.001, seed=0)
        names = list(tables["customer"].column("c_name"))
        assert all(not value.isascii() for value in names)


class TestAdversarialDifferential:
    """All 22 queries, engine SQL path vs reference runner, hostile data."""

    @pytest.fixture(scope="class", params=["skew", "nullrich"])
    def profiled(self, request):
        catalog = adversarial_catalog(request.param, scale_factor=0.001, seed=0)
        with Session(
            cluster_config=ClusterConfig(num_workers=2, cpus_per_worker=2),
            catalog=catalog,
        ) as session:
            yield request.param, catalog, session

    @pytest.mark.parametrize("query_number", sql_query_numbers())
    def test_engine_sql_matches_reference_on_hostile_data(self, profiled, query_number):
        profile, catalog, session = profiled
        frame = build_sql_query(catalog, query_number)
        reference = execute_plan(frame.plan)
        result = frame.submit(session, query_name=f"{profile}-sql-q{query_number}").wait().batch
        assert batches_match(result, reference), (
            f"Q{query_number} on {profile} data: engine differs from reference"
        )

    @pytest.mark.parametrize("query_number", [1, 4, 6, 13, 16, 21, 22])
    def test_empty_fact_tables_still_agree(self, query_number):
        """Zero-row orders/lineitem: both runners agree on degenerate answers."""
        catalog = adversarial_catalog("empty", scale_factor=0.001, seed=0)
        frame = build_sql_query(catalog, query_number)
        reference = execute_plan(frame.plan)
        with Session(
            cluster_config=ClusterConfig(num_workers=2, cpus_per_worker=2),
            catalog=catalog,
        ) as session:
            result = frame.submit(session, query_name=f"empty-sql-q{query_number}").wait().batch
        assert batches_match(result, reference)
