"""Unit and property tests for replication vectors (paper §2.3)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import Cluster, paper_cluster_spec
from repro.core.replication_vector import (
    DEFAULT_TIER_ORDER,
    UNSPECIFIED,
    ReplicationVector,
)
from repro.errors import ReplicationVectorError


class TestConstruction:
    def test_of_keywords(self):
        v = ReplicationVector.of(memory=1, hdd=2)
        assert v.count("MEMORY") == 1
        assert v.count("HDD") == 2
        assert v.count("SSD") == 0
        assert v.total_replicas == 3

    def test_u_keyword(self):
        assert ReplicationVector.of(u=3).unspecified == 3

    def test_backwards_compat_factor(self):
        v = ReplicationVector.from_replication_factor(3)
        assert v.unspecified == 3
        assert v.total_replicas == 3
        assert v.tier_counts == {}

    def test_from_counts_paper_notation(self):
        # The paper's <1,0,2,0,0> = 1 memory + 2 HDD.
        v = ReplicationVector.from_counts([1, 0, 2, 0, 0])
        assert v.count("MEMORY") == 1
        assert v.count("HDD") == 2
        assert v.unspecified == 0

    def test_from_counts_without_u(self):
        v = ReplicationVector.from_counts([0, 1, 0, 0])
        assert v.count("SSD") == 1
        assert v.unspecified == 0

    def test_from_counts_wrong_length(self):
        with pytest.raises(ReplicationVectorError):
            ReplicationVector.from_counts([1, 2])

    def test_negative_count_rejected(self):
        with pytest.raises(ReplicationVectorError):
            ReplicationVector({"SSD": -1})

    def test_count_above_255_rejected(self):
        with pytest.raises(ReplicationVectorError):
            ReplicationVector({"SSD": 256})

    def test_case_insensitive_tier_names(self):
        assert ReplicationVector({"ssd": 2}).count("SSD") == 2


class TestSemantics:
    def test_shorthand_matches_paper(self):
        v = ReplicationVector.of(memory=1, hdd=2)
        assert v.shorthand() == "<1,0,2,0,0>"

    def test_explicit_tiers(self):
        v = ReplicationVector.of(memory=1, hdd=2, u=1)
        assert v.explicit_tiers == ["HDD", "MEMORY"]

    def test_satisfiable_check(self):
        v = ReplicationVector.of(remote=1)
        assert not v.is_satisfiable_with(["MEMORY", "SSD", "HDD"])
        assert v.is_satisfiable_with(["REMOTE"])

    def test_equality_and_hash(self):
        a = ReplicationVector.of(ssd=1, u=2)
        b = ReplicationVector.of(u=2, ssd=1)
        assert a == b
        assert hash(a) == hash(b)

    def test_zero_counts_normalize_away(self):
        assert ReplicationVector({"SSD": 0}) == ReplicationVector()


class TestDiff:
    """The §2.3 move/copy/modify/delete scenarios, verbatim."""

    def test_move_between_tiers(self):
        # <1,0,2,0,0> -> <1,1,1,0,0>: move one replica HDD -> SSD.
        old = ReplicationVector.from_counts([1, 0, 2, 0, 0])
        new = ReplicationVector.from_counts([1, 1, 1, 0, 0])
        assert old.diff(new) == {"HDD": -1, "SSD": 1}

    def test_copy_between_tiers(self):
        # <1,0,2,0,0> -> <1,1,2,0,0>: copy one replica to SSD.
        old = ReplicationVector.from_counts([1, 0, 2, 0, 0])
        new = ReplicationVector.from_counts([1, 1, 2, 0, 0])
        assert old.diff(new) == {"SSD": 1}

    def test_modify_within_tier(self):
        # <1,0,2,0,0> -> <1,0,3,0,0>: one more HDD replica.
        old = ReplicationVector.from_counts([1, 0, 2, 0, 0])
        new = ReplicationVector.from_counts([1, 0, 3, 0, 0])
        assert old.diff(new) == {"HDD": 1}

    def test_delete_from_tier(self):
        # <1,0,2,0,0> -> <0,0,2,0,0>: drop the in-memory replica.
        old = ReplicationVector.from_counts([1, 0, 2, 0, 0])
        new = ReplicationVector.from_counts([0, 0, 2, 0, 0])
        assert old.diff(new) == {"MEMORY": -1}

    def test_u_delta_reported(self):
        old = ReplicationVector.of(u=3)
        new = ReplicationVector.of(u=1, ssd=1)
        assert old.diff(new) == {"SSD": 1, UNSPECIFIED: -2}

    def test_identity_diff_empty(self):
        v = ReplicationVector.of(memory=1, u=2)
        assert v.diff(v) == {}


class TestEncoding:
    def test_64bit_bound(self):
        v = ReplicationVector.of(memory=255, ssd=255, hdd=255, remote=255, u=255)
        assert 0 <= v.encode() < 1 << 64

    def test_known_encoding(self):
        # U occupies the low byte; tiers stack above it fastest-last.
        v = ReplicationVector.of(u=3)
        assert v.encode() == 3
        assert ReplicationVector.of(remote=1).encode() == 1 << 8

    def test_unknown_tier_rejected_by_encode(self):
        v = ReplicationVector({"NVRAM": 1})
        with pytest.raises(ReplicationVectorError):
            v.encode()

    def test_custom_tier_order(self):
        order = ("NVRAM", "HDD")
        v = ReplicationVector({"NVRAM": 2, "HDD": 1}, unspecified=1)
        assert ReplicationVector.decode(v.encode(order), order) == v

    def test_encoding_cached_under_a_cluster_tier_order(self, monkeypatch):
        # A Master passes ``tuple(cluster.tier_order)``: a fresh tuple
        # each time, and not the four-entry default axis.
        cluster = Cluster(paper_cluster_spec())
        assert tuple(cluster.tier_order) != DEFAULT_TIER_ORDER
        v = ReplicationVector.of(memory=1, u=2)
        first = v.encode(tuple(cluster.tier_order))
        calls = []
        real_count = ReplicationVector.count
        monkeypatch.setattr(
            ReplicationVector,
            "count",
            lambda self, tier: calls.append(tier) or real_count(self, tier),
        )
        assert v.encode(tuple(cluster.tier_order)) == first
        assert calls == []

    def test_cache_follows_the_order_it_was_asked_for(self):
        a, b = ("MEMORY", "SSD", "HDD"), ("HDD", "MEMORY")
        v = ReplicationVector.of(memory=1, hdd=2, u=3)
        in_a = (1 << 24) | (2 << 8) | 3
        in_b = (2 << 16) | (1 << 8) | 3
        assert [v.encode(a), v.encode(b), v.encode(a)] == [in_a, in_b, in_a]

    @given(
        counts=st.lists(
            st.integers(min_value=0, max_value=255), min_size=5, max_size=5
        )
    )
    def test_property_encode_decode_roundtrip(self, counts):
        v = ReplicationVector.from_counts(counts)
        assert ReplicationVector.decode(v.encode()) == v


class TestDerivation:
    def test_with_tier(self):
        v = ReplicationVector.of(u=3)
        v2 = v.with_tier("MEMORY", 1)
        assert v2.count("MEMORY") == 1
        assert v2.unspecified == 3
        assert v.count("MEMORY") == 0  # original untouched

    def test_add(self):
        v = ReplicationVector.of(ssd=1).add("SSD")
        assert v.count("SSD") == 2

    def test_add_unspecified(self):
        v = ReplicationVector.of(u=1).add(UNSPECIFIED, 2)
        assert v.unspecified == 3

    @given(
        counts=st.dictionaries(
            st.sampled_from(DEFAULT_TIER_ORDER),
            st.integers(min_value=0, max_value=10),
            max_size=4,
        ),
        u=st.integers(min_value=0, max_value=10),
    )
    def test_property_total_is_sum(self, counts, u):
        v = ReplicationVector(counts, u)
        assert v.total_replicas == sum(counts.values()) + u

    @given(
        a=st.lists(st.integers(min_value=0, max_value=9), min_size=5, max_size=5),
        b=st.lists(st.integers(min_value=0, max_value=9), min_size=5, max_size=5),
    )
    def test_property_diff_deltas_apply(self, a, b):
        """Applying the diff to the source reproduces the target."""
        src = ReplicationVector.from_counts(a)
        dst = ReplicationVector.from_counts(b)
        result = src
        for tier, delta in src.diff(dst).items():
            result = result.add(tier, delta)
        assert result == dst
