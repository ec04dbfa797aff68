"""Property-based tests (hypothesis) for handprinting and resemblance."""

import hashlib

from hypothesis import given, settings, strategies as st

from repro.fingerprint.handprint import (
    compute_handprint,
    estimate_resemblance,
    jaccard_resemblance,
    probability_handprints_intersect,
)


def tags_to_fingerprints(tags):
    return [hashlib.sha1(str(tag).encode()).digest() for tag in tags]


tag_sets = st.sets(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=300)
handprint_sizes = st.integers(min_value=1, max_value=64)


class TestHandprintProperties:
    @given(tags=tag_sets, k=handprint_sizes)
    @settings(max_examples=100, deadline=None)
    def test_handprint_size_bounded(self, tags, k):
        handprint = compute_handprint(tags_to_fingerprints(tags), k)
        assert handprint.size == min(k, len(tags))

    @given(tags=tag_sets, k=handprint_sizes)
    @settings(max_examples=100, deadline=None)
    def test_handprint_is_subset_of_input(self, tags, k):
        fps = tags_to_fingerprints(tags)
        handprint = compute_handprint(fps, k)
        assert set(handprint.representative_fingerprints) <= set(fps)

    @given(tags=tag_sets, k=handprint_sizes)
    @settings(max_examples=100, deadline=None)
    def test_handprint_contains_minimum(self, tags, k):
        fps = tags_to_fingerprints(tags)
        handprint = compute_handprint(fps, k)
        assert handprint.champion == min(fps, key=lambda fp: int.from_bytes(fp, "big"))

    @given(tags_a=tag_sets, tags_b=tag_sets)
    @settings(max_examples=100, deadline=None)
    def test_jaccard_symmetric_and_bounded(self, tags_a, tags_b):
        a = tags_to_fingerprints(tags_a)
        b = tags_to_fingerprints(tags_b)
        r_ab = jaccard_resemblance(a, b)
        r_ba = jaccard_resemblance(b, a)
        assert r_ab == r_ba
        assert 0.0 <= r_ab <= 1.0

    @given(tags=tag_sets)
    @settings(max_examples=50, deadline=None)
    def test_jaccard_identity(self, tags):
        fps = tags_to_fingerprints(tags)
        assert jaccard_resemblance(fps, fps) == 1.0

    @given(tags_a=tag_sets, tags_b=tag_sets, k=handprint_sizes)
    @settings(max_examples=100, deadline=None)
    def test_estimate_bounded(self, tags_a, tags_b, k):
        a = compute_handprint(tags_to_fingerprints(tags_a), k)
        b = compute_handprint(tags_to_fingerprints(tags_b), k)
        assert 0.0 <= estimate_resemblance(a, b) <= 1.0

    @given(tags_a=tag_sets, tags_b=tag_sets, k=handprint_sizes)
    @settings(max_examples=100, deadline=None)
    def test_disjoint_sets_estimate_zero(self, tags_a, tags_b, k):
        # Make the sets disjoint by prefixing the tags differently.
        a = compute_handprint(tags_to_fingerprints([f"a-{t}" for t in tags_a]), k)
        b = compute_handprint(tags_to_fingerprints([f"b-{t}" for t in tags_b]), k)
        assert estimate_resemblance(a, b) == 0.0

    @given(
        resemblance=st.floats(min_value=0.0, max_value=1.0),
        k=st.integers(min_value=1, max_value=128),
    )
    @settings(max_examples=100, deadline=None)
    def test_broder_bound_properties(self, resemblance, k):
        p = probability_handprints_intersect(resemblance, k)
        assert 0.0 <= p <= 1.0
        assert p >= resemblance - 1e-9

    @given(tags_a=tag_sets, tags_b=tag_sets)
    @settings(max_examples=50, deadline=None)
    def test_shared_fingerprint_implies_positive_jaccard(self, tags_a, tags_b):
        shared = tags_a & tags_b
        a = tags_to_fingerprints(tags_a)
        b = tags_to_fingerprints(tags_b)
        if shared:
            assert jaccard_resemblance(a, b) > 0.0
        else:
            assert jaccard_resemblance(a, b) == 0.0


def _as_integer(fingerprint):
    return int.from_bytes(fingerprint, "big")


def _reference_handprint(fingerprints, k):
    """The selection as first written: the k smallest distinct fingerprints by
    integer value (set order breaks ties between equal integers)."""
    return tuple(sorted(set(fingerprints), key=_as_integer)[:k])


def _reference_estimate(a, b):
    k = min(a.size, b.size)
    union = set(a.representative_fingerprints) | set(b.representative_fingerprints)
    sample = set(sorted(union, key=_as_integer)[:k])
    return len(sample & a.as_set() & b.as_set()) / len(sample)


class TestSelectionOrder:
    """Handprints are picked by memcmp order when every digest has one length
    (the same order as the integers, without a Python key per fingerprint)
    and by integer value when lengths are mixed, where the two differ."""

    @given(
        fingerprints=st.integers(min_value=1, max_value=32).flatmap(
            lambda size: st.lists(st.binary(min_size=size, max_size=size), min_size=1, max_size=300)
        ),
        k=handprint_sizes,
    )
    @settings(max_examples=200, deadline=None)
    def test_equal_lengths_bytes_order_is_integer_order(self, fingerprints, k):
        assert sorted(set(fingerprints)) == sorted(set(fingerprints), key=_as_integer)
        handprint = compute_handprint(fingerprints, k)
        assert handprint.representative_fingerprints == _reference_handprint(fingerprints, k)

    @given(
        fingerprints=st.lists(st.binary(min_size=1, max_size=4), min_size=1, max_size=200),
        k=handprint_sizes,
    )
    @settings(max_examples=200, deadline=None)
    def test_mixed_lengths_still_select_by_integer_value(self, fingerprints, k):
        handprint = compute_handprint(fingerprints, k)
        assert handprint.representative_fingerprints == _reference_handprint(fingerprints, k)

    def test_the_case_where_the_two_orders_differ(self):
        # b"\x01" is the integer 1, b"\x00\x02" the integer 2, yet sorts first as bytes.
        assert sorted([b"\x01", b"\x00\x02"]) == [b"\x00\x02", b"\x01"]
        assert compute_handprint([b"\x00\x02", b"\x01"], 1).champion == b"\x01"

    @given(
        a=st.lists(st.binary(min_size=1, max_size=3), min_size=1, max_size=60),
        b=st.lists(st.binary(min_size=1, max_size=3), min_size=1, max_size=60),
        uniform=st.booleans(),
        k=handprint_sizes,
    )
    @settings(max_examples=200, deadline=None)
    def test_estimate_matches_the_integer_order_estimate(self, a, b, uniform, k):
        if uniform:
            a, b = ([fp.ljust(3, b"\0") for fp in side] for side in (a, b))
        first, second = compute_handprint(a, k), compute_handprint(b, k)
        assert estimate_resemblance(first, second) == _reference_estimate(first, second)
