"""Tests for repro.fingerprint.handprint."""

import pytest

from repro.fingerprint.handprint import (
    Handprint,
    compute_handprint,
    estimate_resemblance,
    jaccard_resemblance,
    probability_handprints_intersect,
)
from tests.helpers import synthetic_fingerprint


def fingerprints(*tags):
    return [synthetic_fingerprint(str(tag)) for tag in tags]


class TestComputeHandprint:
    def test_selects_k_smallest(self):
        fps = fingerprints("a", "b", "c", "d", "e")
        handprint = compute_handprint(fps, handprint_size=3)
        expected = sorted(fps, key=lambda fp: int.from_bytes(fp, "big"))[:3]
        assert list(handprint.representative_fingerprints) == expected

    def test_fewer_fingerprints_than_k(self):
        fps = fingerprints("a", "b")
        handprint = compute_handprint(fps, handprint_size=8)
        assert handprint.size == 2

    def test_duplicates_collapsed(self):
        fps = fingerprints("a", "a", "a", "b")
        handprint = compute_handprint(fps, handprint_size=8)
        assert handprint.size == 2

    def test_sorted_ascending(self):
        handprint = compute_handprint(fingerprints(*range(50)), handprint_size=10)
        values = [int.from_bytes(fp, "big") for fp in handprint]
        assert values == sorted(values)

    def test_invalid_size_raises(self):
        with pytest.raises(ValueError):
            compute_handprint(fingerprints("a"), handprint_size=0)

    def test_champion_is_minimum(self):
        fps = fingerprints("x", "y", "z", "w")
        handprint = compute_handprint(fps, handprint_size=4)
        assert handprint.champion == min(fps, key=lambda fp: int.from_bytes(fp, "big"))

    def test_empty_handprint_champion_raises(self):
        with pytest.raises(ValueError):
            Handprint(representative_fingerprints=()).champion

    def test_order_insensitive(self):
        fps = fingerprints("a", "b", "c", "d")
        assert compute_handprint(fps, 2) == compute_handprint(list(reversed(fps)), 2)


class TestJaccardResemblance:
    def test_identical_sets(self):
        fps = fingerprints(*range(10))
        assert jaccard_resemblance(fps, fps) == 1.0

    def test_disjoint_sets(self):
        assert jaccard_resemblance(fingerprints("a"), fingerprints("b")) == 0.0

    def test_half_overlap(self):
        a = fingerprints("1", "2")
        b = fingerprints("2", "3")
        assert jaccard_resemblance(a, b) == pytest.approx(1 / 3)

    def test_both_empty(self):
        assert jaccard_resemblance([], []) == 1.0

    def test_one_empty(self):
        assert jaccard_resemblance(fingerprints("a"), []) == 0.0

    def test_symmetry(self):
        a = fingerprints(*range(0, 30))
        b = fingerprints(*range(15, 45))
        assert jaccard_resemblance(a, b) == jaccard_resemblance(b, a)


class TestEstimateResemblance:
    def test_identical_superchunks(self):
        fps = fingerprints(*range(100))
        a = compute_handprint(fps, handprint_size=8)
        assert estimate_resemblance(a, a) == 1.0

    def test_disjoint_superchunks(self):
        a = compute_handprint(fingerprints(*[f"a{i}" for i in range(50)]), 8)
        b = compute_handprint(fingerprints(*[f"b{i}" for i in range(50)]), 8)
        assert estimate_resemblance(a, b) == 0.0

    def test_estimate_within_unit_interval(self):
        a = compute_handprint(fingerprints(*range(0, 60)), 16)
        b = compute_handprint(fingerprints(*range(30, 90)), 16)
        assert 0.0 <= estimate_resemblance(a, b) <= 1.0

    def test_larger_handprint_improves_estimate(self):
        # Figure 1 of the paper: the estimate approaches the true resemblance
        # as the handprint size grows.  True resemblance here is 1/3.
        set_a = [f"shared{i}" for i in range(200)] + [f"a{i}" for i in range(200)]
        set_b = [f"shared{i}" for i in range(200)] + [f"b{i}" for i in range(200)]
        true_value = jaccard_resemblance(fingerprints(*set_a), fingerprints(*set_b))
        errors = []
        for k in (4, 64, 256):
            a = compute_handprint(fingerprints(*set_a), k)
            b = compute_handprint(fingerprints(*set_b), k)
            errors.append(abs(estimate_resemblance(a, b) - true_value))
        assert errors[-1] <= errors[0] + 0.05

    def test_empty_handprints(self):
        empty = Handprint(representative_fingerprints=())
        assert estimate_resemblance(empty, empty) == 1.0
        other = compute_handprint(fingerprints("a"), 1)
        assert estimate_resemblance(empty, other) == 0.0


class TestBroderBound:
    def test_probability_bounds(self):
        assert probability_handprints_intersect(0.0, 8) == 0.0
        assert probability_handprints_intersect(1.0, 8) == 1.0

    def test_monotone_in_handprint_size(self):
        values = [probability_handprints_intersect(0.2, k) for k in (1, 2, 4, 8, 16)]
        assert values == sorted(values)

    def test_at_least_resemblance(self):
        # Eq. (5): the bound is >= r for every k >= 1.
        for r in (0.1, 0.3, 0.7):
            for k in (1, 4, 16):
                assert probability_handprints_intersect(r, k) >= r - 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            probability_handprints_intersect(1.5, 8)
        with pytest.raises(ValueError):
            probability_handprints_intersect(0.5, 0)
