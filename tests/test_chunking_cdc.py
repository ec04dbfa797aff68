"""Tests for repro.chunking.cdc (content-defined chunking)."""

import pytest

from repro.chunking.cdc import ContentDefinedChunker, expected_gap, solve_divisor
from tests.helpers import deterministic_bytes


class TestContentDefinedChunker:
    def test_roundtrip(self):
        data = deterministic_bytes(50_000, seed=1)
        chunker = ContentDefinedChunker(average_size=1024)
        assert b"".join(chunk.data for chunk in chunker.chunk(data)) == data

    def test_empty_input(self):
        assert list(ContentDefinedChunker(average_size=1024).chunk(b"")) == []

    def test_chunk_size_bounds(self):
        chunker = ContentDefinedChunker(average_size=1024, min_size=256, max_size=4096)
        data = deterministic_bytes(100_000, seed=2)
        chunks = list(chunker.chunk(data))
        # Every chunk except the last respects min and max bounds.
        for chunk in chunks[:-1]:
            assert 256 <= chunk.length <= 4096
        assert chunks[-1].length <= 4096

    def test_average_size_roughly_respected(self):
        chunker = ContentDefinedChunker(average_size=1024)
        data = deterministic_bytes(200_000, seed=3)
        chunks = list(chunker.chunk(data))
        observed_average = len(data) / len(chunks)
        # Random data should land within a factor of ~3 of the target average.
        assert 1024 / 3 < observed_average < 1024 * 3

    def test_shift_resilience(self):
        # CDC's whole point: a one-byte insertion near the front only disturbs
        # chunk boundaries locally, so most chunks survive unchanged.
        data = deterministic_bytes(100_000, seed=4)
        shifted = b"X" + data
        chunker = ContentDefinedChunker(average_size=1024)
        original = {c.data for c in chunker.chunk(data)}
        shifted_chunks = {c.data for c in chunker.chunk(shifted)}
        shared = len(original & shifted_chunks)
        assert shared >= len(original) * 0.5

    def test_deterministic(self):
        data = deterministic_bytes(30_000, seed=5)
        chunker = ContentDefinedChunker(average_size=2048)
        first = [c.data for c in chunker.chunk(data)]
        second = [c.data for c in chunker.chunk(data)]
        assert first == second

    def test_offsets_are_consistent(self):
        data = deterministic_bytes(20_000, seed=6)
        chunks = list(ContentDefinedChunker(average_size=1024).chunk(data))
        position = 0
        for chunk in chunks:
            assert chunk.offset == position
            position += chunk.length
        assert position == len(data)

    def test_invalid_average_size(self):
        with pytest.raises(ValueError):
            ContentDefinedChunker(average_size=16)

    def test_invalid_min_max(self):
        with pytest.raises(ValueError):
            ContentDefinedChunker(average_size=1024, min_size=4096, max_size=1024)

    def test_default_min_max_derived_from_average(self):
        chunker = ContentDefinedChunker(average_size=4096)
        assert chunker.min_size == 1024
        assert chunker.max_size == 16384

    def test_max_size_forces_boundary_on_degenerate_data(self):
        # Constant data never triggers a hash boundary, so only the max-size
        # rule cuts chunks.
        chunker = ContentDefinedChunker(average_size=1024, min_size=256, max_size=2048)
        chunks = list(chunker.chunk(b"\x00" * 10_000))
        for chunk in chunks[:-1]:
            assert chunk.length == 2048


class TestDivisorCalibration:
    """Regression tests for the average-size bias fix.

    The seed implementation rounded ``average_size - min_size`` *down* to a
    power of two, so the default "4 KB average" chunker realized a ~3 KB mean.
    The divisor is now solved from the truncated-geometric chunk-length
    distribution instead.
    """

    def test_solved_divisor_inverts_expected_gap(self):
        for average, minimum, maximum in ((4096, 1024, 16384), (1024, 256, 4096), (8192, 2048, 32768)):
            divisor = solve_divisor(average, minimum, maximum)
            realized = minimum + expected_gap(divisor, maximum - minimum)
            assert abs(realized - average) / average < 0.01

    def test_average_chunk_size_reports_realized_expectation(self):
        for average in (1024, 4096, 8192):
            chunker = ContentDefinedChunker(average_size=average)
            assert abs(chunker.average_chunk_size - average) <= 1

    def test_chunker_cuts_with_the_solved_divisor(self):
        chunker = ContentDefinedChunker(average_size=4096)
        assert chunker.divisor == solve_divisor(4096, chunker.min_size, chunker.max_size)

    def test_realized_mean_within_tolerance_on_random_data(self):
        # Statistical regression: ~500 chunks of seeded random data must land
        # within +/-15% of the configured average (the seed missed by ~ -25%).
        data = deterministic_bytes(2_000_000, seed=77)
        chunker = ContentDefinedChunker(average_size=4096)
        chunks = list(chunker.chunk(data))
        observed = len(data) / len(chunks)
        assert abs(observed - 4096) / 4096 < 0.15

    def test_degenerate_targets_clamp(self):
        # average <= min cuts as early as allowed; average >= max never cuts
        # before the forced maximum.
        assert solve_divisor(256, 256, 1024) == 1
        assert solve_divisor(1024, 256, 1024) > 1 << 30


class TestInlinedScanEquivalence:
    """The optimised chunk() must reproduce the RabinRollingHash reference."""

    def test_matches_reference_on_random_data(self):
        data = deterministic_bytes(300_000, seed=21)
        for chunker in (
            ContentDefinedChunker(average_size=1024),
            ContentDefinedChunker(average_size=4096),
            ContentDefinedChunker(average_size=1024, min_size=16, max_size=4096),
        ):
            inlined = [(c.offset, c.data) for c in chunker.chunk(data)]
            reference = [(c.offset, c.data) for c in chunker.chunk_reference(data)]
            assert inlined == reference

    def test_matches_reference_when_min_size_below_window(self):
        # min_size < window_size exercises the partially-filled-window path.
        data = deterministic_bytes(50_000, seed=22)
        chunker = ContentDefinedChunker(average_size=256, min_size=8, max_size=1024)
        inlined = [(c.offset, c.data) for c in chunker.chunk(data)]
        reference = [(c.offset, c.data) for c in chunker.chunk_reference(data)]
        assert inlined == reference

    def test_matches_reference_on_degenerate_data(self):
        chunker = ContentDefinedChunker(average_size=1024, min_size=256, max_size=2048)
        data = b"\xab" * 20_000
        inlined = [(c.offset, c.data) for c in chunker.chunk(data)]
        reference = [(c.offset, c.data) for c in chunker.chunk_reference(data)]
        assert inlined == reference

    def test_matches_reference_on_short_inputs(self):
        chunker = ContentDefinedChunker(average_size=1024)
        for length in (0, 1, 47, 48, 49, 255, 256, 1023, 1024, 1025):
            data = deterministic_bytes(length, seed=length + 1)
            inlined = [(c.offset, c.data) for c in chunker.chunk(data)]
            reference = [(c.offset, c.data) for c in chunker.chunk_reference(data)]
            assert inlined == reference
