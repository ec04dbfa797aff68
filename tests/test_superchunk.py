"""Tests for repro.core.superchunk."""

import pytest

from repro.core.superchunk import SuperChunk
from tests.helpers import chunk_records_from_seeds, superchunk_from_seeds


class TestSuperChunkConstruction:
    def test_from_chunks_builds_handprint(self):
        superchunk = superchunk_from_seeds(range(20), handprint_size=8)
        assert superchunk.handprint.size == 8

    def test_handprint_smaller_than_chunk_count(self):
        superchunk = superchunk_from_seeds(range(3), handprint_size=8)
        assert superchunk.handprint.size == 3

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            SuperChunk.from_chunks([], handprint_size=8)

    def test_logical_size_is_sum_of_chunk_lengths(self):
        superchunk = superchunk_from_seeds(range(5), length=512)
        assert superchunk.logical_size == 5 * 512

    def test_chunk_count_and_len(self):
        superchunk = superchunk_from_seeds(range(7))
        assert superchunk.chunk_count == 7
        assert len(superchunk) == 7

    def test_stream_and_sequence_metadata(self):
        records = chunk_records_from_seeds(range(4))
        superchunk = SuperChunk.from_chunks(records, stream_id=3, sequence_number=11)
        assert superchunk.stream_id == 3
        assert superchunk.sequence_number == 11


class TestSuperChunkAccessors:
    def test_fingerprints_in_order(self):
        records = chunk_records_from_seeds(range(6))
        superchunk = SuperChunk.from_chunks(records)
        assert superchunk.fingerprints == [record.fingerprint for record in records]

    def test_distinct_fingerprints(self):
        records = chunk_records_from_seeds([1, 1, 2, 2, 3])
        superchunk = SuperChunk.from_chunks(records)
        assert superchunk.distinct_fingerprints == 3

    def test_fingerprints_column_is_built_once(self):
        records = chunk_records_from_seeds(range(4))
        built = SuperChunk.from_chunks(records)
        assert built.fingerprints is built.fingerprints
        # A super-chunk constructed directly (the transport worker does)
        # derives the same column on first use.
        direct = SuperChunk(chunks=list(records), handprint=built.handprint)
        assert direct.fingerprints == built.fingerprints
        assert direct.fingerprints is direct.fingerprints

    def test_handprint_is_subset_of_fingerprints(self):
        superchunk = superchunk_from_seeds(range(30), handprint_size=8)
        assert set(superchunk.handprint.representative_fingerprints) <= set(
            superchunk.fingerprints
        )

    def test_identical_content_identical_handprint(self):
        a = superchunk_from_seeds(range(20))
        b = superchunk_from_seeds(range(20))
        assert a.handprint == b.handprint

    def test_similar_content_overlapping_handprint(self):
        a = superchunk_from_seeds(range(0, 40))
        b = superchunk_from_seeds(range(5, 45))
        assert a.handprint.overlap(b.handprint) > 0
