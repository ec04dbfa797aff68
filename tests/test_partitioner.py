"""Tests for repro.core.partitioner."""

import pytest

from repro.chunking.fixed import StaticChunker
from repro.core.partitioner import PartitionerConfig, StreamPartitioner
from tests.helpers import deterministic_bytes, partition


def small_config(chunk=256, superchunk=1024, handprint=4):
    return PartitionerConfig(
        chunker=StaticChunker(chunk), superchunk_size=superchunk, handprint_size=handprint
    )


class TestConfigValidation:
    def test_superchunk_smaller_than_chunk_raises(self):
        with pytest.raises(ValueError):
            PartitionerConfig(chunker=StaticChunker(4096), superchunk_size=1024)

    def test_invalid_handprint_size(self):
        with pytest.raises(ValueError):
            PartitionerConfig(handprint_size=0)

    def test_defaults_match_paper(self):
        config = PartitionerConfig()
        assert config.chunker.average_chunk_size == 4096
        assert config.superchunk_size == 1024 * 1024
        assert config.handprint_size == 8
        assert config.fingerprint_algorithm == "sha1"


class TestPartition:
    def test_partition_preserves_all_bytes(self):
        partitioner = StreamPartitioner(small_config())
        data = deterministic_bytes(10_000, seed=1)
        superchunks = partition(partitioner, data)
        total = sum(sc.logical_size for sc in superchunks)
        assert total == len(data)

    def test_superchunk_sizes_respect_target(self):
        partitioner = StreamPartitioner(small_config(chunk=256, superchunk=1024))
        data = deterministic_bytes(10_000, seed=2)
        superchunks = partition(partitioner, data)
        for superchunk in superchunks[:-1]:
            assert superchunk.logical_size >= 1024
            # One chunk of slack above the target at most.
            assert superchunk.logical_size < 1024 + 256

    def test_empty_data_yields_nothing(self):
        partitioner = StreamPartitioner(small_config())
        assert partition(partitioner, b"") == []

    def test_sequence_numbers_increase(self):
        partitioner = StreamPartitioner(small_config())
        superchunks = partition(partitioner, deterministic_bytes(8000, seed=3))
        assert [sc.sequence_number for sc in superchunks] == list(range(len(superchunks)))

    def test_stream_id_propagated(self):
        partitioner = StreamPartitioner(small_config())
        superchunks = partition(partitioner, deterministic_bytes(4000, seed=4), stream_id=5)
        assert all(sc.stream_id == 5 for sc in superchunks)

    def test_chunk_records_count(self):
        partitioner = StreamPartitioner(small_config(chunk=256))
        records = list(partitioner.iter_chunk_records(deterministic_bytes(1024, seed=5)))
        assert len(records) == 4


class TestPartitionFiles:
    def test_contributions_cover_every_file(self):
        partitioner = StreamPartitioner(small_config())
        files = [
            ("a.txt", deterministic_bytes(700, seed=1)),
            ("b.txt", deterministic_bytes(1500, seed=2)),
            ("c.txt", deterministic_bytes(300, seed=3)),
        ]
        seen_paths = set()
        total_bytes = 0
        for superchunk, contributions in partitioner.partition_files(files):
            for path, records in contributions:
                seen_paths.add(path)
                total_bytes += sum(record.length for record in records)
        assert seen_paths == {"a.txt", "b.txt", "c.txt"}
        assert total_bytes == sum(len(data) for _, data in files)

    def test_superchunks_cut_across_file_boundaries(self):
        # Two small files should share one super-chunk rather than forcing one
        # super-chunk per file (the stream is the unit of grouping).
        partitioner = StreamPartitioner(small_config(chunk=256, superchunk=2048))
        files = [
            ("a", deterministic_bytes(512, seed=1)),
            ("b", deterministic_bytes(512, seed=2)),
        ]
        results = list(partitioner.partition_files(files))
        assert len(results) == 1
        superchunk, contributions = results[0]
        assert {path for path, _ in contributions} == {"a", "b"}

    def test_large_file_spans_multiple_superchunks(self):
        partitioner = StreamPartitioner(small_config(chunk=256, superchunk=1024))
        files = [("big", deterministic_bytes(5000, seed=7))]
        results = list(partitioner.partition_files(files))
        assert len(results) > 1
        # Every super-chunk contains a contribution from the single file.
        for _, contributions in results:
            assert any(path == "big" for path, _ in contributions)

    def test_empty_file_recorded(self):
        partitioner = StreamPartitioner(small_config())
        files = [("empty", b""), ("real", deterministic_bytes(600, seed=1))]
        results = list(partitioner.partition_files(files))
        all_paths = {path for _, contributions in results for path, _ in contributions}
        assert "empty" in all_paths

    def test_trailing_empty_file_contribution_not_lost(self):
        # Regression: a zero-byte file with no chunk records after it must
        # still surface its contribution (as a final route-less pair).
        partitioner = StreamPartitioner(small_config())
        results = list(partitioner.partition_files([("empty", b"")]))
        assert results == [(None, [("empty", [])])]

    def test_empty_file_after_superchunk_boundary_not_lost(self):
        partitioner = StreamPartitioner(small_config(chunk=256, superchunk=1024))
        files = [("exact", deterministic_bytes(1024, seed=14)), ("empty", b"")]
        results = list(partitioner.partition_files(files))
        assert len(results) == 2
        superchunk, contributions = results[1]
        assert superchunk is None
        assert contributions == [("empty", [])]

    def test_record_stream_grouping(self):
        partitioner = StreamPartitioner(small_config(chunk=256, superchunk=1024))
        records = list(partitioner.iter_chunk_records(deterministic_bytes(4096, seed=9)))
        superchunks = [sc for sc, _ in partitioner.partition_file_records([("f", records)])]
        assert sum(sc.chunk_count for sc in superchunks) == len(records)

    def test_file_ending_on_superchunk_boundary_leaves_no_empty_contribution(self):
        # Regression: a file whose last chunk exactly fills a super-chunk must
        # not leak an empty trailing contribution into the next super-chunk.
        partitioner = StreamPartitioner(small_config(chunk=256, superchunk=1024))
        files = [
            ("exact", deterministic_bytes(1024, seed=11)),  # fills super-chunk 0
            ("next", deterministic_bytes(512, seed=12)),
        ]
        results = list(partitioner.partition_files(files))
        assert len(results) == 2
        first_sc, first_contribs = results[0]
        second_sc, second_contribs = results[1]
        assert [path for path, _ in first_contribs] == ["exact"]
        assert [path for path, _ in second_contribs] == ["next"]
        # No contribution anywhere is an empty continuation marker.
        for _, contributions in results:
            for _, records in contributions:
                assert records
        assert first_sc.logical_size == 1024
        assert second_sc.logical_size == 512

    def test_single_file_exactly_one_superchunk(self):
        partitioner = StreamPartitioner(small_config(chunk=256, superchunk=1024))
        results = list(partitioner.partition_files([("only", deterministic_bytes(1024, seed=13))]))
        assert len(results) == 1
        superchunk, contributions = results[0]
        assert superchunk.logical_size == 1024
        assert [(path, len(records)) for path, records in contributions] == [("only", 4)]


class TestPartitionFilesStreaming:
    def test_block_iterable_payload_matches_buffered(self):
        partitioner_a = StreamPartitioner(small_config(chunk=256, superchunk=1024))
        partitioner_b = StreamPartitioner(small_config(chunk=256, superchunk=1024))
        data = deterministic_bytes(5000, seed=21)

        def blocks():
            for offset in range(0, len(data), 700):
                yield data[offset:offset + 700]

        buffered = list(partitioner_a.partition_files([("f", data)]))
        streamed = list(partitioner_b.partition_files([("f", blocks())]))
        assert len(buffered) == len(streamed)
        for (sc_a, contribs_a), (sc_b, contribs_b) in zip(buffered, streamed):
            assert [r.fingerprint for r in sc_a.chunks] == [r.fingerprint for r in sc_b.chunks]
            assert [(p, [r.fingerprint for r in recs]) for p, recs in contribs_a] == [
                (p, [r.fingerprint for r in recs]) for p, recs in contribs_b
            ]

    def test_mixed_buffered_and_streamed_files(self):
        partitioner = StreamPartitioner(small_config(chunk=256, superchunk=2048))
        data_a = deterministic_bytes(900, seed=22)
        data_b = deterministic_bytes(1100, seed=23)
        files = [("a", data_a), ("b", iter([data_b[:400], data_b[400:]]))]
        total = 0
        seen = set()
        for superchunk, contributions in partitioner.partition_files(files):
            for path, records in contributions:
                seen.add(path)
                total += sum(record.length for record in records)
        assert seen == {"a", "b"}
        assert total == len(data_a) + len(data_b)

    def test_block_stream_superchunks_match_buffer(self):
        partitioner = StreamPartitioner(small_config(chunk=256, superchunk=1024))
        data = deterministic_bytes(6000, seed=24)
        eager = partition(partitioner, data)
        lazy = partition(partitioner, iter([data[:2500], data[2500:]]))
        assert [sc.logical_size for sc in eager] == [sc.logical_size for sc in lazy]
        assert [
            [record.fingerprint for record in sc.chunks] for sc in eager
        ] == [[record.fingerprint for record in sc.chunks] for sc in lazy]
