"""Tests for the Figure 4 thread-per-stream helpers in benchmarks/fig4_streams.py."""

from benchmarks.fig4_streams import (
    measure_chunking_throughput,
    measure_fingerprinting_throughput,
    measure_similarity_index_lookup,
)
from repro.chunking.cdc import ContentDefinedChunker
from repro.chunking.fixed import StaticChunker
from tests.helpers import deterministic_bytes, synthetic_fingerprint


class TestThroughputMeasurement:
    def test_chunking_throughput_sample(self):
        streams = [deterministic_bytes(64 * 1024, seed=i) for i in range(2)]
        sample = measure_chunking_throughput(streams, lambda: StaticChunker(4096))
        assert sample.num_streams == 2
        assert sample.bytes_processed == 2 * 64 * 1024
        assert sample.items_processed == 2 * 16
        assert sample.megabytes_per_second > 0

    def test_cdc_chunking_throughput(self):
        streams = [deterministic_bytes(32 * 1024, seed=i) for i in range(2)]
        sample = measure_chunking_throughput(
            streams, lambda: ContentDefinedChunker(average_size=4096)
        )
        assert sample.items_processed > 0

    def test_fingerprinting_throughput_counts_chunks(self):
        streams = [deterministic_bytes(16 * 1024, seed=i) for i in range(3)]
        sample = measure_fingerprinting_throughput(streams, algorithm="sha1", chunk_size=4096)
        assert sample.items_processed == 3 * 4
        assert sample.operations_per_second > 0

    def test_md5_and_sha1_both_supported(self):
        streams = [deterministic_bytes(8 * 1024, seed=1)]
        sha1 = measure_fingerprinting_throughput(streams, algorithm="sha1")
        md5 = measure_fingerprinting_throughput(streams, algorithm="md5")
        assert sha1.label.endswith("sha1")
        assert md5.label.endswith("md5")

    def test_similarity_index_lookup_counts(self):
        streams = [
            [synthetic_fingerprint(f"{s}-{i}") for i in range(200)] for s in range(4)
        ]
        preload = [synthetic_fingerprint(f"0-{i}") for i in range(200)]
        sample = measure_similarity_index_lookup(streams, num_locks=16, preload=preload)
        assert sample.items_processed == 800
        assert sample.num_streams == 4

    def test_similarity_index_lookup_single_lock(self):
        streams = [[synthetic_fingerprint(str(i)) for i in range(100)]]
        sample = measure_similarity_index_lookup(streams, num_locks=1)
        assert sample.items_processed == 100
