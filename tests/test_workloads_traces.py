"""Tests for the fingerprint-only trace workloads (mail, web) and trace tooling."""

import pytest

from repro.chunking.fixed import StaticChunker
from repro.errors import WorkloadError
from repro.workloads.mail import MailWorkload
from repro.workloads.web import WebWorkload
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.trace import (
    TraceChunk,
    TraceFile,
    TraceSnapshot,
    materialize_workload,
    trace_statistics,
)
from tests.helpers import synthetic_fingerprint


class TestMailWorkload:
    def test_no_file_metadata(self):
        assert MailWorkload().has_file_metadata is False

    def test_chunk_counts(self):
        workload = MailWorkload(num_days=3, chunks_per_day=500)
        snapshots = list(workload.snapshots())
        assert len(snapshots) == 3
        for snapshot in snapshots:
            assert sum(len(f.chunks) for f in snapshot.files) == 500

    def test_chunks_have_no_payload(self):
        workload = MailWorkload(num_days=1, chunks_per_day=100)
        snapshot = next(iter(workload.snapshots()))
        assert all(chunk.data is None for chunk in snapshot.files[0].chunks)

    def test_target_dedup_ratio_roughly_met(self):
        workload = MailWorkload(num_days=8, chunks_per_day=5000, target_dedup_ratio=10.5)
        stats = trace_statistics(materialize_workload(workload))
        assert 6.0 < stats["deduplication_ratio"] < 16.0

    def test_deterministic(self):
        a = materialize_workload(MailWorkload(num_days=2, chunks_per_day=300, seed=1))
        b = materialize_workload(MailWorkload(num_days=2, chunks_per_day=300, seed=1))
        assert [c.fingerprint for c in a[1].all_chunks()] == [
            c.fingerprint for c in b[1].all_chunks()
        ]

    def test_redundancy_has_run_locality(self):
        # Duplicate chunks should appear in contiguous runs, so the number of
        # "transitions" between duplicate and unique positions must be far
        # smaller than the number of duplicate chunks.
        workload = MailWorkload(num_days=4, chunks_per_day=3000, mean_segment_chunks=64)
        snapshots = materialize_workload(workload)
        seen = set()
        flags = []
        for snapshot in snapshots:
            for chunk in snapshot.all_chunks():
                flags.append(chunk.fingerprint in seen)
                seen.add(chunk.fingerprint)
        duplicates = sum(flags)
        transitions = sum(1 for a, b in zip(flags, flags[1:]) if a != b)
        assert duplicates > 0
        assert transitions < duplicates / 4

    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            MailWorkload(num_days=0)
        with pytest.raises(WorkloadError):
            MailWorkload(target_dedup_ratio=0.5)
        with pytest.raises(WorkloadError):
            MailWorkload(recent_bias=2.0)


class TestWebWorkload:
    def test_no_file_metadata(self):
        assert WebWorkload().has_file_metadata is False

    def test_low_dedup_ratio(self):
        workload = WebWorkload(num_days=6, chunks_per_day=4000, target_dedup_ratio=1.9)
        stats = trace_statistics(materialize_workload(workload))
        assert 1.3 < stats["deduplication_ratio"] < 3.0

    def test_web_less_redundant_than_mail(self):
        web = trace_statistics(materialize_workload(WebWorkload(num_days=4, chunks_per_day=3000)))
        mail = trace_statistics(materialize_workload(MailWorkload(num_days=4, chunks_per_day=3000)))
        assert web["deduplication_ratio"] < mail["deduplication_ratio"]

    def test_chunk_size_accounted(self):
        workload = WebWorkload(num_days=1, chunks_per_day=100, chunk_size=4096)
        snapshot = materialize_workload(workload)[0]
        assert snapshot.logical_bytes == 100 * 4096

    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            WebWorkload(chunks_per_day=0)
        with pytest.raises(WorkloadError):
            WebWorkload(mean_segment_chunks=0)
        with pytest.raises(WorkloadError):
            WebWorkload(target_dedup_ratio=0.2)


class TestTraceTooling:
    def test_materialize_content_workload(self):
        workload = SyntheticWorkload(num_generations=2, files_per_generation=2, file_size=4096)
        snapshots = materialize_workload(workload, chunker=StaticChunker(1024))
        assert len(snapshots) == 2
        assert snapshots[0].chunk_count == 2 * 4  # 2 files x 4 chunks
        assert snapshots[0].has_file_metadata is True

    def test_materialize_trace_workload_keeps_flag(self):
        snapshots = materialize_workload(MailWorkload(num_days=1, chunks_per_day=50))
        assert snapshots[0].has_file_metadata is False

    def test_trace_statistics_consistency(self):
        snapshots = materialize_workload(
            SyntheticWorkload(num_generations=2, files_per_generation=1, file_size=8192,
                              change_fraction=0.0),
            chunker=StaticChunker(1024),
        )
        stats = trace_statistics(snapshots)
        assert stats["total_chunks"] == 16
        assert stats["logical_bytes"] == 2 * 8192
        # Identical generations: unique is half of logical.
        assert stats["unique_bytes"] == 8192
        assert stats["deduplication_ratio"] == pytest.approx(2.0)

    def test_trace_snapshot_all_chunks_order(self):
        file_a = TraceFile(path="a", chunks=[TraceChunk(synthetic_fingerprint("1"), 10)])
        file_b = TraceFile(path="b", chunks=[TraceChunk(synthetic_fingerprint("2"), 10)])
        snapshot = TraceSnapshot(label="s", files=[file_a, file_b])
        fps = [c.fingerprint for c in snapshot.all_chunks()]
        assert fps == [synthetic_fingerprint("1"), synthetic_fingerprint("2")]

    def test_empty_trace_statistics(self):
        stats = trace_statistics([])
        assert stats["deduplication_ratio"] == 1.0
        assert stats["total_chunks"] == 0
