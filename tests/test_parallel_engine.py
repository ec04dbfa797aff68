"""Tests for repro.parallel.engine: the parallel ingest engine."""

import threading

import pytest

from repro.chunking.fixed import StaticChunker
from repro.chunking.gear import GearChunker
from repro.core.partitioner import PartitionerConfig, StreamPartitioner
from repro.parallel.engine import (
    ENV_INGEST_WORKERS,
    ParallelIngestEngine,
    resolve_workers,
)
from tests.helpers import deterministic_bytes


def make_config(chunker=None, superchunk_size=8 * 1024, keep_data=True):
    return PartitionerConfig(
        chunker=chunker or StaticChunker(1024),
        superchunk_size=superchunk_size,
        handprint_size=4,
        keep_chunk_data=keep_data,
    )


def sample_files(count=6, size=20_000, seed_base=0):
    return [
        (f"dir/file-{i}.bin", deterministic_bytes(size + i * 411, seed=seed_base + i))
        for i in range(count)
    ]


def as_pairs(result):
    """Materialise (superchunk, contributions) pairs into a comparable form."""
    out = []
    for superchunk, contributions in result:
        key = None
        if superchunk is not None:
            key = (
                superchunk.sequence_number,
                superchunk.stream_id,
                [chunk for chunk in superchunk.chunks],
            )
        out.append((key, [(path, records) for path, records in contributions]))
    return out


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(ENV_INGEST_WORKERS, raising=False)
        assert resolve_workers() == 1

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_INGEST_WORKERS, "8")
        assert resolve_workers(2) == 2

    def test_environment_applies(self, monkeypatch):
        monkeypatch.setenv(ENV_INGEST_WORKERS, "3")
        assert resolve_workers() == 3

    def test_invalid_environment_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_INGEST_WORKERS, "many")
        with pytest.raises(ValueError):
            resolve_workers()

    def test_nonpositive_raises(self):
        with pytest.raises(ValueError):
            resolve_workers(0)


class TestDeterministicPartitioning:
    """engine.partition_files must be byte-identical to the serial partitioner."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_identical_superchunks_and_contributions(self, workers):
        config = make_config()
        files = sample_files()
        serial = as_pairs(StreamPartitioner(config).partition_files(files))
        engine = ParallelIngestEngine(workers=workers)
        parallel = as_pairs(engine.partition_files(config, files))
        assert serial == parallel

    @pytest.mark.parametrize("workers", [2, 4])
    def test_identical_with_cdc_chunker(self, workers):
        config = make_config(chunker=GearChunker(average_size=512), superchunk_size=4096)
        files = sample_files(count=5, size=9_000)
        serial = as_pairs(StreamPartitioner(config).partition_files(files))
        parallel = as_pairs(
            ParallelIngestEngine(workers=workers).partition_files(config, files)
        )
        assert serial == parallel

    def test_zero_byte_and_trailing_empty_files(self):
        config = make_config()
        files = [
            ("a.bin", deterministic_bytes(5_000, seed=1)),
            ("empty-mid.bin", b""),
            ("b.bin", deterministic_bytes(3_000, seed=2)),
            ("empty-tail.bin", b""),
        ]
        serial = as_pairs(StreamPartitioner(config).partition_files(files))
        parallel = as_pairs(ParallelIngestEngine(workers=3).partition_files(config, files))
        assert serial == parallel

    def test_only_empty_files_yield_routeless_pair(self):
        config = make_config()
        files = [("e1", b""), ("e2", b"")]
        parallel = as_pairs(ParallelIngestEngine(workers=2).partition_files(config, files))
        assert parallel == [(None, [("e1", []), ("e2", [])])]

    def test_no_files(self):
        config = make_config()
        assert as_pairs(ParallelIngestEngine(workers=2).partition_files(config, [])) == []

    def test_block_iterable_payloads(self):
        config = make_config()
        data = deterministic_bytes(30_000, seed=9)
        whole = as_pairs(
            ParallelIngestEngine(workers=2).partition_files(config, [("s.bin", data)])
        )
        blocked = as_pairs(
            ParallelIngestEngine(workers=2).partition_files(
                config,
                [("s.bin", iter([data[i:i + 7000] for i in range(0, len(data), 7000)]))],
            )
        )
        assert whole == blocked

    def test_stream_id_propagated(self):
        config = make_config()
        files = sample_files(count=3)
        serial = as_pairs(StreamPartitioner(config).partition_files(files, stream_id=7))
        pairs = list(ParallelIngestEngine(workers=2).partition_files(config, files, stream_id=7))
        assert {superchunk.stream_id for superchunk, _ in pairs} == {7}
        assert as_pairs(pairs) == serial

    def test_many_files_surface_in_file_order(self):
        """Lanes finish out of order (large and tiny files interleaved); the
        contributions must still come back in submission order."""
        config = make_config()
        files = [
            (f"f-{i}", deterministic_bytes(30_000 if i % 3 == 0 else 300, seed=i))
            for i in range(18)
        ]
        pairs = ParallelIngestEngine(workers=4).partition_files(config, files)
        seen = []
        for _superchunk, contributions in pairs:
            for path, _records in contributions:
                if not seen or seen[-1] != path:
                    seen.append(path)
        assert seen == [path for path, _ in files]

    def test_small_batch_and_queue_bounds_still_identical(self):
        config = make_config()
        files = sample_files(count=4)
        serial = as_pairs(StreamPartitioner(config).partition_files(files))
        engine = ParallelIngestEngine(workers=2, batch_bytes=512, queue_depth=1)
        assert as_pairs(engine.partition_files(config, files)) == serial

    def test_lazy_file_consumption_is_bounded(self):
        """The engine must not slurp the whole file stream ahead of the consumer."""
        config = make_config()
        consumed = []

        def files():
            for index in range(64):
                consumed.append(index)
                yield f"f-{index}", deterministic_bytes(4_000, seed=index)

        engine = ParallelIngestEngine(workers=2)
        stream = engine.partition_files(config, files())
        next(stream)
        # At most 2*workers files admitted-but-unconsumed at a time, plus the
        # few the sequencer has already drained for the first super-chunk.
        assert len(consumed) <= 12
        stream.close()

    def test_worker_exception_propagates(self):
        config = make_config()

        def broken_payload():
            yield deterministic_bytes(2_000, seed=1)
            raise OSError("disk vanished")

        files = [("ok.bin", deterministic_bytes(2_000, seed=0)), ("bad.bin", broken_payload())]
        engine = ParallelIngestEngine(workers=2)
        with pytest.raises(OSError, match="disk vanished"):
            list(engine.partition_files(config, files))

    def test_source_exception_propagates(self):
        config = make_config()

        def files():
            yield "ok.bin", deterministic_bytes(2_000, seed=0)
            raise RuntimeError("listing failed")

        engine = ParallelIngestEngine(workers=2)
        with pytest.raises(RuntimeError, match="listing failed"):
            list(engine.partition_files(config, files()))

    def test_threads_are_reaped_after_completion(self):
        config = make_config()
        before = threading.active_count()
        for _ in range(3):
            list(ParallelIngestEngine(workers=4).partition_files(config, sample_files(count=3)))
        assert threading.active_count() <= before + 1

    def test_abandoned_iteration_cleans_up(self):
        config = make_config()
        engine = ParallelIngestEngine(workers=2, queue_depth=1, batch_bytes=1024)
        before = threading.active_count()
        stream = engine.partition_files(config, sample_files(count=6, size=40_000))
        next(stream)
        stream.close()
        assert threading.active_count() <= before + 1


class TestProcessExecutor:
    def test_identical_to_serial(self):
        config = make_config()
        files = sample_files(count=4, size=12_000)
        serial = as_pairs(StreamPartitioner(config).partition_files(files))
        engine = ParallelIngestEngine(workers=2, executor="process")
        assert as_pairs(engine.partition_files(config, files)) == serial

    def test_handles_iterable_payloads_and_empty_files(self):
        config = make_config()
        data = deterministic_bytes(9_000, seed=3)
        files = [
            ("blocks.bin", iter([data[:4000], data[4000:]])),
            ("empty.bin", b""),
        ]
        serial = as_pairs(
            StreamPartitioner(config).partition_files([("blocks.bin", data), ("empty.bin", b"")])
        )
        engine = ParallelIngestEngine(workers=2, executor="process")
        assert as_pairs(engine.partition_files(config, files)) == serial

    def test_cdc_chunker_identical_to_serial(self):
        config = make_config(chunker=GearChunker(average_size=512), superchunk_size=4096)
        files = sample_files(count=3, size=9_000)
        serial = as_pairs(StreamPartitioner(config).partition_files(files))
        engine = ParallelIngestEngine(workers=2, executor="process")
        assert as_pairs(engine.partition_files(config, files)) == serial

    def test_no_files(self):
        engine = ParallelIngestEngine(workers=2, executor="process")
        assert as_pairs(engine.partition_files(make_config(), [])) == []

    def test_worker_exception_propagates(self):
        def broken_payload():
            yield deterministic_bytes(2_000, seed=1)
            raise OSError("disk vanished")

        files = [("ok.bin", deterministic_bytes(2_000, seed=0)), ("bad.bin", broken_payload())]
        engine = ParallelIngestEngine(workers=2, executor="process")
        with pytest.raises(OSError, match="disk vanished"):
            list(engine.partition_files(make_config(), files))

    def test_invalid_executor_rejected(self):
        with pytest.raises(ValueError):
            ParallelIngestEngine(workers=2, executor="fiber")
