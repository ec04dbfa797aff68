"""Thread-per-stream throughput measurement for the Figure 4 benchmarks.

Reproduces the intra-node parallelism experiments of Section 4.3; the callers
are ``bench_fig4a_chunking_fingerprinting.py`` and ``bench_fig4b_index_lookup.py``
beside it:

* Figure 4(a): chunking (CDC) and SHA-1/MD5 fingerprinting throughput at the
  backup client as a function of the number of data streams.
* Figure 4(b): parallel similarity-index lookup throughput as a function of
  the number of lock stripes and data streams.

Absolute numbers are far below the paper's C++ prototype (pure Python, and the
GIL limits CPU-bound thread scaling), but the *shape* of the curves -- scaling
until the stream count passes the available parallelism, and lock-count knees
-- is what the benchmarks compare.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.chunking.base import Chunker
from repro.storage.similarity_index import SimilarityIndex
from repro.utils.hashing import digest_bytes


@dataclass
class ThroughputSample:
    """One throughput measurement."""

    label: str
    num_streams: int
    bytes_processed: int
    items_processed: int
    elapsed_seconds: float

    @property
    def megabytes_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.bytes_processed / (1024 * 1024) / self.elapsed_seconds

    @property
    def operations_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.items_processed / self.elapsed_seconds


def _run_in_threads(worker: Callable[[int], None], num_streams: int) -> float:
    """Run ``worker(stream_id)`` in ``num_streams`` threads, return elapsed seconds."""
    threads = [
        threading.Thread(target=worker, args=(stream_id,), daemon=True)
        for stream_id in range(num_streams)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start


def measure_chunking_throughput(
    stream_data: Sequence[bytes], chunker_factory: Callable[[], Chunker]
) -> ThroughputSample:
    """Chunk each stream in its own thread; report aggregate throughput."""
    chunk_counts = [0] * len(stream_data)

    def worker(stream_id: int) -> None:
        chunker = chunker_factory()
        count = 0
        for _ in chunker.chunk(stream_data[stream_id]):
            count += 1
        chunk_counts[stream_id] = count

    elapsed = _run_in_threads(worker, len(stream_data))
    return ThroughputSample(
        label="chunking",
        num_streams=len(stream_data),
        bytes_processed=sum(len(data) for data in stream_data),
        items_processed=sum(chunk_counts),
        elapsed_seconds=elapsed,
    )


def measure_fingerprinting_throughput(
    stream_data: Sequence[bytes], algorithm: str = "sha1", chunk_size: int = 4096
) -> ThroughputSample:
    """Fingerprint fixed-size chunks of each stream in its own thread."""
    chunk_counts = [0] * len(stream_data)

    def worker(stream_id: int) -> None:
        data = stream_data[stream_id]
        count = 0
        for offset in range(0, len(data), chunk_size):
            digest_bytes(data[offset:offset + chunk_size], algorithm)
            count += 1
        chunk_counts[stream_id] = count

    elapsed = _run_in_threads(worker, len(stream_data))
    return ThroughputSample(
        label=f"fingerprinting-{algorithm}",
        num_streams=len(stream_data),
        bytes_processed=sum(len(data) for data in stream_data),
        items_processed=sum(chunk_counts),
        elapsed_seconds=elapsed,
    )


def measure_similarity_index_lookup(
    fingerprint_streams: Sequence[Sequence[bytes]],
    num_locks: int,
    preload: Optional[Sequence[bytes]] = None,
) -> ThroughputSample:
    """Concurrent similarity-index lookups from multiple streams.

    Each stream performs a lookup for each of its fingerprints against one
    shared :class:`SimilarityIndex` configured with ``num_locks`` lock stripes,
    matching the Figure 4(b) experiment ("we feed the deduplication server with
    chunk fingerprints generated in advance").
    """
    index = SimilarityIndex(num_locks=num_locks)
    if preload:
        for position, fingerprint in enumerate(preload):
            index.insert(fingerprint, position)

    def worker(stream_id: int) -> None:
        for fingerprint in fingerprint_streams[stream_id]:
            index.lookup(fingerprint)

    elapsed = _run_in_threads(worker, len(fingerprint_streams))
    total_lookups = sum(len(stream) for stream in fingerprint_streams)
    fingerprint_bytes = sum(
        len(fingerprint) for stream in fingerprint_streams for fingerprint in stream
    )
    return ThroughputSample(
        label=f"similarity-index-{num_locks}-locks",
        num_streams=len(fingerprint_streams),
        bytes_processed=fingerprint_bytes,
        items_processed=total_lookups,
        elapsed_seconds=elapsed,
    )
