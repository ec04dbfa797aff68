"""Peak-memory comparison: buffered vs streamed backup ingest.

Not a paper figure -- this bench guards the streaming-ingest refactor: a
backup must flow through workload -> partitioner -> client as a bounded
block stream whose peak memory is O(super-chunk), not O(file).

Two measurements, both under :mod:`tracemalloc`:

* **ingest pipeline** -- ``StreamPartitioner.partition_files`` consumed by a
  discarding sink.  This isolates the client-side pipeline buffering (the
  durable node store is intentionally out of scope: it grows with *unique*
  bytes in any design).  Asserted: the buffered form peaks at >= file size,
  the streamed form peaks far below it, and the streamed peak is independent
  of file size (measured at 16x and 64x the super-chunk size).
* **end-to-end client** -- ``BackupClient.backup_files`` against an in-memory
  cluster.  Node storage dominates both modes equally, so the *difference*
  between buffered and streamed peaks exposes whether a whole-file buffer was
  assembled.  Asserted: streaming saves at least half the file size.
* **spill-to-disk node store** -- the same streamed ingest against a cluster
  whose nodes run the ``FileContainerBackend`` with small containers, so
  sealed containers spill and evict their payloads as the backup proceeds.
  Asserted: the spill-backend peak is a small fraction of the in-memory
  backend's (which must hold every unique byte), and stays roughly flat as
  the file quadruples -- only resident metadata (indexes, cache, recipes)
  grows, not payload.

Run directly (CI smoke check)::

    PYTHONPATH=src python benchmarks/bench_backup_memory.py --quick
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import tracemalloc
from typing import Callable, Iterable, List, Optional, Tuple

from repro.chunking.fixed import StaticChunker
from repro.cluster.client import BackupClient
from repro.cluster.cluster import DedupeCluster
from repro.cluster.director import Director
from repro.core.partitioner import PartitionerConfig, StreamPartitioner
from repro.node.dedupe_node import NodeConfig
from repro.workloads.synthetic import SyntheticDataGenerator

CHUNK_SIZE = 4096
STREAM_BLOCK_SIZE = 16 * 1024
SPILL_CONTAINER_CAPACITY = 128 * 1024


def make_config(superchunk_size: int) -> PartitionerConfig:
    return PartitionerConfig(
        chunker=StaticChunker(CHUNK_SIZE),
        superchunk_size=superchunk_size,
        handprint_size=8,
    )


def streamed_payload(file_size: int, seed: int = 7) -> Iterable[bytes]:
    """A lazy block stream: no buffer larger than one block ever exists."""
    return SyntheticDataGenerator(seed).unique_byte_blocks(
        file_size, block_size=STREAM_BLOCK_SIZE
    )


def buffered_payload(file_size: int, seed: int = 7) -> bytes:
    """The same bytes as one whole-file buffer."""
    return SyntheticDataGenerator(seed).unique_bytes(file_size)


def measure_ingest_peak(
    payload_factory: Callable[[], "bytes | Iterable[bytes]"], superchunk_size: int
) -> Tuple[int, int]:
    """(peak traced bytes, logical bytes) of one partition_files pass.

    The payload is created *inside* the traced region so a buffered payload
    is charged for its file buffer, exactly as a real ingest would be.
    """
    partitioner = StreamPartitioner(make_config(superchunk_size))
    tracemalloc.start()
    logical = 0
    for superchunk, _contributions in partitioner.partition_files(
        [("stream.bin", payload_factory())]
    ):
        if superchunk is not None:
            logical += superchunk.logical_size
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak, logical


def measure_client_peak(
    payload_factory: Callable[[], "bytes | Iterable[bytes]"], superchunk_size: int
) -> int:
    """Peak traced bytes of a full backup session against a 2-node cluster."""
    cluster = DedupeCluster(num_nodes=2)
    director = Director()
    client = BackupClient("bench", cluster, director, partitioner_config=make_config(superchunk_size))
    tracemalloc.start()
    client.backup_files([("stream.bin", payload_factory())])
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def measure_spill_peak(
    file_size: int,
    superchunk_size: int,
    container_backend: Optional[str] = None,
    storage_dir: Optional[str] = None,
) -> int:
    """Peak traced bytes of a streamed backup against a small-container cluster."""
    cluster = DedupeCluster(
        num_nodes=2,
        node_config=NodeConfig(
            container_capacity=SPILL_CONTAINER_CAPACITY,
            container_backend=container_backend,
            storage_dir=storage_dir,
        ),
    )
    client = BackupClient(
        "bench-spill", cluster, Director(), partitioner_config=make_config(superchunk_size)
    )
    tracemalloc.start()
    client.backup_files([("stream.bin", streamed_payload(file_size))])
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def run_spill(superchunk_size: int, small_multiple: int = 16, large_multiple: int = 64) -> List[List]:
    """The spill-to-disk bound: node payload RAM stays flat, only metadata grows."""
    small_file = small_multiple * superchunk_size
    large_file = large_multiple * superchunk_size

    memory_large = measure_spill_peak(large_file, superchunk_size)
    with tempfile.TemporaryDirectory(prefix="bench-backup-spill-") as storage_dir:
        spill_small = measure_spill_peak(
            small_file, superchunk_size, "file", f"{storage_dir}/small"
        )
        spill_large = measure_spill_peak(
            large_file, superchunk_size, "file", f"{storage_dir}/large"
        )

    rows = [
        ["memory backend (node store resident)", large_file, memory_large,
         round(memory_large / large_file, 3)],
        [f"file backend {small_multiple}x superchunk", small_file, spill_small,
         round(spill_small / small_file, 3)],
        [f"file backend {large_multiple}x superchunk", large_file, spill_large,
         round(spill_large / large_file, 3)],
    ]

    # The in-memory backend must keep every unique byte resident; the spill
    # backend must not (sealed containers evict their payloads to disk).
    assert memory_large >= large_file, (
        f"in-memory node store peak {memory_large} below unique bytes {large_file}?"
    )
    assert spill_large <= memory_large / 2, (
        f"spill-to-disk peak {spill_large} is not well below the in-memory "
        f"backend's {memory_large}"
    )
    # Roughly flat: quadrupling the data may grow resident metadata (indexes,
    # cache, recipes) but not payload, so the peak must grow far slower than
    # the data (and stay well below it).
    assert spill_large <= spill_small * 3, (
        f"spill-backend peak grew with data size: {spill_small} -> {spill_large}"
    )
    assert spill_large <= large_file / 2, (
        f"spill-backend peak {spill_large} is not well below the "
        f"{large_file}-byte workload"
    )
    return rows


def run(superchunk_size: int, small_multiple: int = 16, large_multiple: int = 64) -> List[List]:
    small_file = small_multiple * superchunk_size
    large_file = large_multiple * superchunk_size

    rows: List[List] = []
    peaks = {}
    for label, file_size, streamed in (
        (f"buffered {large_multiple}x superchunk", large_file, False),
        (f"streamed {small_multiple}x superchunk", small_file, True),
        (f"streamed {large_multiple}x superchunk", large_file, True),
    ):
        factory = (
            (lambda size=file_size: streamed_payload(size))
            if streamed
            else (lambda size=file_size: buffered_payload(size))
        )
        peak, logical = measure_ingest_peak(factory, superchunk_size)
        assert logical == file_size, (logical, file_size)
        peaks[label] = peak
        rows.append([label, file_size, peak, round(peak / file_size, 3)])

    buffered_large = peaks[f"buffered {large_multiple}x superchunk"]
    streamed_small = peaks[f"streamed {small_multiple}x superchunk"]
    streamed_large = peaks[f"streamed {large_multiple}x superchunk"]

    # The buffered form must hold the whole file; the streamed form must not.
    assert buffered_large >= large_file, (
        f"buffered ingest peak {buffered_large} below file size {large_file}?"
    )
    assert streamed_large < large_file / 8, (
        f"streamed ingest peak {streamed_large} is not O(superchunk) "
        f"for a {large_file}-byte file"
    )
    # Peak independence from file size: quadrupling the file must leave the
    # streamed peak flat (tolerance: 25% + one stream block of noise).
    assert streamed_large <= streamed_small * 1.25 + STREAM_BLOCK_SIZE, (
        f"streamed peak grew with file size: {streamed_small} -> {streamed_large}"
    )

    # End-to-end client: node storage dominates both modes; the difference is
    # the assembled file buffer the streamed path must not have.
    client_buffered = measure_client_peak(lambda: buffered_payload(large_file), superchunk_size)
    client_streamed = measure_client_peak(lambda: streamed_payload(large_file), superchunk_size)
    rows.append(["client buffered (incl. node store)", large_file, client_buffered, ""])
    rows.append(["client streamed (incl. node store)", large_file, client_streamed, ""])
    assert client_buffered - client_streamed >= large_file / 2, (
        f"streaming saved only {client_buffered - client_streamed} bytes of "
        f"client peak on a {large_file}-byte file"
    )
    return rows


def main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller sizes for CI smoke checks (32 KB super-chunks, <= 2 MB files)",
    )
    args = parser.parse_args(argv)
    superchunk_size = 32 * 1024 if args.quick else 64 * 1024

    rows = run(superchunk_size)
    rows += run_spill(superchunk_size)
    width = max(len(str(row[0])) for row in rows) + 2
    print(f"superchunk={superchunk_size} chunk={CHUNK_SIZE} block={STREAM_BLOCK_SIZE}")
    print(f"{'mode':<{width}}{'file bytes':>12}{'peak bytes':>14}{'peak/file':>11}")
    for row in rows:
        print(f"{str(row[0]):<{width}}{row[1]:>12}{row[2]:>14}{str(row[3]):>11}")
    print("ok: streamed ingest peak is O(superchunk) and independent of file size")
    print("ok: spill-to-disk backend keeps node payload RAM flat")
    return 0


if __name__ == "__main__":
    sys.exit(main())
