"""Figure 4(a): chunking and fingerprinting throughput vs number of data streams.

The paper measures Rabin-based CDC chunking, SHA-1 fingerprinting and MD5
fingerprinting at the backup client with 1-16 parallel data streams on a
4-core/8-thread CPU, observing near-linear scaling up to the hardware thread
count and peak throughputs of ~148 MB/s (CDC), ~980 MB/s (SHA-1) and
~1890 MB/s (MD5).

A pure-Python reproduction cannot match those absolute numbers (the paper's
prototype is C++; Python's GIL also limits pure-Python CDC scaling, while the
hashlib-based fingerprinting releases the GIL and does scale).  The shape to
compare: MD5 is roughly 1.5-2x faster than SHA-1 at every stream count, and
CDC is orders of magnitude slower than either -- which is exactly why the paper
(and this reproduction) selects static chunking + SHA-1 for the remaining
experiments.
"""

from __future__ import annotations

from typing import List

from benchmarks.common import bench_scale, rows_table, run_once
from benchmarks.fig4_streams import (
    measure_chunking_throughput,
    measure_fingerprinting_throughput,
)
from repro.chunking.cdc import ContentDefinedChunker
from repro.chunking.gear import GearChunker
from repro.workloads.synthetic import SyntheticDataGenerator

STREAM_COUNTS = (1, 2, 4, 8, 16)

#: Bytes per stream for each scale (CDC in pure Python is the limiting factor).
STREAM_BYTES = {"tiny": 256 * 1024, "small": 512 * 1024, "medium": 2 * 1024 * 1024}


def measure() -> List[List]:
    stream_bytes = STREAM_BYTES[bench_scale()]
    generator = SyntheticDataGenerator(seed=44)
    data_pool = [generator.unique_bytes(stream_bytes) for _ in range(max(STREAM_COUNTS))]
    rows: List[List] = []
    for num_streams in STREAM_COUNTS:
        streams = data_pool[:num_streams]
        cdc = measure_chunking_throughput(
            streams, lambda: ContentDefinedChunker(average_size=4096)
        )
        gear = measure_chunking_throughput(
            streams, lambda: GearChunker(average_size=4096)
        )
        sha1 = measure_fingerprinting_throughput(streams, algorithm="sha1", chunk_size=4096)
        md5 = measure_fingerprinting_throughput(streams, algorithm="md5", chunk_size=4096)
        rows.append(
            [
                num_streams,
                round(cdc.megabytes_per_second, 2),
                round(gear.megabytes_per_second, 2),
                round(sha1.megabytes_per_second, 1),
                round(md5.megabytes_per_second, 1),
            ]
        )
    return rows


def test_fig4a_chunking_and_fingerprinting_throughput(benchmark):
    rows = run_once(benchmark, measure)
    rows_table(
        "fig4a_chunking_fingerprinting",
        "Figure 4(a) -- client-side throughput (MB/s) vs number of data streams",
        ["streams", "CDC chunking", "gear chunking", "SHA-1 fingerprinting", "MD5 fingerprinting"],
        rows,
    )
    # Shape checks: fingerprinting (either hash) is far faster than pure-Python
    # CDC at every stream count, which is the reason both the paper and this
    # reproduction run the remaining experiments with static chunking.  (The
    # paper's MD5-is-2x-SHA-1 relationship does not reproduce on CPUs with
    # SHA-1 hardware acceleration, so only the CDC gap is asserted.)  The gear
    # chunker narrows the gap but hashlib-grade C code still wins.
    for _, cdc, gear, sha1, md5 in rows:
        assert sha1 > cdc * 5
        assert md5 > cdc * 5
        assert gear > cdc
    # Unlike the paper's C++ prototype, aggregate pure-Python fingerprinting
    # throughput does NOT scale with the number of threads (the per-chunk
    # Python overhead is GIL-bound even though hashlib releases the GIL while
    # hashing), so no thread-scaling assertion is made here; this comment is
    # where the deviation is recorded.  What must hold at every stream count is
    # that the system keeps fingerprinting at a usable rate.
    assert all(sha1 > 1.0 for _, _, _, sha1, _ in rows)
