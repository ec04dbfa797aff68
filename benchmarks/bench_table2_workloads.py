"""Table 2: workload characteristics of the four datasets.

The paper reports, per dataset, the original size and the deduplication ratio
under 4 KB static chunking (SC) and -- for the two content datasets -- content
defined chunking (CDC) with a 4 KB average chunk size.

The synthetic stand-ins are orders of magnitude smaller (laptop-scale), so the
"size" column will not match the paper; the columns to compare are the
deduplication ratios, whose targets are Linux ~8, VM ~4.3, Mail ~10.5, Web ~1.9
(higher for Linux/VM the more versions/backups the scaled workload generates --
the scaled runs use fewer generations, so their SC ratios land lower but keep
the same ordering: Mail > Linux > VM > Web).
"""

from __future__ import annotations

from typing import List

from benchmarks.common import SIM_CHUNK_SIZE, bench_scale, rows_table, run_once
from repro.chunking.cdc import ContentDefinedChunker
from repro.chunking.fixed import StaticChunker
from repro.simulation.experiment import standard_workload
from repro.utils.units import format_bytes
from repro.workloads.trace import materialize_workload, trace_statistics

#: Paper-reported dedup ratios (static chunking) for reference columns.
PAPER_SC_RATIOS = {"linux": 7.96, "vm": 4.11, "mail": 10.52, "web": 1.9}

#: Cap on how much data the (slow, pure-Python) CDC chunker is fed per dataset.
CDC_SAMPLE_BYTES = 2 * 1024 * 1024


def characterise_workloads() -> List[List]:
    rows: List[List] = []
    for name in ("linux", "vm", "mail", "web"):
        workload = standard_workload(name, scale=bench_scale())
        snapshots = materialize_workload(workload, chunker=StaticChunker(SIM_CHUNK_SIZE))
        stats = trace_statistics(snapshots)
        cdc_ratio = "-"
        if workload.has_file_metadata:
            cdc_ratio = round(_cdc_ratio_on_sample(workload), 2)
        rows.append(
            [
                name,
                format_bytes(stats["logical_bytes"]),
                stats["total_chunks"],
                round(stats["deduplication_ratio"], 2),
                cdc_ratio,
                PAPER_SC_RATIOS[name],
            ]
        )
    return rows


def _cdc_ratio_on_sample(workload) -> float:
    """Dedup ratio under CDC on a byte-capped sample of a content workload.

    The byte budget is split across the first few backup generations so the
    sample retains inter-version redundancy (sampling only generation 1 would
    always yield a ratio of ~1.0).
    """
    chunker = ContentDefinedChunker(average_size=SIM_CHUNK_SIZE)
    from repro.fingerprint.fingerprinter import Fingerprinter

    fingerprinter = Fingerprinter("sha1")
    logical = 0
    unique = {}
    generations = 3
    per_snapshot_budget = max(1, CDC_SAMPLE_BYTES // generations)
    for index, snapshot in enumerate(workload.snapshots()):
        if index >= generations:
            break
        consumed = 0
        for file in snapshot.files:
            if consumed >= per_snapshot_budget:
                break
            data = file.data[: per_snapshot_budget - consumed]
            consumed += len(data)
            for record in fingerprinter.fingerprint_blocks(data, chunker, keep_data=False):
                logical += record.length
                unique.setdefault(record.fingerprint, record.length)
    unique_bytes = sum(unique.values())
    return logical / unique_bytes if unique_bytes else 1.0


def test_table2_workload_characteristics(benchmark):
    rows = run_once(benchmark, characterise_workloads)
    rows_table(
        "table2_workloads",
        "Table 2 -- workload characteristics (scaled synthetic stand-ins)",
        ["dataset", "size", "chunks", "dedup ratio (SC)", "dedup ratio (CDC sample)", "paper SC ratio"],
        rows,
    )
    ratios = {row[0]: row[3] for row in rows}
    # Ordering check against the paper: Mail is the most redundant, Web the least.
    assert ratios["mail"] > ratios["linux"] > ratios["web"]
    assert ratios["mail"] > ratios["vm"] > ratios["web"]
    # Every workload contains real redundancy.
    assert all(ratio > 1.2 for ratio in ratios.values())
