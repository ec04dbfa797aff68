"""Fingerprint-level trace representation and workload materialisation.

The cluster simulator is trace-driven (as in the paper's Section 4.4): it
consumes streams of ``(fingerprint, length)`` records grouped by file and by
backup snapshot.  :func:`iter_trace_snapshots` converts any workload --
content or trace -- into that representation lazily, one generation at a
time, so traces far larger than memory can be replayed;
:func:`materialize_workload` is its buffering wrapper for callers that want
the whole trace as a list (e.g. to replay it against many routing schemes
without re-chunking).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional

from repro.chunking.base import Chunker
from repro.chunking.fixed import StaticChunker
from repro.fingerprint.fingerprinter import Fingerprinter
from repro.workloads.base import Workload


@dataclass(frozen=True)
class TraceChunk:
    """One chunk occurrence in a trace: its fingerprint and size."""

    fingerprint: bytes
    length: int


@dataclass
class TraceFile:
    """One file of a trace snapshot (path may be synthetic for trace workloads)."""

    path: str
    chunks: List[TraceChunk] = field(default_factory=list)

    @property
    def logical_size(self) -> int:
        return sum(chunk.length for chunk in self.chunks)


@dataclass
class TraceSnapshot:
    """One backup generation of a materialised trace."""

    label: str
    files: List[TraceFile] = field(default_factory=list)
    has_file_metadata: bool = True

    @property
    def logical_bytes(self) -> int:
        return sum(file.logical_size for file in self.files)

    @property
    def chunk_count(self) -> int:
        return sum(len(file.chunks) for file in self.files)

    def all_chunks(self) -> List[TraceChunk]:
        """Every chunk of the snapshot in stream order (files concatenated)."""
        chunks: List[TraceChunk] = []
        for file in self.files:
            chunks.extend(file.chunks)
        return chunks


def iter_trace_snapshots(
    workload: Workload,
    chunker: Optional[Chunker] = None,
    fingerprint_algorithm: str = "sha1",
) -> Iterator[TraceSnapshot]:
    """Lazily convert a workload into chunk-level trace snapshots.

    Content workloads are chunked with ``chunker`` (default: 4 KB static
    chunking, the paper's configuration) and fingerprinted; trace workloads
    already carry chunk records and are converted directly.  Snapshots are
    yielded one generation at a time, and content files are consumed through
    :meth:`~repro.workloads.base.WorkloadFile.iter_blocks`, so no file
    payload -- let alone a whole trace -- is ever buffered; only the
    (payload-free) chunk metadata of the current snapshot is held.
    """
    chunker = chunker or StaticChunker(4096)
    fingerprinter = Fingerprinter(fingerprint_algorithm)
    for snapshot in workload.snapshots():
        trace_files: List[TraceFile] = []
        for file in snapshot.files:
            if file.chunks:
                trace_chunks = [
                    TraceChunk(fingerprint=record.fingerprint, length=record.length)
                    for record in file.chunks
                ]
            else:
                trace_chunks = [
                    TraceChunk(fingerprint=record.fingerprint, length=record.length)
                    for record in fingerprinter.fingerprint_blocks(
                        file.iter_blocks(), chunker, keep_data=False
                    )
                ]
            trace_files.append(TraceFile(path=file.path, chunks=trace_chunks))
        yield TraceSnapshot(
            label=snapshot.label,
            files=trace_files,
            has_file_metadata=workload.has_file_metadata,
        )


def materialize_workload(
    workload: Workload,
    chunker: Optional[Chunker] = None,
    fingerprint_algorithm: str = "sha1",
) -> List[TraceSnapshot]:
    """Convert a workload into a fully buffered list of trace snapshots.

    Thin wrapper over :func:`iter_trace_snapshots` for callers that replay
    the same trace repeatedly (e.g. scheme x cluster-size sweeps).
    """
    return list(
        iter_trace_snapshots(
            workload, chunker=chunker, fingerprint_algorithm=fingerprint_algorithm
        )
    )


def trace_statistics(snapshots: Iterable[TraceSnapshot]) -> dict:
    """Aggregate statistics of a trace (Table 2 style).

    Accepts any snapshot iterable -- a materialised list or a lazy
    :func:`iter_trace_snapshots` generator -- and consumes it in a single
    pass, so statistics over traces larger than memory cost only the unique
    fingerprint set.
    """
    num_snapshots = 0
    num_files = 0
    total_chunks = 0
    logical_bytes = 0
    unique_fingerprints = set()
    unique_bytes = 0
    for snapshot in snapshots:
        num_snapshots += 1
        for file in snapshot.files:
            num_files += 1
            for chunk in file.chunks:
                total_chunks += 1
                logical_bytes += chunk.length
                if chunk.fingerprint not in unique_fingerprints:
                    unique_fingerprints.add(chunk.fingerprint)
                    unique_bytes += chunk.length
    deduplication_ratio = (logical_bytes / unique_bytes) if unique_bytes else 1.0
    return {
        "snapshots": num_snapshots,
        "files": num_files,
        "total_chunks": total_chunks,
        "unique_chunks": len(unique_fingerprints),
        "logical_bytes": logical_bytes,
        "unique_bytes": unique_bytes,
        "deduplication_ratio": deduplication_ratio,
    }
