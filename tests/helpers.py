"""Test helpers shared across test modules (imported explicitly, not a fixture)."""

from __future__ import annotations

import hashlib
import random
from typing import List, Sequence

from repro.core.partitioner import FilePayload, StreamPartitioner
from repro.core.superchunk import SuperChunk
from repro.fingerprint.fingerprinter import ChunkRecord
from repro.workloads.trace import TraceChunk, TraceFile, TraceSnapshot


def deterministic_bytes(length: int, seed: int = 0) -> bytes:
    """Deterministic pseudo-random bytes."""
    return random.Random(seed).randbytes(length)


def fingerprint_of(data: bytes) -> bytes:
    return hashlib.sha1(data).digest()


def synthetic_fingerprint(tag: str) -> bytes:
    """A stable 20-byte fingerprint derived from a string tag."""
    return hashlib.sha1(tag.encode()).digest()


def chunk_records_from_seeds(seeds: Sequence[int], length: int = 512) -> List[ChunkRecord]:
    """Chunk records whose payloads are derived from integer seeds."""
    records = []
    for seed in seeds:
        data = deterministic_bytes(length, seed=seed)
        records.append(ChunkRecord(fingerprint_of(data), len(data), 0, data))
    return records


def superchunk_from_seeds(
    seeds: Sequence[int], handprint_size: int = 8, length: int = 512, stream_id: int = 0
) -> SuperChunk:
    """A super-chunk whose chunk payloads are derived from integer seeds."""
    records = chunk_records_from_seeds(seeds, length=length)
    return SuperChunk.from_chunks(records, handprint_size=handprint_size, stream_id=stream_id)


def partition(
    partitioner: StreamPartitioner, data: FilePayload, stream_id: int = 0
) -> List[SuperChunk]:
    """The super-chunks of one payload, partitioned as a one-file stream."""
    return [
        superchunk
        for superchunk, _contributions in partitioner.partition_files([("f", data)], stream_id)
        if superchunk is not None
    ]


def trace_snapshot_from_tags(
    label: str, files: dict, chunk_length: int = 4096, has_file_metadata: bool = True
) -> TraceSnapshot:
    """Build a trace snapshot from ``{path: [tag, tag, ...]}`` fingerprint tags."""
    trace_files = []
    for path, tags in files.items():
        chunks = [
            TraceChunk(fingerprint=synthetic_fingerprint(str(tag)), length=chunk_length)
            for tag in tags
        ]
        trace_files.append(TraceFile(path=path, chunks=chunks))
    return TraceSnapshot(label=label, files=trace_files, has_file_metadata=has_file_metadata)
