"""Shared fixtures for the test suite."""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.chunking.fixed import StaticChunker
from repro.core.partitioner import PartitionerConfig, StreamPartitioner
from repro.core.superchunk import SuperChunk
from repro.fingerprint.fingerprinter import ChunkRecord


def make_bytes(length: int, seed: int = 0) -> bytes:
    """Deterministic pseudo-random bytes for tests."""
    return random.Random(seed).randbytes(length)


def make_chunk_record(seed: int, length: int = 1024) -> ChunkRecord:
    """A chunk record with deterministic content and fingerprint."""
    data = make_bytes(length, seed=seed)
    return ChunkRecord(hashlib.sha1(data).digest(), len(data), 0, data)


def make_superchunk(seeds, handprint_size: int = 8, length: int = 1024) -> SuperChunk:
    """A super-chunk whose chunks are generated from the given seeds."""
    records = [make_chunk_record(seed, length=length) for seed in seeds]
    return SuperChunk.from_chunks(records, handprint_size=handprint_size)


@pytest.fixture
def small_partitioner() -> StreamPartitioner:
    """A partitioner with small chunks/super-chunks suitable for tiny test data."""
    config = PartitionerConfig(
        chunker=StaticChunker(256),
        superchunk_size=2048,
        handprint_size=4,
    )
    return StreamPartitioner(config)


@pytest.fixture
def default_partitioner() -> StreamPartitioner:
    """The paper-default partitioner (4 KB chunks, 1 MB super-chunks, handprint 8)."""
    return StreamPartitioner()


@pytest.fixture
def sample_data() -> bytes:
    """64 KiB of deterministic pseudo-random data."""
    return make_bytes(64 * 1024, seed=42)
