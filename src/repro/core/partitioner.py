"""Data partitioning: bytes -> chunks -> fingerprints -> super-chunks.

This is the backup client's "data partitioning" and "chunk fingerprinting"
modules (paper Section 3.1): each data stream is chunked with fixed or
variable chunk size, chunk fingerprints are computed, and consecutive chunks
are grouped into super-chunks for routing.

Every entry point accepts either a whole byte buffer or an iterable of byte
blocks.  The block form flows straight through
:meth:`~repro.fingerprint.fingerprinter.Fingerprinter.fingerprint_blocks`
into super-chunk grouping, so the partitioner's peak memory is one pending
super-chunk (plus one in-flight chunk), independent of file or stream size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Tuple, Union
from repro.errors import ValidationError

#: A file payload as the partitioner accepts it: a whole buffer or a stream
#: of byte blocks (which is never concatenated).
FilePayload = Union[bytes, Iterable[bytes]]

from repro.chunking.base import Chunker
from repro.chunking.fixed import StaticChunker
from repro.core.superchunk import DEFAULT_SUPERCHUNK_SIZE, SuperChunk
from repro.fingerprint.fingerprinter import ChunkRecord, Fingerprinter
from repro.fingerprint.handprint import DEFAULT_HANDPRINT_SIZE
from repro.utils.hashing import digest_constructor


@dataclass
class PartitionerConfig:
    """Configuration for the client-side partitioning pipeline.

    Attributes
    ----------
    chunker:
        The chunking algorithm (defaults to 4 KB static chunking, the paper's
        chosen configuration for the cluster experiments).
    superchunk_size:
        Target super-chunk size in bytes (paper default: 1 MB).
    handprint_size:
        Number of representative fingerprints per handprint (paper default: 8).
    fingerprint_algorithm:
        Hash used for chunk fingerprints (paper default: SHA-1; ``"md5"``
        and ``"sha256"`` also accepted).
    keep_chunk_data:
        Whether chunk payloads are retained in the records (set to ``False``
        for pure accounting simulations to save memory).
    """

    chunker: Chunker = field(default_factory=lambda: StaticChunker(4096))
    superchunk_size: int = DEFAULT_SUPERCHUNK_SIZE
    handprint_size: int = DEFAULT_HANDPRINT_SIZE
    fingerprint_algorithm: str = "sha1"
    keep_chunk_data: bool = True

    def __post_init__(self) -> None:
        if self.superchunk_size < self.chunker.average_chunk_size:
            raise ValidationError("superchunk_size must be at least one average chunk")
        if self.handprint_size < 1:
            raise ValidationError("handprint_size must be >= 1")
        digest_constructor(self.fingerprint_algorithm)  # FingerprintError


class StreamPartitioner:
    """Chunk, fingerprint and group a data stream into super-chunks."""

    def __init__(self, config: Optional[PartitionerConfig] = None):
        self.config = config or PartitionerConfig()
        self.fingerprinter = Fingerprinter(self.config.fingerprint_algorithm)

    # ------------------------------------------------------------------ #
    # chunk-level helpers
    # ------------------------------------------------------------------ #

    def iter_chunk_records(self, data: FilePayload) -> Iterator[ChunkRecord]:
        """Chunk and fingerprint a buffer or block stream, lazily."""
        return self.fingerprinter.fingerprint_blocks(
            data, self.config.chunker, keep_data=self.config.keep_chunk_data
        )

    # ------------------------------------------------------------------ #
    # super-chunk grouping
    # ------------------------------------------------------------------ #

    def partition_files(
        self,
        files: Iterable[Tuple[str, FilePayload]],
        stream_id: int = 0,
    ) -> Iterator[Tuple[Optional[SuperChunk], List[Tuple[str, List[ChunkRecord]]]]]:
        """Partition ``(path, payload)`` files into super-chunks, streaming.

        Each payload may be a whole buffer or an iterable of byte blocks; the
        block form is chunked and fingerprinted incrementally, so no file
        buffer is ever assembled and peak memory is one pending super-chunk.

        Super-chunks are cut across file boundaries (the stream is the unit of
        grouping, as in the paper), so each yielded super-chunk is accompanied
        by the list of ``(path, chunk_records)`` contributions it contains,
        which the director needs to build per-file recipes.  A file whose
        records span several super-chunks contributes to each of them; a
        contribution list is only opened when its first record arrives, so a
        file ending exactly on a super-chunk boundary never leaves an empty
        trailing contribution.

        Zero-byte files contribute an empty record list (their recipe must
        still exist).  When the stream ends with only such empty
        contributions and no chunk records to carry them, one final
        ``(None, contributions)`` pair is yielded: there is nothing to route,
        but the recipes must not be lost.
        """
        return self.partition_file_records(
            ((path, self.iter_chunk_records(data)) for path, data in files),
            stream_id=stream_id,
        )

    def partition_file_records(
        self,
        file_records_stream: Iterable[Tuple[str, Iterable[ChunkRecord]]],
        stream_id: int = 0,
    ) -> Iterator[Tuple[Optional[SuperChunk], List[Tuple[str, List[ChunkRecord]]]]]:
        """Group already-fingerprinted per-file record streams into super-chunks.

        The one super-chunk grouping loop: :meth:`partition_files` feeds it
        :meth:`iter_chunk_records` streams and the parallel ingest engine
        feeds it its worker lanes' records, so both paths share the same
        super-chunk boundaries, contribution bookkeeping and zero-byte-file
        semantics.  Record iterables are consumed strictly in stream order,
        one file at a time.
        """
        pending: List[ChunkRecord] = []
        pending_files: List[Tuple[str, List[ChunkRecord]]] = []
        pending_bytes = 0
        sequence = 0

        for path, records in file_records_stream:
            file_records: Optional[List[ChunkRecord]] = None
            file_has_records = False
            for record in records:
                file_has_records = True
                if file_records is None:
                    file_records = []
                    pending_files.append((path, file_records))
                file_records.append(record)
                pending.append(record)
                pending_bytes += record.length
                if pending_bytes >= self.config.superchunk_size:
                    yield (
                        SuperChunk.from_chunks(
                            pending,
                            handprint_size=self.config.handprint_size,
                            stream_id=stream_id,
                            sequence_number=sequence,
                        ),
                        pending_files,
                    )
                    sequence += 1
                    pending = []
                    pending_files = []
                    pending_bytes = 0
                    # If the file continues, its next record opens a fresh
                    # contribution in the next super-chunk.
                    file_records = None
            if not file_has_records:
                # Zero-byte file: record an empty contribution so a recipe exists.
                pending_files.append((path, []))
        if pending:
            yield (
                SuperChunk.from_chunks(
                    pending,
                    handprint_size=self.config.handprint_size,
                    stream_id=stream_id,
                    sequence_number=sequence,
                ),
                pending_files,
            )
        elif pending_files:
            # Only zero-byte contributions remain; emit them without a
            # super-chunk so their recipes are still recorded.
            yield None, pending_files
