"""The super-chunk: the granularity of data routing.

"We adopt the notion of super-chunk [6], which represents consecutive smaller
chunks of data, as a unit for data routing that assigns super-chunks to nodes
and then performs deduplication at each node independently and in parallel."
(paper Section 1)

A :class:`SuperChunk` carries its member chunk records, its handprint, and
its place in the backup stream (stream id and sequence number).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import List, Sequence

from repro.fingerprint.fingerprinter import ChunkRecord
from repro.fingerprint.handprint import (
    DEFAULT_HANDPRINT_SIZE,
    Handprint,
    compute_handprint,
)
from repro.errors import ValidationError

_FINGERPRINT = attrgetter("fingerprint")

DEFAULT_SUPERCHUNK_SIZE = 1024 * 1024
"""The 1 MB super-chunk size the paper selects for cluster experiments (Section 4.4)."""


@dataclass
class SuperChunk:
    """A consecutive run of chunks from one backup stream.

    Attributes
    ----------
    chunks:
        The member chunk records in stream order; fixed once constructed
        (``handprint``, ``fingerprints`` and ``logical_size`` are derived
        from them once).
    handprint:
        The min-k handprint over the member chunk fingerprints.
    stream_id:
        Identifier of the data stream (backup client stream) this super-chunk
        belongs to; used by parallel container management.
    sequence_number:
        Position of this super-chunk within its stream.
    """

    chunks: List[ChunkRecord]
    handprint: Handprint
    stream_id: int = 0
    sequence_number: int = 0

    @classmethod
    def from_chunks(
        cls,
        chunks: Sequence[ChunkRecord],
        handprint_size: int = DEFAULT_HANDPRINT_SIZE,
        stream_id: int = 0,
        sequence_number: int = 0,
    ) -> "SuperChunk":
        """Build a super-chunk (and its handprint) from chunk records."""
        if not chunks:
            raise ValidationError("a super-chunk must contain at least one chunk")
        fingerprints = list(map(_FINGERPRINT, chunks))
        superchunk = cls(
            chunks=list(chunks),
            handprint=compute_handprint(fingerprints, handprint_size=handprint_size),
            stream_id=stream_id,
            sequence_number=sequence_number,
        )
        superchunk.__dict__["fingerprints"] = fingerprints
        return superchunk

    @cached_property
    def logical_size(self) -> int:
        """Total logical bytes represented by this super-chunk (summed once:
        the client, the node statistics and the node plane all read it)."""
        return sum(chunk.length for chunk in self.chunks)

    @property
    def chunk_count(self) -> int:
        return len(self.chunks)

    @cached_property
    def fingerprints(self) -> List[bytes]:
        """The fingerprint column: fingerprints of all member chunks, in
        stream order (built once -- the handprint, routing samples and the
        node plane all read it; callers must not mutate it)."""
        return list(map(_FINGERPRINT, self.chunks))

    def __len__(self) -> int:
        return len(self.chunks)
