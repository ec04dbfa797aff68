"""Chunk fingerprint calculation.

The backup client "calculates chunk fingerprints by a collision-resistant hash
function, like SHA-1 or MD5" (Section 3.1).  The paper selects SHA-1 "to
reduce the probability of hash collision even though its throughput is only
about a half that of MD5" (Section 4.3); both are supported here.
"""

from __future__ import annotations

from struct import Struct
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, cast

from repro.chunking.base import RawChunk
from repro.errors import FingerprintError
from repro.utils.hashing import digest_bytes, digest_constructor


class ChunkRecord(NamedTuple):
    """A chunk as seen by the deduplication pipeline after fingerprinting.

    Only the fingerprint and size are required: fingerprint-only traces (the
    mail and web workloads) have no payload, in which case ``data`` is ``None``
    and the chunk cannot be restored, only accounted.

    A named tuple rather than a frozen dataclass: one record is constructed
    per chunk on the fused chunk->fingerprint hot path, where the C-level
    tuple constructor is several times cheaper.
    """

    fingerprint: bytes
    length: int
    offset: int = 0
    data: Optional[bytes] = None

    @property
    def hex(self) -> str:
        """Hexadecimal form of the fingerprint (for logs and file recipes)."""
        return self.fingerprint.hex()

    def without_data(self) -> "ChunkRecord":
        """Return a copy of this record with the payload dropped.

        Used when only metadata must travel (e.g. fingerprint lookup batches).
        """
        return ChunkRecord(
            fingerprint=self.fingerprint,
            length=self.length,
            offset=self.offset,
            data=None,
        )


def records_from_pairs(
    data: "bytes | bytearray | memoryview",
    pairs: "List[tuple]",
    keep_data: bool = True,
) -> List[ChunkRecord]:
    """Bulk-construct :class:`ChunkRecord` lists from compact ``(fingerprint,
    length)`` pairs over one shared memoryview.

    This is the re-materialisation half of the parallel engine's compact
    return path: worker processes ship back fingerprints and lengths only,
    and the parent re-slices payloads locally off ``data`` in one tight loop
    instead of one generator step per chunk.
    """
    view = memoryview(data)
    record = ChunkRecord
    records: List[ChunkRecord] = []
    append = records.append
    offset = 0
    if keep_data:
        for fingerprint, length in pairs:
            next_offset = offset + length
            append(record(fingerprint, length, offset, bytes(view[offset:next_offset])))
            offset = next_offset
    else:
        for fingerprint, length in pairs:
            append(record(fingerprint, length, offset, None))
            offset += length
    return records


#: Packed lane-reply layout: chunk count + digest size, then the ascending
#: u64 end offsets, then the concatenated fixed-size fingerprints.
_PACK_HEAD = Struct("!II")


def pack_record_pairs(records: Sequence[ChunkRecord]) -> bytes:
    """Pack records into a compact ``(end_offsets_u64, fingerprints_blob)``
    byte string -- the shared-memory lane reply format.

    Only end offsets and fingerprints travel (lengths and begin offsets are
    recoverable from consecutive ends); payloads never do.  All fingerprints
    must share one digest size, which holds for every supported algorithm.
    """
    count = len(records)
    if count == 0:
        return _PACK_HEAD.pack(0, 0)
    digest_size = len(records[0].fingerprint)
    ends: List[int] = []
    end = records[0].offset
    blob_parts: List[bytes] = []
    for record in records:
        if len(record.fingerprint) != digest_size:
            raise FingerprintError(
                "pack_record_pairs needs a uniform digest size, got "
                f"{digest_size} and {len(record.fingerprint)}"
            )
        end += record.length
        ends.append(end)
        blob_parts.append(record.fingerprint)
    return b"".join(
        [
            _PACK_HEAD.pack(count, digest_size),
            Struct(f"!{count}Q").pack(*ends),
            *blob_parts,
        ]
    )


def records_from_packed(
    data: "bytes | bytearray | memoryview",
    packed: "bytes | memoryview",
    keep_data: bool = True,
    copy: bool = True,
) -> List[ChunkRecord]:
    """Rebuild full :class:`ChunkRecord` lists from a packed lane reply.

    ``data`` is the same buffer the lane chunked (typically the parent's view
    of the shared-memory slab).  With ``copy=True`` payloads are materialised
    as ``bytes``; with ``copy=False`` they stay zero-copy ``memoryview``
    slices of ``data`` -- only safe while the underlying slab region is
    guaranteed untouched (the engine's hand-off mode enforces that with its
    reuse frontier).
    """
    head = memoryview(packed)
    count, digest_size = _PACK_HEAD.unpack_from(head, 0)
    records: List[ChunkRecord] = []
    if count == 0:
        return records
    ends = Struct(f"!{count}Q").unpack_from(head, _PACK_HEAD.size)
    blob_base = _PACK_HEAD.size + 8 * count
    view = memoryview(data)
    record = ChunkRecord
    append = records.append
    offset = 0
    fp_at = blob_base
    for end in ends:
        fingerprint = bytes(head[fp_at:fp_at + digest_size])
        fp_at += digest_size
        if not keep_data:
            payload: Optional[bytes] = None
        elif copy:
            payload = bytes(view[offset:end])
        else:
            payload = cast(bytes, view[offset:end])
        append(record(fingerprint, end - offset, offset, payload))
        offset = end
    return records


class Fingerprinter:
    """Compute chunk fingerprints with a configurable hash algorithm.

    Parameters
    ----------
    algorithm:
        ``"sha1"`` (default, the paper's choice), ``"md5"`` or ``"sha256"``;
        ``"xxh64"`` or ``"blake3"`` when their optional modules are installed
        (selecting one without its module raises
        :class:`~repro.errors.FingerprintError` here, at configuration time).
    """

    def __init__(self, algorithm: str = "sha1"):
        # Resolves (and caches) the constructor up front, so an unsupported
        # or unavailable algorithm fails at configuration time with a
        # FingerprintError rather than mid-stream.
        digest_constructor(algorithm)
        self.algorithm = algorithm
        self.bytes_fingerprinted = 0
        self.chunks_fingerprinted = 0

    def fingerprint_chunk(self, chunk: RawChunk, keep_data: bool = True) -> ChunkRecord:
        """Fingerprint a single raw chunk."""
        digest = digest_bytes(chunk.data, self.algorithm)
        self.bytes_fingerprinted += chunk.length
        self.chunks_fingerprinted += 1
        return ChunkRecord(
            fingerprint=digest,
            length=chunk.length,
            offset=chunk.offset,
            data=chunk.data if keep_data else None,
        )

    def fingerprint_chunks(
        self, chunks: Iterable[RawChunk], keep_data: bool = True
    ) -> Iterator[ChunkRecord]:
        """Fingerprint an iterable of raw chunks lazily, preserving order."""
        for chunk in chunks:
            yield self.fingerprint_chunk(chunk, keep_data=keep_data)

    def fingerprint_blocks(
        self, data: "bytes | Iterable[bytes]", chunker, keep_data: bool = True
    ) -> Iterator[ChunkRecord]:
        """Chunk ``data`` lazily and fingerprint every chunk.

        ``data`` may be a whole byte buffer or an iterable of byte blocks (a
        streaming source); a whole buffer is a stream of one block.  This is
        the one fused cut->digest loop every ingest takes:
        :meth:`~repro.chunking.base.Chunker.committed_segments` carries the
        uncommitted tail from block to block and hands back runs of committed
        cuts, and :meth:`fingerprint_segments` builds each run's records
        straight off one shared ``memoryview`` -- no intermediate
        :class:`~repro.chunking.base.RawChunk`, one copy per byte
        (``carry + block``) when streaming and none for a whole buffer, and
        the retained payload as the only per-chunk allocation.  Nothing
        beyond one block and the carried tail is ever held, so arbitrarily
        long streams are fingerprinted in bounded memory.  A mutable buffer
        is read in place, never snapshotted, one record at a time.
        """
        if isinstance(data, (bytes, bytearray, memoryview)):
            data = (data,)
        for view, start, cuts, base in chunker.committed_segments(data):
            yield from self.fingerprint_segments(view, cuts, keep_data, start, base)

    def fingerprint_segments(
        self,
        view: memoryview,
        cuts: "List[int]",
        keep_data: bool = True,
        start: int = 0,
        base: int = 0,
    ) -> List[ChunkRecord]:
        """Bulk-construct records for consecutive segments of one buffer.

        ``cuts`` are ascending end offsets into ``view`` (the chunker's
        ``cut_offsets`` contract), ``start`` the begin offset of the first
        segment, ``base`` the stream offset of ``view[0]`` (added to every
        record's offset).  Every record is hashed and built off the one
        shared memoryview in a single tight loop -- positional
        ``ChunkRecord`` construction, one statistics update per batch
        instead of per chunk.
        """
        new_digest = digest_constructor(self.algorithm)
        record = ChunkRecord
        records: List[ChunkRecord] = []
        append = records.append
        previous = start
        if keep_data:
            for cut in cuts:
                piece = view[previous:cut]
                append(record(new_digest(piece).digest(), cut - previous, base + previous, bytes(piece)))
                previous = cut
        else:
            for cut in cuts:
                piece = view[previous:cut]
                append(record(new_digest(piece).digest(), cut - previous, base + previous, None))
                previous = cut
        self.bytes_fingerprinted += previous - start
        self.chunks_fingerprinted += len(records)
        return records

    def fingerprint_stream(
        self, data: "bytes | Iterable[bytes]", chunker, keep_data: bool = True
    ) -> List[ChunkRecord]:
        """Chunk ``data`` with ``chunker`` and fingerprint every chunk.

        Returns a fully materialised list; for bounded-memory consumption of
        long block streams iterate :meth:`fingerprint_blocks` instead.
        """
        return list(self.fingerprint_blocks(data, chunker, keep_data=keep_data))
