"""Chunk fingerprint calculation.

The backup client "calculates chunk fingerprints by a collision-resistant hash
function, like SHA-1 or MD5" (Section 3.1).  The paper selects SHA-1 "to
reduce the probability of hash collision even though its throughput is only
about a half that of MD5" (Section 4.3); both are supported here.
"""

from __future__ import annotations

from functools import partial
from struct import Struct
from typing import Any, Iterable, Iterator, List, NamedTuple, Optional, Sequence

from repro.utils.hashing import digest_constructor


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


_new_record = partial(tuple.__new__, ChunkRecord)


def records_from_ends(
    view: memoryview,
    ends: Sequence[int],
    digests: bytes,
    keep_data: bool = True,
    copy: bool = True,
    start: int = 0,
    base: int = 0,
) -> List[ChunkRecord]:
    """The one ``(end offsets, digest blob) -> records`` constructor.

    Chunk ``i`` is ``view[ends[i-1]:ends[i]]`` (from ``start`` for the first)
    at stream offset ``base`` plus its begin, and its fingerprint is the
    ``i``-th equal share of ``digests``.  One tight loop off the shared
    memoryview, positional record construction; the retained payload is the
    only per-chunk allocation besides the record (``copy=False`` keeps it a
    zero-copy slice of ``view``).
    """
    size = len(digests) // len(ends) if ends else 0
    records: List[ChunkRecord] = []
    append = records.append
    at = 0
    for end in ends:
        payload: Any = None
        if keep_data:
            payload = bytes(view[start:end]) if copy else view[start:end]
        append(_new_record((digests[at:at + size], end - start, base + start, payload)))
        at += size
        start = end
    return records


#: Packed lane-reply layout: chunk count + digest size, then the ascending
#: u64 end offsets, then the concatenated fixed-size fingerprints.  Lengths
#: and begin offsets are recoverable from consecutive ends; payloads never
#: travel.
_PACK_HEAD = Struct("!II")


def records_from_packed(
    data: "bytes | bytearray | memoryview",
    packed: "bytes | memoryview",
    keep_data: bool = True,
    copy: bool = True,
) -> List[ChunkRecord]:
    """Rebuild full :class:`ChunkRecord` lists from a packed lane reply
    (:meth:`Fingerprinter.fingerprint_packed`).

    ``data`` is the same buffer the lane chunked (typically the parent's view
    of the shared-memory slab).  With ``copy=True`` payloads are materialised
    as ``bytes``; with ``copy=False`` they stay zero-copy ``memoryview``
    slices of ``data`` -- only safe while the underlying slab region is
    guaranteed untouched (the engine's hand-off mode enforces that with its
    reuse frontier).
    """
    head = memoryview(packed)
    count, digest_size = _PACK_HEAD.unpack_from(head, 0)
    ends = Struct(f"!{count}Q").unpack_from(head, _PACK_HEAD.size)
    blob_base = _PACK_HEAD.size + 8 * count
    digests = bytes(head[blob_base:blob_base + count * digest_size])
    return records_from_ends(memoryview(data), ends, digests, keep_data, copy)


class Fingerprinter:
    """Compute chunk fingerprints with a configurable hash algorithm.

    Parameters
    ----------
    algorithm:
        ``"sha1"`` (default, the paper's choice), ``"md5"`` or ``"sha256"``;
        anything else raises :class:`~repro.errors.FingerprintError` here.
    """

    def __init__(self, algorithm: str = "sha1"):
        # Resolves (and caches) the constructor up front, so an unsupported
        # algorithm fails at configuration time rather than mid-stream.
        digest_constructor(algorithm)
        self.algorithm = algorithm
        self.bytes_fingerprinted = 0
        self.chunks_fingerprinted = 0

    def fingerprint_blocks(
        self, data: "bytes | Iterable[bytes]", chunker, keep_data: bool = True
    ) -> Iterator[ChunkRecord]:
        """Chunk ``data`` lazily and fingerprint every chunk.

        ``data`` may be a whole byte buffer or an iterable of byte blocks (a
        streaming source); a whole buffer is a stream of one block.  This is
        the one fused cut->digest loop every ingest takes:
        :meth:`~repro.chunking.base.Chunker.committed_segments` carries the
        uncommitted tail from block to block and hands back runs of committed
        cuts -- with their digests where the chunker hashes as it cuts (the
        compiled gear kernel), hashed here with ``hashlib`` otherwise -- and
        :func:`records_from_ends` builds each run's records straight off one
        shared ``memoryview``: no intermediate
        :class:`~repro.chunking.base.RawChunk`, and the retained payload as
        the only per-chunk allocation and the only copy of a block's bytes.
        Nothing beyond one block and the carried tail is ever held, so
        arbitrarily long streams are fingerprinted in bounded memory.  A
        mutable buffer is read in place, never snapshotted, one record at a
        time.
        """
        if isinstance(data, (bytes, bytearray, memoryview)):
            data = (data,)
        for view, start, cuts, base, digests in chunker.committed_segments(data, self.algorithm):
            digests = self._run_digests(view, cuts, start, digests)
            yield from records_from_ends(view, cuts, digests, keep_data, True, start, base)

    def _run_digests(
        self, view: memoryview, cuts: "List[int]", start: int, digests: Optional[bytes]
    ) -> bytes:
        """A run's concatenated fingerprints -- the chunker's where it hashed
        what it cut (the compiled kernel), else one ``hashlib`` digest per
        segment -- and the one statistics update per run."""
        if digests is None:
            new_digest = digest_constructor(self.algorithm)
            pieces = map(view.__getitem__, map(slice, [start, *cuts[:-1]], cuts))
            digests = b"".join([new_digest(piece).digest() for piece in pieces])
        self.bytes_fingerprinted += cuts[-1] - start
        self.chunks_fingerprinted += len(cuts)
        return digests

    def fingerprint_packed(self, data: "bytes | bytearray | memoryview", chunker) -> bytes:
        """Chunk and fingerprint one buffer into the packed lane reply: the
        end offsets and digest blobs of :meth:`fingerprint_blocks`' runs,
        with no record built in between."""
        ends: List[int] = []
        blobs: List[bytes] = []
        for view, start, cuts, base, digests in chunker.committed_segments((data,), self.algorithm):
            blobs.append(self._run_digests(view, cuts, start, digests))
            ends.extend(map(base.__add__, cuts))
        count, blob = len(ends), b"".join(blobs)
        head = _PACK_HEAD.pack(count, len(blob) // count if count else 0)
        return b"".join([head, Struct(f"!{count}Q").pack(*ends), blob])
