"""Chunker interface and the raw-chunk value object."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.errors import ChunkingError

#: Committed chunks per run of :meth:`Chunker.committed_segments`: large enough
#: to amortise the per-run Python overhead of its consumers, small enough that
#: a run's buffered payload copies stay well under one super-chunk.
_SEGMENT_BATCH = 128

#: A block of at least this many straddle windows (four average chunks each)
#: is not copied behind the carried tail.  Measured, 4 KiB chunks: the window's
#: extra scan call costs more than the copy it saves below ~64 KiB blocks and
#: wins from 256 KiB (16 windows) up, so smaller blocks keep the plain join.
_LARGE_BLOCK = 16


@dataclass(frozen=True)
class RawChunk:
    """A contiguous piece of a data stream produced by a chunker.

    Attributes
    ----------
    data:
        The chunk payload.
    offset:
        Byte offset of the chunk within the stream it was cut from.
    """

    data: bytes
    offset: int

    @property
    def length(self) -> int:
        """Size of the chunk payload in bytes."""
        return len(self.data)

    def __len__(self) -> int:  # pragma: no cover - trivial delegation
        return len(self.data)


class Chunker(ABC):
    """Abstract base class for all chunking algorithms.

    A chunker is a pure function from a byte stream to a sequence of
    :class:`RawChunk` objects whose concatenation reproduces the input.
    """

    @abstractmethod
    def chunk(self, data: bytes) -> Iterator[RawChunk]:
        """Yield the chunks of ``data`` in stream order."""

    def cut_offsets(self, data: "bytes | bytearray | memoryview") -> Iterator[int]:
        """Yield the end offset of every chunk of ``data``, in stream order.

        This is the allocation-free form of :meth:`chunk`: the chunk at index
        ``i`` spans ``[cuts[i-1], cuts[i])`` (with an implicit leading 0), so
        callers that slice the stream themselves — e.g. the fused
        chunk→fingerprint path in
        :meth:`~repro.fingerprint.fingerprinter.Fingerprinter.fingerprint_blocks`
        — never pay for intermediate :class:`RawChunk` payload copies.
        ``data`` may be any bytes-like object; a ``memoryview`` is scanned
        without copying.  The default implementation derives the offsets from
        :meth:`chunk`; chunkers whose scan never needs the payloads override
        it as the primitive and build :meth:`chunk` on top.
        """
        for chunk in self.chunk(data):
            yield chunk.offset + len(chunk.data)

    def chunk_all(self, data: bytes) -> List[RawChunk]:
        """Return all chunks of ``data`` as a list (convenience wrapper)."""
        return list(self.chunk(data))

    def committed_segments(
        self, blocks: "Iterable[bytes | bytearray | memoryview]", digest: Optional[str] = None
    ) -> Iterator[Tuple[memoryview, int, List[int], int, Optional[bytes]]]:
        """The one streaming loop: cut a stream delivered as byte blocks.

        Yields ``(view, start, cuts, base, digests)`` runs of at most
        :data:`_SEGMENT_BATCH` committed chunks: chunk ``i`` of a run is
        ``view[cuts[i-1]:cuts[i]]`` (from ``start`` for the first) and
        ``base`` is the stream offset of ``view[0]``.  ``digests`` is None, or
        the run's concatenated ``digest`` fingerprints where the chunker
        hashed what it cut (the compiled gear kernel does); the caller hashes
        otherwise.

        The boundaries are exactly those :meth:`cut_offsets` gives on the
        concatenation of ``blocks``, while only the trailing uncommitted
        chunk (at most one maximum chunk size) plus the incoming block are
        held.  Each buffer is scanned once; its last cut -- the end of the
        buffer, not yet a boundary -- is withheld (and not hashed) and the
        remainder carried into the next buffer, ``carry + block``.  A large
        block (:data:`_LARGE_BLOCK`) is not copied behind the carry: the
        carry meets only the block's head in a small joined window that
        commits the one chunk straddling the edge, and the rest of the block
        is scanned and sliced in place.  A lone buffer is a stream of one
        block and is never copied.  The carried tail is re-scanned once per
        block, so very small blocks trade throughput for memory.

        Correctness relies on the restart property every chunker here has:
        the scan state is reset at each emitted boundary, so re-chunking a
        buffer that starts at a boundary continues the stream exactly, and a
        committed boundary (a hash match or a forced maximum-size cut)
        depends only on bytes at or before the cut point.

        A writable buffer is consumed strictly lazily, one chunk per run: a
        caller may overwrite a region whose chunk it has not been handed yet
        and the consumer then reads the new bytes.  (Boundaries may have been
        computed earlier -- chunkers scan ahead -- so such a caller must not
        expect them to follow the mutation.)
        """
        carry = b""
        base = 0  # stream offset of carry[0], or of view[0] once the carry is spent
        for block in blocks:
            if not len(block):
                continue
            view = memoryview(block)
            if view.ndim != 1 or view.itemsize != 1:  # pragma: no cover - exotic buffers
                view = view.cast("B")
            if carry:
                window, cuts = 4 * self.average_chunk_size, None
                if len(view) >= _LARGE_BLOCK * window:
                    joined = memoryview(carry + view[:window])
                    cuts, digests = next(self._committed_runs(joined, 1, digest), (None, None))
                if cuts is None or cuts[0] < len(carry):
                    # A smaller block, or the window holds no committed cut
                    # (an unusually large maximum) or one back inside the
                    # carry (TTTD's backup boundary): scan the whole join.
                    view = memoryview(carry + view)
                else:
                    yield joined, 0, cuts, base, digests
                    base += cuts[0]
                    view = view[cuts[0] - len(carry):]
            start = 0
            limit = _SEGMENT_BATCH if view.readonly else 1
            for cuts, digests in self._committed_runs(view, limit, digest):
                yield view, start, cuts, base, digests
                start = cuts[-1]
            carry = bytes(view[start:])
            base += start
        if carry:
            # The carried tail began at a boundary and ran to the end of the
            # data without a cut, so on its own it is exactly one chunk.
            yield memoryview(carry), 0, [len(carry)], base, None

    def _committed_runs(
        self, buffer: "bytes | bytearray | memoryview", limit: int, digest: Optional[str]
    ) -> Iterator[Tuple[List[int], Optional[bytes]]]:
        """``(cuts, digests)`` runs of at most ``limit`` cuts of one buffer,
        short of the cut at its end.  Nothing is hashed here (``digests`` is
        None); a chunker that hashes as it cuts overrides this."""
        cuts: List[int] = []
        for cut in self.cut_offsets(buffer):
            if len(cuts) == limit:
                yield cuts, None
                cuts = []
            cuts.append(cut)
        cuts.pop()  # the end of the buffer: its chunk may still grow
        if cuts:
            yield cuts, None

    def chunk_stream(self, blocks: Iterable[bytes]) -> Iterator[RawChunk]:
        """Chunk a stream delivered as an iterable of byte blocks.

        Yields exactly the chunks that :meth:`chunk` would produce on the
        concatenation of ``blocks`` (same payloads, same stream offsets) in
        bounded memory: :meth:`committed_segments` with one payload slice
        per emitted chunk.
        """
        for view, start, cuts, base, _digests in self.committed_segments(blocks):
            for cut in cuts:
                yield RawChunk(data=bytes(view[start:cut]), offset=base + start)
                start = cut

    @property
    @abstractmethod
    def average_chunk_size(self) -> int:
        """The nominal/average chunk size in bytes for this configuration."""

    def validate_roundtrip(self, data: bytes) -> None:
        """Raise :class:`ChunkingError` unless the chunks reassemble ``data``.

        Used by tests and by callers that want a cheap sanity check on new
        chunker configurations.
        """
        reassembled = b"".join(chunk.data for chunk in self.chunk(data))
        if reassembled != data:
            raise ChunkingError(
                f"{type(self).__name__} did not partition the stream losslessly: "
                f"{len(reassembled)} bytes reassembled from {len(data)} input bytes"
            )
