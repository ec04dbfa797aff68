"""Chunker interface and the raw-chunk value object."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Tuple

from repro.errors import ChunkingError

#: Committed chunks per run of :meth:`Chunker.committed_segments`: large enough
#: to amortise the per-run Python overhead of its consumers, small enough that
#: a run's buffered payload copies stay well under one super-chunk.
_SEGMENT_BATCH = 128


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
        self, blocks: "Iterable[bytes | bytearray | memoryview]"
    ) -> Iterator[Tuple[memoryview, int, List[int], int]]:
        """The one streaming loop: cut a stream delivered as byte blocks.

        Yields ``(view, start, cuts, base)`` runs of at most
        :data:`_SEGMENT_BATCH` committed chunks: chunk ``i`` of a run is
        ``view[cuts[i-1]:cuts[i]]`` (from ``start`` for the first) and
        ``base`` is the stream offset of ``view[0]``.  The boundaries are
        exactly those :meth:`cut_offsets` gives on the concatenation of
        ``blocks``, while only the trailing
        uncommitted chunk (at most one maximum chunk size) plus the incoming
        block are held: each ``carry + block`` buffer is scanned once, its
        last cut -- the end of the buffer, not yet a boundary -- is withheld,
        and the remainder is carried into the next buffer.  A lone buffer is
        a stream of one block and is never copied.  The carried tail is
        re-scanned once per block, so very small blocks trade throughput for
        memory.

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
        base = 0  # stream offset of carry[0]
        for block in blocks:
            if not len(block):
                continue
            buffer = carry + block if carry else block
            view = memoryview(buffer)
            if view.ndim != 1 or view.itemsize != 1:  # pragma: no cover - exotic buffers
                buffer = view = view.cast("B")
            limit = _SEGMENT_BATCH if view.readonly else 1
            start = 0
            cuts: List[int] = []
            for cut in self.cut_offsets(buffer):
                if len(cuts) == limit:
                    yield view, start, cuts, base
                    start = cuts[-1]
                    cuts = []
                cuts.append(cut)
            cuts.pop()  # the end of the buffer: its chunk may still grow
            if cuts:
                yield view, start, cuts, base
                start = cuts[-1]
            carry = bytes(view[start:])
            base += start
        if carry:
            # The carried tail began at a boundary and ran to the end of the
            # data without a cut, so on its own it is exactly one chunk.
            yield memoryview(carry), 0, [len(carry)], base

    def chunk_stream(self, blocks: Iterable[bytes]) -> Iterator[RawChunk]:
        """Chunk a stream delivered as an iterable of byte blocks.

        Yields exactly the chunks that :meth:`chunk` would produce on the
        concatenation of ``blocks`` (same payloads, same stream offsets) in
        bounded memory: :meth:`committed_segments` with one payload slice
        per emitted chunk.
        """
        for view, start, cuts, base in self.committed_segments(blocks):
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


def iter_chunk_payloads(chunks: Iterable[RawChunk]) -> Iterator[bytes]:
    """Yield only the payloads of an iterable of chunks."""
    for chunk in chunks:
        yield chunk.data
