"""Fixed-size (static) chunking.

The paper's main evaluation uses static chunking (SC) with a 4 KB chunk size
because it has "negligible overhead" compared with content-defined chunking
while achieving a very similar deduplication ratio on the studied workloads
(Figure 5(a)).
"""

from __future__ import annotations

from typing import Iterator

from repro.chunking.base import Chunker, RawChunk
from repro.errors import ValidationError


class StaticChunker(Chunker):
    """Cut a stream into fixed-size chunks.

    The final chunk of a stream may be shorter than ``chunk_size``.

    Parameters
    ----------
    chunk_size:
        The fixed chunk size in bytes (the paper default is 4096).
    """

    def __init__(self, chunk_size: int = 4096):
        if chunk_size < 1:
            raise ValidationError("chunk_size must be >= 1")
        self._chunk_size = chunk_size

    @property
    def chunk_size(self) -> int:
        return self._chunk_size

    @property
    def average_chunk_size(self) -> int:
        return self._chunk_size

    def chunk(self, data: bytes) -> Iterator[RawChunk]:
        size = self._chunk_size
        for offset in range(0, len(data), size):
            yield RawChunk(data=data[offset:offset + size], offset=offset)

    def cut_offsets(self, data: "bytes | bytearray | memoryview") -> Iterator[int]:
        length = len(data)
        yield from range(self._chunk_size, length, self._chunk_size)
        if length:
            yield length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StaticChunker(chunk_size={self._chunk_size})"
