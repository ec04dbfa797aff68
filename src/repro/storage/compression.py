"""Spill-plane compression codecs for sealed container data sections.

A :class:`~repro.storage.backends.FileContainerBackend` may compress each
sealed container's data section before writing its spill file: spill bytes
shrink, and a restore pays one decompression per container which the batched
``read_chunks`` path amortises over every chunk read from that container.

Codecs are selected by registered name:

* ``"none"`` (default) -- raw spill files, read back through ``mmap`` so
  restore windows slice pages instead of copying whole ``.cdata`` files;
* ``"zlib"`` -- the stdlib fallback, always available;
* ``"zstd"`` -- the optional ``zstandard`` module (never a hard dependency;
  selecting it without the module raises
  :class:`~repro.errors.CompressionError` at configuration time);
* ``"auto"`` -- ``"zstd"`` when the module is importable, else ``"zlib"``.

One codec compresses one bounded container data section (4 MiB by default)
at a time; nothing here ever touches a whole backup stream.
"""

from __future__ import annotations

import os
import zlib
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.errors import CompressionError

if TYPE_CHECKING:
    from repro.storage.container import SectionBuffer

try:  # optional accelerator, never a hard dependency
    import zstandard as _zstandard
except ImportError:  # pragma: no cover - exercised by the zstd-absent CI leg
    _zstandard = None

ENV_CONTAINER_COMPRESSION = "REPRO_CONTAINER_COMPRESSION"
"""Environment variable naming the default spill compression codec."""

#: Speed-biased levels: the spill plane sits on the ingest hot path, so both
#: codecs run at their fastest meaningful setting (zlib 1, zstd 3 -- the
#: zstandard default, which is already far faster than zlib).
_ZLIB_LEVEL = 1
_ZSTD_LEVEL = 3


def zstd_available() -> bool:
    """Whether the optional ``zstandard`` module is importable here."""
    return _zstandard is not None


class CompressionCodec:
    """One spill-file compression algorithm.

    ``compress`` takes a container's contiguous data section (any byte
    buffer) and returns the stored blob; ``decompress`` inverts it, with the
    expected decompressed size passed so implementations can bound their
    output buffers.  Corrupt input raises :class:`CompressionError`, never a
    codec-native exception.
    """

    name: str = "base"

    def compress(self, section: "SectionBuffer") -> bytes:
        raise NotImplementedError

    def decompress(self, blob: "SectionBuffer", expected_size: int) -> bytes:
        raise NotImplementedError


class NullCodec(CompressionCodec):
    """Identity codec: spill files hold the raw data section.

    The file backend never actually routes bytes through this class -- a raw
    spill file is served straight off its ``mmap`` -- but registering it keeps
    ``"none"`` a first-class codec name with the full interface.
    """

    name = "none"

    def compress(self, section: "SectionBuffer") -> bytes:
        return section if type(section) is bytes else bytes(section)

    def decompress(self, blob: "SectionBuffer", expected_size: int) -> bytes:
        return blob if type(blob) is bytes else bytes(blob)


class ZlibCodec(CompressionCodec):
    """Stdlib deflate at a speed-biased level (always available)."""

    name = "zlib"

    def compress(self, section: "SectionBuffer") -> bytes:
        # memLevel 9 (``zlib.compress`` is fixed at 8): the larger hash table
        # makes level 1 ~8% faster on sealed sections and no larger; the
        # output is a plain zlib stream either way.
        deflate = zlib.compressobj(_ZLIB_LEVEL, zlib.DEFLATED, zlib.MAX_WBITS, 9)
        return deflate.compress(section) + deflate.flush()

    def decompress(self, blob: "SectionBuffer", expected_size: int) -> bytes:
        try:
            return zlib.decompress(blob)
        except zlib.error as exc:
            raise CompressionError(f"zlib spill blob is corrupt: {exc}") from exc


class ZstdCodec(CompressionCodec):
    """Optional zstandard codec (importable ``zstandard`` module required)."""

    name = "zstd"

    def __init__(self) -> None:
        if _zstandard is None:
            raise CompressionError(
                "compression codec 'zstd' requires the optional 'zstandard' "
                "module, which is not installed (use 'zlib' or 'auto')"
            )
        # One context each per codec instance, not per call.  A context is
        # single-threaded; the file backend calls ``compress`` under its
        # store's seal lock and ``decompress`` under its own I/O lock.
        self._compressor = _zstandard.ZstdCompressor(level=_ZSTD_LEVEL)
        self._decompressor = _zstandard.ZstdDecompressor()

    def compress(self, section: "SectionBuffer") -> bytes:
        compressed: bytes = self._compressor.compress(section)
        return compressed

    def decompress(self, blob: "SectionBuffer", expected_size: int) -> bytes:
        try:
            section: bytes = self._decompressor.decompress(
                blob, max_output_size=expected_size
            )
            return section
        except _zstandard.ZstdError as exc:
            raise CompressionError(f"zstd spill blob is corrupt: {exc}") from exc


COMPRESSION_CODECS: Dict[str, Callable[[], CompressionCodec]] = {
    NullCodec.name: NullCodec,
    ZlibCodec.name: ZlibCodec,
    ZstdCodec.name: ZstdCodec,
}
"""Registry of compression codec constructors by name (``"auto"`` resolves
through :func:`resolve_compression` before reaching this registry)."""


def resolve_compression(name: Optional[str]) -> str:
    """Resolve a compression knob value to a concrete registered codec name.

    ``None`` defers to the :data:`ENV_CONTAINER_COMPRESSION` environment
    variable, falling back to ``"none"``; ``"auto"`` picks ``"zstd"`` when the
    module is importable and ``"zlib"`` otherwise.  The result is always a
    key of :data:`COMPRESSION_CODECS` (or a :class:`CompressionError`).
    """
    if name is None:
        name = os.environ.get(ENV_CONTAINER_COMPRESSION) or "none"
    if name == "auto":
        return "zstd" if zstd_available() else "zlib"
    if name not in COMPRESSION_CODECS:
        raise CompressionError(
            f"unknown compression codec {name!r}; expected one of "
            f"{sorted(COMPRESSION_CODECS) + ['auto']}"
        )
    return name


def build_codec(name: Optional[str]) -> Optional[CompressionCodec]:
    """Instantiate the codec for a compression knob value.

    Returns ``None`` for ``"none"``: the file backend treats "no codec" as
    the signal to serve raw spill files straight off their ``mmap``.
    """
    resolved = resolve_compression(name)
    if resolved == NullCodec.name:
        return None
    return COMPRESSION_CODECS[resolved]()
