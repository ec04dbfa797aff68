"""Spill-plane compression codecs for sealed container data sections.

A :class:`~repro.storage.backends.FileContainerBackend` may compress each
sealed container's data section before writing its spill file: spill bytes
shrink, and a restore pays one decompression per container which the batched
``read_chunks`` path amortises over every chunk read from that container.

Codecs are selected by registered name:

* ``"none"`` (default) -- raw spill files;
* ``"zlib"`` -- deflate in the zlib stream format, always available: through
  libdeflate where the host has it, else the stdlib :mod:`zlib`
  (:func:`codec_status` says which; each decodes the other's blobs);
* ``"zstd"`` -- the optional ``zstandard`` module (never a hard dependency;
  selecting it without the module raises
  :class:`~repro.errors.CompressionError` at configuration time);
* ``"auto"`` -- ``"zstd"`` when the module is importable, else ``"zlib"``.

One codec compresses one bounded container data section (4 MiB by default)
at a time; nothing here ever touches a whole backup stream.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
import zlib
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.errors import CompressionError
from repro.utils.buffers import Output, borrowed

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

    The file backend never routes bytes through this class -- a raw spill
    file is split straight from the file -- but registering it keeps
    ``"none"`` a first-class codec name with the full interface.
    """

    name = "none"

    def compress(self, section: "SectionBuffer") -> bytes:
        return section if type(section) is bytes else bytes(section)

    def decompress(self, blob: "SectionBuffer", expected_size: int) -> bytes:
        return blob if type(blob) is bytes else bytes(blob)


class _DlInfo(ctypes.Structure):  # ``Dl_info``, as ``dladdr`` fills it in
    _fields_ = [("fname", ctypes.c_char_p), *((f, ctypes.c_void_p) for f in ("fbase", "sname", "saddr"))]


@functools.lru_cache(maxsize=None)  # per process, on first use
def _libdeflate() -> Tuple[Any, str]:
    """``(libdeflate or None, "libdeflate (<path>)" or why it cannot be bound)``."""
    pointer, size = ctypes.c_void_p, ctypes.c_size_t
    signatures = {
        "alloc_compressor": ([ctypes.c_int], pointer),
        "alloc_decompressor": ([], pointer),
        "free_compressor": ([pointer], None),
        "free_decompressor": ([pointer], None),
        "zlib_compress_bound": ([pointer, size], size),
        "zlib_compress": ([pointer, pointer, size, pointer, size], size),
        "zlib_decompress": ([pointer, pointer, size, pointer, size, ctypes.POINTER(size)], ctypes.c_int),
    }
    try:
        library = ctypes.CDLL("libdeflate.so.0")
        for name, (argtypes, restype) in signatures.items():
            call = getattr(library, f"libdeflate_{name}")
            call.argtypes, call.restype = argtypes, restype
        found, dladdr = _DlInfo(), ctypes.CDLL(None).dladdr  # which file the loader picked
        dladdr.argtypes, dladdr.restype = [pointer, ctypes.POINTER(_DlInfo)], ctypes.c_int
        dladdr(ctypes.cast(library.libdeflate_zlib_compress, pointer), found)
    except (OSError, AttributeError) as error:
        return None, f"cannot bind libdeflate: {error}"
    return library, f"libdeflate ({(found.fname or b'libdeflate.so.0').decode()})"


def codec_status() -> Tuple[bool, str]:
    """Whether the ``"zlib"`` codec runs on libdeflate here, plus the library's
    path or the stdlib zlib version it runs on instead and why; decided once."""
    library, detail = _libdeflate()
    if library is None:
        return False, f"zlib {zlib.ZLIB_RUNTIME_VERSION} ({detail})"
    return True, detail


class _Deflaters:
    """One thread's libdeflate compressor and decompressor: neither may be
    shared, and seals and loads run on any thread.  Per thread, not per
    codec (backends build codecs freely); freed with the thread."""

    def __init__(self, library: Any) -> None:
        self.library = library
        self.compressor = library.libdeflate_alloc_compressor(_ZLIB_LEVEL)
        self.decompressor = library.libdeflate_alloc_decompressor()
        if not (self.compressor and self.decompressor):
            raise CompressionError("libdeflate could not allocate a (de)compressor")

    def __del__(self) -> None:  # with its thread (both free calls accept NULL)
        self.library.libdeflate_free_compressor(self.compressor)
        self.library.libdeflate_free_decompressor(self.decompressor)


_LOCAL = threading.local()


def _deflaters(library: Any) -> _Deflaters:
    deflaters: Optional[_Deflaters] = getattr(_LOCAL, "deflaters", None)
    if deflaters is None:
        deflaters = _LOCAL.deflaters = _Deflaters(library)
    return deflaters


class ZlibCodec(CompressionCodec):
    """Deflate at a speed-biased level in the zlib stream format: through
    libdeflate where it can be bound (:func:`codec_status`), else the stdlib
    :mod:`zlib`, always available.  Each decodes the other's blobs, and on
    both a blob that inflates past ``expected_size`` is corrupt."""

    name = "zlib"

    def compress(self, section: "SectionBuffer") -> bytes:
        library = _libdeflate()[0]
        if library is None:
            # memLevel 9 (``zlib.compress`` is fixed at 8): the larger hash
            # table makes level 1 ~8% faster on sealed sections and no larger.
            deflate = zlib.compressobj(_ZLIB_LEVEL, zlib.DEFLATED, zlib.MAX_WBITS, 9)
            return deflate.compress(section) + deflate.flush()
        compressor = _deflaters(library).compressor
        with borrowed(section) as view:
            bound = library.libdeflate_zlib_compress_bound(compressor, view.len)
            with Output(bound) as out:
                # Never 0 (failure): the output holds the bound.
                return out.finish(library.libdeflate_zlib_compress(
                    compressor, view.buf, view.len, out.address, bound))

    def decompress(self, blob: "SectionBuffer", expected_size: int) -> bytes:
        library = _libdeflate()[0]
        if library is None:
            try:
                section = zlib.decompress(blob, bufsize=max(expected_size, 1))
            except zlib.error as exc:
                raise CompressionError(f"zlib spill blob is corrupt: {exc}") from exc
            if len(section) > expected_size:
                raise CompressionError(f"zlib spill blob inflates past {expected_size} bytes")
            return section
        decompressor, size = _deflaters(library).decompressor, ctypes.c_size_t()
        with borrowed(blob) as view, Output(expected_size) as out:
            failed = library.libdeflate_zlib_decompress(
                decompressor, view.buf, view.len, out.address, expected_size, ctypes.byref(size))
            if failed:  # 1: bad data; 3: inflates past expected_size
                raise CompressionError(f"zlib spill blob is corrupt (libdeflate result {failed})")
            return out.finish(size.value)


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

    Returns ``None`` for ``"none"``: callers skip the codec call, which
    would be the identity.
    """
    resolved = resolve_compression(name)
    if resolved == NullCodec.name:
        return None
    return COMPRESSION_CODECS[resolved]()
