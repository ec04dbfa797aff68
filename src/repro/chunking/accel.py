"""Compiled gear scan: :meth:`GearChunker.cut_offsets` as one C function,
fused with the chunk digest on the ingest path.

The kernel is that sequential loop verbatim (cut-point skip, strict mask to the
normalization point, loose mask to ``max_size``), so its boundaries are
byte-identical by construction.  It is built once per (source, platform) with
the host C compiler into ``$XDG_CACHE_HOME/repro`` (else ``~/.cache/repro``) and
called through :mod:`ctypes`, which releases the GIL for the whole scan.  The
library is module state: forked lanes and node workers inherit the mapping,
and chunkers stay picklable because they hold no handle themselves.
:func:`compiled` builds any source this way (the Mersenne Twister too).

For :meth:`~repro.chunking.base.Chunker.committed_segments` the same call also
hashes each chunk it commits, through the EVP entry points of the libcrypto
:mod:`hashlib` is linked against (sha1, md5, sha256): a run of cuts comes back
with its digest blob and no interpreter work per chunk.

Without a working compiler nothing breaks: :func:`kernel_status` says why,
``"gear"`` (:func:`best_gear_chunker`) is the pure-Python scan, and only the
explicit ``"gear-accel"`` raises ``ChunkingError``.  Without a bindable
libcrypto the kernel still scans and ``hashlib`` digests, as it does for the
optional algorithms and for writable buffers; :func:`kernel_status` names the
digest backend too.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
import threading
from typing import Any, Iterator, List, Optional, Tuple

from repro.chunking.gear import GEAR_TABLE, GearChunker
from repro.errors import ChunkingError, FingerprintError
from repro.utils.buffers import borrowed
from repro.utils.hashing import SUPPORTED_ALGORITHMS, digest_constructor

_SOURCE = b"""
#include <stddef.h>
#include <stdint.h>
/* GearChunker.cut_offsets' scan for the one chunk starting at `start`.  Its own
   function on purpose: written out inside the caller's loop, next to the
   indirect calls, gcc -O3 compiled the same scan 1.7x slower. */
static size_t next_cut(const uint8_t *data, size_t length, size_t start,
                       const uint64_t *table, uint64_t mask_strict, uint64_t mask_loose,
                       size_t min_size, size_t max_size, size_t normal_point)
{
    size_t remaining = length - start, cut = 0;
    if (remaining <= min_size) return length;
    size_t end = remaining > max_size ? start + max_size : length;
    size_t strict_end = start + normal_point < end ? start + normal_point : end;
    size_t position = start + min_size; /* cut-point skipping */
    uint64_t fingerprint = 0;
    while (!cut && position < strict_end) {
        fingerprint = (fingerprint << 1) + table[data[position++]];
        if (!(fingerprint & mask_strict)) cut = position;
    }
    while (!cut && position < end) {
        fingerprint = (fingerprint << 1) + table[data[position++]];
        if (!(fingerprint & mask_loose)) cut = position;
    }
    return cut ? cut : end;
}
struct evp { /* _Evp below */
    const void *md;
    int (*init)(void *, const void *, void *);
    int (*update)(void *, const void *, size_t);
    int (*final)(void *, unsigned char *, unsigned int *);
    size_t size;
};
/* Cuts of data[start:length] short of `length` (that chunk may still grow with
   the stream, so it is neither reported nor hashed), at most `capacity` a call.
   With `evp`, each chunk is also hashed through libcrypto's EVP calls (handed
   in: this library links nothing) into `digests`, `evp->size` bytes apiece;
   SIZE_MAX when libcrypto reports a failure. */
size_t gear_cut_digest(const uint8_t *data, size_t length, size_t start,
                       const uint64_t *table, uint64_t mask_strict, uint64_t mask_loose,
                       size_t min_size, size_t max_size, size_t normal_point,
                       size_t *cuts, size_t capacity, void *context,
                       const struct evp *evp, unsigned char *digests)
{
    size_t count = 0;
    while (count < capacity) {
        size_t cut = next_cut(data, length, start, table, mask_strict, mask_loose,
                              min_size, max_size, normal_point);
        if (cut >= length) break;
        if (evp && (!evp->init(context, evp->md, NULL)
                    || !evp->update(context, data + start, cut - start)
                    || !evp->final(context, digests + count * evp->size, NULL)))
            return SIZE_MAX;
        start = cuts[count++] = cut;
    }
    return count;
}
"""

#: Cut offsets fetched per kernel call; bounds the output buffer whatever the
#: input length and keeps :meth:`AcceleratedGearChunker.cut_offsets` lazy.
_CUT_BATCH = 1024
_GEAR = (ctypes.c_uint64 * 256)(*GEAR_TABLE)


class _Evp(ctypes.Structure):
    """The kernel's ``struct evp``: one digest's ``EVP_MD``, the three libcrypto
    entry points that hash with it, and its size."""

    _fields_ = [
        *((f, ctypes.c_void_p) for f in ("md", "init", "update", "final")),
        ("size", ctypes.c_size_t),
    ]


def _compile(path: str, source: bytes) -> Optional[str]:
    """Build ``source`` at ``path`` with ``$CC``, else the first installed of
    ``sysconfig``'s ``CC`` and ``cc`` (temp file + ``os.replace``: a racing
    process only ever sees a whole library); the failure reason, or None."""
    candidates = (sysconfig.get_config_var("CC"), "cc")
    installed = (c for c in candidates if c and shutil.which(shlex.split(c)[0]))
    compiler = os.environ.get("CC") or next(installed, None)
    if compiler is None:
        return "no C compiler found ($CC unset, no sysconfig CC or cc on PATH)"
    handle, scratch = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(path))
    os.close(handle)
    command = [*shlex.split(compiler), "-O3", "-shared", "-fPIC", "-x", "c", "-", "-o", scratch]
    try:
        done = subprocess.run(command, input=source, capture_output=True, timeout=120)
        if done.returncode:
            stderr = done.stderr.decode(errors="replace").strip()
            return f"{compiler} exited with status {done.returncode}: {stderr}"
        os.replace(scratch, path)
        return None
    finally:
        if os.path.exists(scratch):
            os.unlink(scratch)


@functools.lru_cache(maxsize=None)
def _kernel() -> Tuple[Any, str]:
    """``(kernel function or None, library path or failure reason)``."""
    kernels, detail = compiled("gear", _SOURCE, "gear_cut_digest")
    kernel = kernels and kernels[0]
    if kernel is not None:
        size, word, pointer = ctypes.c_size_t, ctypes.c_uint64, ctypes.c_void_p
        sizes, words = ctypes.POINTER(size), ctypes.POINTER(word)
        kernel.restype = size
        kernel.argtypes = [
            pointer, size, size, words, word, word, *[size] * 3, sizes, size,
            pointer, ctypes.POINTER(_Evp), pointer,
        ]
    return kernel, detail


@functools.lru_cache(maxsize=None)  # per process; forked lanes and workers inherit it
def compiled(stem: str, source: bytes, *symbols: str) -> Tuple[Any, str]:
    """``(the C functions `symbols` of `source`, in order, or None, library path or failure
    reason)``: built once per (source, platform) as ``<stem>-<key>.so``, as the module docstring says."""
    try:
        return _load(stem, source, symbols)
    except (OSError, subprocess.SubprocessError) as error:  # unrunnable $CC, no temp dir
        return None, f"kernel build failed: {error}"


def _load(stem: str, source: bytes, symbols: Tuple[str, ...]) -> Tuple[Any, str]:
    key = hashlib.sha256(source + sysconfig.get_platform().encode()).hexdigest()[:16]
    home = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    cache = os.path.join(home, "repro")
    try:
        os.makedirs(cache, mode=0o700, exist_ok=True)
        owner = os.stat(cache)  # entries are dlopen'ed: only our own, unshared directory
        cached = owner.st_uid == os.geteuid() and not owner.st_mode & 0o022
        cached = cached and os.access(cache, os.W_OK | os.X_OK)
    except OSError:
        cached = False
    # No usable cache: build in a private directory removed before returning
    # (an unlinked library stays mapped), so nothing is left in the temp dir.
    directory = cache if cached else tempfile.mkdtemp(prefix="repro-kernel-")
    path = os.path.join(directory, f"{stem}-{key}.so")
    try:
        reason = None if os.path.exists(path) else _compile(path, source)
        for rebuild in (True, False):
            if reason is None:
                try:
                    library = ctypes.CDLL(path)
                    return tuple(getattr(library, symbol) for symbol in symbols), path
                except (OSError, AttributeError) as error:
                    # A truncated or foreign-architecture entry is rebuilt once.
                    reason = _compile(path, source) if rebuild else f"cannot load {path}: {error}"
        return None, reason
    finally:
        if not cached:
            shutil.rmtree(directory, ignore_errors=True)


@functools.lru_cache(maxsize=None)
def _libcrypto() -> Tuple[Any, str]:
    """``(libcrypto or None, "libcrypto (<version>)" or "hashlib (<why>)")``.

    The library is reached through ``_hashlib``'s own handle (``dlsym`` on an
    extension searches its dependencies), so the kernel hashes with the very
    libcrypto :mod:`hashlib` uses and nothing is searched for or loaded."""
    pointer, text = ctypes.c_void_p, ctypes.c_char_p
    try:
        import _hashlib

        crypto = ctypes.CDLL(_hashlib.__file__)
        crypto.EVP_MD_CTX_new.restype = pointer
        crypto.EVP_MD_CTX_free.argtypes, crypto.EVP_MD_CTX_free.restype = [pointer], None
        crypto.EVP_get_digestbyname.argtypes, crypto.EVP_get_digestbyname.restype = [text], pointer
        crypto.OpenSSL_version.argtypes, crypto.OpenSSL_version.restype = [ctypes.c_int], text
        if hasattr(crypto, "EVP_MD_fetch"):  # OpenSSL >= 3
            crypto.EVP_MD_fetch.argtypes = [pointer, text, text]
            crypto.EVP_MD_fetch.restype = pointer
        for name in ("EVP_DigestInit_ex", "EVP_DigestUpdate", "EVP_DigestFinal_ex"):
            getattr(crypto, name)
    except (ImportError, AttributeError, OSError) as error:
        return None, f"hashlib (cannot bind libcrypto: {error})"
    return crypto, f"libcrypto ({crypto.OpenSSL_version(0).decode()})"


@functools.lru_cache(maxsize=None)
def _evp_digest(algorithm: Optional[str]) -> Optional[_Evp]:
    """The kernel's handle on a hashlib ``algorithm`` it can hash in C, else
    None.  The ``EVP_MD`` is fetched once and kept for the process: OpenSSL 3
    otherwise repeats the fetch inside every ``EVP_DigestInit_ex`` (which is
    all the one-shot ``SHA1()`` is)."""
    crypto = _libcrypto()[0]
    if crypto is None or algorithm not in SUPPORTED_ALGORITHMS:
        return None
    name = algorithm.encode()
    fetch = getattr(crypto, "EVP_MD_fetch", None)
    md = fetch(None, name, None) if fetch else crypto.EVP_get_digestbyname(name)
    if not md:
        return None
    calls = (crypto.EVP_DigestInit_ex, crypto.EVP_DigestUpdate, crypto.EVP_DigestFinal_ex)
    entry_points = (ctypes.cast(call, ctypes.c_void_p) for call in calls)
    return _Evp(md, *entry_points, digest_constructor(algorithm)().digest_size)


class _Scratch:
    """One thread's kernel outputs and ``EVP_MD_CTX``.  Only ever live inside
    a kernel call (results are copied out before anything else runs), so a
    thread reuses one across buffers and streams -- allocating them per
    buffer cost small-block streams 1.2x -- but never shares it: thread
    lanes run kernels concurrently with the GIL released."""

    def __init__(self) -> None:
        self.cuts = (ctypes.c_size_t * _CUT_BATCH)()
        self.digests = ctypes.create_string_buffer(_CUT_BATCH * 64)  # EVP_MAX_MD_SIZE apiece
        self.crypto = _libcrypto()[0]
        self.context = self.crypto and self.crypto.EVP_MD_CTX_new()

    def __del__(self) -> None:  # with its thread
        if self.context:
            self.crypto.EVP_MD_CTX_free(self.context)


class _PerThread(threading.local):
    def __init__(self) -> None:  # runs in each thread that touches it
        self.scratch = _Scratch()


_LOCAL = _PerThread()


def kernel_status() -> Tuple[bool, str]:
    """Whether the compiled scan is live here, plus the loaded library's path or
    why not (no compiler, compiler status + stderr, load error) and, after
    ``"; digests: "``, what hashes the chunks it cuts: ``libcrypto (<version>)``
    inside the kernel call, or ``hashlib (<why>)``; decided once."""
    kernel, detail = _kernel()
    digests = _libcrypto()[1] if kernel is not None else "hashlib (no compiled kernel)"
    return kernel is not None, f"{detail}; digests: {digests}"


class AcceleratedGearChunker(GearChunker):
    """Drop-in :class:`GearChunker` whose boundary scan runs in compiled code:
    same parameters, same chunk-size statistics, byte-identical boundaries.
    Raises :class:`ChunkingError` where the kernel cannot be built or loaded."""

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        kernel, detail = _kernel()
        if kernel is None:
            raise ChunkingError(f"'gear-accel' needs the compiled gear kernel: {detail}")

    def cut_offsets(self, data: "bytes | bytearray | memoryview") -> Iterator[int]:
        for cuts, _digests in self._kernel_runs(data, _CUT_BATCH, None):
            yield from cuts
        if len(data):
            yield len(data)

    def _committed_runs(
        self, buffer: "bytes | bytearray | memoryview", limit: int, digest: Optional[str]
    ) -> Iterator[Tuple[List[int], Optional[bytes]]]:
        """The fused path: the kernel hashes the chunks of a run as it cuts
        them.  A writable buffer is hashed as each record is read, so it
        takes the generic path, as does any digest libcrypto cannot be bound
        for."""
        evp = _evp_digest(digest) if memoryview(buffer).readonly else None
        if evp is None:
            return super()._committed_runs(buffer, limit, digest)
        return self._kernel_runs(buffer, limit, evp)

    def _kernel_runs(
        self, data: "bytes | bytearray | memoryview", limit: int, evp: Optional[_Evp]
    ) -> Iterator[Tuple[List[int], Optional[bytes]]]:
        """``(cuts, digests)`` runs of at most ``limit`` (<= ``_CUT_BATCH``)
        cuts of ``data`` short of its end, one GIL-free kernel call each;
        ``digests`` is the run's digest blob under ``evp``
        (:func:`_evp_digest`), None without."""
        kernel, detail = _kernel()  # an unpickled chunker may be first in its process
        if kernel is None:
            raise ChunkingError(f"compiled gear kernel unavailable: {detail}")
        length, start, count = len(data), 0, limit
        with borrowed(data) as view:  # pins ``data`` (and a bytearray's size) for the scan only
            while count == limit:
                scratch = _LOCAL.scratch  # this thread's, whichever thread resumes the scan
                count = kernel(
                    view.buf, length, start, _GEAR, self._mask_strict, self._mask_loose,
                    self.min_size, self.max_size, self._normal_point, scratch.cuts, limit,
                    scratch.context, evp, scratch.digests,
                )
                if count > limit:
                    raise FingerprintError("libcrypto failed to compute a chunk digest")
                if count:
                    cuts = scratch.cuts[:count]  # copied out: the scratch is reused while we yield
                    start = cuts[-1]
                    yield cuts, evp and scratch.digests[: count * evp.size]


def best_gear_chunker(**kwargs: Any) -> GearChunker:
    """The registry's ``"gear"``: the compiled scan where it can be built,
    the pure-Python scan (bit-identical boundaries) otherwise."""
    return (AcceleratedGearChunker if kernel_status()[0] else GearChunker)(**kwargs)
