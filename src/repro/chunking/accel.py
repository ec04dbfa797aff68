"""Compiled gear scan: :meth:`GearChunker.cut_offsets` as one C function.

The kernel is that sequential loop verbatim (cut-point skip, strict mask to the
normalization point, loose mask to ``max_size``), so its boundaries are
byte-identical by construction.  It is built once per (source, platform) with
the host C compiler into ``$XDG_CACHE_HOME/repro`` (else ``~/.cache/repro``) and
called through :mod:`ctypes`, which releases the GIL for the whole scan.  The
library is module state: forked lanes and node workers inherit the mapping,
and chunkers stay picklable because they hold no handle themselves.

Without a working compiler nothing breaks: :func:`kernel_status` says why,
``"gear"`` (:func:`best_gear_chunker`) is the pure-Python scan, and only the
explicit ``"gear-accel"`` raises ``ChunkingError``.
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
from typing import Any, Iterator, Optional, Tuple

from repro.chunking.gear import GEAR_TABLE, GearChunker
from repro.errors import ChunkingError

_SOURCE = b"""
#include <stddef.h>
#include <stdint.h>
size_t gear_cuts(const uint8_t *data, size_t length, size_t start,
                 const uint64_t *table, uint64_t mask_strict, uint64_t mask_loose,
                 size_t min_size, size_t max_size, size_t normal_point,
                 size_t *cuts, size_t capacity)
{
    size_t count = 0;
    while (start < length && count < capacity) {
        size_t remaining = length - start, cut = length;
        if (remaining > min_size) {
            size_t end = remaining > max_size ? start + max_size : length;
            size_t strict_end = start + normal_point < end ? start + normal_point : end;
            size_t position = start + min_size; /* cut-point skipping */
            uint64_t fingerprint = 0;
            for (cut = 0; !cut && position < strict_end;) {
                fingerprint = (fingerprint << 1) + table[data[position++]];
                if (!(fingerprint & mask_strict)) cut = position;
            }
            while (!cut && position < end) {
                fingerprint = (fingerprint << 1) + table[data[position++]];
                if (!(fingerprint & mask_loose)) cut = position;
            }
            if (!cut) cut = end;
        }
        start = cuts[count++] = cut;
    }
    return count;
}
"""

#: Cut offsets fetched per kernel call; bounds the output buffer whatever the
#: input length and keeps :meth:`AcceleratedGearChunker.cut_offsets` lazy.
_CUT_BATCH = 1024
_CutArray = ctypes.c_size_t * _CUT_BATCH
_GEAR = (ctypes.c_uint64 * 256)(*GEAR_TABLE)


class _PyBuffer(ctypes.Structure):
    """``Py_buffer``: lets the scan borrow any contiguous buffer in place, the
    read-only views (shm lane slabs) ``ctypes.from_buffer`` refuses included."""

    _fields_ = [
        ("buf", ctypes.c_void_p), ("obj", ctypes.c_void_p),
        ("len", ctypes.c_ssize_t), ("itemsize", ctypes.c_ssize_t),
        ("readonly", ctypes.c_int), ("ndim", ctypes.c_int),
        *((f, ctypes.c_void_p) for f in ("format", "shape", "strides", "suboffsets", "internal")),
    ]


def _compile(path: str) -> Optional[str]:
    """Build the kernel at ``path`` with ``$CC``, else the first installed of
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
        done = subprocess.run(command, input=_SOURCE, capture_output=True, timeout=120)
        if done.returncode:
            stderr = done.stderr.decode(errors="replace").strip()
            return f"{compiler} exited with status {done.returncode}: {stderr}"
        os.replace(scratch, path)
        return None
    finally:
        if os.path.exists(scratch):
            os.unlink(scratch)


def _bind(path: str) -> Any:
    kernel = ctypes.CDLL(path).gear_cuts
    size, word = ctypes.c_size_t, ctypes.c_uint64
    kernel.restype = size
    sizes, words = ctypes.POINTER(size), ctypes.POINTER(word)
    kernel.argtypes = [ctypes.c_void_p, size, size, words, word, word, *[size] * 3, sizes, size]
    return kernel


@functools.lru_cache(maxsize=None)  # per process; forked lanes and workers inherit it
def _kernel() -> Tuple[Any, str]:
    """``(kernel function or None, library path or failure reason)``."""
    try:
        return _load()
    except (OSError, subprocess.SubprocessError) as error:  # unrunnable $CC, no temp dir
        return None, f"kernel build failed: {error}"


def _load() -> Tuple[Any, str]:
    key = hashlib.sha256(_SOURCE + sysconfig.get_platform().encode()).hexdigest()[:16]
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
    path = os.path.join(directory, f"gear-{key}.so")
    try:
        reason = None if os.path.exists(path) else _compile(path)
        for rebuild in (True, False):
            if reason is None:
                try:
                    return _bind(path), path
                except (OSError, AttributeError) as error:
                    # A truncated or foreign-architecture entry is rebuilt once.
                    reason = _compile(path) if rebuild else f"cannot load {path}: {error}"
        return None, reason
    finally:
        if not cached:
            shutil.rmtree(directory, ignore_errors=True)


def kernel_status() -> Tuple[bool, str]:
    """Whether the compiled scan is live here, plus the loaded library's path or
    why not (no compiler, compiler status + stderr, load error); decided once."""
    kernel, detail = _kernel()
    return kernel is not None, detail


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
        length = len(data)
        kernel, detail = _kernel()  # an unpickled chunker may be first in its process
        if kernel is None:
            raise ChunkingError(f"compiled gear kernel unavailable: {detail}")
        borrowed, api = _PyBuffer(), ctypes.pythonapi  # a PyDLL: raises BufferError itself
        try:  # flags 0 = PyBUF_SIMPLE: contiguous bytes, read-only is fine
            api.PyObject_GetBuffer(ctypes.py_object(data), ctypes.byref(borrowed), 0)
        except BufferError:  # a strided view is the one input that is copied
            api.PyObject_GetBuffer(ctypes.py_object(bytes(data)), ctypes.byref(borrowed), 0)
        try:
            cuts = _CutArray()
            start = 0
            while start < length:
                count = kernel(
                    borrowed.buf, length, start, _GEAR, self._mask_strict, self._mask_loose,
                    self.min_size, self.max_size, self._normal_point, cuts, _CUT_BATCH,
                )
                yield from cuts[:count]
                start = cuts[count - 1]
        finally:  # the export pins ``data`` (and a bytearray's size) for the scan only
            api.PyBuffer_Release(ctypes.byref(borrowed))


def best_gear_chunker(**kwargs: Any) -> GearChunker:
    """The registry's ``"gear"``: the compiled scan where it can be built,
    the pure-Python scan (bit-identical boundaries) otherwise."""
    return (AcceleratedGearChunker if kernel_status()[0] else GearChunker)(**kwargs)
