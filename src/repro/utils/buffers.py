"""Borrowing a buffer's bytes in place for a :mod:`ctypes` call, and
:class:`Output`, a fresh ``bytes`` for C to write into.

The one way ``src/`` hands a Python buffer to C: the compiled gear scan
(:mod:`repro.chunking.accel`) and the libdeflate spill codec
(:mod:`repro.storage.compression`) read through it; the codec and the VM block generator write to an Output.
"""

from __future__ import annotations

import ctypes
from typing import Any, List


def c_api(name: str, argtypes: List[Any], restype: Any) -> Any:
    """A C-API function of this interpreter with its types declared, as a
    function object of its own (the shared ``ctypes.pythonapi`` attribute
    keeps its defaults for other code).  Being a ``PyDLL`` function it holds
    the GIL and raises the Python error it sets."""
    call = ctypes.pythonapi[name]
    call.argtypes, call.restype = argtypes, restype
    return call


_new_bytes = c_api("PyBytes_FromStringAndSize", [ctypes.c_void_p, ctypes.c_ssize_t], ctypes.c_void_p)
_bytes_data = c_api("PyBytes_AsString", [ctypes.c_void_p], ctypes.c_void_p)
_resize_bytes = c_api("_PyBytes_Resize", [ctypes.POINTER(ctypes.c_void_p), ctypes.c_ssize_t], ctypes.c_int)
_decref = c_api("Py_DecRef", [ctypes.c_void_p], None)


class Output:
    """A fresh ``bytes`` object for C to write at ``address``, which
    ``finish(size)`` shrinks where it lies and returns: outputs are never
    copied.  Only ``raw`` reaches it until then, so writing and resizing it
    are sound; an unfinished one is freed on exit."""

    __slots__ = ("raw", "address")

    def __init__(self, capacity: int) -> None:
        self.raw = ctypes.c_void_p(_new_bytes(None, capacity))
        self.address: int = _bytes_data(self.raw)

    def __enter__(self) -> "Output":
        return self

    def finish(self, size: int) -> bytes:
        _resize_bytes(ctypes.byref(self.raw), size)  # on failure: freed, ``raw`` NULL
        finished: bytes = ctypes.cast(self.raw, ctypes.py_object).value  # a reference of its own
        return finished

    def __exit__(self, *exc_info: Any) -> None:
        _decref(self.raw)


class _PyBuffer(ctypes.Structure):
    """``Py_buffer``, as ``PyObject_GetBuffer`` fills it in."""

    _fields_ = [
        ("buf", ctypes.c_void_p), ("obj", ctypes.c_void_p),
        ("len", ctypes.c_ssize_t), ("itemsize", ctypes.c_ssize_t),
        ("readonly", ctypes.c_int), ("ndim", ctypes.c_int),
        *((f, ctypes.c_void_p) for f in ("format", "shape", "strides", "suboffsets", "internal")),
    ]


_get_buffer = c_api("PyObject_GetBuffer", [ctypes.py_object, ctypes.POINTER(_PyBuffer), ctypes.c_int], ctypes.c_int)
_release_buffer = c_api("PyBuffer_Release", [ctypes.POINTER(_PyBuffer)], None)


class borrowed:
    """``with borrowed(data) as view:`` ``view.buf`` / ``view.len`` are the
    address and byte length of any contiguous buffer, borrowed in place --
    read-only ones (shm lane slabs, a spill file's ``mmap``) that
    ``ctypes.from_buffer`` refuses included.  A strided view is the one input
    that is copied.  The export pins ``data`` (and a bytearray's size) until
    the block ends."""

    __slots__ = ("_data", "_view")

    def __init__(self, data: Any) -> None:
        self._data, self._view = data, _PyBuffer()

    def __enter__(self) -> _PyBuffer:
        try:  # flags 0 = PyBUF_SIMPLE: contiguous bytes, read-only is fine
            _get_buffer(self._data, self._view, 0)
        except BufferError:
            _get_buffer(bytes(self._data), self._view, 0)
        return self._view

    def __exit__(self, *exc_info: Any) -> None:
        _release_buffer(self._view)
