"""The node-plane wire protocol: length-prefixed headers, out-of-band frames.

Every message is one *train*::

    !II prefix            header_len, frame_count
    header                JSON object of header_len bytes (msgpack would be
                          denser, but the container image carries no msgpack
                          and headers are already out of the data path --
                          payload bytes never travel inside the header)
    !<frame_count>I       frame length array
    frames                concatenated frame payloads

Chunk payloads, fingerprints and container exports travel as *frames*, never
inside the header, so a ``backup_superchunk`` batch crosses the process
boundary without per-chunk pickling.  Both ends of a connection -- the
parent's :class:`~repro.transport.proxy.NodeProxy` and the worker's serve
loop -- use the same three calls: :func:`encode_message` builds a train as
one buffer (one copy of its frames, bounded by a super-chunk or one sealed
container), :func:`send_message` hands it to the kernel with one
``sendall``, and :func:`recv_message` drains a whole train's frames with one
``recv_into`` loop into a single buffer it then slices zero-copy.

A shared-memory ring was the measured alternative for the payload plane (the
ROADMAP ledger keeps the result); the socket won on this workload -- no ring
sizing, no cross-process synchronisation, no segment lifecycle to leak -- and
is what this module implements.

Fingerprints are variable-length (tests use synthetic tags), so sequences of
byte strings are packed as one blob plus a ``!<n>I`` length array rather than
assuming a fixed digest width.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, List, NoReturn, Sequence, Tuple, Union

import repro.errors as _errors
from repro.errors import (
    ConnectionLostError,
    ReproError,
    TransportError,
    WireProtocolError,
)

Buffer = Union[bytes, bytearray, memoryview]

PREFIX = struct.Struct("!II")
"""(header_len, frame_count) -- the fixed train prefix."""

U32 = struct.Struct("!I")

MAX_HEADER_BYTES = 64 * 1024 * 1024
"""Sanity bound on a header; real headers are a few hundred bytes."""

MAX_FRAMES = 1 << 22
"""Sanity bound on a train's frame count."""

MAX_FRAME_BYTES = (1 << 32) - 1
"""Frame lengths are u32; container capacities (4 MiB default) sit far below."""


# --------------------------------------------------------------------- #
# encoding
# --------------------------------------------------------------------- #


def encode_message(header: Dict[str, Any], frames: Sequence[Buffer] = ()) -> bytes:
    """Encode a train: prefix, header, frame-length array and frames, joined."""
    header_blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
    count = len(frames)
    sizes: List[int] = []
    for frame in frames:
        size = len(frame)
        if size > MAX_FRAME_BYTES:
            raise WireProtocolError(
                f"frame of {size} bytes exceeds the u32 framing limit"
            )
        sizes.append(size)
    lengths = struct.pack(f"!{count}I", *sizes) if count else b""
    head = PREFIX.pack(len(header_blob), count) + header_blob + lengths
    return b"".join([head, *frames])  # streaming-ok: one train, bounded by a super-chunk or one sealed container


# --------------------------------------------------------------------- #
# blocking socket I/O (both ends)
# --------------------------------------------------------------------- #


def send_message(
    sock: socket.socket, header: Dict[str, Any], frames: Sequence[Buffer] = ()
) -> int:
    """Encode and send one train; returns its wire size in bytes."""
    train = encode_message(header, frames)
    try:
        sock.sendall(train)
    except OSError as exc:
        raise ConnectionLostError(f"send failed: {exc}") from exc
    return len(train)


def _recv_exact(sock: socket.socket, count: int) -> memoryview:
    buffer = bytearray(count)
    view = memoryview(buffer)
    received = 0
    while received < count:
        try:
            got = sock.recv_into(view[received:])
        except (ConnectionResetError, OSError) as exc:
            raise ConnectionLostError(f"receive failed: {exc}") from exc
        if got == 0:
            raise ConnectionLostError(
                f"peer closed the connection mid-message "
                f"({received}/{count} bytes received)"
            )
        received += got
    return view


def recv_message(
    sock: socket.socket,
) -> Tuple[Dict[str, Any], List[memoryview], int]:
    """Receive one train; returns ``(header, frames, wire_bytes)``.

    All frames of the train are drained into one buffer with a single
    ``recv_into`` loop and returned as zero-copy slices of it.
    """
    head = _recv_exact(sock, PREFIX.size)
    header_len, frame_count = PREFIX.unpack(head)
    _validate_prefix(header_len, frame_count)
    header = _decode_header(bytes(_recv_exact(sock, header_len)))
    frames: List[memoryview] = []
    body_bytes = 0
    if frame_count:
        lengths_blob = bytes(_recv_exact(sock, U32.size * frame_count))
        sizes = struct.unpack(f"!{frame_count}I", lengths_blob)
        body_bytes = sum(sizes)
        body = _recv_exact(sock, body_bytes) if body_bytes else memoryview(b"")
        frames = _slice_frames(body, sizes)
    wire_bytes = PREFIX.size + header_len + U32.size * frame_count + body_bytes
    return header, frames, wire_bytes


# --------------------------------------------------------------------- #
# packed sequences
# --------------------------------------------------------------------- #


def pack_bytes_seq(items: Sequence[bytes]) -> Tuple[bytes, bytes]:
    """Pack variable-length byte strings as (blob, ``!<n>I`` length array)."""
    blob = b"".join(items)  # streaming-ok: one wire train's fingerprint blob, bounded by a super-chunk
    lengths = struct.pack(f"!{len(items)}I", *(len(item) for item in items))
    return blob, lengths


def unpack_bytes_seq(blob: Buffer, lengths: Buffer) -> List[bytes]:
    """Inverse of :func:`pack_bytes_seq`."""
    count = len(lengths) // U32.size
    sizes = struct.unpack(f"!{count}I", bytes(lengths))
    view = memoryview(blob)
    items: List[bytes] = []
    offset = 0
    for size in sizes:
        items.append(bytes(view[offset:offset + size]))
        offset += size
    if offset != len(view):
        raise WireProtocolError(
            f"packed byte sequence blob of {len(view)} bytes does not match "
            f"its length array total {offset}"
        )
    return items


def pack_u64_seq(values: Sequence[int]) -> bytes:
    return struct.pack(f"!{len(values)}Q", *values)


def unpack_u64_seq(blob: Buffer) -> List[int]:
    count = len(blob) // 8
    return list(struct.unpack(f"!{count}Q", bytes(blob)))


# --------------------------------------------------------------------- #
# remote errors
# --------------------------------------------------------------------- #

_ERROR_CLASSES: Dict[str, type] = {
    name: value
    for name, value in vars(_errors).items()
    if isinstance(value, type) and issubclass(value, ReproError)
}


def error_header(exc: BaseException) -> Dict[str, Any]:
    """Serialise an exception for the response header (by taxonomy name)."""
    return {"ok": False, "error": type(exc).__name__, "message": str(exc)}


def raise_remote_error(header: Dict[str, Any]) -> NoReturn:
    """Re-raise a worker-side error client-side, as its taxonomy class when
    known (``NodeUnavailableError`` stays ``NodeUnavailableError`` across the
    wire) and :class:`~repro.errors.TransportError` otherwise."""
    name = header.get("error", "")
    message = header.get("message", f"remote error {name!r}")
    error_class = _ERROR_CLASSES.get(name, TransportError)
    raise error_class(message)  # taxonomy-ok: re-raises the worker's serialised ReproError subclass by name


# --------------------------------------------------------------------- #
# internals
# --------------------------------------------------------------------- #


def _validate_prefix(header_len: int, frame_count: int) -> None:
    if header_len > MAX_HEADER_BYTES or frame_count > MAX_FRAMES:
        raise WireProtocolError(
            f"implausible train prefix (header {header_len} bytes, "
            f"{frame_count} frames): corrupted stream?"
        )


def _decode_header(blob: bytes) -> Dict[str, Any]:
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireProtocolError(f"undecodable message header: {exc}") from exc
    if not isinstance(header, dict):
        raise WireProtocolError(
            f"message header must be a JSON object, got {type(header).__name__}"
        )
    return header


def _slice_frames(body: memoryview, sizes: Sequence[int]) -> List[memoryview]:
    frames: List[memoryview] = []
    offset = 0
    for size in sizes:
        frames.append(body[offset:offset + size])
        offset += size
    return frames


# --------------------------------------------------------------------- #
# domain encodings (shared by proxy and worker)
# --------------------------------------------------------------------- #


def encode_superchunk_frames(
    chunks: Sequence[Any], handprint_fps: Sequence[bytes]
) -> Tuple[Dict[str, Any], List[Buffer]]:
    """Encode a super-chunk's data plane for the ``backup`` op.

    Frames: fingerprint blob, fingerprint lengths, handprint blob, handprint
    lengths, then one payload frame per chunk that carries data (by
    reference).  Chunks without payloads (fingerprint-only traces) are listed
    in the header with their lengths; everything else derives its length from
    its payload frame.
    """
    fp_blob, fp_lengths = pack_bytes_seq([chunk.fingerprint for chunk in chunks])
    hp_blob, hp_lengths = pack_bytes_seq(list(handprint_fps))
    frames: List[Buffer] = [fp_blob, fp_lengths, hp_blob, hp_lengths]
    absent_index: List[int] = []
    absent_length: List[int] = []
    for index, chunk in enumerate(chunks):
        if chunk.data is None:  # streaming-ok: per-chunk frames of one bounded super-chunk train
            absent_index.append(index)
            absent_length.append(chunk.length)
        else:
            frames.append(chunk.data)  # streaming-ok: by-reference frame of one bounded super-chunk train
    header = {
        "chunk_count": len(chunks),
        "absent": absent_index,
        "absent_lengths": absent_length,
    }
    return header, frames


def decode_superchunk_frames(
    header: Dict[str, Any], frames: Sequence[memoryview]
) -> Tuple[List[Any], List[bytes]]:
    """Decode the ``backup`` op's frames back into ``(chunk records,
    handprint fingerprints)``; the import lives here to keep the module
    import-light for the worker's spawn path."""
    from repro.fingerprint.fingerprinter import ChunkRecord

    fingerprints = unpack_bytes_seq(frames[0], frames[1])
    handprint_fps = unpack_bytes_seq(frames[2], frames[3])
    chunk_count = int(header["chunk_count"])
    if len(fingerprints) != chunk_count:
        raise WireProtocolError(
            f"backup train carries {len(fingerprints)} fingerprints for "
            f"{chunk_count} chunks"
        )
    absent = {
        int(index): int(length)
        for index, length in zip(header.get("absent", ()), header.get("absent_lengths", ()))
    }
    records: List[Any] = []
    frame_cursor = 4
    for index, fingerprint in enumerate(fingerprints):
        if index in absent:
            records.append(ChunkRecord(fingerprint, absent[index], 0, None))
        else:
            data = bytes(frames[frame_cursor])
            frame_cursor += 1
            records.append(ChunkRecord(fingerprint, len(data), 0, data))
    if frame_cursor != len(frames):
        raise WireProtocolError(
            f"backup train carries {len(frames) - 4} payload frames for "
            f"{chunk_count - len(absent)} data chunks"
        )
    return records, handprint_fps
