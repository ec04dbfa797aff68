"""`NodeProxy`: the RPC :class:`~repro.cluster.handle.NodeHandle`.

The parent side of one worker (:mod:`repro.transport.worker`): any one
connected blocking stream socket, with FIFO request pipelining -- requests
may be *sent* ahead (``send`` returns a :class:`PendingCall`), responses are
matched back in order.  Combined with the worker's in-order dispatch this
yields per-node sequential consistency, which is what keeps
process-transport results byte-identical to in-process execution (see the
worker module docstring for the full argument).

Crash detection is structural: a SIGKILLed worker surfaces as a lost
connection, which the proxy converts to
:class:`~repro.errors.NodeUnavailableError` -- the same error model as a
marked-down in-process node, so the cluster's failover plane applies
unchanged.
"""

from __future__ import annotations

import socket
import threading
from typing import Any, Callable, Dict, List, NoReturn, Optional, Sequence, Tuple

from repro.analysis.runtime import GuardLock, guarded_lock
from repro.cluster.handle import IdColumn
from repro.cluster.message import MessageCounter, MessageType
from repro.core.superchunk import SuperChunk
from repro.errors import ConnectionLostError, NodeUnavailableError, TransportError
from repro.fingerprint.handprint import Handprint
from repro.node.dedupe_node import SuperChunkBackupResult
from repro.transport import wire

START_TIMEOUT_SECONDS = 15.0
"""How long a proxy waits for its worker's first answer (the start ``ping``)."""

_OP_MESSAGE_TYPES: Dict[str, MessageType] = {
    "probe": MessageType.PRE_ROUTING,
    "sample": MessageType.PRE_ROUTING,
    "usage": MessageType.PRE_ROUTING,
    "backup": MessageType.AFTER_ROUTING,
    "read": MessageType.RESTORE,
    "replica_read": MessageType.RESTORE,
}
"""Which paper message category each wire op's traffic is accounted under;
everything unlisted (lifecycle, replication, recovery) is CONTROL traffic."""

Response = Tuple[Dict[str, Any], List[memoryview]]
"""A worker's answer: its JSON header and its out-of-band payload frames."""


def _op_message_type(op: str) -> MessageType:
    return _OP_MESSAGE_TYPES.get(op, MessageType.CONTROL)


def pack_handprint(handprint: Handprint) -> Tuple[bytes, bytes]:
    return wire.pack_bytes_seq(list(handprint.representative_fingerprints))


def _no_value(header: Dict[str, Any], frames: List[memoryview]) -> None:
    return None


class PendingCall:
    """A pipelined request whose response has not been read yet."""

    done = False

    def __init__(
        self,
        proxy: "NodeProxy",
        request_id: int,
        op: str,
        decode: Optional[Callable[[Dict[str, Any], List[memoryview]], Any]] = None,
    ):
        self._proxy = proxy
        self._request_id = request_id
        self._op = op
        self._decode = decode

    def response(self) -> Response:
        """Block until this request's response arrives (FIFO order)."""
        header, frames = self._proxy._wait(self._request_id, self._op)
        if not header.get("ok", False):
            wire.raise_remote_error(header)
        return header, frames

    def result(self) -> Any:
        """The response, decoded (as it arrived when no decoder was given)."""
        header, frames = self.response()
        if self._decode is None:
            return header, frames
        return self._decode(header, frames)


class PendingBackup:
    """A ``backup`` train on the wire; ``result()`` waits for the worker's
    answer and decodes the node's store result from it."""

    done = False

    def __init__(self, node_id: int, call: PendingCall):
        self._node_id = node_id
        self._call = call

    def result(self) -> SuperChunkBackupResult:
        header, frames = self._call.response()
        fingerprints = wire.unpack_bytes_seq(frames[0], frames[1])
        containers = wire.unpack_u64_seq(frames[2])
        return SuperChunkBackupResult(
            node_id=self._node_id,
            unique_chunks=int(header["unique_chunks"]),
            duplicate_chunks=int(header["duplicate_chunks"]),
            unique_bytes=int(header["unique_bytes"]),
            duplicate_bytes=int(header["duplicate_bytes"]),
            chunk_locations=dict(zip(fingerprints, containers)),
        )


class NodeProxy:
    """One worker's connection: blocking RPCs with FIFO pipelining.

    Thread-safe: sends serialise under ``_send_lock`` (assigning request ids
    in wire order), and responses are read by whichever waiter gets there
    first -- the reader-election under ``_recv_cond`` stashes out-of-turn
    responses for their waiters, so concurrent restore threads and a
    pipelined backup can share the connection.

    ``consult_fault(node_id, op)`` is called before every read-plane RPC
    (fault injection).
    """

    local_node = None  # the node lives in the worker; its internals are opaque

    def __init__(
        self,
        node_id: int,
        sock: socket.socket,
        messages: MessageCounter,
        consult_fault: Optional[Callable[[int, str], None]] = None,
    ):
        """Wrap ``sock``, connected to node ``node_id``'s worker, and wait up to
        :data:`START_TIMEOUT_SECONDS` for its first ``ping`` answer; a worker
        that dies or hangs first raises :class:`~repro.errors.TransportError`."""
        self.node_id = node_id
        self.messages = messages
        self._consult_fault = consult_fault
        self.down = False  # client-side mirror of mark_down
        self._sock: Optional[socket.socket] = sock
        self._send_lock: GuardLock = guarded_lock(f"NodeProxy{node_id}._send_lock")
        self._next_id = 0  # guarded-by: _send_lock
        self._recv_cond = threading.Condition()
        self._responses: Dict[int, Response] = {}  # guarded-by: _recv_cond
        self._receiving = False  # guarded-by: _recv_cond
        self._dead: Optional[str] = None  # guarded-by: _recv_cond
        sock.settimeout(START_TIMEOUT_SECONDS)
        try:
            self.call("ping")
        except NodeUnavailableError as exc:
            raise TransportError(
                f"worker for node {node_id} never answered its start ping: {exc}"
            ) from exc
        sock.settimeout(None)

    # ------------------------------------------------------------------ #
    # connection lifecycle
    # ------------------------------------------------------------------ #

    @property
    def connected(self) -> bool:
        with self._recv_cond:
            return self._sock is not None and self._dead is None

    def close(self) -> None:
        """Drop the connection (the worker exits on the EOF)."""
        self._mark_dead("closed")

    def _mark_dead(self, reason: str) -> None:
        with self._recv_cond:
            if self._dead is None:
                self._dead = reason
            sock = self._sock
            self._sock = None
            self._recv_cond.notify_all()
        if sock is not None:
            try:  # EOF for the worker even while forked siblings hold copies of this end
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:  # pragma: no cover - the peer is already gone
                pass
            sock.close()

    def _dead_reason(self) -> Optional[str]:
        with self._recv_cond:
            return self._dead

    def _raise_unavailable(
        self, reason: str, cause: Optional[BaseException] = None
    ) -> "NoReturn":
        error = NodeUnavailableError(
            f"node {self.node_id} worker is unavailable ({reason})"
        )
        if cause is not None:
            raise error from cause
        raise error

    # ------------------------------------------------------------------ #
    # RPC
    # ------------------------------------------------------------------ #

    def send(
        self,
        op: str,
        header: Optional[Dict[str, Any]] = None,
        frames: Sequence[wire.Buffer] = (),
        decode: Optional[Callable[[Dict[str, Any], List[memoryview]], Any]] = None,
    ) -> PendingCall:
        """Put a request on the wire without waiting for its response
        (pipelining).  Request ids are assigned in wire order, so responses
        match back by FIFO position."""
        message = dict(header or {})
        message["op"] = op
        with self._send_lock:
            sock = self._sock
            if sock is None:
                self._raise_unavailable(self._dead_reason() or "not connected")
            request_id = self._next_id
            self._next_id += 1
            message["id"] = request_id
            try:
                nbytes = wire.send_message(sock, message, frames)
            except ConnectionLostError as exc:
                self._mark_dead(str(exc))
                self._raise_unavailable(str(exc), cause=exc)
        self.messages.record_wire(_op_message_type(op), 1, nbytes)
        return PendingCall(self, request_id, op, decode)  # unguarded-ok: snapshot of the ordinal assigned under _send_lock

    def call(
        self,
        op: str,
        header: Optional[Dict[str, Any]] = None,
        frames: Sequence[wire.Buffer] = (),
    ) -> Response:
        """Send a request and block for its response."""
        return self.send(op, header, frames).response()

    def _wait(self, request_id: int, op: str) -> Response:
        """Collect the response for ``request_id``.

        Responses arrive in FIFO order on the socket; whichever waiter is
        present when a response must be read becomes the reader, stashing
        responses that belong to other waiters.
        """
        while True:
            with self._recv_cond:
                response = self._responses.pop(request_id, None)
                if response is not None:
                    return response
                if self._dead is not None:
                    self._raise_unavailable(self._dead)
                if self._receiving:
                    self._recv_cond.wait(timeout=1.0)
                    continue
                self._receiving = True
                sock = self._sock
            try:
                if sock is None:
                    raise ConnectionLostError("socket closed")
                header, frames, nbytes = wire.recv_message(sock)
            except ConnectionLostError as exc:
                self._mark_dead(str(exc))
                with self._recv_cond:
                    self._receiving = False
                    self._recv_cond.notify_all()
                self._raise_unavailable(str(exc), cause=exc)
            self.messages.record_wire(_op_message_type(op), 1, nbytes)
            with self._recv_cond:
                self._receiving = False
                response_id = header.get("id")
                if response_id == request_id:
                    self._recv_cond.notify_all()
                    return header, frames
                self._responses[int(response_id)] = (header, frames)
                self._recv_cond.notify_all()

    # ------------------------------------------------------------------ #
    # NodeHandle: queries, reads and replication plumbing, one RPC each
    # ------------------------------------------------------------------ #

    def _value(self, op: str, frames: Sequence[wire.Buffer] = ()) -> int:
        return int(self.call(op, frames=frames)[0]["value"])

    @property
    def storage_usage(self) -> int:
        return self._value("usage")

    def resemblance_query(self, handprint: Handprint) -> int:
        return int(self.call("probe", frames=pack_handprint(handprint))[0]["resemblance"])

    def sample_match_count(self, fingerprints: Sequence[bytes]) -> int:
        return self._value("sample", wire.pack_bytes_seq(list(fingerprints)))

    def _read(
        self, op: str, fingerprints: List[bytes], container_ids: IdColumn, **header: Any
    ) -> Response:
        """One read-plane RPC (fault-consulted): fingerprints ride as frames,
        container ids in the header."""
        if self._consult_fault is not None:
            self._consult_fault(self.node_id, op)
        header["container_ids"] = list(container_ids)
        return self.call(op, header, wire.pack_bytes_seq(fingerprints))

    def read_chunks(self, fingerprints: List[bytes], container_ids: IdColumn) -> List[bytes]:
        return [bytes(frame) for frame in self._read("read", fingerprints, container_ids)[1]]

    def replica_read(
        self, origin: int, fingerprints: List[bytes], container_ids: List[int]
    ) -> List[Optional[bytes]]:
        header, frames = self._read("replica_read", fingerprints, container_ids, origin=origin)
        missing = {int(index) for index in header.get("missing", [])}
        present = iter(frames)
        return [
            None if index in missing else bytes(next(present)) for index in range(len(fingerprints))
        ]

    def export_container(self, container_id: int) -> Response:
        """The worker's response as it arrived: a header describing the stored
        section (capacity, stream id, codec, seal-time CRC) and four frames --
        fingerprint blob, fingerprint lengths, chunk lengths and the data
        section *as stored* in one frame (on a compressed file backend, the
        spill file's bytes: a mirror never runs the codec)."""
        return self.call("export_container", {"container_id": container_id})

    def drain_sealed(self) -> List[int]:
        return [int(value) for value in self.call("drain_sealed")[0].get("sealed", [])]

    def sealed_ids(self) -> List[int]:
        return [int(value) for value in self.call("sealed_ids")[0].get("ids", [])]

    def replica_stats(self) -> Tuple[int, int]:
        header, _frames = self.call("replica_stats")
        return int(header["containers"]), int(header["bytes"])

    @property
    def is_down(self) -> bool:
        return self.down or not self.connected

    def mark_down(self) -> None:
        self._mark("mark_down", True)

    def mark_up(self) -> None:
        self._mark("mark_up", False)

    def _mark(self, op: str, down: bool) -> None:
        self.down = down
        if self.connected:
            try:
                self.call(op)
            except NodeUnavailableError:
                pass

    # ------------------------------------------------------------------ #
    # NodeHandle: what a caller overlaps (sent now, answered in result())
    # ------------------------------------------------------------------ #

    def backup(self, superchunk: SuperChunk) -> PendingBackup:
        """Put one super-chunk on the wire without waiting for the store."""
        header, frames = wire.encode_superchunk_frames(
            superchunk.chunks, superchunk.handprint.representative_fingerprints
        )
        header["stream_id"] = superchunk.stream_id
        header["sequence_number"] = superchunk.sequence_number
        return PendingBackup(self.node_id, self.send("backup", header, frames))

    def flush(self) -> PendingCall:
        return self.send("flush", decode=_no_value)

    def recover(self, handprint_size: int) -> PendingCall:
        """Resolves to the worker's flat recovery summary."""
        return self.send(
            "recover",
            {"handprint_size": handprint_size},
            decode=lambda reply, _frames: dict(reply.get("summary", {})),
        )

    def describe(self) -> PendingCall:
        return self.send("describe", decode=lambda reply, _frames: dict(reply["describe"]))

    def store_replica(self, origin: int, container_id: int, exported: Response) -> PendingCall:
        """Forward an origin's ``export_container`` response -- section header
        and frames, verbatim -- to this worker."""
        header, frames = exported
        push = {"origin": origin, "container_id": container_id, "section": header["section"]}
        return self.send("store_replica", push, frames, decode=_no_value)
