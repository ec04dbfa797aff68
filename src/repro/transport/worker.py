"""The node worker: one ``DedupeNode`` served over one connected socket.

``node_worker_main`` is the process entry point (picklable for the ``spawn``
start method): it builds the node (and, with replication enabled, its
:class:`~repro.cluster.replication.ReplicaStore`) inside the worker process
and answers the RPCs arriving on its end of the socket pair the parent made,
with the same blocking framing the parent uses
(:func:`~repro.transport.wire.recv_message` /
:func:`~repro.transport.wire.send_message`).  :class:`NodeWorker` itself
serves any connected stream socket, so the same loop runs on a thread over
a socket pair in tests.

**FIFO dispatch is the correctness keystone.**  The parent holds exactly one
connection per worker, and this loop decodes and executes its requests
strictly in arrival order.  That gives per-node sequential consistency: when
the proxy pipelines super-chunk *k+1*'s routing queries behind super-chunk
*k*'s store on the same connection, the queries are answered *after* the
store mutated the node -- exactly the state a serial in-process caller would
have observed -- while queries to *other* workers (separate processes,
separate connections) genuinely overlap the store.  Pipelining therefore
changes wall-clock, never results.

Requests run inline, one at a time: with a single connection there is
nothing to keep responsive while the node's data plane executes, and inline
execution is what makes FIFO trivial rather than queued.

The worker exits when its connection reaches EOF -- the parent's proxy shut
its end down, or the parent died (SIGKILL, test crash) and every copy of
its end closed -- and on a train it cannot decode.  EOF is the one stop
signal: a vanished parent must never leave orphan workers behind (the CI
teardown check asserts exactly this).
"""

from __future__ import annotations

import os
import socket
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.transport import wire
from repro.errors import (
    ConnectionLostError,
    ReproError,
    TransportError,
    WireProtocolError,
)


@dataclass
class WorkerSpec:
    """Everything a worker process needs to host its node (picklable)."""

    node_id: int
    node_config: Any  # NodeConfig; typed loosely to keep the spawn import light
    replicate: bool = False


def node_worker_main(
    spec: WorkerSpec, connection: socket.socket, parent_end: socket.socket
) -> None:
    """Process entry point: host ``spec.node_id`` on ``connection``, the
    worker's end of the pair whose other end, ``parent_end``, the parent
    keeps."""
    # A forked child inherits the parent's end; holding it would keep the
    # connection open after the parent dies, so that death would never
    # reach this worker as EOF.
    parent_end.close()
    # Imports happen in the worker so a ``spawn``-started child pays them
    # here, not at module pickle time.
    from repro.cluster.replication import host_node

    with connection:
        node = host_node(spec.node_id, spec.node_config, spec.replicate)
        try:
            NodeWorker(node).serve(connection)
        finally:
            node.close()


class NodeWorker:
    """Serves one node's RPCs over one connection, in arrival order."""

    def __init__(self, node: Any):
        self.node = node

    def serve(self, connection: socket.socket) -> None:
        """Answer requests until EOF or an undecodable train."""
        while True:
            try:
                header, frames, _nbytes = wire.recv_message(connection)
            except (ConnectionLostError, WireProtocolError):
                # Parent is gone, closed us deliberately, or the stream is
                # corrupt: no parent means no work and nobody to clean us up.
                return
            response_header, response_frames = self._dispatch(header, frames)
            response_header["id"] = header.get("id")
            try:
                wire.send_message(connection, response_header, response_frames)
            except ConnectionLostError:
                return

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #

    def _dispatch(
        self, header: Dict[str, Any], frames: List[memoryview]
    ) -> Tuple[Dict[str, Any], List[wire.Buffer]]:
        op = str(header.get("op", ""))
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            return (
                wire.error_header(TransportError(f"unknown transport op {op!r}")),
                [],
            )
        try:
            return handler(header, frames)
        except ReproError as exc:
            return wire.error_header(exc), []
        except Exception as exc:  # pragma: no cover - defensive: never kill the loop
            return wire.error_header(exc), []

    # -- routing-plane ops -------------------------------------------- #

    def _op_ping(
        self, header: Dict[str, Any], frames: List[memoryview]
    ) -> Tuple[Dict[str, Any], List[wire.Buffer]]:
        return {"ok": True, "node_id": self.node.node_id, "pid": os.getpid()}, []

    def _op_usage(
        self, header: Dict[str, Any], frames: List[memoryview]
    ) -> Tuple[Dict[str, Any], List[wire.Buffer]]:
        return {"ok": True, "value": self.node.storage_usage}, []

    def _op_probe(
        self, header: Dict[str, Any], frames: List[memoryview]
    ) -> Tuple[Dict[str, Any], List[wire.Buffer]]:
        # One routing round's worth of this node's state in a single
        # response: the resemblance count (stats-bumping, evaluated first --
        # same order as the serial query sequence) plus the storage usage.
        from repro.fingerprint.handprint import Handprint

        fingerprints = wire.unpack_bytes_seq(frames[0], frames[1])
        handprint = Handprint(representative_fingerprints=tuple(fingerprints))
        resemblance = self.node.resemblance_query(handprint)
        return {
            "ok": True,
            "resemblance": resemblance,
            "usage": self.node.storage_usage,
        }, []

    def _op_sample(
        self, header: Dict[str, Any], frames: List[memoryview]
    ) -> Tuple[Dict[str, Any], List[wire.Buffer]]:
        fingerprints = wire.unpack_bytes_seq(frames[0], frames[1])
        return {"ok": True, "value": self.node.sample_match_count(fingerprints)}, []

    # -- backup plane -------------------------------------------------- #

    def _op_backup(
        self, header: Dict[str, Any], frames: List[memoryview]
    ) -> Tuple[Dict[str, Any], List[wire.Buffer]]:
        from repro.core.superchunk import SuperChunk
        from repro.fingerprint.handprint import Handprint

        records, handprint_fps = wire.decode_superchunk_frames(header, frames)
        superchunk = SuperChunk(
            chunks=records,
            handprint=Handprint(representative_fingerprints=tuple(handprint_fps)),
            stream_id=int(header.get("stream_id", 0)),
            sequence_number=int(header.get("sequence_number", 0)),
        )
        result = self.node.backup_superchunk(superchunk)
        loc_fps = list(result.chunk_locations.keys())
        loc_blob, loc_lengths = wire.pack_bytes_seq(loc_fps)
        loc_containers = wire.pack_u64_seq(
            [result.chunk_locations[fp] for fp in loc_fps]
        )
        response = {
            "ok": True,
            "unique_chunks": result.unique_chunks,
            "duplicate_chunks": result.duplicate_chunks,
            "unique_bytes": result.unique_bytes,
            "duplicate_bytes": result.duplicate_bytes,
        }
        return response, [loc_blob, loc_lengths, loc_containers]

    def _op_flush(
        self, header: Dict[str, Any], frames: List[memoryview]
    ) -> Tuple[Dict[str, Any], List[wire.Buffer]]:
        self.node.flush()
        return {"ok": True}, []

    # -- restore plane ------------------------------------------------- #

    def _op_read(
        self, header: Dict[str, Any], frames: List[memoryview]
    ) -> Tuple[Dict[str, Any], List[wire.Buffer]]:
        fingerprints = wire.unpack_bytes_seq(frames[0], frames[1])
        chunks = self.node.read_chunks(fingerprints, header.get("container_ids", []))
        return {"ok": True}, list(chunks)

    def _op_replica_read(
        self, header: Dict[str, Any], frames: List[memoryview]
    ) -> Tuple[Dict[str, Any], List[wire.Buffer]]:
        fingerprints = wire.unpack_bytes_seq(frames[0], frames[1])
        found = self.node.replica_read(
            int(header["origin"]), fingerprints, header.get("container_ids", [])
        )
        missing = [index for index, chunk in enumerate(found) if chunk is None]
        present = [chunk for chunk in found if chunk is not None]
        return {"ok": True, "missing": missing}, present

    # -- replication plane --------------------------------------------- #

    def _op_drain_sealed(
        self, header: Dict[str, Any], frames: List[memoryview]
    ) -> Tuple[Dict[str, Any], List[wire.Buffer]]:
        return {"ok": True, "sealed": self.node.container_store.drain_sealed()}, []

    def _op_sealed_ids(
        self, header: Dict[str, Any], frames: List[memoryview]
    ) -> Tuple[Dict[str, Any], List[wire.Buffer]]:
        return {"ok": True, "ids": self.node.sealed_container_ids()}, []

    def _op_export_container(
        self, header: Dict[str, Any], frames: List[memoryview]
    ) -> Tuple[Dict[str, Any], List[wire.Buffer]]:
        # One stored frame, not one frame per chunk: the data section as this
        # node stores it (compressed or not), plus what it takes to rebuild
        # the metadata section.  The parent forwards header["section"] and
        # the frames to each successor's store_replica unchanged.
        section = self.node.export_container(int(header["container_id"]))
        fp_blob, fp_lengths = wire.pack_bytes_seq(
            [entry.fingerprint for entry in section.entries]
        )
        chunk_lengths = wire.pack_u64_seq([entry.length for entry in section.entries])
        response = {
            "ok": True,
            "section": {
                "capacity": section.capacity,
                "stream_id": section.stream_id,
                "codec": section.stored.codec,
                "stored_length": section.stored.length,
                "stored_crc": section.stored.crc,
            },
        }
        return response, [fp_blob, fp_lengths, chunk_lengths, section.blob]

    def _op_store_replica(
        self, header: Dict[str, Any], frames: List[memoryview]
    ) -> Tuple[Dict[str, Any], List[wire.Buffer]]:
        from repro.storage.container import (
            ContainerMetadataEntry,
            StoredForm,
            StoredSection,
        )

        fingerprints = wire.unpack_bytes_seq(frames[0], frames[1])
        chunk_lengths = wire.unpack_u64_seq(frames[2])
        if len(chunk_lengths) != len(fingerprints):
            raise WireProtocolError(
                f"replica train carries {len(fingerprints)} fingerprints for "
                f"{len(chunk_lengths)} chunk lengths"
            )
        entries: List[ContainerMetadataEntry] = []
        offset = 0
        for fingerprint, length in zip(fingerprints, chunk_lengths):
            entries.append(
                ContainerMetadataEntry(
                    fingerprint=fingerprint, offset=offset, length=length
                )
            )
            offset += length
        described = header["section"]
        section = StoredSection(
            capacity=int(described["capacity"]),
            stream_id=int(described["stream_id"]),
            stored=StoredForm(
                codec=str(described["codec"]),
                length=int(described["stored_length"]),
                crc=int(described["stored_crc"]),
            ),
            entries=entries,
            blob=frames[3],
        )
        self.node.store_replica(
            int(header["origin"]), int(header["container_id"]), section
        )
        return {"ok": True}, []

    def _op_replica_stats(
        self, header: Dict[str, Any], frames: List[memoryview]
    ) -> Tuple[Dict[str, Any], List[wire.Buffer]]:
        containers, nbytes = self.node.replica_stats()
        return {"ok": True, "containers": containers, "bytes": nbytes}, []

    # -- lifecycle ------------------------------------------------------ #

    def _op_mark_down(
        self, header: Dict[str, Any], frames: List[memoryview]
    ) -> Tuple[Dict[str, Any], List[wire.Buffer]]:
        self.node.mark_down()
        return {"ok": True}, []

    def _op_mark_up(
        self, header: Dict[str, Any], frames: List[memoryview]
    ) -> Tuple[Dict[str, Any], List[wire.Buffer]]:
        self.node.mark_up()
        return {"ok": True}, []

    def _op_recover(
        self, header: Dict[str, Any], frames: List[memoryview]
    ) -> Tuple[Dict[str, Any], List[wire.Buffer]]:
        recovery = self.node.recover_storage(
            handprint_size=int(header.get("handprint_size", 8)),
            verify_data=bool(header.get("verify_data", True)),
        )
        summary = {
            "containers": len(recovery.containers),
            "recovered_bytes": recovery.recovered_bytes,
            "recovered_chunks": recovery.recovered_chunks,
            "records_discarded": recovery.records_discarded,
            "records_dropped": recovery.records_dropped,
            "orphans_removed": len(recovery.orphans_removed),
        }
        return {"ok": True, "summary": summary}, []

    def _op_describe(
        self, header: Dict[str, Any], frames: List[memoryview]
    ) -> Tuple[Dict[str, Any], List[wire.Buffer]]:
        return {"ok": True, "describe": self.node.describe()}, []
