"""Workload abstractions.

A *workload* is a sequence of backup snapshots (generations); each snapshot is
a set of files.  Two families exist:

* :class:`ContentWorkload` -- snapshots carry real file payloads, so any
  chunker / chunk size can be applied to them.  The Linux and VM generators
  are content workloads.
* :class:`TraceWorkload` -- snapshots carry pre-chunked fingerprint records
  with no payload and (as with the FIU traces) no meaningful file boundaries.
  The Mail and Web generators are trace workloads.

Content files carry their payload either eagerly (``data``, a byte buffer) or
lazily (``source``, a re-iterable factory of byte blocks).  The lazy form is
what lets a backup flow through the whole ingest path -- workload ->
partitioner -> client -> node -- as a bounded-memory block stream: consumers
that call :meth:`WorkloadFile.iter_blocks` never see more than one block at a
time, and the generator never holds a whole snapshot of payloads.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, List, Optional

from repro.fingerprint.fingerprinter import ChunkRecord
from repro.errors import ValidationError

#: Block size used when a workload file is consumed as a block stream.
DEFAULT_STREAM_BLOCK_SIZE = 256 * 1024

#: A re-iterable factory of payload blocks: each call returns a fresh
#: iterator over the file's bytes, so the payload can be consumed (and sized)
#: any number of times without ever being held as one buffer.
PayloadSource = Callable[[], Iterable[bytes]]


class WorkloadFile:
    """One file of one backup snapshot.

    Exactly one of ``data`` (eager content), ``source`` (lazy content) or
    ``chunks`` (trace workloads) is populated.

    Parameters
    ----------
    path:
        File path within the snapshot.
    data:
        Eager payload buffer (small files, tests).
    chunks:
        Pre-chunked fingerprint records (trace workloads; no payload).
    source:
        Re-iterable payload factory; each call must yield the same byte
        stream.  Reading :attr:`data` on a source-backed file materialises
        the payload on demand -- streaming consumers use
        :meth:`iter_blocks` instead and stay bounded.
    size_hint:
        Exact payload size in bytes when the generator knows it up front;
        lets :attr:`size` (and snapshot/workload accounting) avoid streaming
        the source just to count bytes.
    """

    __slots__ = ("path", "chunks", "source", "size_hint", "_data")

    def __init__(
        self,
        path: str,
        data: bytes = b"",
        chunks: Optional[List[ChunkRecord]] = None,
        source: Optional[PayloadSource] = None,
        size_hint: Optional[int] = None,
    ):
        if source is not None and data:
            raise ValidationError("a WorkloadFile carries either data or a source, not both")
        if chunks and (source is not None or data):
            raise ValidationError("a WorkloadFile carries either chunks or a payload, not both")
        self.path = path
        self.chunks: List[ChunkRecord] = list(chunks) if chunks else []
        self.source = source
        self.size_hint = size_hint
        self._data = data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "chunks" if self.chunks else ("source" if self.source else "data")
        # Never stream a hint-less source just to render a repr.
        if self.source is not None and self.size_hint is None:
            size = "lazy"
        else:
            size = self.size
        return f"WorkloadFile(path={self.path!r}, {kind}, size={size})"

    @property
    def data(self) -> bytes:
        """The whole payload as one buffer (materialises lazy sources)."""
        if self.source is not None:
            return b"".join(self.source())  # streaming-ok: .data is the documented whole-buffer escape hatch
        return self._data

    @property
    def size(self) -> int:
        if self.chunks:
            return sum(chunk.length for chunk in self.chunks)
        if self.source is not None:
            if self.size_hint is None:
                # Counting a hint-less source streams the whole payload once;
                # cache the result so repeated accounting (describe(),
                # snapshot.logical_bytes, ...) does not regenerate it.
                self.size_hint = sum(len(block) for block in self.source())
            return self.size_hint
        return len(self._data)

    def iter_blocks(self, block_size: int = DEFAULT_STREAM_BLOCK_SIZE) -> Iterator[bytes]:
        """Yield this file's payload as blocks of at most ``block_size`` bytes.

        Feeds :meth:`repro.chunking.base.Chunker.chunk_stream` and
        :meth:`repro.fingerprint.fingerprinter.Fingerprinter.fingerprint_blocks`
        so backups need not hold whole files as one buffer.  Source-backed
        files stream straight from the source (re-sliced only where a source
        block exceeds ``block_size``); trace files have no payload and yield
        nothing.
        """
        if block_size < 1:
            raise ValidationError("block_size must be >= 1")
        if self.source is not None:
            for block in self.source():
                if len(block) <= block_size:
                    if block:
                        yield bytes(block)
                else:
                    for offset in range(0, len(block), block_size):
                        yield bytes(block[offset:offset + block_size])
            return
        for offset in range(0, len(self._data), block_size):
            yield self._data[offset:offset + block_size]


@dataclass
class BackupSnapshot:
    """One backup generation: a label plus the files captured in it."""

    label: str
    files: List[WorkloadFile] = field(default_factory=list)

    @property
    def logical_bytes(self) -> int:
        return sum(file.size for file in self.files)

    @property
    def file_count(self) -> int:
        return len(self.files)


class Workload(ABC):
    """Base class for every workload generator."""

    #: Human-readable workload name (used in reports, mirrors Table 2 rows).
    name: str = "workload"

    #: Whether snapshots carry file boundaries usable by file-level routing
    #: (Extreme Binning).  The FIU-style traces do not.
    has_file_metadata: bool = True

    @abstractmethod
    def snapshots(self) -> Iterator[BackupSnapshot]:
        """Yield the backup snapshots (generations) of this workload in order."""

    def describe(self) -> dict:
        """Workload characteristics row (the shape of Table 2).

        Single pass: snapshots are consumed one at a time and never held as a
        list, so describing a workload costs O(one snapshot) memory even for
        arbitrarily long generation sequences.
        """
        num_snapshots = 0
        num_files = 0
        logical_bytes = 0
        for snapshot in self.snapshots():
            num_snapshots += 1
            num_files += snapshot.file_count
            logical_bytes += snapshot.logical_bytes
        return {
            "name": self.name,
            "snapshots": num_snapshots,
            "files": num_files,
            "logical_bytes": logical_bytes,
            "has_file_metadata": self.has_file_metadata,
        }


class ContentWorkload(Workload):
    """A workload whose files carry payload bytes."""

    has_file_metadata = True


class TraceWorkload(Workload):
    """A workload whose files carry pre-chunked fingerprint records only."""

    has_file_metadata = False
