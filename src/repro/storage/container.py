"""Containers: the locality-preserving unit of on-disk chunk storage.

"Container is a self-describing data structure stored in disk to preserve
locality ... that includes a data section to store data chunks and a metadata
section to store their metadata information, such as chunk fingerprint, offset
and length." (paper Section 3.3)

Where a container's data section lives is a backend decision (see
:mod:`repro.storage.backends`): the default in-memory backend keeps it resident
(the evaluation uses a RAM file system anyway), while the spill-to-disk backend
evicts the payload of sealed containers to a file and reloads it on demand.
Either way containers are only ever read or written as whole units, so
disk-access accounting done at container granularity is faithful to the
paper's design.  The metadata section always stays resident.  An evicted
container is served as per-chunk payloads, raw spill or compressed: its
backend keeps a list of them in its LRU -- under a codec the very list
:meth:`Container.evict_payload` hands it at the seal, else the list its
first load splits from the spill file -- so every read of the container is
list slices, as for a resident one.

A resident data section is held as the list of (immutable) chunk payloads in
append order rather than one contiguous buffer: appending a batch of unique
chunks then costs no memcpy at all, and the contiguous form is materialised
only when a backend actually writes the container out
(:meth:`Container.payload_bytes`).  The metadata offsets always describe the
contiguous layout, so the spilled file and the resident view stay coherent.

The metadata section is held the same way, as three aligned columns
(fingerprints, offsets, lengths): a run of chunks is appended by extending
each column, and the rows are materialised only when a backend or a replica
asks for them (:meth:`Container.metadata_section`).
"""

from __future__ import annotations

import mmap
import zlib
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, chain, groupby
from operator import add
from typing import (
    Any, Callable, Dict, Hashable, List, NamedTuple, Optional, Sequence, TypeVar, Union, cast,
)

from repro.errors import ContainerFullError, ContainerNotFoundError, StorageError
from repro.fingerprint.fingerprinter import ChunkRecord

DEFAULT_CONTAINER_CAPACITY = 4 * 1024 * 1024
"""Default container data-section capacity in bytes (4 MiB, a common choice in
container-based dedup stores such as DDFS)."""

LoadedSection = List[bytes]
"""What a backend loader serves for an evicted container: its data section
split into per-chunk payloads aligned with the metadata section."""

SectionBuffer = Union[bytes, memoryview, mmap.mmap]
"""Any buffer a data section -- raw or stored -- may arrive in where it is
only compressed, decompressed, checksummed or written out: ``bytes``, a
wire frame's ``memoryview``, or a spill file's ``mmap``."""


class ContainerMetadataEntry(NamedTuple):
    """One row of a container's metadata section, as journals, replicas and
    prefetch readers see it (the container itself keeps columns)."""

    fingerprint: bytes
    offset: int
    length: int


_new_entry = partial(tuple.__new__, ContainerMetadataEntry)


def _stored_payload(data: Optional[bytes], length: int) -> bytes:
    """What a container keeps for a chunk's ``data``."""
    if data is None:
        # Fingerprint-only traces carry no payload; account the space so
        # physical-capacity statistics stay correct.
        return b"\x00" * length
    # Immutable payloads are stored by reference (zero-copy); anything
    # mutable (bytearray, memoryview) is snapshotted.
    return data if type(data) is bytes else bytes(data)


class StoredForm(NamedTuple):
    """How a sealed container's data section is stored: the codec it sits
    under, and the length and CRC-32 of the stored bytes.  It is what a seal's
    journal record says about the spill file, kept on the evicted container
    so an export needs neither the journal nor a recomputed CRC."""

    codec: str
    length: int
    crc: int


class StoredSection(NamedTuple):
    """A sealed container in its stored form -- the unit of replication.

    ``blob`` is the data section exactly as the origin stores it (the spill
    file's bytes under ``stored.codec``, or the contiguous section itself
    under ``"none"``), ``stored`` what the origin recorded about those bytes
    when it sealed, and ``entries`` the metadata section.  A replica adopts
    one by checking ``blob`` against ``stored`` and keeping it verbatim:
    mirroring never runs a codec.
    """

    capacity: int
    stream_id: int
    stored: StoredForm
    entries: Sequence[ContainerMetadataEntry]
    blob: Union[bytes, memoryview]

    def verified_blob(self, what: str) -> Union[bytes, memoryview]:
        """``blob``, or a :class:`~repro.errors.StorageError` naming ``what``
        if it is no longer the bytes that were sealed."""
        length, crc = len(self.blob), zlib.crc32(self.blob)
        if (length, crc) != (self.stored.length, self.stored.crc):
            raise StorageError(
                f"stored section of {what} failed its CRC check (sealed as "
                f"{self.stored.length} bytes, CRC {self.stored.crc:#010x}; "
                f"found {length} bytes, CRC {crc:#010x}): refusing to adopt it"
            )
        return self.blob


@dataclass
class Container:
    """An append-only container of unique chunks.

    Attributes
    ----------
    container_id:
        Cluster-node-local identifier (the CID stored in the similarity index).
    capacity:
        Maximum size of the data section in bytes.
    stream_id:
        The data stream the container was opened for (parallel container
        management keeps one open container per stream).
    """

    container_id: int
    capacity: int = DEFAULT_CONTAINER_CAPACITY
    stream_id: int = 0
    sealed: bool = False
    _parts: Optional[List[bytes]] = field(default_factory=list, repr=False)
    _fingerprints: List[bytes] = field(default_factory=list, repr=False)
    _offsets: List[int] = field(default_factory=list, repr=False)
    _lengths: List[int] = field(default_factory=list, repr=False)
    _index_of: Dict[bytes, int] = field(default_factory=dict, repr=False)
    _used: int = field(default=0, repr=False)
    _loader: Optional[Callable[["Container"], LoadedSection]] = field(default=None, repr=False)
    _stored: Optional[StoredForm] = field(default=None, repr=False)

    @classmethod
    def from_recovered(
        cls,
        container_id: int,
        capacity: int,
        stream_id: int,
        entries: Sequence[ContainerMetadataEntry],
        loader: Optional[Callable[["Container"], LoadedSection]] = None,
        parts: Optional[List[bytes]] = None,
        stored: Optional[StoredForm] = None,
    ) -> "Container":
        """Rebuild a sealed container from its metadata section.

        Journal replay and file-backed replica adoption pass ``loader`` (and
        the ``stored`` form of the spill file behind it) and get an evicted
        container whose payload reloads through the backend; memory-backed
        replica adoption passes ``parts`` (per-chunk payload slices aligned
        with ``entries``) and gets a resident clone.  Exactly one of the two
        must be given.  ``used`` is recomputed from the entry lengths, which
        equals the contiguous-layout total by construction.
        """
        if (loader is None) == (parts is None):
            raise StorageError(
                "from_recovered needs exactly one of loader= or parts="
            )
        if parts is not None and len(parts) != len(entries):
            raise StorageError(
                f"recovered container {container_id}: {len(entries)} metadata "
                f"entries but {len(parts)} payload parts"
            )
        container = cls(
            container_id=container_id,
            capacity=capacity,
            stream_id=stream_id,
            sealed=True,
        )
        if entries:
            fingerprints, offsets, lengths = map(list, zip(*entries))
            container._fingerprints = fingerprints
            container._offsets = offsets
            container._lengths = lengths
            container._index_of = dict(zip(fingerprints, range(len(fingerprints))))
            container._used = sum(lengths)
        container._parts = parts
        container._loader = loader
        container._stored = stored
        return container

    @property
    def used(self) -> int:
        """Bytes currently used in the data section (tracked O(1), valid even
        after the payload has been evicted to a backend)."""
        return self._used

    @property
    def free(self) -> int:
        """Bytes still available in the data section."""
        return self.capacity - self._used

    @property
    def chunk_count(self) -> int:
        return len(self._fingerprints)

    @property
    def payload_resident(self) -> bool:
        """Whether the data section is currently held in RAM."""
        return self._parts is not None

    @property
    def stored_form(self) -> Optional[StoredForm]:
        """How the evicted data section sits in its spill file (``None``
        while the payload is resident)."""
        return self._stored

    def has_room_for(self, length: int) -> bool:
        """Whether a chunk of ``length`` bytes fits in the remaining space."""
        return not self.sealed and length <= self.free

    def append(self, chunk: ChunkRecord) -> ContainerMetadataEntry:
        """Append a unique chunk; returns the metadata entry recorded for it.

        Raises
        ------
        ContainerFullError
            If the container is sealed or cannot hold the chunk.
        """
        if self.sealed:
            raise ContainerFullError(f"container {self.container_id} is sealed")
        if chunk.length > self.free:
            raise ContainerFullError(
                f"container {self.container_id} has {self.free} bytes free, "
                f"chunk needs {chunk.length}"
            )
        entry = ContainerMetadataEntry(
            fingerprint=chunk.fingerprint,
            offset=self._used,
            length=chunk.length,
        )
        position = len(self._fingerprints)
        self._fingerprints.append(entry.fingerprint)
        self._offsets.append(entry.offset)
        self._lengths.append(entry.length)
        self._parts.append(_stored_payload(chunk.data, chunk.length))
        # Last: a concurrent restore must never find a position without its part.
        self._index_of[entry.fingerprint] = position
        self._used += entry.length
        return entry

    def append_many(
        self,
        fingerprints: Sequence[bytes],
        lengths: Sequence[int],
        payloads: Sequence[Optional[bytes]],
    ) -> None:
        """Append a run of chunks known to fit, given as aligned columns
        (what ``store_chunks`` splits a batch into).

        Equivalent to one :meth:`append` per chunk: same metadata rows, same
        contiguous layout, payloads by reference when they are all ``bytes``.
        """
        if self.sealed:
            raise ContainerFullError(f"container {self.container_id} is sealed")
        offsets = list(accumulate(lengths, initial=self._used))
        used = offsets.pop()
        if used > self.capacity:
            raise ContainerFullError(
                f"container {self.container_id} has {self.free} bytes free, "
                f"batch needs {used - self._used}"
            )
        parts: Sequence[bytes]
        if set(map(type, payloads)) == {bytes}:
            parts = cast(Sequence[bytes], payloads)
        else:
            parts = list(map(_stored_payload, payloads, lengths))
        position = len(self._fingerprints)
        self._fingerprints.extend(fingerprints)
        self._offsets.extend(offsets)
        self._lengths.extend(lengths)
        self._parts.extend(parts)
        self._index_of.update(zip(fingerprints, range(position, position + len(offsets))))
        self._used = used

    def seal(self) -> None:
        """Mark the container immutable (it is now a candidate for prefetching only)."""
        self.sealed = True

    def evict_payload(
        self,
        loader: Callable[["Container"], LoadedSection],
        stored: Optional[StoredForm] = None,
    ) -> LoadedSection:
        """Drop the in-RAM data section, reloading through ``loader`` on reads,
        and return the per-chunk payloads dropped (never mutated again).

        Only sealed (immutable) containers may be evicted, once; the metadata
        section stays resident so fingerprint prefetching needs no payload I/O.
        The loader returns the data section as per-chunk payloads (a
        :data:`LoadedSection`).
        """
        parts = self._parts
        if not self.sealed or parts is None:
            # A lifecycle violation, not a capacity condition: callers
            # handling ContainerFullError as "no room" must not catch this.
            raise StorageError(
                f"container {self.container_id} must be sealed and resident "
                "before its payload can be evicted"
            )
        self._loader = loader
        self._stored = stored
        self._parts = None
        return parts

    def payload_bytes(self) -> bytes:
        """The whole data section in its contiguous on-disk layout (loading it
        back if evicted)."""
        # Read _parts once: a concurrent seal+evict may null it between a
        # check and a use, and the loader path below handles that correctly.
        parts = self._parts
        return b"".join(self.load_section() if parts is None else parts)

    def load_section(self) -> LoadedSection:
        """An evicted container's data section, as its backend loader serves
        it (one loader call)."""
        if self._loader is None:
            raise ContainerNotFoundError(
                f"container {self.container_id} payload was evicted with no loader"
            )
        return self._loader(self)

    def split_section(self, section: "bytes | mmap.mmap") -> List[bytes]:
        """``section`` (this container's contiguous data section) cut into
        per-chunk payloads aligned with the metadata section."""
        offsets = self._offsets
        ends = map(add, offsets, self._lengths)
        return list(map(section.__getitem__, map(slice, offsets, ends)))

    def contains(self, fingerprint: bytes) -> bool:
        return fingerprint in self._index_of

    def read_chunks(self, fingerprints: List[bytes]) -> List[Optional[bytes]]:
        """Payloads aligned with ``fingerprints`` (``None`` where this
        container does not hold one): the container-run read of restore.

        A restore asks for runs of chunks in the order they were appended, so
        the run is matched with one index probe and one list compare (by
        identity, element by element, for the fingerprint objects recipes
        share with the container) and served as one slice of the per-chunk
        parts -- resident, or split by the backend and loaded through it
        once.  A run that does not match -- a repeat, a reordering, a chunk
        missing or skipped -- is resolved chunk by chunk instead.
        """
        count = len(fingerprints)
        start = self._index_of.get(fingerprints[0]) if count else None
        if start is not None and self._fingerprints[start:start + count] == fingerprints:
            parts = self._parts
            if parts is None:
                parts = self.load_section()
            run = parts[start:start + count]
            if len(run) == count:  # else an append is still publishing the run's tail
                return run
        positions = list(map(self._index_of.get, fingerprints))
        parts = self._parts
        if parts is None:
            if positions.count(None) == count:
                return [None] * count
            parts = self.load_section()
        return [None if p is None else parts[p] for p in positions]

    def metadata_section(self) -> List[ContainerMetadataEntry]:
        """The metadata section as rows (built per call), what a prefetch
        reads from disk."""
        return list(map(_new_entry, zip(self._fingerprints, self._offsets, self._lengths)))

    def fingerprints(self) -> List[bytes]:
        """All chunk fingerprints stored in this container, in append order."""
        return list(self._fingerprints)

K = TypeVar("K", bound=Hashable)
R = TypeVar("R")


def read_in_runs(
    keys: Sequence[K], columns: Sequence[List[Any]], read: Callable[..., List[R]]
) -> List[R]:
    """``read(key, *columns of key)`` once per distinct key, in order of first
    appearance, with every run of that key concatenated in each column (the
    caller passes columns aligned with ``keys``); the results come back
    aligned with ``keys`` (``read`` returns one per row it was given).

    The restore path's one grouping: a window of recipe columns is keyed by
    node, then inside a node by container, and recipes follow the order
    chunks were stored in, so the keys come in long runs.
    :func:`itertools.groupby` finds them in an identity-fast C loop, and the
    work per key is a few slices per column, not a step per chunk.
    """
    spans: Dict[K, List[slice]] = {}
    start = 0
    for key, run in groupby(keys):
        end = start + len(list(run))
        spans.setdefault(key, []).append(slice(start, end))
        start = end
    if len(spans) == 1:
        return read(keys[0], *columns)
    results: List[Optional[R]] = [None] * start
    for key, slices in spans.items():
        if len(slices) == 1:
            results[slices[0]] = read(key, *[column[slices[0]] for column in columns])
            continue
        done = 0
        got = read(key, *[
            list(chain.from_iterable(map(column.__getitem__, slices))) for column in columns
        ])
        for span in slices:
            size = span.stop - span.start
            results[span] = got[done:done + size]
            done += size
    return cast(List[R], results)
