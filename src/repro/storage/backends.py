"""Pluggable container storage backends.

The :class:`~repro.storage.container_store.ContainerStore` decides *when* a
container seals; a :class:`ContainerBackend` decides *where* the sealed data
section lives:

* :class:`InMemoryBackend` (default) keeps every payload resident, matching
  the paper's RAM-file-system evaluation setup.
* :class:`FileContainerBackend` writes each sealed container's data section to
  a file under ``storage_dir`` and evicts the payload from RAM.  Metadata
  (fingerprints, offsets, lengths) stays resident, so fingerprint prefetching
  still costs no payload I/O, while reads reload the spill file -- counted as
  container I/O by the store, exactly like every other container read.  With
  this backend the node's total footprint is bounded by the open containers
  plus indexes, not by the stored data.

The file backend optionally compresses each spilled data section (see
:mod:`repro.storage.compression`).  Raw or compressed, a spill file is read
back, decoded and split into per-chunk payloads once per container, so every
later read of it is list slices.

The file backend is also **crash consistent**: every seal appends a
checksummed record to a per-directory ``manifest.jsonl`` journal (see
:mod:`repro.storage.journal`), written strictly *after* the ``.cdata`` file,
so :meth:`FileContainerBackend.recover` can reopen a directory after a hard
kill -- replaying the journal's valid prefix, discarding torn trailing
records, and deleting orphaned or truncated spill files.

Every backend is also one side of the replication seam:
:meth:`ContainerBackend.export_stored` hands out a sealed container as a
:class:`~repro.storage.container.StoredSection` (its data section *as
stored*, the codec, length and CRC recorded at seal time, and the metadata
section) and :meth:`ContainerBackend.adopt_stored` installs one under a new
id.  The file
backend exports by reading the spill file raw and adopts by writing those
bytes verbatim and journaling them, so a mirror costs no codec call on either
side; resident backends exchange the contiguous section under codec
``"none"``.

Backends are selected by registered name through
:func:`build_container_backend`, via ``NodeConfig.container_backend`` /
``SigmaDedupe(container_backend=..., storage_dir=...)`` or the
``REPRO_CONTAINER_BACKEND`` environment variable (used by the CI leg that runs
the whole test suite on the spill-to-disk backend); compression is the
``compression=`` knob on the same paths, or ``REPRO_CONTAINER_COMPRESSION``.
"""

from __future__ import annotations

import os
import tempfile
import zlib
from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from types import TracebackType
from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple, Type

from repro.analysis.runtime import GuardLock, guarded_lock
from repro.errors import (
    CompressionError,
    ContainerNotFoundError,
    RecoveryError,
    SimulatedCrashError,
    StorageError,
)
from repro.storage.compression import NullCodec, build_codec, resolve_compression
from repro.storage.container import (
    Container,
    ContainerMetadataEntry,
    LoadedSection,
    SectionBuffer,
    StoredForm,
    StoredSection,
)
from repro.storage.journal import (
    JOURNAL_VERSION,
    MANIFEST_NAME,
    ManifestJournal,
    encode_record,
)

ENV_CONTAINER_BACKEND = "REPRO_CONTAINER_BACKEND"
"""Environment variable naming the default container backend for nodes."""

DEFAULT_DECOMPRESSED_CACHE_BYTES = 32 * 1024 * 1024
"""Default budget for the file backend's LRU of split data sections (8
default-capacity containers): fragmented restores revisit the same container
across many read windows, and a section costs a file read, a decode and a
split to rebuild.  Seals under a codec admit their raw section too, which the
container's first read splits in place."""


class SpillFaultHook(Protocol):
    """What a fault-injection plan exposes to the file backend.

    Every hook site in the backend is behind an ``if hook is not None`` guard,
    so an uninstrumented backend pays one attribute read and one ``is``
    comparison per event -- nothing else.  See :mod:`repro.faults`.
    """

    def on_spill(
        self,
        backend: "FileContainerBackend",
        container: Container,
        blob: SectionBuffer,
    ) -> None:
        """Called before the spill file write (a seal's, or a replica's
        verbatim adoption); may write a partial file and raise
        :class:`~repro.errors.SimulatedCrashError`."""

    def journal_tear(
        self, backend: "FileContainerBackend", encoded: bytes
    ) -> Optional[int]:
        """Called before the journal append with the encoded record.  May
        raise (kill between data write and journal write), or return a byte
        count: the backend then appends only that prefix and raises -- a torn
        journal line, exactly as a kill mid-``write`` leaves one."""

    def on_spill_read(
        self, backend: "FileContainerBackend", container: Container
    ) -> None:
        """Called before a spill data-section load; may raise
        :class:`~repro.errors.InjectedReadError`."""


class ContainerBackend(ABC):
    """Where sealed containers' data sections live."""

    name: str = "base"

    @abstractmethod
    def on_seal(self, container: Container) -> None:
        """Called by the store right after ``container`` seals (one container
        write has already been accounted); may persist and evict the payload."""

    def export_stored(self, container: Container) -> StoredSection:
        """A sealed container of this backend in its stored form.

        The resident form: the contiguous data section under codec
        ``"none"``, with its CRC taken here."""
        blob = container.payload_bytes()
        return StoredSection(
            capacity=container.capacity,
            stream_id=container.stream_id,
            stored=StoredForm(NullCodec.name, len(blob), zlib.crc32(blob)),
            entries=container.metadata_section(),
            blob=blob,
        )

    def adopt_stored(self, container_id: int, section: StoredSection) -> Container:
        """Install ``section`` as sealed container ``container_id`` and return
        it; a section whose bytes fail their CRC is refused with a
        :class:`~repro.errors.StorageError`.

        The resident form: a clone holding per-chunk payload parts (a section
        stored under a codec is decompressed once -- a memory-backed holder
        has nowhere to keep it compressed)."""
        blob = section.verified_blob(f"container {container_id}")
        codec = build_codec(section.stored.codec)
        entries = list(section.entries)
        if codec is not None:
            blob = codec.decompress(blob, sum(entry.length for entry in entries))
        return Container.from_recovered(
            container_id=container_id,
            capacity=section.capacity,
            stream_id=section.stream_id,
            entries=entries,
            parts=[
                bytes(blob[entry.offset:entry.offset + entry.length])
                for entry in entries
            ],
        )

    def close(self) -> None:
        """Release backend resources (temporary directories, open files)."""

    def __enter__(self) -> "ContainerBackend":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()


class InMemoryBackend(ContainerBackend):
    """Keep every container payload resident in RAM (the seed behavior).

    ``storage_dir`` and ``compression`` are accepted (and ignored) so every
    registered backend shares one construction signature and callers can
    thread the knobs unconditionally.
    """

    name = "memory"

    def __init__(
        self,
        storage_dir: "str | Path | None" = None,
        compression: Optional[str] = None,
    ):
        pass

    def on_seal(self, container: Container) -> None:
        pass


@dataclass
class SpillRecovery:
    """What :meth:`FileContainerBackend.replay_journal` reconstructed.

    ``containers`` are sealed, payload-evicted containers rebuilt from the
    journal's valid record prefix whose spill files verified intact.
    ``records_discarded`` counts journal lines dropped as torn or corrupt;
    ``records_dropped`` counts *valid* records whose data file was missing,
    truncated, or failed its CRC (possible only for the final acknowledged
    seals before a kill, or real disk damage); ``orphans_removed`` names the
    spill files deleted because no surviving record references them.
    """

    containers: List[Container] = field(default_factory=list)
    records_discarded: int = 0
    records_dropped: int = 0
    orphans_removed: List[str] = field(default_factory=list)

    @property
    def recovered_bytes(self) -> int:
        """Raw data-section bytes across all recovered containers."""
        return sum(container.used for container in self.containers)

    @property
    def recovered_chunks(self) -> int:
        return sum(container.chunk_count for container in self.containers)


class FileContainerBackend(ContainerBackend):
    """Spill sealed containers' data sections to files and evict them from RAM.

    Parameters
    ----------
    storage_dir:
        Directory receiving one ``container-<id>.cdata`` file per sealed
        container plus the ``manifest.jsonl`` journal.  When omitted, a
        private temporary directory is created and removed when the backend
        is garbage-collected or closed.
    compression:
        Registered codec name (``"none"``, ``"zlib"``, ``"zstd"``, ``"auto"``)
        applied to every spilled data section.  ``None`` defers to the
        ``REPRO_CONTAINER_COMPRESSION`` environment variable, falling back to
        ``"none"`` -- raw spill files.
    decompressed_cache_bytes:
        Budget for the LRU of split data sections: a container's spill file
        is read, decoded and split once into per-chunk ``bytes`` and the list
        cached, so a fragmented restore that revisits the container across
        many read windows pays the read, the codec and the copy once, not
        once per window: every read is list slices.  Under a codec the LRU
        is **write-through**: ``on_seal`` admits the raw section it has just
        compressed (by reference, within the same budget), so a restore that
        follows an ingest reads the most recently sealed containers without
        running the codec at all; the first read splits that section.  A
        section is admitted only after its length checks out, so a damaged
        spill file fails every read (and so fails over), not just the first.
    fsync:
        Force every spill file and journal record to stable storage before
        the seal returns.  Off by default: the write ordering (data file
        first, journal record second) already survives a process kill -- the
        page cache outlives the process -- and ``fsync`` per seal is what
        power-loss durability costs, not what the crash tests need.

    Loads are serialized by an internal lock.  A split list is never
    mutated, and eviction or ``close()`` only drops the backend's references
    to it, so restores read it outside any lock.
    """

    name = "file"

    def __init__(
        self,
        storage_dir: "str | Path | None" = None,
        compression: Optional[str] = None,
        decompressed_cache_bytes: int = DEFAULT_DECOMPRESSED_CACHE_BYTES,
        fsync: bool = False,
    ):
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        if storage_dir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-containers-")
            storage_dir = self._tmpdir.name
        self.storage_dir = Path(storage_dir)
        self.storage_dir.mkdir(parents=True, exist_ok=True)
        self.compression = resolve_compression(compression)
        self.fsync = fsync
        self._codec = build_codec(self.compression)
        self.journal = ManifestJournal(self.storage_dir / MANIFEST_NAME)
        self.last_recovery: Optional[SpillRecovery] = None
        self._fault_hook: Optional[SpillFaultHook] = None
        self._closed = False
        self.spilled_containers = 0
        self.spilled_bytes = 0
        """Raw data-section bytes handed to the backend at seal time."""
        self.spilled_bytes_stored = 0
        """Bytes actually written to spill files (== ``spilled_bytes`` when
        ``compression == "none"``, smaller when a codec is active) -- the
        ``spill_bytes_stored`` metric the ingest bench records."""
        self.spill_loads = 0
        """Spill files actually read back from disk (LRU hits do not count)
        -- the metric the batched restore path minimises."""
        self._io_lock: GuardLock = guarded_lock("FileContainerBackend._io_lock")
        # LRU of (raw bytes, section), filled by loads and by codec seals:
        # byte-bounded so resident split payload never exceeds the
        # configured budget.  A section is a seal's joined bytes until its
        # first read splits it.
        self._decompressed: "OrderedDict[int, Tuple[int, bytes | LoadedSection]]" = (  # guarded-by: _io_lock
            OrderedDict()
        )
        self._decompressed_bytes = 0  # guarded-by: _io_lock
        self._decompressed_capacity = decompressed_cache_bytes

    def install_fault_hook(self, hook: Optional[SpillFaultHook]) -> None:
        """Arm (or with ``None`` disarm) deterministic fault injection."""
        self._fault_hook = hook

    def spill_path(self, container_id: int) -> Path:
        """The spill file holding ``container_id``'s data section."""
        return self.storage_dir / f"container-{container_id:08d}.cdata"

    # ------------------------------------------------------------------ #
    # seal path (data first, journal second)
    # ------------------------------------------------------------------ #

    def on_seal(self, container: Container) -> None:
        if self._closed:
            raise StorageError("file backend is closed")
        section = container.payload_bytes()
        blob = section if self._codec is None else self._codec.compress(section)
        stored = StoredForm(self.compression, len(blob), zlib.crc32(blob))
        self._persist(container, blob, stored)
        container.evict_payload(self._load, stored)
        if self._codec is not None:
            # Write-through: a container is most likely to be restored soon
            # after it was written, and its raw section is in hand right now.
            with self._io_lock:
                self._remember_decompressed(container.container_id, section, len(section))

    def _persist(
        self, container: Container, blob: SectionBuffer, stored: StoredForm
    ) -> None:
        """Put one stored data section down: spill file first, journal record
        second, with the fault hook consulted before each."""
        hook = self._fault_hook
        if hook is not None:
            # May write a partial spill file and raise SimulatedCrashError.
            hook.on_spill(self, container, blob)
        self._write_spill_file(self.spill_path(container.container_id), blob)
        self._journal_seal(container, stored)
        self.spilled_containers += 1
        self.spilled_bytes += container.used
        self.spilled_bytes_stored += stored.length

    def _write_spill_file(self, path: Path, blob: SectionBuffer) -> None:
        with open(path, "wb") as handle:
            handle.write(blob)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())

    def _journal_seal(self, container: Container, stored: StoredForm) -> None:
        """Append the seal's manifest record (after its data file is down)."""
        record: Dict[str, Any] = {
            "v": JOURNAL_VERSION,
            "container_id": container.container_id,
            "stream_id": container.stream_id,
            "capacity": container.capacity,
            "used": container.used,
            "codec": stored.codec,
            "stored_length": stored.length,
            "stored_crc": stored.crc,
            "chunks": [
                [entry.fingerprint.hex(), entry.offset, entry.length]
                for entry in container.metadata_section()
            ],
        }
        hook = self._fault_hook
        if hook is None:
            self.journal.append(record, fsync=self.fsync)
            return
        encoded = encode_record(record)
        torn = hook.journal_tear(self, encoded)
        if torn is not None:
            self.journal.append_raw(encoded[:torn], fsync=self.fsync)
            raise SimulatedCrashError(
                f"injected torn journal write for container "
                f"{container.container_id} ({torn}/{len(encoded)} bytes)"
            )
        self.journal.append_raw(encoded, fsync=self.fsync)

    # ------------------------------------------------------------------ #
    # replication seam (stored sections move verbatim, no codec)
    # ------------------------------------------------------------------ #

    def export_stored(self, container: Container) -> StoredSection:
        """The container's spill file, read raw, with the CRC its seal
        recorded -- not a load: no codec, no ``spill_loads``, no read-fault
        hook, and the LRU is left alone.
        Damage to the file since the seal is for the adopter's CRC check to
        find, so the CRC is never recomputed here."""
        if self._closed:
            raise StorageError("file backend is closed")
        stored = container.stored_form
        if stored is None:
            raise StorageError(
                f"container {container.container_id} was not spilled through "
                f"a file backend: it has no stored form to export"
            )
        path = self.spill_path(container.container_id)
        try:
            blob = path.read_bytes()
        except OSError as exc:
            raise ContainerNotFoundError(
                f"spill file for container {container.container_id} is missing "
                f"or unreadable: {path}"
            ) from exc
        return StoredSection(
            capacity=container.capacity,
            stream_id=container.stream_id,
            stored=stored,
            entries=container.metadata_section(),
            blob=blob,
        )

    def adopt_stored(self, container_id: int, section: StoredSection) -> Container:
        """Write ``section.blob`` verbatim as ``container_id``'s spill file and
        journal it, exactly as a seal would (same ordering, same fault-hook
        sites), and return the evicted container that reads it back.
        Re-adopting an id overwrites file and record in place."""
        if self._closed:
            raise StorageError("file backend is closed")
        if section.stored.codec != self.compression:
            raise StorageError(
                f"stored section for container {container_id} uses codec "
                f"{section.stored.codec!r} but this backend is configured for "
                f"{self.compression!r}"
            )
        blob = section.verified_blob(f"container {container_id}")
        container = Container.from_recovered(
            container_id=container_id,
            capacity=section.capacity,
            stream_id=section.stream_id,
            entries=section.entries,
            loader=self._load,
            stored=section.stored,
        )
        self._persist(container, blob, section.stored)
        return container

    # ------------------------------------------------------------------ #
    # crash recovery
    # ------------------------------------------------------------------ #

    @classmethod
    def recover(
        cls,
        storage_dir: "str | Path",
        compression: Optional[str] = None,
        decompressed_cache_bytes: int = DEFAULT_DECOMPRESSED_CACHE_BYTES,
        verify_data: bool = True,
    ) -> "FileContainerBackend":
        """Reopen a spill directory after a hard kill.

        With ``compression=None`` the codec is sniffed from the journal's
        first record (falling back to the usual environment/default
        resolution for journals that are empty or gone).  The replayed
        :class:`SpillRecovery` is available as ``backend.last_recovery``.
        """
        if compression is None:
            first = ManifestJournal(Path(storage_dir) / MANIFEST_NAME).first_record()
            if first is not None and isinstance(first.get("codec"), str):
                compression = str(first["codec"])
        backend = cls(
            storage_dir=storage_dir,
            compression=compression,
            decompressed_cache_bytes=decompressed_cache_bytes,
        )
        backend.replay_journal(verify_data=verify_data)
        return backend

    def replay_journal(self, verify_data: bool = True) -> SpillRecovery:
        """Replay the manifest journal and garbage-collect the directory.

        Accepts the journal's longest valid record prefix (later duplicates
        of a container id win -- replica re-mirroring overwrites in place),
        verifies each referenced spill file (existence, exact stored length,
        and -- with ``verify_data`` -- the recorded CRC), deletes every
        ``.cdata`` file no surviving record references, truncates the journal
        back to its valid prefix, and resets the spill counters to the
        recovered reality.  Returns (and stores as ``last_recovery``) the
        :class:`SpillRecovery`.
        """
        if self._closed:
            raise RecoveryError("cannot replay the journal of a closed backend")
        if self.spilled_containers:
            raise RecoveryError(
                "replay_journal must run before any container seals through "
                "this backend instance"
            )
        replay = self.journal.replay()
        recovery = SpillRecovery(records_discarded=replay.discarded_lines)
        by_id: Dict[int, Dict[str, Any]] = {}
        for record in replay.records:
            codec = str(record["codec"])
            if codec != self.compression:
                raise RecoveryError(
                    f"journal record for container {record['container_id']} "
                    f"was spilled with codec {codec!r} but this backend is "
                    f"configured for {self.compression!r}"
                )
            by_id[int(record["container_id"])] = record
        stored_total = 0
        for container_id in sorted(by_id):
            record = by_id[container_id]
            stored_length = int(record["stored_length"])
            path = self.spill_path(container_id)
            if not self._spill_file_intact(path, stored_length,
                                           int(record["stored_crc"]), verify_data):
                recovery.records_dropped += 1
                path.unlink(missing_ok=True)
                continue
            entries = [
                ContainerMetadataEntry(
                    fingerprint=bytes.fromhex(str(fingerprint)),
                    offset=int(offset),
                    length=int(length),
                )
                for fingerprint, offset, length in record["chunks"]
            ]
            recovery.containers.append(
                Container.from_recovered(
                    container_id=container_id,
                    capacity=int(record["capacity"]),
                    stream_id=int(record["stream_id"]),
                    entries=entries,
                    loader=self._load,
                    stored=StoredForm(
                        self.compression, stored_length, int(record["stored_crc"])
                    ),
                )
            )
            stored_total += stored_length
        recovered_ids = {container.container_id for container in recovery.containers}
        for path in sorted(self.storage_dir.glob("container-*.cdata")):
            file_id = self._spill_file_id(path)
            if file_id is None or file_id not in recovered_ids:
                recovery.orphans_removed.append(path.name)
                path.unlink(missing_ok=True)
        if recovery.records_dropped:
            # Dropped records reference data files that no longer exist:
            # truncation would leave their lines to be re-dropped on every
            # later replay, so rewrite the journal to the surviving set.
            self.journal.rewrite(
                [by_id[container_id] for container_id in sorted(recovered_ids)],
                fsync=self.fsync,
            )
        else:
            self.journal.truncate(replay.valid_bytes)
        self.spilled_containers = len(recovery.containers)
        self.spilled_bytes = recovery.recovered_bytes
        self.spilled_bytes_stored = stored_total
        self.last_recovery = recovery
        return recovery

    @staticmethod
    def _spill_file_intact(
        path: Path, stored_length: int, stored_crc: int, verify_data: bool
    ) -> bool:
        try:
            if path.stat().st_size != stored_length:
                return False
            if verify_data:
                return zlib.crc32(path.read_bytes()) == stored_crc
            return True
        except OSError:
            return False

    @staticmethod
    def _spill_file_id(path: Path) -> Optional[int]:
        name = path.name
        stem = name[len("container-"):-len(".cdata")]
        try:
            return int(stem)
        except ValueError:
            return None

    # ------------------------------------------------------------------ #
    # read path
    # ------------------------------------------------------------------ #

    def _load(self, container: Container) -> LoadedSection:
        if self._closed:
            raise StorageError("file backend is closed")
        hook = self._fault_hook
        if hook is not None:
            # May raise InjectedReadError (probabilistic read fault).
            hook.on_spill_read(self, container)
        with self._io_lock:
            return self._load_locked(container)

    def _load_locked(self, container: Container) -> LoadedSection:  # holds-lock: _io_lock
        container_id = container.container_id
        held = self._decompressed.get(container_id)
        if held is None:
            section = self._read_spill_file(container)
            self.spill_loads += 1
        else:
            self._decompressed.move_to_end(container_id)
            cached = held[1]
            if isinstance(cached, list):
                return cached
            # A seal's write-through bytes: split once, so every later read
            # of this container is list slices, not copies.
            section = container.split_section(cached)
        self._remember_decompressed(container_id, section, container.used)
        return section

    def _read_spill_file(self, container: Container) -> LoadedSection:  # holds-lock: _io_lock
        """The spill file's data section, decoded, checked against the
        container's length and split into per-chunk payloads.  The file is
        mapped only as the input of the decode and the split: the map is
        closed before this returns."""
        import mmap

        path = self.spill_path(container.container_id)
        stored: "bytes | mmap.mmap" = b""
        try:
            with open(path, "rb") as handle:
                try:
                    stored = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
                except ValueError:
                    pass  # a zero-length file cannot be mapped: an empty section
        except OSError as exc:
            raise ContainerNotFoundError(
                f"spill file for container {container.container_id} is missing "
                f"or unreadable: {path}"
            ) from exc
        try:
            payload = stored
            if self._codec is not None:
                try:
                    payload = self._codec.decompress(stored, container.used)
                except CompressionError as exc:
                    raise ContainerNotFoundError(
                        f"spill file for container {container.container_id} cannot "
                        f"be decompressed ({self.compression}): {path}"
                    ) from exc
            if len(payload) != container.used:
                raise ContainerNotFoundError(
                    f"spill file for container {container.container_id} is truncated: "
                    f"expected {container.used} bytes, found {len(payload)} ({path})"
                )
            return container.split_section(payload)
        finally:
            if isinstance(stored, mmap.mmap):
                stored.close()

    def _remember_decompressed(
        self, container_id: int, section: "bytes | LoadedSection", size: int
    ) -> None:  # holds-lock: _io_lock
        """LRU-cache a data section of ``size`` raw bytes, joined or split,
        within the byte budget."""
        if size > self._decompressed_capacity:
            return
        previous = self._decompressed.pop(container_id, None)
        if previous is not None:
            self._decompressed_bytes -= previous[0]
        self._decompressed[container_id] = (size, section)
        self._decompressed_bytes += size
        while self._decompressed_bytes > self._decompressed_capacity:
            self._decompressed_bytes -= self._decompressed.popitem(last=False)[1][0]

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Release the LRU and any private temporary directory.  Idempotent;
        loads after close raise :class:`~repro.errors.StorageError`."""
        if self._closed:
            return
        self._closed = True
        with self._io_lock:
            self._decompressed.clear()
            self._decompressed_bytes = 0
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    def __enter__(self) -> "FileContainerBackend":
        return self


CONTAINER_BACKENDS: Dict[str, Callable[..., ContainerBackend]] = {
    InMemoryBackend.name: InMemoryBackend,
    FileContainerBackend.name: FileContainerBackend,
}
"""Registry of container backend constructors by name."""


def container_backend_factory(name: str) -> Callable[..., ContainerBackend]:
    """The registered factory for backend ``name``; an unregistered name
    raises :class:`~repro.errors.StorageError`."""
    try:
        return CONTAINER_BACKENDS[name]
    except KeyError:
        raise StorageError(
            f"unknown container backend {name!r}; expected one of "
            f"{sorted(CONTAINER_BACKENDS)}"
        ) from None


def build_container_backend(
    name: str,
    storage_dir: "str | Path | None" = None,
    compression: Optional[str] = None,
) -> ContainerBackend:
    """Instantiate a registered container backend by name.

    Every registered factory is called as ``factory(storage_dir=...,
    compression=...)``; backends that need no directory or codec (the
    in-memory one, or third-party registrations) simply ignore them.
    """
    factory = container_backend_factory(name)
    return factory(storage_dir=storage_dir, compression=compression)
