"""Restore path: rebuild files from their recipes.

Restore is the inverse of backup: for every chunk location of a file recipe
the manager reads the chunk payload from the owning node's container store and
concatenates the payloads in recipe order.

Mirroring the write side's batched data plane, reads are batched: recipe
locations are gathered into windows, grouped by (node, container) and issued
as bulk :meth:`~repro.node.dedupe_node.DedupeNode.read_chunks` calls, so each
container -- and, with a spill backend, each container's data-section file --
is read once per window instead of once per chunk.  The chunk-at-a-time
execution is the reference this path is tested against; it lives in
``tests/oracles.py``, beside the node's per-chunk plane.

Every chunk is verified against its recipe before it is counted or yielded: a
payload whose length disagrees with the recipe raises
:class:`~repro.errors.RestoreIntegrityError` (a chunk that cannot be read at
all still raises :class:`~repro.errors.ChunkNotFoundError`), and
``chunks_read`` / ``bytes_restored`` only ever account verified chunks.
"""

from __future__ import annotations

from operator import itemgetter, length_hint
from typing import Dict, Iterator, Tuple

from repro.cluster.cluster import DedupeCluster
from repro.cluster.director import Director
from repro.cluster.recipe import ChunkLocation, FileRecipe
from repro.errors import RecipeError, RestoreIntegrityError, ValidationError
from repro.storage.container import read_in_runs

_REQUEST = itemgetter(0, 3)
"""A :class:`ChunkLocation`'s ``(fingerprint, container_id)`` read request."""
_LENGTH = itemgetter(1)
_NODE = itemgetter(2)

DEFAULT_RESTORE_BATCH_CHUNKS = 1024
"""Recipe locations gathered per batched-read window (~4 MB of 4 KB chunks):
large enough to fold a window's reads into one read per distinct container,
small enough that streaming restores stay bounded by the window."""


class RestoreManager:
    """Restores files of a backup session from a cluster.

    Parameters
    ----------
    cluster / director:
        Where chunk payloads live and where file recipes are tracked.
    batch_chunks:
        Window size, in recipe locations: each window is grouped by
        (node, container) and read in bulk (also the memory bound of
        :meth:`iter_restore_file`).
    """

    def __init__(
        self,
        cluster: DedupeCluster,
        director: Director,
        batch_chunks: int = DEFAULT_RESTORE_BATCH_CHUNKS,
    ):
        if batch_chunks < 1:
            raise ValidationError("batch_chunks must be positive")
        self.cluster = cluster
        self.director = director
        self.batch_chunks = batch_chunks
        self.chunks_read = 0
        self.bytes_restored = 0

    # ------------------------------------------------------------------ #
    # file restore
    # ------------------------------------------------------------------ #

    def restore_file(self, session_id: str, path: str) -> bytes:
        """Reassemble one file from its recipe.

        Raises
        ------
        RecipeError
            If the file has no recipe in the session.
        ChunkNotFoundError
            If a chunk referenced by the recipe cannot be read back.
        RestoreIntegrityError
            If a chunk reads back with a length that disagrees with the
            recipe (the chunk is not counted as restored).
        """
        return b"".join(self.iter_restore_file(session_id, path))

    def iter_restore_file(self, session_id: str, path: str) -> Iterator[bytes]:
        """Stream one file's payload in recipe order, chunk by chunk.

        The whole file is never materialised: one window of chunk payloads
        is held at a time.  Chunks are verified against the recipe a window
        at a time before they are yielded, so a consumer that stops early
        has read only verified data, and ``chunks_read`` /
        ``bytes_restored`` count exactly the chunks it received (the count
        of a verified window lands when the window is used up or the
        iterator is closed).  Raises as :meth:`restore_file`.
        """
        recipe = self.director.get_recipe(session_id, path)
        recipe.validate()
        return self._iter_batched(recipe)

    def _iter_batched(self, recipe: FileRecipe) -> Iterator[bytes]:
        """Each window of recipe locations becomes columns, read with one
        bulk call per node over that node's runs (each node groups its
        requests by container run), and is verified column-wise: a window
        whose payload lengths all match the recipe is yielded whole and
        counted once it is used up or the iterator is closed, up to the
        chunk the consumer stopped at; one that does not is replayed chunk by
        chunk, so the chunks before the first mismatch are yielded and
        counted exactly as a chunk-at-a-time read would."""
        chunks = recipe.chunks
        window_size = self.batch_chunks
        for start in range(0, len(chunks), window_size):
            window = chunks[start:start + window_size]
            payloads = read_in_runs(
                list(map(_NODE, window)), list(map(_REQUEST, window)), self.cluster.read_chunks
            )
            lengths = list(map(_LENGTH, window))
            if list(map(len, payloads)) == lengths:
                unread = iter(payloads)
                try:
                    yield from unread
                finally:  # also on close(): count only what was yielded
                    taken = len(lengths) - length_hint(unread)
                    self.chunks_read += taken
                    self.bytes_restored += sum(lengths[:taken])
                continue
            for location, data in zip(window, payloads):
                self._verify(recipe.path, location, data)  # raises at the first mismatch
                yield data

    def _verify(self, path: str, location: ChunkLocation, data: bytes) -> None:
        """Check one payload against its recipe entry; count it only if good."""
        if len(data) != location.length:
            raise RestoreIntegrityError(
                f"chunk {location.fingerprint.hex()} of {path!r} restored with "
                f"{len(data)} bytes, recipe says {location.length}"
            )
        self.chunks_read += 1
        self.bytes_restored += location.length

    # ------------------------------------------------------------------ #
    # session restore
    # ------------------------------------------------------------------ #

    def restore_session(self, session_id: str) -> Iterator[Tuple[str, bytes]]:
        """Yield ``(path, data)`` for every file of a backup session."""
        for path in self.director.files_in_session(session_id):
            yield path, self.restore_file(session_id, path)

    def verify_session(self, session_id: str, originals: Dict[str, bytes]) -> bool:
        """Restore every file and compare against the provided originals.

        Returns ``True`` when every file matches and the session holds every
        path of ``originals`` (a lost file is a mismatch); raises
        ``RecipeError`` when a file of the session is missing from
        ``originals``.
        """
        restored = set()
        for path, data in self.restore_session(session_id):
            if path not in originals:
                raise RecipeError(f"no original provided for restored file {path!r}")
            if originals[path] != data:
                return False
            restored.add(path)
        return restored == originals.keys()
