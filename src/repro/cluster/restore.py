"""Restore path: rebuild files from their recipes.

Restore is the inverse of backup: for every chunk location of a file recipe
the manager reads the chunk payload from the owning node's container store and
concatenates the payloads in recipe order.

Mirroring the write side's batched data plane, reads are batched: a window
is a slice of the recipe's columns, grouped by (node, container) and issued
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

from operator import length_hint
from typing import Iterator, Tuple

from repro.cluster.cluster import DedupeCluster
from repro.cluster.director import Director
from repro.cluster.recipe import FileRecipe
from repro.errors import RecipeError, RestoreIntegrityError, ValidationError
from repro.storage.container import read_in_runs

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
        """Each window is a slice of the recipe's columns, read with one bulk
        call per node over that node's runs (each node groups its chunks by
        container run), and is verified column-wise: a window whose payload
        lengths all match the recipe is yielded whole and counted once it is
        used up or the iterator is closed, up to the chunk the consumer
        stopped at; one that does not is replayed chunk by chunk, so the
        chunks before the first mismatch are yielded and counted exactly as a
        chunk-at-a-time read would."""
        fingerprints, lengths, node_ids, container_ids = recipe.columns
        read = self.cluster.read_columns
        for start in range(0, len(fingerprints), self.batch_chunks):
            window = slice(start, start + self.batch_chunks)
            batch = fingerprints[window]
            payloads = read_in_runs(node_ids[window], (batch, container_ids[window]), read)
            expected = lengths[window]
            if list(map(len, payloads)) == expected:
                unread = iter(payloads)
                try:
                    yield from unread
                finally:  # also on close(): count only what was yielded
                    taken = len(expected) - length_hint(unread)
                    self.chunks_read += taken
                    self.bytes_restored += sum(expected[:taken])
                continue
            if len(payloads) != len(batch):
                raise RestoreIntegrityError(f"{len(payloads)} payloads for {len(batch)} chunks")
            for fingerprint, length, data in zip(batch, expected, payloads):
                if len(data) != length:  # raises at the first mismatch
                    raise RestoreIntegrityError(
                        f"chunk {fingerprint.hex()} of {recipe.path!r} restored with "
                        f"{len(data)} bytes, recipe says {length}"
                    )
                self.chunks_read += 1
                self.bytes_restored += length
                yield data

    # ------------------------------------------------------------------ #
    # session restore
    # ------------------------------------------------------------------ #

    def restore_session(self, session_id: str) -> Iterator[Tuple[str, bytes]]:
        """Yield ``(path, data)`` for every file of a backup session."""
        for path in self.director.files_in_session(session_id):
            yield path, self.restore_file(session_id, path)
