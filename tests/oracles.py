"""Per-chunk reference executions: the specifications the batched planes meet.

The node's intra-node pipeline (paper Section 3.3) and the restore path each
run as one batched plane in ``src/``.  Their chunk-at-a-time executions are
kept here, where the equivalence suites use them:

* :func:`backup_per_chunk` -- one super-chunk through the node one chunk at a
  time: similarity-index prefetch, then a cache + disk-index lookup per chunk,
  then an append per unique chunk.  :class:`PerChunkNode` and
  :func:`per_chunk_plane` swap it in for ``DedupeNode.backup_superchunk``.
* :class:`PerChunkRestore` -- one cluster read per recipe location, verified
  and counted before it is yielded.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator

import pytest

from repro.cluster.cluster import DedupeCluster
from repro.cluster.director import Director
from repro.cluster.recipe import FileRecipe
from repro.core.superchunk import SuperChunk
from repro.errors import RestoreIntegrityError
from repro.node.dedupe_node import DedupeNode, SuperChunkBackupResult


def backup_per_chunk(node: DedupeNode, superchunk: SuperChunk) -> SuperChunkBackupResult:
    """Deduplicate and store one super-chunk at ``node``, one chunk at a time."""
    node._check_available()
    with node._plane_lock:
        stats = node.stats
        stats.superchunks_received += 1
        stats.logical_bytes += superchunk.logical_size

        # Step 1: similarity-index lookup for the handprint, prefetch matched
        # containers' fingerprints into the cache.
        for container_id in node.similarity_index.lookup_handprint(superchunk.handprint):
            node._prefetch_container(container_id)

        unique_chunks = 0
        duplicate_chunks = 0
        unique_bytes = 0
        duplicate_bytes = 0
        chunk_locations: Dict[bytes, int] = {}

        for chunk in superchunk.chunks:
            fingerprint = chunk.fingerprint
            # Intra-super-chunk duplicates resolve to wherever the first copy went.
            if fingerprint in chunk_locations:
                duplicate_chunks += 1
                duplicate_bytes += chunk.length
                continue
            container_id = node._lookup_chunk_locked(fingerprint)
            if container_id is not None:
                duplicate_chunks += 1
                duplicate_bytes += chunk.length
            else:
                container_id = node.container_store.store_chunk(
                    chunk, stream_id=superchunk.stream_id
                )
                node.disk_index.insert(fingerprint, container_id)
                node.fingerprint_cache.add_fingerprint(container_id, fingerprint)
                unique_chunks += 1
                unique_bytes += chunk.length
            chunk_locations[fingerprint] = container_id

        # Step 4: index the super-chunk's handprint.  Each representative
        # fingerprint maps to the container now holding it (or holding the
        # duplicate it matched).
        node.similarity_index.index_handprint(superchunk.handprint, chunk_locations)

        stats.physical_bytes += unique_bytes
        stats.unique_chunks += unique_chunks
        stats.duplicate_chunks += duplicate_chunks
        stats.duplicate_bytes += duplicate_bytes

    return SuperChunkBackupResult(
        node_id=node.node_id,
        unique_chunks=unique_chunks,
        duplicate_chunks=duplicate_chunks,
        unique_bytes=unique_bytes,
        duplicate_bytes=duplicate_bytes,
        chunk_locations=chunk_locations,
    )


class PerChunkNode(DedupeNode):
    """A node whose ``backup_superchunk`` is :func:`backup_per_chunk`."""

    backup_superchunk = backup_per_chunk


@contextmanager
def per_chunk_plane() -> Iterator[None]:
    """Every node backs up through :func:`backup_per_chunk` inside the block
    (for clusters, which build their own nodes)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DedupeNode, "backup_superchunk", backup_per_chunk)
        yield


class PerChunkRestore:
    """Restores files one recipe location at a time.

    Each chunk is read alone through ``cluster.read_chunks`` (so retries and
    replica failover apply as on the batched path), then checked against its
    recipe length before it is counted and yielded: a mismatch raises
    :class:`~repro.errors.RestoreIntegrityError` with exactly the chunks before
    it yielded and counted.
    """

    def __init__(self, cluster: DedupeCluster, director: Director):
        self.cluster = cluster
        self.director = director
        self.chunks_read = 0
        self.bytes_restored = 0

    def restore_file(self, session_id: str, path: str) -> bytes:
        return b"".join(self.iter_restore_file(session_id, path))

    def iter_restore_file(self, session_id: str, path: str) -> Iterator[bytes]:
        recipe = self.director.get_recipe(session_id, path)
        recipe.validate()
        return self._iter(recipe)

    def _iter(self, recipe: FileRecipe) -> Iterator[bytes]:
        for location in recipe.chunks:
            data = self.cluster.read_chunks(
                location.node_id, [(location.fingerprint, location.container_id)]
            )[0]
            if len(data) != location.length:
                raise RestoreIntegrityError(
                    f"chunk {location.fingerprint.hex()} of {recipe.path!r} restored with "
                    f"{len(data)} bytes, recipe says {location.length}"
                )
            self.chunks_read += 1
            self.bytes_restored += location.length
            yield data
