"""Storage substrate of a deduplication server node.

Implements the data structures of Figure 3 of the paper:

* :class:`~repro.storage.container.Container` -- the self-describing on-disk
  unit that preserves locality: a data section of chunks plus a metadata
  section of their fingerprints/offsets/lengths.
* :class:`~repro.storage.container_store.ContainerStore` -- parallel container
  management (allocate / open-per-stream / seal / read), with disk-I/O
  accounting performed at container granularity.
* :class:`~repro.storage.similarity_index.SimilarityIndex` -- the in-RAM
  hash table mapping representative fingerprints (RFP) to container IDs (CID),
  with striped bucket locking for concurrent lookups.
* :class:`~repro.storage.fingerprint_cache.ChunkFingerprintCache` -- the LRU
  cache of per-container fingerprint sets, prefetched a container at a time.
* :class:`~repro.storage.chunk_index.DiskChunkIndex` -- the traditional
  full on-disk chunk index consulted only when the cache misses.
* :mod:`~repro.storage.backends` -- pluggable backends deciding where sealed
  containers' data sections live: resident in RAM (default) or spilled to
  disk files with only metadata kept resident.
* :mod:`~repro.storage.compression` -- the spill-plane codecs (``none`` or
  ``zlib``) the file backend compresses sealed data sections with.
"""

from repro.storage.backends import (
    CONTAINER_BACKENDS,
    ContainerBackend,
    FileContainerBackend,
    InMemoryBackend,
    build_container_backend,
)
from repro.storage.compression import (
    COMPRESSION_CODECS,
    CompressionCodec,
    build_codec,
    codec_status,
    resolve_compression,
)
from repro.storage.container import Container, ContainerMetadataEntry
from repro.storage.container_store import ContainerStore
from repro.storage.chunk_index import DiskChunkIndex
from repro.storage.fingerprint_cache import ChunkFingerprintCache
from repro.storage.similarity_index import SimilarityIndex

__all__ = [
    "COMPRESSION_CODECS",
    "CONTAINER_BACKENDS",
    "CompressionCodec",
    "Container",
    "ContainerBackend",
    "ContainerMetadataEntry",
    "ContainerStore",
    "DiskChunkIndex",
    "ChunkFingerprintCache",
    "FileContainerBackend",
    "InMemoryBackend",
    "SimilarityIndex",
    "build_codec",
    "build_container_backend",
    "codec_status",
    "resolve_compression",
]
