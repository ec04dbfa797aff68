"""Multi-stream parallel deduplication (intra-node, Section 4.3).

The paper develops parallel deduplication on multiple data streams per node
("we assign a deduplication thread for each data stream") and measures how
chunking, fingerprinting and similarity-index lookup throughput scale with the
number of streams and locks.  This package is the production half of that
story: :class:`~repro.parallel.engine.ParallelIngestEngine` runs N worker
lanes that chunk and fingerprint concurrently behind bounded queues,
re-sequenced in file order for results byte-identical to serial ingest
(``BackupClient(workers=N)``).  The thread-per-stream measurements of the
Figure 4 benchmarks live with them, in ``benchmarks/fig4_streams.py``.
"""

from repro.parallel.engine import (
    ENV_INGEST_WORKERS,
    ParallelIngestEngine,
    resolve_workers,
)

__all__ = [
    "ENV_INGEST_WORKERS",
    "ParallelIngestEngine",
    "resolve_workers",
]
