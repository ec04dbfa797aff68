"""Multi-stream parallel deduplication (intra-node, Section 4.3).

The paper develops parallel deduplication on multiple data streams per node
("we assign a deduplication thread for each data stream") and measures how
chunking, fingerprinting and similarity-index lookup throughput scale with the
number of streams and locks.  This package provides both halves of that story:

* :class:`~repro.parallel.engine.ParallelIngestEngine` -- the production
  ingest engine: N worker lanes chunk and fingerprint concurrently behind
  bounded queues, re-sequenced in file order for results byte-identical to
  serial ingest (``BackupClient(workers=N)``).
* :mod:`repro.parallel.pipeline` -- the thread-per-stream measurement
  helpers the Figure 4 benchmarks use.
"""

from repro.parallel.engine import (
    ENV_INGEST_WORKERS,
    ParallelIngestEngine,
    resolve_workers,
)
from repro.parallel.pipeline import (
    ThroughputSample,
    measure_chunking_throughput,
    measure_fingerprinting_throughput,
    measure_similarity_index_lookup,
)

__all__ = [
    "ENV_INGEST_WORKERS",
    "ParallelIngestEngine",
    "ThroughputSample",
    "measure_chunking_throughput",
    "measure_fingerprinting_throughput",
    "measure_similarity_index_lookup",
    "resolve_workers",
]
