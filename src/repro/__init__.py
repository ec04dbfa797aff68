"""repro: a from-scratch reproduction of Sigma-Dedupe (MIDDLEWARE 2012).

Sigma-Dedupe is a scalable inline *cluster* deduplication framework for Big
Data protection.  It routes backup data at super-chunk granularity using a
handprint (the k smallest chunk fingerprints) to a handful of candidate nodes,
picks the candidate with the highest storage-usage-discounted resemblance, and
inside each node combines a similarity index with container-based
locality-preserved caching to avoid the on-disk chunk-index bottleneck.

Quick start::

    from repro import SigmaDedupe

    framework = SigmaDedupe(num_nodes=4, routing="sigma")
    report = framework.backup([("doc.txt", b"hello world" * 1000)])
    data = framework.restore(report.session_id, "doc.txt")

Package layout:

* :mod:`repro.chunking` -- static, CDC and TTTD chunkers.
* :mod:`repro.fingerprint` -- chunk fingerprints, handprints, resemblance.
* :mod:`repro.storage` -- containers, similarity index, fingerprint cache.
* :mod:`repro.node` -- a single deduplication server.
* :mod:`repro.routing` -- Sigma, stateless, stateful, Extreme Binning, chunk-DHT.
* :mod:`repro.cluster` -- backup clients, server cluster, director, restore.
* :mod:`repro.workloads` -- synthetic backup workload generators.
* :mod:`repro.simulation` -- trace-driven cluster deduplication simulator.
* :mod:`repro.metrics` -- DR / DE / NEDR / EDR and skew metrics.
* :mod:`repro.parallel` -- multi-stream parallel deduplication pipeline.
"""

from repro.core.framework import BackupReport, SigmaDedupe
from repro.core.partitioner import PartitionerConfig, StreamPartitioner
from repro.core.superchunk import SuperChunk
from repro.fingerprint.handprint import Handprint, compute_handprint
from repro.node.dedupe_node import DedupeNode, NodeConfig
from repro.cluster.cluster import DedupeCluster
from repro.cluster.director import Director
from repro.routing import (
    ALL_SCHEMES,
    ChunkDHTRouting,
    ExtremeBinningRouting,
    SigmaRouting,
    StatefulRouting,
    StatelessRouting,
)

__version__ = "1.0.0"

__all__ = [
    "SigmaDedupe",
    "BackupReport",
    "PartitionerConfig",
    "StreamPartitioner",
    "SuperChunk",
    "Handprint",
    "compute_handprint",
    "DedupeNode",
    "NodeConfig",
    "DedupeCluster",
    "Director",
    "SigmaRouting",
    "StatelessRouting",
    "StatefulRouting",
    "ExtremeBinningRouting",
    "ChunkDHTRouting",
    "ALL_SCHEMES",
    "__version__",
]
