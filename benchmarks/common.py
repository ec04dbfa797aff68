"""Shared infrastructure for the benchmark harness.

Each ``bench_*`` module reproduces one table or figure of the paper.  Every
module:

* builds its workload through :func:`repro.simulation.experiment.standard_workload`
  at the scale selected by the ``REPRO_BENCH_SCALE`` environment variable
  (``tiny`` / ``small`` / ``medium``; default ``small``), so a recorded
  table can be regenerated at the scale it names (README "Benchmarks");
* prints the regenerated rows/series with :func:`repro.metrics.report.format_table`
  and also writes them to ``benchmarks/results/<name>.txt``;
* wraps its key operation in the pytest-benchmark fixture so
  ``pytest benchmarks/bench_*.py --benchmark-only`` both regenerates the data
  and reports the wall-clock cost (the files must be named: their
  ``bench_`` prefix keeps a plain ``pytest benchmarks/`` from collecting
  them).

Scaled-down parameters: the cluster experiments use 1 KB static chunks and
64-256 KB super-chunks so that the number of super-chunks stays much larger
than the cluster size on laptop-scale datasets, preserving the paper's
ratio-of-units-to-nodes rather than its absolute sizes.
"""

from __future__ import annotations

import functools
import os
from pathlib import Path
from typing import Dict, List, Sequence

from repro.chunking.fixed import StaticChunker
from repro.metrics.report import format_table
from repro.simulation.experiment import standard_workload
from repro.workloads.trace import TraceSnapshot, materialize_workload

RESULTS_DIR = Path(__file__).parent / "results"

#: Chunk size used when materialising content workloads for cluster simulations.
SIM_CHUNK_SIZE = 1024

#: Super-chunk size used by the message-overhead simulations (256 chunks per
#: super-chunk, the same chunks-per-super-chunk ratio as the paper's
#: 1 MB / 4 KB setup -- this is what gives Sigma-Dedupe its <= 1.25x message
#: bound relative to stateless routing in Figure 7).
SIM_SUPERCHUNK_SIZE = 256 * SIM_CHUNK_SIZE

#: Super-chunk size used by the capacity/EDR simulations (Figures 6 and 8).
#: The laptop-scale datasets are ~1000x smaller than the paper's, so a 64-chunk
#: super-chunk keeps the number of routed units much larger than the cluster
#: size -- the ratio that actually determines load-balance behaviour -- while
#: the handprint stays at the paper's 8 fingerprints.
EDR_SUPERCHUNK_SIZE = 64 * SIM_CHUNK_SIZE

#: Handprint size (the paper's choice).
SIM_HANDPRINT_SIZE = 8


def bench_scale() -> str:
    """The dataset scale selected for this benchmark run."""
    scale = os.environ.get("REPRO_BENCH_SCALE", "small")
    if scale not in ("tiny", "small", "medium"):
        raise ValueError(f"REPRO_BENCH_SCALE must be tiny/small/medium, not {scale!r}")
    return scale


def cluster_sizes() -> Sequence[int]:
    """Cluster sizes swept by the cluster benches (paper: 1..128)."""
    return {
        "tiny": (1, 2, 4, 8),
        "small": (1, 2, 4, 8, 16, 32, 64),
        "medium": (1, 2, 4, 8, 16, 32, 64, 128),
    }[bench_scale()]


@functools.lru_cache(maxsize=None)
def workload_snapshots(name: str) -> List[TraceSnapshot]:
    """Materialised (chunked + fingerprinted) trace for one of the four workloads.

    Cached per process so benches sharing a workload do not re-chunk it.
    """
    workload = standard_workload(name, scale=bench_scale())
    return materialize_workload(workload, chunker=StaticChunker(SIM_CHUNK_SIZE))


def save_and_print(name: str, table: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(table + "\n")
    print()
    print(table)
    print(f"[saved to {path}]")


def rows_table(name: str, title: str, headers: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Format, print and persist a rows table in one call."""
    save_and_print(name, format_table(headers, rows, title=title))


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark.

    The cluster simulations are far too heavy for statistical repetition, and a
    single deterministic run is what regenerates the paper's data anyway.
    """
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


def per_scheme_series(results) -> Dict[str, List]:
    """Group simulation results per scheme ordered by cluster size."""
    series: Dict[str, List] = {}
    for result in results:
        series.setdefault(result.scheme, []).append(result)
    for values in series.values():
        values.sort(key=lambda item: item.num_nodes)
    return series
