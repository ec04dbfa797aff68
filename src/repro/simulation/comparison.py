"""Scheme-by-scheme, cluster-size-by-cluster-size comparison harness.

Produces the data behind Figures 7 and 8 of the paper: for each routing
scheme and cluster size, the normalized effective deduplication ratio and the
number of fingerprint-lookup messages on a given workload trace.

Traces may be supplied in two forms:

* a materialised snapshot sequence (``materialize_workload(...)``) -- chunked
  once, replayed from memory for every scheme x cluster-size combination;
* a :class:`~repro.workloads.base.Workload` -- every replay draws a fresh
  lazy :func:`~repro.workloads.trace.iter_trace_snapshots` generator, so the
  sweep runs generation-by-generation in bounded memory (re-chunking per
  replay: the trade is CPU for memory on traces too large to hold).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

from repro.core.superchunk import DEFAULT_SUPERCHUNK_SIZE
from repro.errors import SimulationError
from repro.fingerprint.handprint import DEFAULT_HANDPRINT_SIZE
from repro.routing import ALL_SCHEMES
from repro.routing.base import RoutingScheme
from repro.simulation.simulator import ClusterSimulator, SimulationResult
from repro.workloads.base import Workload
from repro.workloads.trace import TraceSnapshot, iter_trace_snapshots, trace_statistics

#: The four schemes the paper compares in Figures 7 and 8.
PAPER_SCHEMES = ("sigma", "stateful", "stateless", "extreme_binning")

#: The cluster sizes the paper sweeps (1 through 128 nodes).
PAPER_CLUSTER_SIZES = (1, 2, 4, 8, 16, 32, 64, 128)

#: A trace as the harness accepts it: a replayable snapshot sequence or a
#: workload generator (replayed lazily, one fresh iterator per run).
TraceSource = Union[Sequence[TraceSnapshot], Workload]


def _fresh_snapshots(trace: TraceSource) -> Iterable[TraceSnapshot]:
    """A fresh single-pass snapshot iterable over ``trace``."""
    if isinstance(trace, Workload):
        return iter_trace_snapshots(trace)
    return trace


def _as_replayable(trace: "TraceSource | Iterator[TraceSnapshot]") -> TraceSource:
    """Make ``trace`` safe to iterate more than once.

    Workloads and sequences already are; a one-shot iterator (e.g. a
    hand-built generator) is materialised once.
    """
    if isinstance(trace, Workload):
        return trace
    if iter(trace) is trace:
        return list(trace)
    return trace


def build_scheme(name: str, **kwargs) -> RoutingScheme:
    """Instantiate a routing scheme by its registered name."""
    try:
        scheme_class = ALL_SCHEMES[name]
    except KeyError:
        raise SimulationError(
            f"unknown routing scheme {name!r}; expected one of {sorted(ALL_SCHEMES)}"
        ) from None
    return scheme_class(**kwargs)


def single_node_deduplication_ratio(snapshots: "TraceSource | Iterable[TraceSnapshot]") -> float:
    """The exact single-node DR of a trace (the EDR normalisation baseline)."""
    stats = trace_statistics(_fresh_snapshots(snapshots))
    return stats["deduplication_ratio"]


def run_scheme(
    snapshots: "TraceSource | Iterator[TraceSnapshot]",
    scheme: "RoutingScheme | str",
    num_nodes: int,
    superchunk_size: int = DEFAULT_SUPERCHUNK_SIZE,
    handprint_size: int = DEFAULT_HANDPRINT_SIZE,
    single_node_dr: Optional[float] = None,
) -> SimulationResult:
    """Run one scheme at one cluster size over a trace.

    ``snapshots`` may be a materialised sequence, a workload (replayed as a
    fresh lazy trace) or a one-shot snapshot iterator.  With an iterator,
    pass ``single_node_dr`` explicitly to keep the run single-pass; without
    it the iterator is materialised so the baseline ratio can be computed.
    """
    if isinstance(scheme, str):
        scheme = build_scheme(scheme)
    if single_node_dr is None:
        snapshots = _as_replayable(snapshots)
        single_node_dr = single_node_deduplication_ratio(snapshots)
    simulator = ClusterSimulator(
        num_nodes=num_nodes,
        routing_scheme=scheme,
        superchunk_size=superchunk_size,
        handprint_size=handprint_size,
    )
    return simulator.run(
        _fresh_snapshots(snapshots),
        single_node_deduplication_ratio=single_node_dr,
    )


def compare_schemes(
    snapshots: TraceSource,
    schemes: Sequence["RoutingScheme | str"] = PAPER_SCHEMES,
    cluster_sizes: Sequence[int] = PAPER_CLUSTER_SIZES,
    superchunk_size: int = DEFAULT_SUPERCHUNK_SIZE,
    handprint_size: int = DEFAULT_HANDPRINT_SIZE,
    skip_unsupported: bool = True,
) -> List[SimulationResult]:
    """Sweep schemes x cluster sizes over one trace.

    ``snapshots`` may be a materialised sequence (chunked once, replayed from
    memory) or a :class:`~repro.workloads.base.Workload` (each run replays a
    fresh lazy trace generation-by-generation, never materialising it).

    ``schemes`` may mix registered names and pre-configured scheme instances
    (useful when a baseline needs non-default parameters, e.g. a different
    stateful sampling rate for scaled-down super-chunks).  File-granularity
    schemes are skipped (not failed) on fingerprint-only traces when
    ``skip_unsupported`` is true, mirroring the paper's omission of Extreme
    Binning on the Mail and Web traces.
    """
    snapshots = _as_replayable(snapshots)
    if isinstance(snapshots, Workload):
        has_file_metadata = snapshots.has_file_metadata
    else:
        has_file_metadata = all(snapshot.has_file_metadata for snapshot in snapshots)
    single_node_dr = single_node_deduplication_ratio(snapshots)
    results: List[SimulationResult] = []
    for scheme in schemes:
        scheme_instance = build_scheme(scheme) if isinstance(scheme, str) else scheme
        if scheme_instance.requires_file_metadata and not has_file_metadata:
            if skip_unsupported:
                continue
            raise SimulationError(
                f"scheme {scheme_instance.name!r} requires file metadata which this trace lacks"
            )
        for num_nodes in cluster_sizes:
            result = run_scheme(
                snapshots,
                scheme_instance,
                num_nodes,
                superchunk_size=superchunk_size,
                handprint_size=handprint_size,
                single_node_dr=single_node_dr,
            )
            results.append(result)
    return results


def results_by_scheme(results: Sequence[SimulationResult]) -> Dict[str, List[SimulationResult]]:
    """Group results per scheme, each sorted by cluster size (plotting helper)."""
    grouped: Dict[str, List[SimulationResult]] = {}
    for result in results:
        grouped.setdefault(result.scheme, []).append(result)
    for scheme_results in grouped.values():
        scheme_results.sort(key=lambda item: item.num_nodes)
    return grouped
