"""Trace-driven cluster deduplication simulation.

The paper evaluates cluster-wide behaviour (Figures 6-8) with trace-driven
simulation, emulating "each node by a series of independent fingerprint lookup
data structures".  This package does the same:

* :class:`~repro.simulation.simulator.ClusterSimulator` -- runs one routing
  scheme at one cluster size over a materialised trace and reports
  deduplication ratio, storage skew, EDR and fingerprint-lookup messages.
* :mod:`~repro.simulation.comparison` -- sweeps schemes x cluster sizes and
  produces the rows of Figures 7 and 8.
* :mod:`~repro.simulation.experiment` -- small/medium workload presets shared
  by tests, examples and benchmarks.
"""

from repro.simulation.simulator import ClusterSimulator, SimulatedNode, SimulationResult
from repro.simulation.comparison import (
    build_scheme,
    compare_schemes,
    run_scheme,
    single_node_deduplication_ratio,
)
from repro.simulation.experiment import standard_workload

__all__ = [
    "ClusterSimulator",
    "SimulatedNode",
    "SimulationResult",
    "run_scheme",
    "compare_schemes",
    "build_scheme",
    "single_node_deduplication_ratio",
    "standard_workload",
]
