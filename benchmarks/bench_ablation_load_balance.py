"""Ablation: Sigma-Dedupe with and without the storage-usage discount.

Algorithm 1 step 3 discounts each candidate's resemblance by its relative
storage usage so that capacity stays balanced (Theorem 2 argues the balance is
then global).  This bench ablates that design choice: it
runs Sigma-Dedupe with the discount enabled (the paper's design) and disabled
(route purely by resemblance) on the Linux and VM workloads and reports the
effect on storage balance and on the effective deduplication ratio.

Expected outcome: disabling the discount can only help the raw cluster
deduplication ratio (similarity is never overridden) but hurts storage balance,
and therefore the *effective* deduplication ratio -- which is the metric that
matters for usable capacity -- is at least as good with the discount on.
"""

from __future__ import annotations

from typing import List

from benchmarks.common import (
    EDR_SUPERCHUNK_SIZE,
    bench_scale,
    rows_table,
    run_once,
    workload_snapshots,
)
from repro.routing.sigma import SigmaRouting
from repro.simulation.comparison import run_scheme, single_node_deduplication_ratio

CLUSTER_SIZE = {"tiny": 8, "small": 32, "medium": 64}


def measure() -> List[List]:
    num_nodes = CLUSTER_SIZE[bench_scale()]
    rows: List[List] = []
    for workload_name in ("linux", "vm", "mail"):
        snapshots = workload_snapshots(workload_name)
        single_dr = single_node_deduplication_ratio(snapshots)
        for use_load_balance in (True, False):
            result = run_scheme(
                snapshots,
                SigmaRouting(use_load_balance=use_load_balance),
                num_nodes,
                superchunk_size=EDR_SUPERCHUNK_SIZE,
                single_node_dr=single_dr,
            )
            rows.append(
                [
                    workload_name,
                    "with discount" if use_load_balance else "no discount",
                    round(result.cluster_deduplication_ratio, 2),
                    round(result.skew.coefficient_of_variation, 3),
                    round(result.normalized_effective_deduplication_ratio, 3),
                ]
            )
    return rows


def test_ablation_load_balance_discount(benchmark):
    rows = run_once(benchmark, measure)
    rows_table(
        "ablation_load_balance",
        "Ablation -- Sigma-Dedupe routing with vs without the storage-usage discount",
        ["workload", "variant", "cluster DR", "storage CV", "normalized EDR"],
        rows,
    )
    by_key = {(row[0], row[1]): row for row in rows}
    for workload_name in ("linux", "vm", "mail"):
        with_discount = by_key[(workload_name, "with discount")]
        without_discount = by_key[(workload_name, "no discount")]
        # The discount never makes balance worse.
        assert with_discount[3] <= without_discount[3] + 0.05
        # And the effective (balance-penalised) dedup ratio does not regress.
        assert with_discount[4] >= without_discount[4] - 0.05
