"""Storage-usage balance (data skew) statistics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.utils.stats import coefficient_of_variation, mean, population_stddev


@dataclass(frozen=True)
class StorageSkew:
    """Summary of how evenly physical storage is spread across nodes.

    Attributes
    ----------
    mean_bytes / stddev_bytes:
        Mean and population standard deviation of per-node usage.
    coefficient_of_variation:
        stddev / mean -- the paper's EDR penalty uses the related factor
        ``alpha / (alpha + sigma)`` = ``1 / (1 + cv)``.
    max_over_mean:
        How much fuller the fullest node is than the average node.
    """

    mean_bytes: float
    stddev_bytes: float
    coefficient_of_variation: float
    max_over_mean: float
    min_over_mean: float


def storage_skew(storage_usages: Sequence[float]) -> StorageSkew:
    """Compute the skew summary of per-node storage usage."""
    usages = [float(value) for value in storage_usages]
    mu = mean(usages)
    sigma = population_stddev(usages)
    if not usages or mu == 0:
        return StorageSkew(
            mean_bytes=mu,
            stddev_bytes=sigma,
            coefficient_of_variation=0.0,
            max_over_mean=0.0,
            min_over_mean=0.0,
        )
    return StorageSkew(
        mean_bytes=mu,
        stddev_bytes=sigma,
        coefficient_of_variation=coefficient_of_variation(usages),
        max_over_mean=max(usages) / mu,
        min_over_mean=min(usages) / mu,
    )
