"""Small statistics helpers used by the load-balance and skew metrics.

The normalized effective deduplication ratio (Eq. 7 of the paper) needs the
standard deviation and mean of per-node physical storage usage.  These helpers
avoid a numpy dependency inside the core library.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence
from repro.errors import ValidationError


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean. Returns 0.0 for an empty sequence."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def population_stddev(values: Sequence[float]) -> float:
    """Population standard deviation (divide by N), 0.0 for empty/singleton input."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    mu = mean(values)
    variance = sum((v - mu) ** 2 for v in values) / len(values)
    return math.sqrt(variance)


def coefficient_of_variation(values: Sequence[float]) -> float:
    """Standard deviation divided by the mean (0.0 when the mean is 0)."""
    mu = mean(values)
    if mu == 0:
        return 0.0
    return population_stddev(values) / mu


def max_over_mean(values: Sequence[float]) -> float:
    """A simple data-skew indicator: the maximum divided by the mean.

    A perfectly balanced cluster has a value of 1.0; the larger the value the
    more skewed the per-node storage usage is.
    """
    values = list(values)
    if not values:
        return 0.0
    mu = mean(values)
    if mu == 0:
        return 0.0
    return max(values) / mu


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile for ``fraction`` in [0, 1]."""
    if not 0.0 <= fraction <= 1.0:
        raise ValidationError("fraction must be within [0, 1]")
    ordered: List[float] = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, int(math.ceil(fraction * len(ordered))) - 1))
    return ordered[rank]


def running_totals(values: Iterable[float]) -> List[float]:
    """Cumulative sums of ``values`` (useful for plotting growth curves)."""
    totals: List[float] = []
    acc = 0.0
    for value in values:
        acc += value
        totals.append(acc)
    return totals


class SnapshotCounter:
    """A counter whose reads are lock-free, tear-free snapshots.

    Writers must serialize externally (every mutator of the owning object
    already holds its lock); readers call :attr:`value` with no lock at all.
    The guarantee rests on the same property ``itertools.count`` relies on:
    rebinding a single attribute to a new ``int`` is one atomic store under
    the GIL, so a reader sees either the old total or the new total -- never
    a torn intermediate.  This replaces the old ``# unguarded-ok`` waivered
    racy read of a bare ``int`` field: the counter object itself is never
    rebound on the owner, so there is no unguarded attribute left to waive.
    """

    __slots__ = ("_value",)

    def __init__(self, initial: int = 0):
        self._value = initial

    def add(self, delta: int) -> None:
        """Add ``delta`` to the total.  Caller must hold the owner's lock."""
        self._value = self._value + delta

    @property
    def value(self) -> int:
        """Lock-free snapshot of the current total (atomic attribute read)."""
        return self._value

    def __int__(self) -> int:
        return self._value

    def __repr__(self) -> str:
        return f"SnapshotCounter({self._value})"


def count_matched_occurrences(items: Sequence, distinct: set, matched: set) -> int:
    """How many elements of ``items`` -- counting repeats -- are in ``matched``.

    ``distinct`` must be ``set(items)``; when ``items`` has no repeats the
    answer is just ``len(matched)``, which keeps the common routing-sample
    probe (distinct fingerprints) a pure set-size read.
    """
    if len(distinct) == len(items):
        return len(matched)
    return sum(1 for item in items if item in matched)
