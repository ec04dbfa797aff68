"""Handprinting: deterministic min-k sampling of chunk fingerprints.

The handprint of a super-chunk is the set of its *k* smallest chunk
fingerprints (interpreted as unsigned integers).  By the generalisation of
Broder's theorem (paper Eq. 5), two super-chunks with Jaccard resemblance
``r`` have intersecting handprints with probability at least
``1 - (1 - r)**k``, so even a small handprint detects moderately similar
super-chunks with high probability.  The handprint is used

* by the backup client to pick candidate nodes (``rfp mod N``) and
* by each deduplication node as the set of representative fingerprints stored
  in its similarity index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import nsmallest
from typing import FrozenSet, Iterable, List, Set, Tuple
from repro.errors import ValidationError
from repro.utils.striped_lock import stripe_key

DEFAULT_HANDPRINT_SIZE = 8
"""The handprint size the paper settles on (Sections 4.3-4.4)."""


@dataclass(frozen=True)
class Handprint:
    """The k smallest chunk fingerprints of a super-chunk, in ascending order.

    Attributes
    ----------
    representative_fingerprints:
        Tuple of fingerprints sorted ascending by their integer value; the
        first element is the minimum fingerprint (what single-feature schemes
        such as Extreme Binning would use on their own).
    """

    representative_fingerprints: Tuple[bytes, ...]

    @cached_property
    def stripe_keys(self) -> Tuple[int, ...]:
        """The similarity-index stripe key of each representative fingerprint,
        converted once: routing probes the same handprint at every candidate
        node, then the target looks it up and indexes it."""
        return tuple(map(stripe_key, self.representative_fingerprints))

    @property
    def size(self) -> int:
        return len(self.representative_fingerprints)

    @property
    def champion(self) -> bytes:
        """The single smallest fingerprint (used by stateless/ExtremeBinning routing)."""
        if not self.representative_fingerprints:
            raise ValidationError("empty handprint has no champion fingerprint")
        return self.representative_fingerprints[0]

    def as_set(self) -> FrozenSet[bytes]:
        return frozenset(self.representative_fingerprints)

    def __iter__(self):
        return iter(self.representative_fingerprints)

    def __len__(self) -> int:
        return len(self.representative_fingerprints)


def compute_handprint(
    fingerprints: Iterable[bytes], handprint_size: int = DEFAULT_HANDPRINT_SIZE
) -> Handprint:
    """Build the handprint (min-k distinct fingerprints) of a super-chunk.

    Duplicated fingerprints inside the super-chunk are collapsed before the
    selection so a super-chunk made of one repeated chunk yields a handprint
    of size one, matching the set semantics of the Jaccard index.

    Parameters
    ----------
    fingerprints:
        The chunk fingerprints of the super-chunk, in any order.
    handprint_size:
        ``k`` -- the number of representative fingerprints to keep.
    """
    if handprint_size < 1:
        raise ValidationError("handprint_size must be >= 1")
    smallest = smallest_fingerprints(set(fingerprints), handprint_size)
    return Handprint(representative_fingerprints=tuple(smallest))


def smallest_fingerprints(distinct: Set[bytes], k: int) -> List[bytes]:
    """The ``k`` smallest of ``distinct`` as unsigned integers, ascending:
    the one definition of the handprint order (recovery reseeds the
    similarity index with it too).

    Digests of one length compare as integers exactly as they compare as
    bytes, so the usual case never leaves C; only mixed lengths (where
    ``b"\\x01"`` sorts after ``b"\\x00\\x02"`` but is the smaller integer)
    pay for the integer key."""
    if len(set(map(len, distinct))) > 1:
        return nsmallest(k, distinct, key=lambda fp: int.from_bytes(fp, "big"))
    return nsmallest(k, distinct)


def jaccard_resemblance(fingerprints_a: Iterable[bytes], fingerprints_b: Iterable[bytes]) -> float:
    """Exact Jaccard resemblance of two super-chunks from their full fingerprint sets.

    This is Eq. (1) of the paper: ``|h(S1) ∩ h(S2)| / |h(S1) ∪ h(S2)|``.
    """
    set_a = set(fingerprints_a)
    set_b = set(fingerprints_b)
    if not set_a and not set_b:
        return 1.0
    union = set_a | set_b
    if not union:
        return 1.0
    return len(set_a & set_b) / len(union)


def estimate_resemblance(handprint_a: Handprint, handprint_b: Handprint) -> float:
    """Estimate resemblance from two handprints.

    The estimator is the Jaccard index computed over the union of the two
    handprints restricted to the k smallest elements of the union, the
    standard min-wise (MinHash) estimator generalised to bottom-k sketches.
    It converges to the true resemblance as the handprint size grows, which
    is exactly the behaviour Figure 1 of the paper shows.
    """
    if handprint_a.size == 0 and handprint_b.size == 0:
        return 1.0
    if handprint_a.size == 0 or handprint_b.size == 0:
        return 0.0
    k = min(handprint_a.size, handprint_b.size)
    union = set(handprint_a.representative_fingerprints) | set(
        handprint_b.representative_fingerprints
    )
    sample = set(smallest_fingerprints(union, k))
    shared = sample & handprint_a.as_set() & handprint_b.as_set()
    return len(shared) / len(sample)


def probability_handprints_intersect(resemblance: float, handprint_size: int) -> float:
    """Lower bound of Eq. (5): ``1 - (1 - r)**k``.

    The probability that the handprints of two super-chunks with Jaccard
    resemblance ``resemblance`` share at least one representative fingerprint.
    """
    if not 0.0 <= resemblance <= 1.0:
        raise ValidationError("resemblance must be within [0, 1]")
    if handprint_size < 1:
        raise ValidationError("handprint_size must be >= 1")
    return 1.0 - (1.0 - resemblance) ** handprint_size
