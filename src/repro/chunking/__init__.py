"""Data chunking substrate.

Deduplication partitions large data objects into smaller parts called chunks
(paper Section 1).  This package implements the chunking algorithms the paper
uses or evaluates, plus a high-throughput gear-hash chunker:

* :class:`~repro.chunking.fixed.StaticChunker` -- fixed-size ("static
  chunking", SC) used for the main evaluation with a 4 KB chunk size.
* :class:`~repro.chunking.cdc.ContentDefinedChunker` -- Rabin-fingerprint
  based content-defined chunking (CDC) as implemented in Cumulus [21].
* :class:`~repro.chunking.tttd.TTTDChunker` -- the Two-Threshold Two-Divisor
  chunker [16] used for the super-chunk resemblance analysis of Section 2.2
  (1 KB / 2 KB / 4 KB / 32 KB thresholds).
* :class:`~repro.chunking.gear.GearChunker` -- FastCDC-style gear-hash
  chunker with normalized chunking and cut-point skipping, the fastest
  pure-Python content-defined option here.
* :class:`~repro.chunking.accel.AcceleratedGearChunker` -- the same gear
  scan as one compiled C function behind ``ctypes`` (no C compiler on the
  host => registry falls back to the pure scan, bit-identically).

All chunkers share the :class:`~repro.chunking.base.Chunker` interface
(including the streaming :meth:`~repro.chunking.base.Chunker.chunk_stream`
and the allocation-free :meth:`~repro.chunking.base.Chunker.cut_offsets`)
and yield :class:`~repro.chunking.base.RawChunk` objects.  They are also
registered by name in :data:`ALL_CHUNKERS` for configuration-driven selection
via :func:`build_chunker`: ``"gear"`` resolves to the compiled scan when its
kernel can be built and to the pure scan otherwise, while ``"gear-accel"``
and ``"gear-pure"`` pin one backend explicitly (``"gear-accel"`` raises
:class:`~repro.errors.ChunkingError` carrying the compiler's error);
:func:`~repro.chunking.accel.kernel_status` says which one is live and why.
"""

from typing import Callable, Dict

from repro.chunking.base import Chunker, RawChunk
from repro.chunking.fixed import StaticChunker
from repro.chunking.rabin import RabinRollingHash, RABIN_WINDOW_SIZE
from repro.chunking.cdc import ContentDefinedChunker
from repro.chunking.tttd import TTTDChunker
from repro.chunking.gear import GearChunker
from repro.chunking.accel import (
    AcceleratedGearChunker,
    best_gear_chunker,
    kernel_status,
)
from repro.errors import ChunkingError

#: Registry of chunking schemes by configuration name.  Values are factories
#: (classes or functions) returning a configured :class:`Chunker`.
ALL_CHUNKERS: Dict[str, Callable[..., Chunker]] = {
    "static": StaticChunker,
    "cdc": ContentDefinedChunker,
    "tttd": TTTDChunker,
    "gear": best_gear_chunker,
    "gear-accel": AcceleratedGearChunker,
    "gear-pure": GearChunker,
}


def build_chunker(name: str, **kwargs) -> Chunker:
    """Instantiate a chunking scheme by its registered name."""
    try:
        chunker_factory = ALL_CHUNKERS[name]
    except KeyError:
        raise ChunkingError(
            f"unknown chunker {name!r}; expected one of {sorted(ALL_CHUNKERS)}"
        ) from None
    return chunker_factory(**kwargs)


__all__ = [
    "Chunker",
    "RawChunk",
    "StaticChunker",
    "RabinRollingHash",
    "RABIN_WINDOW_SIZE",
    "ContentDefinedChunker",
    "TTTDChunker",
    "GearChunker",
    "AcceleratedGearChunker",
    "best_gear_chunker",
    "kernel_status",
    "ALL_CHUNKERS",
    "build_chunker",
]
