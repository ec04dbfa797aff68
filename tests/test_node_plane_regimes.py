"""Generated regimes: the batched node plane against the per-chunk reference
(``tests/oracles.py``).

``tests/test_node_batch_equivalence.py`` replays a few fixed random streams.
This suite generates the streams, with shapes that force every way a
super-chunk can cross the batched plane (``DedupeNode._backup_superchunk_batched``):

* a wave committed in bulk that is all cache hits, all unique, or mixed;
* a cache miss the disk index holds, on a container the cache lost, in the
  middle of a wave -- the wave is cut there, that chunk takes the per-chunk
  step, and what follows is probed again;
* stale reverse-map entries, intra-super-chunk duplicates, single-chunk
  super-chunks, the disk index disabled, caches of 1-3 containers.

Both planes see the same super-chunks and must end in the same place: results,
``NodeStats``, cache statistics and LRU order, disk-index counters, container
ids, seal order and write counts, and byte-identical reads.

The one documented exception (see the plane's docstring) is a container opened
in the middle of a wave evicting from a full cache while that wave still has
cache hits to replay: the reference path would have missed them.  The suite
detects exactly that event, and from there on holds the pair only to what
survives it: with the disk index enabled, the same classification and the same
stored bytes; always, byte-identical reads.

A final test asserts, by counter, that the generated examples reached every
branch.
"""

import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.superchunk import SuperChunk
from repro.fingerprint.fingerprinter import ChunkRecord
from repro.node.dedupe_node import DedupeNode, NodeConfig
from tests.helpers import deterministic_bytes
from tests.oracles import PerChunkNode

REACHED = Counter()
"""Branches the generated examples drove the batched plane through."""

BRANCHES = (
    "bulk_all_cached",
    "bulk_all_unique",
    "bulk_mixed",
    "disk_hit_step",
    "wave_cut_mid_wave",
    "reprobe_after_prefetch",
    "stale_entry",
    "container_opened_between_hits",
    "intra_superchunk_duplicates",
    "single_chunk_superchunk",
    "disk_index_disabled",
    "cache_of_1_to_3_containers",
    "exact_through_evictions",
)

HANDPRINT_SIZE = 2
NEVER_CACHED = 10**6


def record_of(seed: int) -> ChunkRecord:
    data = deterministic_bytes(24 + seed * 37 % 113, seed=seed)
    return ChunkRecord(hashlib.sha1(data).digest(), len(data), 0, data)


class ObservedNode(DedupeNode):
    """The batched plane, with its branches counted from outside."""

    def __init__(self, node_id, config):
        super().__init__(node_id, config)
        self.commits = 0
        self.steps = 0
        self.inexact = False

    def _commit_wave(self, wave, found, stale, misses, unique, stream_id, chunk_locations):
        cache = self.fingerprint_cache
        evictions = cache._containers.evictions
        cached_before = set(cache._containers)
        if self.steps:
            REACHED["reprobe_after_prefetch"] += 1
        super()._commit_wave(wave, found, stale, misses, unique, stream_id, chunk_locations)
        self.commits += 1
        if found and misses:
            REACHED["bulk_mixed"] += 1
            if set(cache._containers) - cached_before:
                opened = min(
                    wave.index(fp) for fp in misses
                    if chunk_locations[fp] not in cached_before
                )
                hits = [wave.index(fp) for fp in found]
                if min(hits) < opened < max(hits):
                    REACHED["container_opened_between_hits"] += 1
            if cache._containers.evictions != evictions:
                self.inexact = True
        elif found:
            REACHED["bulk_all_cached"] += 1
        elif misses:
            REACHED["bulk_all_unique"] += 1
        if stale:
            REACHED["stale_entry"] += 1

    def _lookup_chunk_locked(self, fingerprint):
        REACHED["disk_hit_step"] += 1
        if self.commits:
            REACHED["wave_cut_mid_wave"] += 1
        self.steps += 1
        return super()._lookup_chunk_locked(fingerprint)

    def backup_superchunk(self, superchunk):
        self.commits = self.steps = 0
        return super().backup_superchunk(superchunk)


# --------------------------------------------------------------------- #
# generated programs
# --------------------------------------------------------------------- #

segments = st.one_of(
    # n chunks never seen before
    st.tuples(st.just("fresh"), st.integers(1, 9)),
    # chunks of an earlier super-chunk (0 = the previous one), from an offset
    st.tuples(st.just("repeat"), st.integers(0, 5), st.integers(0, 4), st.integers(1, 9)),
    # the same, minus the members of its handprint: the similarity index
    # cannot find them, only the disk index can
    st.tuples(st.just("unhinted"), st.integers(0, 9), st.integers(0, 4), st.integers(1, 9)),
    # earlier chunks of this same super-chunk, again
    st.tuples(st.just("again"), st.integers(1, 4)),
    # a fresh chunk (or an earlier one) behind a stale reverse-map entry
    st.tuples(st.just("stale"), st.booleans()),
)

superchunks = st.fixed_dictionaries({
    "segments": st.lists(segments, min_size=1, max_size=4),
    "stream_id": st.sampled_from([0, 0, 0, 1]),
    "flush_after": st.booleans(),
})

programs = st.fixed_dictionaries({
    "container_capacity": st.sampled_from([256, 512, 1024, 4096]),
    "cache_capacity_containers": st.sampled_from([1, 2, 3, 1024]),
    "enable_disk_index": st.sampled_from([True, True, True, False]),
    "superchunks": st.lists(superchunks, min_size=1, max_size=14),
})


class Interpreter:
    """Turns a generated program into concrete super-chunks, knowing what the
    nodes have seen so far."""

    def __init__(self):
        self.next_seed = 0
        self.history = []  # earlier super-chunks' records

    def fresh(self, count):
        records = [record_of(self.next_seed + offset) for offset in range(count)]
        self.next_seed += count
        return records

    def earlier(self, back, start, count, skip_handprint):
        if not self.history:
            return self.fresh(count)
        source = self.history[-1 - back % len(self.history)]
        records = source.chunks
        if skip_handprint:
            hinted = set(source.handprint.representative_fingerprints)
            records = [chunk for chunk in records if chunk.fingerprint not in hinted]
        start %= max(len(records), 1)
        return records[start:start + count] or self.fresh(1)

    def build(self, spec, sequence):
        """``(super-chunk, fingerprints to plant a stale entry for)``."""
        records = []
        poisoned = []
        for segment in spec["segments"]:
            kind = segment[0]
            if kind == "fresh":
                records += self.fresh(segment[1])
            elif kind in ("repeat", "unhinted"):
                records += self.earlier(*segment[1:], skip_handprint=kind == "unhinted")
            elif kind == "again":
                records += records[:segment[1]] or self.fresh(1)
            else:
                chunk = self.fresh(1)[0] if segment[1] else self.earlier(3, 0, 1, True)[0]
                records.append(chunk)
                poisoned.append(chunk.fingerprint)
        superchunk = SuperChunk.from_chunks(
            records,
            handprint_size=HANDPRINT_SIZE,
            stream_id=spec["stream_id"],
            sequence_number=sequence,
        )
        self.history.append(superchunk)
        return superchunk, poisoned


def cache_view(node):
    cache = node.fingerprint_cache
    return {
        "lru_order": list(cache._containers),
        "hits": cache.hits,
        "misses": cache.misses,
        "evictions": cache._containers.evictions,
        "prefetches": cache.prefetches,
        "reverse_map": dict(cache._fingerprint_to_container),
    }


def index_view(node):
    index = node.disk_index
    return {
        "entries": dict(index._index),
        "lookups": index.lookups,
        "hits": index.lookup_hits,
        "inserts": index.inserts,
        "similarity": dict(node.similarity_index._entries),
        "similarity_lookups": node.similarity_index.lookups,
        "similarity_inserts": node.similarity_index.inserts,
    }


def store_view(node):
    store = node.container_store
    return {
        "ids": store.container_ids(),
        "sealed": [store.get(cid).sealed for cid in store.container_ids()],
        "sections": [store.get(cid).metadata_section() for cid in store.container_ids()],
        "container_reads": store.container_reads,
        "container_writes": store.container_writes,
        "stored_bytes": store.stored_bytes,
        "stored_chunks": store.stored_chunks,
    }


def run_pair(program):
    config = {key: value for key, value in program.items() if key != "superchunks"}
    reference = PerChunkNode(0, NodeConfig(**config))
    batched = ObservedNode(0, NodeConfig(**config))
    for node in (reference, batched):
        node.container_store.track_seals = True
    if not program["enable_disk_index"]:
        REACHED["disk_index_disabled"] += 1
    if program["cache_capacity_containers"] <= 3:
        REACHED["cache_of_1_to_3_containers"] += 1
    interpreter = Interpreter()
    stored = {}
    placed = {reference: {}, batched: {}}
    try:
        for sequence, spec in enumerate(program["superchunks"]):
            superchunk, poisoned = interpreter.build(spec, sequence)
            fingerprints = superchunk.fingerprints
            if len(set(fingerprints)) != len(fingerprints):
                REACHED["intra_superchunk_duplicates"] += 1
            if len(fingerprints) == 1:
                REACHED["single_chunk_superchunk"] += 1
            for node in (reference, batched):
                for fingerprint in poisoned:
                    node.fingerprint_cache._fingerprint_to_container[fingerprint] = NEVER_CACHED
            expected = reference.backup_superchunk(superchunk)
            result = batched.backup_superchunk(superchunk)
            for chunk in superchunk.chunks:
                stored[chunk.fingerprint] = chunk.data
            placed[reference].update(expected.chunk_locations)
            placed[batched].update(result.chunk_locations)
            if spec["flush_after"]:
                reference.flush()
                batched.flush()

            if not batched.inexact:
                assert result == expected
                assert batched.stats == reference.stats
                assert cache_view(batched) == cache_view(reference)
                assert index_view(batched) == index_view(reference)
                assert store_view(batched) == store_view(reference)
            elif program["enable_disk_index"]:
                assert (result.unique_chunks, result.unique_bytes) == (
                    expected.unique_chunks, expected.unique_bytes
                )
                assert batched.stats.physical_bytes == reference.stats.physical_bytes

        if not batched.inexact:
            assert (
                batched.container_store.drain_sealed()
                == reference.container_store.drain_sealed()
            )
            if cache_view(batched)["evictions"]:
                REACHED["exact_through_evictions"] += 1
        for node in (reference, batched):
            requests = [(fingerprint, placed[node][fingerprint]) for fingerprint in stored]
            assert node.read_chunks(requests) == list(stored.values())
    finally:
        reference.close()
        batched.close()


class TestGeneratedRegimes:
    @given(program=programs)
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_batched_plane_matches_the_per_chunk_reference(self, program):
        REACHED["examples"] += 1
        run_pair(program)

    @pytest.mark.parametrize(
        "segments",
        [
            # the similarity index misses, the disk index hits an evicted
            # container in the middle of a wave, its prefetch serves the rest
            [[("fresh", 9)], [("fresh", 9)], [("fresh", 9)],
             [("fresh", 2), ("unhinted", 2, 0, 5), ("fresh", 1)]],
            # hits, then a container opened mid-wave, then hits again
            [[("fresh", 6)], [("repeat", 0, 0, 2), ("fresh", 9), ("repeat", 0, 3, 2)]],
            # a stale entry in front of a fresh chunk and of a stored one
            [[("fresh", 5)], [("stale", True), ("repeat", 0, 0, 3), ("stale", False)]],
        ],
    )
    def test_named_regimes(self, segments):
        run_pair({
            "container_capacity": 256,
            "cache_capacity_containers": 2,
            "enable_disk_index": True,
            "superchunks": [
                {"segments": superchunk, "stream_id": 0, "flush_after": False}
                for superchunk in segments
            ],
        })


def test_every_branch_was_reached():
    """Last in the module: the strategies must keep reaching every branch."""
    if not REACHED["examples"]:
        pytest.skip("the generated examples did not run in this session")
    missing = [branch for branch in BRANCHES if not REACHED[branch]]
    assert not missing, f"never reached: {missing} (reached: {dict(REACHED)})"
