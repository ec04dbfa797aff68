"""Generated recipes: the run-wise restore path against the per-chunk oracle.

The batched restore (``RestoreManager``'s default) reads a window as columns,
grouped by node runs and, inside each node, by container runs; a container
serves a run that matches its append order with one index probe and one list
compare, and resolves anything else chunk by chunk.  This suite generates the
recipes that decide which of those a read takes -- whole and partial
container runs, repeated and reordered fingerprints, slices of real
(interleaved) recipes -- and restores each through both the batched path, at
window sizes 1-7 and the default, and the chunk-at-a-time oracle
(``PerChunkRestore`` in ``tests/oracles.py``), then compares what they yield,
what they count and how they fail:

* ``container_id=None`` entries, resolved by the node's read-only peeks;
* a fingerprint missing from its container (``ChunkNotFoundError``);
* a recipe length off by one at position k (exactly k chunks yielded and
  counted, then ``RestoreIntegrityError``);
* resident, raw spill and zlib spill containers -- a spill served, after
  its first read, from the part list its backend split it into;
* a node marked down under replication 2 (reads fail over to the replica).

A final test asserts, by counter, that every branch was reached; which
branch a container read took is told by the index probes it made.
"""

import hashlib
import random
from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from repro.chunking import build_chunker
from repro.cluster.recipe import ChunkLocation
from repro.cluster.restore import DEFAULT_RESTORE_BATCH_CHUNKS, RestoreManager
from repro.core.framework import SigmaDedupe
from repro.errors import ReproError, RestoreIntegrityError
from repro.node.dedupe_node import NodeConfig
from repro.storage.container import Container
from tests.helpers import recipe_columns
from tests.oracles import PerChunkRestore

REACHED = Counter()
"""Branches and regimes the generated recipes drove the restore through."""

BRANCHES = (
    "matched_run_resident",
    "matched_run_spilled",
    "fallback",
    "revisit_split_container",
    "repeat_in_run",
    "prefix_only_run",
    "run_straddles_window",
    "none_container_id",
    "missing_fingerprint",
    "length_off_by_one",
    "node_down",
    "memory",
    "raw_spill",
    "zlib_spill",
)

KINDS = {"memory": None, "raw_spill": "none", "zlib_spill": "zlib"}


class CountingIndex:
    """Stands in for a container's fingerprint index during one read and
    counts the probes the read makes: a matched run probes once (its first
    fingerprint), the fallback once more per requested chunk."""

    def __init__(self, index):
        self.index = index
        self.probes = 0

    def get(self, fingerprint, default=None):
        self.probes += 1
        return self.index.get(fingerprint, default)


def holds_split(container):
    """Whether the backend of an evicted container already holds its section
    split into per-chunk payloads (a zlib spill read before)."""
    backend = getattr(container._loader, "__self__", None)
    held = getattr(backend, "_decompressed", {}).get(container.container_id)
    return held is not None and isinstance(held[1], list)


@pytest.fixture(scope="module", autouse=True)
def observed_container_reads():
    """Count which branch each container read takes, from the index probes
    the real ``Container.read_chunks`` makes."""
    original = Container.read_chunks

    def read_chunks(self, fingerprints):
        resident = self._parts is not None
        revisit = not resident and holds_split(self)
        index = self._index_of
        self._index_of = counting = CountingIndex(index)
        try:
            return original(self, fingerprints)
        finally:
            self._index_of = index
            if counting.probes == 1:
                REACHED["matched_run_resident" if resident else "matched_run_spilled"] += 1
            elif counting.probes > 1:
                REACHED["fallback"] += 1
            if counting.probes and revisit:
                REACHED["revisit_split_container"] += 1

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Container, "read_chunks", read_chunks)
        yield


class Corpus:
    """A two-node, replication-2 store holding two generations of files, and
    everything a generated recipe is drawn from: every container's chunks in
    append order, the real recipes, and the payload of every fingerprint."""

    def __init__(self, kind, directory):
        compression = KINDS[kind]
        self.framework = SigmaDedupe(
            num_nodes=2,
            chunker=build_chunker("gear", average_size=256),
            superchunk_size=2048,
            node_config=NodeConfig(container_capacity=2048),
            replication_factor=2,
            container_backend="memory" if compression is None else "file",
            storage_dir=None if compression is None else str(directory),
            container_compression=compression,
        )
        rng = random.Random(25)
        files = [(f"file-{index}", rng.randbytes(6000 + 977 * index)) for index in range(3)]
        edited = []
        for path, data in files:
            buffer = bytearray(data)
            for offset in range(700, len(buffer), 2500):
                buffer[offset:offset + 300] = rng.randbytes(300)
            edited.append((path, bytes(buffer)))
        director = self.framework.director
        self.payloads = {}
        self.recipes = []
        for generation in (files, edited):
            session_id = self.framework.backup(generation).session_id
            for path, data in generation:
                recipe = list(director.get_recipe(session_id, path))
                ends = list(accumulate(location.length for location in recipe))
                for location, end in zip(recipe, ends):
                    self.payloads[location.fingerprint] = data[end - location.length:end]
                self.recipes.append(recipe)
        self.containers = []
        for node in self.framework.cluster.nodes:
            store = node.container_store
            for container_id in sorted(store.container_ids()):
                self.containers.append([
                    ChunkLocation(entry.fingerprint, entry.length, node.node_id, container_id)
                    for entry in store.get(container_id).metadata_section()
                ])
        self.session_id = director.open_session("generated").session_id
        self.recipe_count = 0


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    built = {kind: Corpus(kind, tmp_path_factory.mktemp(kind)) for kind in KINDS}
    yield built
    for corpus in built.values():
        corpus.framework.close()


segments = st.one_of(
    # a container run: chunks in append order, whole or from an offset
    st.tuples(st.just("run"), st.integers(0, 999), st.integers(0, 7), st.integers(1, 9)),
    # the same run with one chunk read twice in a row
    st.tuples(st.just("repeat"), st.integers(0, 999), st.integers(0, 7), st.integers(2, 9)),
    # the same run with one chunk left out: only a prefix matches
    st.tuples(st.just("skip"), st.integers(0, 999), st.integers(0, 7), st.integers(3, 9)),
    # the run backwards
    st.tuples(st.just("reverse"), st.integers(0, 999), st.integers(0, 7), st.integers(2, 9)),
    # a slice of a real recipe, interleaving containers and nodes
    st.tuples(st.just("recipe"), st.integers(0, 999), st.integers(0, 40), st.integers(1, 30)),
)

examples = st.fixed_dictionaries({
    "kind": st.sampled_from(sorted(KINDS)),
    "segments": st.lists(segments, min_size=1, max_size=6),
    "batch_chunks": st.sampled_from([1, 2, 3, 4, 5, 6, 7, DEFAULT_RESTORE_BATCH_CHUNKS]),
    # every n-th entry loses its container id (0: none does)
    "drop_container_ids": st.sampled_from([0, 0, 1, 2, 3]),
    "fault": st.one_of(
        st.just(None),
        st.tuples(st.just("missing"), st.integers(0, 999)),
        st.tuples(st.just("length"), st.integers(0, 999), st.sampled_from([-1, 1])),
    ),
    "down": st.sampled_from([None, None, 0, 1]),
})


def build_recipe(corpus, example):
    locations = []
    for kind, which, offset, size in example["segments"]:
        if kind == "recipe":
            source = corpus.recipes[which % len(corpus.recipes)]
            offset %= len(source)
            locations += source[offset:offset + size]
            continue
        run = corpus.containers[which % len(corpus.containers)]
        offset %= len(run)
        run = run[offset:offset + size]
        if kind == "repeat" and len(run) >= 2:
            REACHED["repeat_in_run"] += 1
            run.insert(1, run[1])
        elif kind == "skip" and len(run) >= 3:
            REACHED["prefix_only_run"] += 1
            del run[-2]
        elif kind == "reverse":
            run.reverse()
        locations += run
    stride = example["drop_container_ids"]
    if example["down"] is not None and example["fault"] and example["fault"][0] == "length":
        # A batched window that cannot be read (an id-less entry of a down
        # node) fails before it is verified, where the oracle would first
        # reach the bad length: length faults get readable recipes only.
        stride = 0
    if stride:
        REACHED["none_container_id"] += 1
        locations = [
            location._replace(container_id=None) if index % stride == 0 else location
            for index, location in enumerate(locations)
        ]
    return locations


def apply_fault(locations, fault):
    """The recipe with its fault, and the position the restore must stop at
    (``None`` when it must complete)."""
    if fault is None:
        return locations, None
    position = fault[1] % len(locations)
    location = locations[position]
    if fault[0] == "missing":
        REACHED["missing_fingerprint"] += 1
        unknown = hashlib.sha1(b"never stored %d" % position).digest()
        locations[position] = location._replace(fingerprint=unknown)
    else:
        REACHED["length_off_by_one"] += 1
        locations[position] = location._replace(length=location.length + fault[2])
    return locations, position


def consume(manager, session_id, path):
    yielded = []
    try:
        for chunk in manager.iter_restore_file(session_id, path):
            yielded.append(chunk)
    except ReproError as exc:
        return yielded, type(exc)
    return yielded, None


def restore_both(corpus, locations, batch_chunks):
    framework = corpus.framework
    corpus.recipe_count += 1
    path = f"recipe-{corpus.recipe_count}"
    # Recorded as the four recipe columns, like a backup does: both readers
    # go through the cluster's columnar read (the oracle one chunk at a
    # time, through the pair form).
    framework.director.record_file_chunks(corpus.session_id, path, *recipe_columns(locations))
    oracle = PerChunkRestore(framework.cluster, framework.director)
    batched = RestoreManager(framework.cluster, framework.director, batch_chunks=batch_chunks)
    return (
        (oracle, *consume(oracle, corpus.session_id, path)),
        (batched, *consume(batched, corpus.session_id, path)),
    )


def straddles_a_window(locations, batch_chunks):
    """Whether a run of one (node, container) crosses a window boundary."""
    keys = [(location.node_id, location.container_id) for location in locations]
    return any(
        keys[boundary - 1] == keys[boundary]
        for boundary in range(batch_chunks, len(keys), batch_chunks)
    )


class TestGeneratedRecipes:
    @given(example=examples)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_run_wise_restore_matches_the_per_chunk_oracle(self, corpora, example):
        REACHED["examples"] += 1
        REACHED[example["kind"]] += 1
        corpus = corpora[example["kind"]]
        locations = build_recipe(corpus, example)
        if straddles_a_window(locations, example["batch_chunks"]):
            REACHED["run_straddles_window"] += 1
        locations, stop = apply_fault(locations, example["fault"])
        cluster = corpus.framework.cluster
        down = example["down"]
        if down is not None:
            REACHED["node_down"] += 1
            cluster.mark_node_down(down)
        try:
            (oracle, expected, expected_error), (batched, got, error) = restore_both(
                corpus, locations, example["batch_chunks"]
            )
        finally:
            if down is not None:
                cluster.mark_node_up(down)

        assert error is expected_error
        for manager, yielded in ((oracle, expected), (batched, got)):
            assert manager.chunks_read == len(yielded)
            assert manager.bytes_restored == sum(map(len, yielded))
        if error is None or error is RestoreIntegrityError:
            assert got == expected
        else:
            # A read that fails takes its whole window with it: the batched
            # path yields a prefix of what the oracle yielded.
            assert got == expected[:len(got)]
        if error is None:
            assert got == [corpus.payloads[location.fingerprint] for location in locations]
        if example["fault"] is not None and example["fault"][0] == "length":
            assert error is RestoreIntegrityError
            assert len(got) == stop


def test_every_branch_was_reached(corpora):
    """Last in the module: the strategies must keep reaching every branch
    (run on its own, it first runs the generated examples itself)."""
    if not REACHED["examples"]:
        TestGeneratedRecipes().test_run_wise_restore_matches_the_per_chunk_oracle(corpora)
    missing = [branch for branch in BRANCHES if not REACHED[branch]]
    assert not missing, f"never reached: {missing} (reached: {dict(REACHED)})"

