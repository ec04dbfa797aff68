"""Concurrent restores against one spill node, raw and zlib.

Restores read a loaded data section -- the part list the backend's LRU
holds -- outside any lock, while loads on other threads read, split and
admit containers under it: each thread below restores its own file, and
1 KiB chunks read back in both orders make each container's reads a long
stretch of list reads, run-wise and chunk by chunk.
"""

import random
import sys
import threading

import pytest

from repro.chunking.fixed import StaticChunker
from repro.core.framework import SigmaDedupe
from repro.node.dedupe_node import NodeConfig

THREADS = 4
ROUNDS = 50
FILE_BYTES = 400 * 1024


@pytest.fixture
def fast_switching():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(previous)


@pytest.mark.parametrize("compression", ["none", "zlib"])
def test_concurrent_restores_on_one_spill_node(tmp_path, fast_switching, compression):
    framework = SigmaDedupe(
        num_nodes=1,
        chunker=StaticChunker(1024),
        storage_dir=str(tmp_path),
        container_compression=compression,
        node_config=NodeConfig(container_capacity=128 * 1024),
    )
    rng = random.Random(25)
    files = []
    for index in range(THREADS):
        # A second half that repeats the first chunk by chunk, backwards:
        # its reads take the per-chunk branch, a Python loop of slices.
        chunks = [rng.randbytes(1024) for _ in range(FILE_BYTES // 2048)]
        files.append((f"thread-{index}.bin", b"".join(chunks + chunks[::-1])))
    session_id = framework.backup(files).session_id
    expected = dict(files)
    failures = []

    def restore_repeatedly(path):
        try:
            for _ in range(ROUNDS):
                if framework.restore(session_id, path) != expected[path]:
                    failures.append(f"{path}: restored bytes differ")
                    return
        except Exception as exc:  # any exception here is the bug
            failures.append(f"{path}: {type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=restore_repeatedly, args=(path,)) for path, _data in files
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    framework.close()
    assert failures == []
