#!/usr/bin/env python
"""Standalone CI check: the process transport must clean up after itself.

Runs the transport test suites in a child interpreter tagged with a unique
token, then audits the machine for anything they leaked:

* **orphaned workers** -- any surviving process whose ``/proc/<pid>/cmdline``
  or ``/proc/<pid>/environ`` carries the token.  Forked workers inherit the
  pytest process's exec-time snapshot, so the token is planted in *both* the
  command line (visible in forked children) and the environment (visible in
  spawned children).
* **runtime directories** -- leftover ``repro-transport-*`` trees
  (auto-claimed storage) under the temp dir.
* **shared memory** -- a ``/dev/shm`` diff against the pre-run snapshot, plus
  a token-specific sweep: the shm lane pool embeds ``sha1(token)[:8]`` in
  every segment name (``repro-shm-<tag>-*``), so segments leaked by process
  front-end lanes are attributed to this run even on a busy host.  The sweep
  retries briefly -- unlinks ride the resource tracker, which runs a beat
  behind process exit.
* **crash paths** -- a separate leg SIGKILLs a process holding a live lane
  pool (slabs mapped, results unreleased) and asserts every tagged segment
  still vanishes: lane processes notice the dead parent and exit, and the
  shared resource tracker unlinks the registered slabs behind them.  A
  second leg SIGKILLs a process holding a three-node ``TransportCluster``
  with one worker restarted and asserts no tagged process survives: every
  worker reads EOF once the dead parent's ends of its socket pairs close.

Exits non-zero on test failure or any leak, printing what leaked.  Run it
from the repository root:

    PYTHONPATH=src python tests/transport_teardown_check.py
"""

import glob
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import uuid

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

SUITES = [
    "tests/test_transport.py",
    "tests/test_transport_properties.py",
    "tests/test_shm_lanes.py",
    "tests/test_process_executor_properties.py",
]
# Resource-tracker unlinks trail process exit; poll this long before calling
# a tagged segment leaked.
SHM_SWEEP_SECONDS = 20.0

# The crash leg: build a lane pool, park completed-but-unreleased results in
# the slabs (the hardest teardown case: segments mapped in parent and lanes),
# then die by SIGKILL with no chance to clean up.  The audit then requires
# the machine to converge to zero tagged segments on its own.
CRASH_SCRIPT = r"""
import os, signal, sys
from repro.chunking import build_chunker
from repro.core.partitioner import PartitionerConfig
from repro.parallel.shm import ShmLanePool

config = PartitionerConfig(
    chunker=build_chunker("gear", average_size=4096),
    superchunk_size=65536,
    handprint_size=4,
)
pool = ShmLanePool(config=config, workers=2)
handles = [pool.submit(os.urandom(1 << 18)) for _ in range(2)]
for handle in handles:
    handle.wait()
print("CRASH-READY", flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""

# The transport crash leg: three workers, one of them killed and restarted
# (so it was forked last and inherited the others' parent ends), then the
# holder dies by SIGKILL.  No worker may outlive it.
TRANSPORT_CRASH_SCRIPT = r"""
import os, signal
from repro.transport import TransportCluster

cluster = TransportCluster(num_nodes=3)
victim = cluster.worker_process(1)
os.kill(victim.pid, signal.SIGKILL)
victim.join()
cluster.restart_node(1, recover=False)
print("CRASH-READY", flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def shm_entries():
    if not os.path.isdir("/dev/shm"):
        return set()
    return set(os.listdir("/dev/shm"))


def lane_segments(tag):
    """Live ``/dev/shm`` segments created by shm lane pools under ``tag``."""
    return sorted(
        name for name in shm_entries() if name.startswith(f"repro-shm-{tag}-")
    )


def wait_lane_segments_gone(tag, timeout=SHM_SWEEP_SECONDS):
    """Poll until no tagged lane segment remains; return the stragglers."""
    deadline = time.monotonic() + timeout
    leaked = lane_segments(tag)
    while leaked and time.monotonic() < deadline:
        time.sleep(0.25)
        leaked = lane_segments(tag)
    return leaked


def runtime_dirs():
    return set(glob.glob(os.path.join(tempfile.gettempdir(), "repro-transport-*")))


def tagged_processes(token):
    """PIDs whose exec-time cmdline or environ carries ``token``."""
    tagged = []
    needle = token.encode()
    for proc_dir in glob.glob("/proc/[0-9]*"):
        pid = int(os.path.basename(proc_dir))
        if pid == os.getpid():
            continue
        blob = b""
        for name in ("cmdline", "environ"):
            try:
                with open(os.path.join(proc_dir, name), "rb") as handle:
                    blob += handle.read()
            except OSError:
                continue
        if needle in blob:
            tagged.append(pid)
    return tagged


def wait_tagged_processes_gone(token, timeout=SHM_SWEEP_SECONDS):
    """Poll until no tagged process remains; return the stragglers.

    Worker processes and their resource trackers drain asynchronously after
    the test run's main process exits -- a pid observed once right after
    pytest returns is teardown latency, not a leak.  Only processes that
    survive the grace period count."""
    deadline = time.monotonic() + timeout
    orphans = tagged_processes(token)
    while orphans and time.monotonic() < deadline:
        time.sleep(0.25)
        orphans = tagged_processes(token)
    return orphans


def run_crash_script(script, env):
    """Run ``script`` in a child that SIGKILLs itself once it prints
    CRASH-READY; return the failures (an empty list when it did).  Output
    goes to a file, not a pipe: an orphan holding the pipe would stall the
    check instead of failing it."""
    with tempfile.TemporaryFile() as output:
        returncode = subprocess.run(
            [sys.executable, "-c", script], env=env, stdout=output
        ).returncode
        output.seek(0)
        ready = b"CRASH-READY" in output.read()
    if returncode != -signal.SIGKILL:
        return [
            f"crash child exited {returncode} instead of dying by "
            "SIGKILL (the leg never exercised the crash path)"
        ]
    if not ready:
        return ["crash child died before its resources were live"]
    return []


def crash_leg(env, tag):
    """SIGKILL a process holding a live lane pool; the tagged segments must
    still converge to zero (lanes exit on the dead parent, the shared
    resource tracker unlinks the slabs)."""
    print("[teardown-check] crash leg: SIGKILL a process holding a lane pool")
    failures = run_crash_script(CRASH_SCRIPT, env)
    if failures:
        return failures
    leaked = wait_lane_segments_gone(tag)
    if leaked:
        return [f"crash path leaked shm lane segments: {leaked}"]
    return []


def transport_crash_leg(env, token):
    """SIGKILL a process holding a transport cluster with a restarted worker;
    every worker must exit on its own.  Survivors are reported, then killed.
    The dead holder's runtime dir lands in a private temp dir, removed here."""
    print("[teardown-check] crash leg: SIGKILL a process holding a transport cluster")
    private_tmp = tempfile.mkdtemp(prefix="repro-teardown-tmp-")
    try:
        failures = run_crash_script(TRANSPORT_CRASH_SCRIPT, {**env, "TMPDIR": private_tmp})
        if failures:
            return failures
        orphans = wait_tagged_processes_gone(token)
        for pid in orphans:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if orphans:
            return [f"transport crash path orphaned workers: pids {orphans}"]
        return []
    finally:
        shutil.rmtree(private_tmp, ignore_errors=True)


def main():
    token = f"repro-teardown-{uuid.uuid4().hex}"
    env = dict(os.environ)
    env["REPRO_TEARDOWN_TOKEN"] = token
    env.setdefault("PYTHONPATH", "src")
    # Derive the segment tag exactly as the lane pool will (sha1(token)[:8])
    # so the sweep and the pools can never drift apart.
    os.environ["REPRO_TEARDOWN_TOKEN"] = token
    from repro.parallel.shm import segment_tag

    tag = segment_tag()

    shm_before = shm_entries()
    dirs_before = runtime_dirs()

    # The cache_dir override is a no-op for pytest but plants the token in
    # the child's command line, which forked workers inherit verbatim.
    command = [
        sys.executable,
        "-m",
        "pytest",
        "-x",
        "-q",
        *SUITES,
        "-o",
        f"cache_dir={os.path.join(tempfile.gettempdir(), token)}",
    ]
    print(f"[teardown-check] running: {' '.join(command)}")
    result = subprocess.run(command, env=env)
    if result.returncode != 0:
        print(f"[teardown-check] FAIL: test run exited {result.returncode}")
        return result.returncode

    failures = []
    orphans = wait_tagged_processes_gone(token)
    for pid in orphans:
        failures.append(f"orphaned process pid {pid} still carries the run token")
    leaked_dirs = runtime_dirs() - dirs_before
    if leaked_dirs:
        failures.append(f"leaked runtime dirs: {sorted(leaked_dirs)}")
    # Token-attributed sweep first (with the tracker grace period), then the
    # raw diff for anything untagged.
    leaked_lanes = wait_lane_segments_gone(tag)
    if leaked_lanes:
        failures.append(f"leaked shm lane segments: {leaked_lanes}")
    leaked_shm = shm_entries() - shm_before
    if leaked_shm:
        failures.append(f"leaked /dev/shm entries: {sorted(leaked_shm)}")

    failures.extend(crash_leg(env, tag))
    failures.extend(transport_crash_leg(env, token))

    if failures:
        for failure in failures:
            print(f"[teardown-check] FAIL: {failure}")
        return 1
    print(
        "[teardown-check] PASS: no orphaned workers, no leaked runtime dirs, "
        "no leaked shared memory (suite and crash paths)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
