"""Experiment presets shared by tests, examples and benchmarks.

The paper's datasets are hundreds of gigabytes; a pure-Python reproduction
replays scaled-down equivalents.  ``standard_workload(name, scale)`` returns
the four Table 2 workloads at three deterministic scales so every benchmark
uses the same inputs and its numbers are reproducible.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.workloads.base import Workload
from repro.workloads.mail import MailWorkload
from repro.workloads.versioned_source import VersionedSourceWorkload
from repro.workloads.vm_images import VMBackupWorkload
from repro.workloads.web import WebWorkload

#: Scale factors: how much data each preset generates, roughly.
SCALES = ("tiny", "small", "medium")


def standard_workload(name: str, scale: str = "small") -> Workload:
    """Build one of the four paper workloads at a given scale.

    ``tiny`` is meant for unit tests (sub-second), ``small`` for examples and
    CI benchmarks (a few seconds), ``medium`` for fuller benchmark runs.
    """
    if scale not in SCALES:
        raise SimulationError(f"unknown scale {scale!r}; expected one of {SCALES}")
    if name == "linux":
        params = {
            "tiny": dict(num_versions=4, files_per_version=60, mean_file_size=6 * 1024),
            "small": dict(
                num_versions=10,
                files_per_version=400,
                mean_file_size=16 * 1024,
                change_fraction=0.25,
            ),
            "medium": dict(
                num_versions=14,
                files_per_version=700,
                mean_file_size=16 * 1024,
                change_fraction=0.25,
            ),
        }[scale]
        return VersionedSourceWorkload(**params)
    if name == "vm":
        params = {
            "tiny": dict(num_backups=3, num_vms=5, base_image_size=192 * 1024),
            "small": dict(num_backups=3, num_vms=7, base_image_size=1024 * 1024),
            "medium": dict(num_backups=4, num_vms=8, base_image_size=2 * 1024 * 1024),
        }[scale]
        return VMBackupWorkload(**params)
    if name == "mail":
        params = {
            "tiny": dict(num_days=4, chunks_per_day=2500),
            "small": dict(num_days=10, chunks_per_day=12000),
            "medium": dict(num_days=14, chunks_per_day=24000),
        }[scale]
        return MailWorkload(**params)
    if name == "web":
        params = {
            "tiny": dict(num_days=3, chunks_per_day=1500),
            "small": dict(num_days=6, chunks_per_day=8000),
            "medium": dict(num_days=10, chunks_per_day=16000),
        }[scale]
        return WebWorkload(**params)
    raise SimulationError(f"unknown workload {name!r}; expected linux, vm, mail or web")

