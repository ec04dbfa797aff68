"""Synthetic backup workloads standing in for the paper's datasets.

The paper evaluates on two real datasets and two traces (Table 2):

* **Linux** -- kernel source trees, versions 1.0 to 3.3.6 (many small files,
  high inter-version redundancy).  Reproduced by
  :class:`~repro.workloads.versioned_source.VersionedSourceWorkload`.
* **VM** -- monthly full backups of 8 virtual machines (few very large files,
  skewed size distribution).  Reproduced by
  :class:`~repro.workloads.vm_images.VMBackupWorkload`.
* **Mail** / **Web** -- FIU fingerprint-only I/O traces (no file metadata).
  Reproduced by :class:`~repro.workloads.mail.MailWorkload` and
  :class:`~repro.workloads.web.WebWorkload`.

Every generator is deterministic given its seed, sized for laptop-scale runs,
and its docstring says which property of the original dataset it preserves.
"""

from repro.workloads.base import (
    BackupSnapshot,
    ContentWorkload,
    TraceWorkload,
    Workload,
    WorkloadFile,
)
from repro.workloads.trace import (
    TraceChunk,
    TraceFile,
    TraceSnapshot,
    iter_trace_snapshots,
    materialize_workload,
)
from repro.workloads.synthetic import SyntheticDataGenerator, SyntheticWorkload
from repro.workloads.versioned_source import VersionedSourceWorkload
from repro.workloads.vm_images import VMBackupWorkload
from repro.workloads.mail import MailWorkload
from repro.workloads.web import WebWorkload

STANDARD_WORKLOADS = {
    "linux": VersionedSourceWorkload,
    "vm": VMBackupWorkload,
    "mail": MailWorkload,
    "web": WebWorkload,
}

__all__ = [
    "Workload",
    "ContentWorkload",
    "TraceWorkload",
    "WorkloadFile",
    "BackupSnapshot",
    "TraceChunk",
    "TraceFile",
    "TraceSnapshot",
    "iter_trace_snapshots",
    "materialize_workload",
    "SyntheticDataGenerator",
    "SyntheticWorkload",
    "VersionedSourceWorkload",
    "VMBackupWorkload",
    "MailWorkload",
    "WebWorkload",
    "STANDARD_WORKLOADS",
]
