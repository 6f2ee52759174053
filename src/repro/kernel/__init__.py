"""Compute Node Kernel (CNK) model.

Section III-B of the paper: CNK is a lightweight kernel that statically maps
all application TLBs and reserves ``N`` TLB slots (default three — one per
peer process in quad mode) for *process windows*: a process can translate a
peer's virtual address to physical (one system call) and map that physical
region into its own address space (a second system call).

This subpackage models:

* :mod:`repro.kernel.windows` — window mapping with TLB-slot accounting,
  per-mapping syscall costs, and the mapping cache whose effect Figure 8
  measures;
* :mod:`repro.kernel.shmem` — mutually shared staging segments (the
  "shared memory" methods).

The simulator has no FIFO twin: ``Torus + FIFO`` models the Bcast FIFO at
chunk granularity inside :mod:`repro.collectives.bcast.torus_fifo`, and
the slot-level algorithm lives only in :mod:`repro.structures`.
"""

from repro.kernel.windows import ProcessWindows, WindowMapping
from repro.kernel.shmem import SharedSegment

__all__ = [
    "ProcessWindows",
    "WindowMapping",
    "SharedSegment",
]
