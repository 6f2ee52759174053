"""Models of the Blue Gene/P hardware (and alternative interconnects).

Everything the paper's algorithms touch is modelled here:

* :mod:`repro.hardware.params` — every calibrated constant, documented.
* :mod:`repro.hardware.memory` — the cache-aware memory-port model (the 8 MB
  L3 knee that bends Figure 10's right edge lives here).
* :mod:`repro.hardware.node` — a compute node: four cores, a memory port, a
  DMA engine, torus and collective-network ports.
* :mod:`repro.hardware.dma` — DMA descriptor/counter semantics (direct
  put/get, memory FIFO, local copies).
* :mod:`repro.hardware.network` — the pluggable :class:`NetworkBackend`
  interface and backend registry (see ``docs/topologies.md``).
* :mod:`repro.hardware.torus` — the 3D torus with deposit-bit line
  broadcasts and point-to-point sends.
* :mod:`repro.hardware.fattree` — a k-ary fat-tree with deterministic
  ECMP path coloring.
* :mod:`repro.hardware.leafspine` — a two-tier leaf–spine Clos.
* :mod:`repro.hardware.tree` — the collective network (tree) with its ALU.
* :mod:`repro.hardware.machine` — assembles nodes + networks and maps MPI
  ranks onto cores according to the operating mode (SMP/DUAL/QUAD).
"""

from repro.hardware.params import BGPParams
from repro.hardware.machine import Machine, Mode
from repro.hardware.network import (
    NetworkBackend,
    UnsupportedTopologyError,
    known_backends,
    known_networks,
)
from repro.hardware.node import Node

__all__ = [
    "BGPParams",
    "Machine",
    "Mode",
    "NetworkBackend",
    "Node",
    "UnsupportedTopologyError",
    "known_backends",
    "known_networks",
]
# Fault injection lives in repro.hardware.fault_schedule (imported
# explicitly by users; not re-exported to keep the failure-injection
# surface deliberate).
