"""Shared-memory staging segments.

:class:`SharedSegment` is the mutually shared staging buffer of the
"shared memory" methods (``tree-shmem``).

The simulator has no FIFO twin.  ``torus-fifo``
(:mod:`repro.collectives.bcast.torus_fifo`) models the Bcast FIFO at
chunk granularity inline, and the slot-level algorithm of section IV
lives only in the thread-executable :mod:`repro.structures`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.sim.sync import SimCounter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.machine import Machine


class SharedSegment:
    """A mutually shared staging segment on one node.

    Carries a real byte buffer plus a generation flag used for the simple
    "shared memory broadcast" (one producer stages a chunk, peers copy it
    out after observing the flag).
    """

    def __init__(self, machine: "Machine", nbytes: int, name: str = "shmem"):
        if nbytes <= 0:
            raise ValueError(f"segment size must be > 0, got {nbytes}")
        self.machine = machine
        self.nbytes = nbytes
        self.name = name
        self.buffer = np.zeros(nbytes, dtype=np.uint8)
        #: bytes staged so far by the producer (monotonic within one op)
        self.staged = SimCounter(machine.engine, name=f"{name}.staged")
