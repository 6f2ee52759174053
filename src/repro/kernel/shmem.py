"""Shared-memory staging segments.

:class:`SharedSegment` is the mutually shared staging buffer of the
"shared memory" methods (``tree-shmem``).

The simulator has no FIFO twin.  ``torus-fifo``
(:mod:`repro.collectives.bcast.torus_fifo`) models the Bcast FIFO at
chunk granularity inline, and the slot-level algorithm of section IV
lives only in the thread-executable :mod:`repro.structures`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.hardware.machine import Machine


class SharedSegment:
    """A mutually shared staging segment on one node.

    Carries the real bytes of the simple "shared memory broadcast": one
    producer stages a chunk, peers copy it out after observing a flag
    (the invocation's per-node counter, which faults can stall).  The
    buffer is allocated when first used: only a data-carrying
    (``verify``) run writes or reads it, so a timing-only run allocates
    nothing and never imports numpy.
    """

    def __init__(self, machine: "Machine", nbytes: int, name: str = "shmem"):
        if nbytes <= 0:
            raise ValueError(f"segment size must be > 0, got {nbytes}")
        self.machine = machine
        self.nbytes = nbytes
        self.name = name
        self._buffer: Optional[np.ndarray] = None

    @property
    def buffer(self) -> np.ndarray:
        """The segment's ``nbytes`` bytes, zeroed when first used."""
        if self._buffer is None:
            import numpy as np

            self._buffer = np.zeros(self.nbytes, dtype=np.uint8)
        return self._buffer
