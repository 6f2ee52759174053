"""Thread-executable implementations of the paper's concurrent structures.

Unlike the rest of the package, nothing here is simulated: these classes run
under real OS threads and move real bytes.  They are faithful Python
renderings of section IV:

* :class:`~repro.structures.atomic.AtomicCounter` — the fetch-and-increment
  primitive everything else is built on.  CPython has no portable lock-free
  fetch-and-add, so the counter wraps a mutex; the *interface* (and
  therefore the algorithms above it) is exactly the one the paper assumes
  ("the FIFO can be designed on any platform supporting the fetch and
  increment atomic operation").
* :class:`~repro.structures.ptp_fifo.PtPFifo` — the point-to-point FIFO of
  section IV-A: producers reserve unique slots with fetch-and-increment on
  Tail; items drain in reservation order.
* :class:`~repro.structures.bcast_fifo.BcastFifo` — the broadcast FIFO of
  section IV-B (Fig 1): every consumer reads every element; a per-slot
  atomic counter initialised to ``n-1`` is decremented by each reader and
  the last reader retires the slot by incrementing Head.
* :class:`~repro.structures.msg_counter.MessageCounter` — the software
  message counter of section IV-C: a (base buffer, bytes-arrived) pair that
  a producer advances and consumers watch; plus the completion counter used
  to return buffer ownership to the master.

The simulator has no twin of these structures.  ``torus-fifo``
(:mod:`repro.collectives.bcast.torus_fifo`) models the Bcast FIFO at
chunk granularity; the slot-level algorithm lives only here.
"""

from repro.structures.atomic import AtomicCounter
from repro.structures.ptp_fifo import PtPFifo
from repro.structures.bcast_fifo import BcastFifo, BcastConsumer
from repro.structures.msg_counter import CompletionCounter, MessageCounter

__all__ = [
    "AtomicCounter",
    "PtPFifo",
    "BcastFifo",
    "BcastConsumer",
    "MessageCounter",
    "CompletionCounter",
]
