"""Point-to-point FIFO (section IV-A).

Semantics required by the paper:

a) each producer reserves a *unique* slot via fetch-and-increment on Tail —
   no two producers ever write the same slot;
b) items drain in reservation order.

Dequeuers likewise reserve read sequence numbers with fetch-and-increment,
so the structure is multi-producer/multi-consumer with every element
consumed exactly once.  The physical slot of sequence ``s`` is
``s % fifo_size``; before writing, a producer checks
``myslot - Head < fifoSize`` (the paper's space condition) and waits
otherwise.

Blocking uses a condition variable rather than the paper's spin loop; the
visible ordering semantics are identical, and the test suite checks them
under genuine thread interleavings.
"""

from __future__ import annotations

import threading
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.structures.atomic import AtomicCounter

#: slot marker meaning "no published element"
_EMPTY = -1


class PtPFifo:
    """A bounded MPMC FIFO carrying byte payloads plus metadata."""

    def __init__(self, slots: int, slot_bytes: int):
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        if slot_bytes < 1:
            raise ValueError(f"slot_bytes must be >= 1, got {slot_bytes}")
        self.slots = slots
        self.slot_bytes = slot_bytes
        self._storage = np.zeros((slots, slot_bytes), dtype=np.uint8)
        self._lengths = [0] * slots
        self._metas: List[Any] = [None] * slots
        #: sequence number published in each slot (_EMPTY when free)
        self._published = [_EMPTY] * slots
        self._tail = AtomicCounter()  # producer slot reservations
        self._read = AtomicCounter()  # consumer sequence reservations
        self._head = AtomicCounter()  # contiguously retired prefix (frees slots)
        self._retired: set[int] = set()  # out-of-order retirements pending
        self._cond = threading.Condition()

    # -- producers ------------------------------------------------------
    def enqueue(
        self, data: bytes | np.ndarray, meta: Any = None,
        timeout: Optional[float] = None,
    ) -> int:
        """Enqueue one element; returns its sequence number.

        Raises ``TimeoutError`` if the FIFO stays full past ``timeout``
        seconds, and ``ValueError`` for over-long payloads.
        """
        payload = np.frombuffer(
            data.tobytes() if isinstance(data, np.ndarray) else bytes(data),
            dtype=np.uint8,
        )
        if payload.nbytes > self.slot_bytes:
            raise ValueError(
                f"payload of {payload.nbytes} B exceeds slot size "
                f"{self.slot_bytes}"
            )
        with self._cond:
            # Space check ((Tail - Head) < fifoSize) before reserving — the
            # paper reserves first and spins, but a timed-out reservation
            # would leak the slot; under the lock the orders are equivalent.
            if not self._cond.wait_for(
                lambda: self._tail.load() - self._head.load() < self.slots,
                timeout=timeout,
            ):
                raise TimeoutError("FIFO full")
            myslot = self._tail.fetch_and_increment()
            index = myslot % self.slots
            self._storage[index, : payload.nbytes] = payload
            self._lengths[index] = payload.nbytes
            self._metas[index] = meta
            self._published[index] = myslot  # write-completion step
            self._cond.notify_all()
        return myslot

    # -- consumers --------------------------------------------------------
    def dequeue(self, timeout: Optional[float] = None) -> Tuple[bytes, Any]:
        """Dequeue the next element in order; returns ``(payload, meta)``."""
        myread = self._read.fetch_and_increment()
        index = myread % self.slots
        with self._cond:
            if not self._cond.wait_for(
                lambda: self._published[index] == myread, timeout=timeout
            ):
                raise TimeoutError("FIFO empty")
            payload = bytes(self._storage[index, : self._lengths[index]])
            meta = self._metas[index]
            self._published[index] = _EMPTY
            # Retirements may complete out of order across consumer threads;
            # Head may only advance over the contiguous retired prefix, or a
            # producer could overwrite a slot whose element is still unread.
            self._retired.add(myread)
            while self._head.load() in self._retired:
                self._retired.remove(self._head.load())
                self._head.fetch_and_increment()
            self._cond.notify_all()
        return payload, meta

    def __len__(self) -> int:
        """Number of elements enqueued and not yet retired."""
        return max(0, self._tail.load() - self._head.load())
