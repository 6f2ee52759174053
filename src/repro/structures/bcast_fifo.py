"""Broadcast FIFO (section IV-B, Fig 1).

One or more producers enqueue; **every** registered consumer reads every
element.  The element is retired — Head advanced, slot reusable — only when
the per-slot atomic counter, initialised to the number of consumers
(``n - 1`` in the paper, which counts the producer among ``n`` processes),
reaches zero: "the last arriving process completes the dequeue operation".

The enqueue side is the point-to-point FIFO's: fetch-and-increment on Tail
reserves a unique slot; the producer waits for ``myslot - Head < fifoSize``
(space) before writing, then publishes with the write-completion step.

Consumers hold a :class:`BcastConsumer` cursor that tracks the next
sequence number to read, mirroring how each process keeps a private read
position against the shared FIFO.

Alongside the payload each slot carries metadata ("the number of data bytes
copied into the slot and the connection id of the global broadcast flow",
section V-A-2), which is what lets the six torus colors multiplex one FIFO.
"""

from __future__ import annotations

import threading
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.structures.atomic import AtomicCounter

_EMPTY = -1


class BcastFifo:
    """A bounded FIFO where every consumer observes every element."""

    def __init__(self, slots: int, slot_bytes: int, consumers: int):
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        if slot_bytes < 1:
            raise ValueError(f"slot_bytes must be >= 1, got {slot_bytes}")
        if consumers < 1:
            raise ValueError(f"consumers must be >= 1, got {consumers}")
        self.slots = slots
        self.slot_bytes = slot_bytes
        self.consumers = consumers
        self._storage = np.zeros((slots, slot_bytes), dtype=np.uint8)
        self._lengths = [0] * slots
        self._metas: List[Any] = [None] * slots
        self._published = [_EMPTY] * slots
        #: per-slot reader countdown ("atomic counter ... set to (n-1)")
        self._remaining = [AtomicCounter(0) for _ in range(slots)]
        self._tail = AtomicCounter()
        self._head = AtomicCounter()
        self._retired: set[int] = set()
        self._cond = threading.Condition()

    # -- producer -------------------------------------------------------
    def enqueue(
        self, data: bytes | np.ndarray, meta: Any = None,
        timeout: Optional[float] = None,
    ) -> int:
        """Enqueue one element for all consumers; returns its sequence."""
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
            # The paper reserves first (fetch-and-increment on Tail) and
            # spins for space; with a timeout API a timed-out reservation
            # would leak the slot, so we wait for space *before* reserving.
            # Under the lock the two orders are observationally identical.
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
            self._remaining[index].store(self.consumers)
            self._published[index] = myslot  # write-completion step
            self._cond.notify_all()
        return myslot

    # -- consumer-side (via cursor) -------------------------------------
    def consumer(self) -> "BcastConsumer":
        """Create a cursor for one consumer (call exactly ``consumers`` times)."""
        return BcastConsumer(self)

    def _read(self, seq: int, timeout: Optional[float]) -> Tuple[bytes, Any]:
        index = seq % self.slots
        with self._cond:
            if not self._cond.wait_for(
                lambda: self._published[index] == seq, timeout=timeout
            ):
                raise TimeoutError("FIFO empty")
            payload = bytes(self._storage[index, : self._lengths[index]])
            meta = self._metas[index]
            previous = self._remaining[index].fetch_and_decrement()
            if previous == 1:
                # Last reader retires the element.  Head only advances over
                # the contiguous retired prefix (readers of different slots
                # can finish out of order).
                self._published[index] = _EMPTY
                self._retired.add(seq)
                while self._head.load() in self._retired:
                    self._retired.remove(self._head.load())
                    self._head.fetch_and_increment()
                self._cond.notify_all()
        return payload, meta

    def __len__(self) -> int:
        """Elements enqueued and not yet retired."""
        return max(0, self._tail.load() - self._head.load())


class BcastConsumer:
    """A single consumer's read cursor over a :class:`BcastFifo`."""

    def __init__(self, fifo: BcastFifo):
        self.fifo = fifo
        self._next_seq = 0

    def read(self, timeout: Optional[float] = None) -> Tuple[bytes, Any]:
        """Read the next element in order; returns ``(payload, meta)``."""
        seq = self._next_seq
        result = self.fifo._read(seq, timeout)
        self._next_seq += 1
        return result

    @property
    def position(self) -> int:
        """Sequence number of the next element this consumer will read."""
        return self._next_seq
