"""Atomic fetch-and-increment counter.

The PPC450 exposes lwarx/stwcx-based atomics; CPython exposes none, so the
counter serializes through a mutex.  The algorithms built on it only ever
assume the *fetch-and-increment interface*, so they port unchanged to a
platform with a native primitive — which is exactly the portability claim
the paper makes for the Bcast FIFO.
"""

from __future__ import annotations

import threading


class AtomicCounter:
    """A thread-safe integer counter with fetch-and-add semantics."""

    __slots__ = ("_value", "_lock")

    def __init__(self, initial: int = 0):
        self._value = int(initial)
        self._lock = threading.Lock()

    def fetch_and_increment(self, amount: int = 1) -> int:
        """Atomically add ``amount``; return the *previous* value."""
        with self._lock:
            previous = self._value
            self._value += amount
            return previous

    def fetch_and_decrement(self, amount: int = 1) -> int:
        """Atomically subtract ``amount``; return the *previous* value."""
        return self.fetch_and_increment(-amount)

    def add(self, amount: int) -> int:
        """Atomically add ``amount``; return the *new* value."""
        with self._lock:
            self._value += amount
            return self._value

    def load(self) -> int:
        """Read the current value."""
        with self._lock:
            return self._value

    def store(self, value: int) -> None:
        """Overwrite the value (initialisation/reset only — not a RMW op)."""
        with self._lock:
            self._value = int(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AtomicCounter({self.load()})"
