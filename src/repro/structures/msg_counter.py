"""Software message counters (section IV-C) — thread-executable version.

"The central idea adopted in our approach is to dedicate a counter for a
given broadcast and whenever the data arrives in the buffer, it is
incremented by the total number of bytes received in the buffer."

A :class:`MessageCounter` pairs a data buffer with a monotonically growing
bytes-arrived count.  The producer (the master process receiving from the
network) appends data and advances the counter; consumers wait for a
threshold and then read the newly valid prefix directly out of the shared
buffer — the zero-staging-copy discipline of the shared-address broadcast.

A :class:`CompletionCounter` is the paper's "atomic completion counter ...
initialized to zero by the master. All the processes increment this counter
after they finished copying the data from the master. Once this counter
equals n-1 ... the master can go ahead and start using his buffer."
"""

from __future__ import annotations

import threading
from typing import Optional

import numpy as np

from repro.structures.atomic import AtomicCounter


class MessageCounter:
    """A shared buffer plus a bytes-arrived watermark.

    The two fields of the paper's counter object are the base address of the
    data buffer and the total bytes written into it; here the "base address"
    is the numpy buffer itself.
    """

    def __init__(self, buffer: np.ndarray):
        if buffer.dtype != np.uint8 or buffer.ndim != 1:
            raise ValueError("MessageCounter buffer must be a 1-D uint8 array")
        self.buffer = buffer
        self._arrived = 0
        self._cond = threading.Condition()

    @property
    def arrived(self) -> int:
        """Bytes valid in the buffer so far."""
        with self._cond:
            return self._arrived

    def append(self, data: bytes | np.ndarray) -> int:
        """Producer: write ``data`` after the watermark, then advance it.

        Returns the new watermark.  The write happens *before* the counter
        update, matching the hardware-mirroring semantics (the DMA bumps its
        counter only after the chunk has landed).
        """
        chunk = np.frombuffer(
            data.tobytes() if isinstance(data, np.ndarray) else bytes(data),
            dtype=np.uint8,
        )
        with self._cond:
            end = self._arrived + chunk.nbytes
            if end > self.buffer.nbytes:
                raise ValueError(
                    f"append of {chunk.nbytes} B overflows buffer of "
                    f"{self.buffer.nbytes} B at watermark {self._arrived}"
                )
            self.buffer[self._arrived:end] = chunk
            self._arrived = end
            self._cond.notify_all()
        return end

    def wait_for(self, threshold: int, timeout: Optional[float] = None) -> int:
        """Consumer: block until at least ``threshold`` bytes have arrived.

        Returns the watermark at wake-up (may exceed ``threshold``); raises
        ``TimeoutError`` on timeout.  Consumers then read
        ``counter.buffer[local:watermark]`` directly — the direct copy of
        the shared-address scheme.
        """
        if threshold > self.buffer.nbytes:
            raise ValueError(
                f"threshold {threshold} exceeds buffer size {self.buffer.nbytes}"
            )
        with self._cond:
            if not self._cond.wait_for(
                lambda: self._arrived >= threshold, timeout=timeout
            ):
                raise TimeoutError(
                    f"message counter stuck at {self._arrived} < {threshold}"
                )
            return self._arrived

    def reset(self) -> None:
        """Rewind the watermark for buffer reuse (no concurrent consumers)."""
        with self._cond:
            self._arrived = 0


class CompletionCounter:
    """Countdown used to return buffer ownership to the master."""

    def __init__(self, expected: int):
        if expected < 0:
            raise ValueError(f"expected must be >= 0, got {expected}")
        self.expected = expected
        self._count = AtomicCounter(0)
        self._cond = threading.Condition()

    def signal(self) -> int:
        """A consumer finished copying; returns the new count."""
        value = self._count.add(1)
        if value > self.expected:
            raise RuntimeError(
                f"completion counter over-signalled: {value} > {self.expected}"
            )
        with self._cond:
            self._cond.notify_all()
        return value

    def wait(self, timeout: Optional[float] = None) -> None:
        """Master: block until all ``expected`` consumers signalled."""
        with self._cond:
            if not self._cond.wait_for(
                lambda: self._count.load() >= self.expected, timeout=timeout
            ):
                raise TimeoutError(
                    f"completion counter at {self._count.load()}"
                    f"/{self.expected}"
                )

    @property
    def count(self) -> int:
        return self._count.load()
