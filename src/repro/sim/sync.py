"""Synchronisation primitives built on the DES kernel.

``SimBarrier`` models ``MPI_Barrier`` inside benchmark loops; ``SimCounter``
is the waitable monotonic counter that both the hardware DMA byte counters
and the paper's *software message counters* are built on.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.sim.engine import Engine
from repro.sim.events import Event


class SimBarrier:
    """A cyclic barrier for exactly ``parties`` simulation processes.

    Each participant does ``yield barrier.wait()``.  When the last of the
    current generation arrives, all parked participants resume, and the
    barrier resets for the next generation.  An optional ``latency`` models
    the cost of the synchronisation operation itself (e.g. BG/P's global
    interrupt network completes a barrier in a few microseconds).
    """

    def __init__(self, engine: Engine, parties: int, latency: float = 0.0):
        if parties < 1:
            raise ValueError(f"parties must be >= 1, got {parties}")
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        self.engine = engine
        self.parties = parties
        self.latency = latency
        self._arrived = 0
        self._release_event = Event(engine)
        self.generation = 0

    def wait(self) -> Event:
        """Return the event that fires when the current generation completes."""
        self._arrived += 1
        event = self._release_event
        if self._arrived == self.parties:
            self._arrived = 0
            self.generation += 1
            release, self._release_event = self._release_event, Event(self.engine)
            if self.latency > 0:
                self.engine.call_after(self.latency, release.trigger, None)
            else:
                release.trigger(None)
        return event


class SimCounter:
    """A monotonically non-decreasing waitable counter.

    The paper's message counter tracks "total bytes written into the buffer";
    consumers poll it and copy newly arrived bytes.  In the simulator,
    polling is replaced by :meth:`wait_for`, which fires as soon as the value
    reaches a threshold — equivalent timing to a poll loop with a zero-cost
    poll, with explicit poll overhead charged separately by the caller where
    the model requires it.

    ``stall_fn`` (optional) models a transient message-counter stall: it is
    consulted on every publish and returns the extra microseconds watcher
    wake-ups must be deferred (0.0 when healthy).  Already-published values
    remain readable — the stall models the *publisher* core, not readers —
    so :meth:`wait_for` against an already-met threshold still fires
    immediately.  :meth:`repro.hardware.machine.Machine.make_counter` wires
    this to the machine's active-fault registry.
    """

    def __init__(self, engine: Engine, value: float = 0.0, name: str = "counter",
                 stall_fn: Optional[Callable[[], float]] = None):
        self.engine = engine
        self.value = float(value)
        self.name = name
        self._stall_fn = stall_fn
        # (threshold, event), kept sorted lazily.
        self._watchers: List[Tuple[float, Event]] = []

    def add(self, delta: float) -> None:
        """Increase the counter; wakes every watcher whose threshold is met."""
        if delta < 0:
            raise ValueError(f"counter {self.name!r} must not decrease")
        self.value += delta
        tel = self.engine.telemetry
        if tel is not None:
            tel.counter_advance(self.engine.now, self.name, self.value, delta)
        if not self._watchers:
            return
        ready = [(t, e) for (t, e) in self._watchers if self.value >= t]
        if ready:
            self._watchers = [
                (t, e) for (t, e) in self._watchers if self.value < t
            ]
            stall = self._stall_fn() if self._stall_fn is not None else 0.0
            if stall > 0.0:
                for _t, event in ready:
                    self.engine.call_after(stall, event.trigger, self.value)
            else:
                for _t, event in ready:
                    event.trigger(self.value)

    def set_at_least(self, value: float) -> None:
        """Raise the counter to ``value`` if it is currently lower."""
        if value > self.value:
            self.add(value - self.value)

    def wait_for(self, threshold: float) -> Event:
        """Event firing when ``value >= threshold`` (immediately if already)."""
        tel = self.engine.telemetry
        if tel is not None:
            tel.counter_poll(self.engine.now, self.name, self.value, threshold)
        event = Event(self.engine)
        if self.value >= threshold:
            event.trigger(self.value)
        else:
            self._watchers.append((threshold, event))
        return event
