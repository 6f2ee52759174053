"""Waitable primitives for the DES kernel.

A *waitable* is anything a process generator may ``yield``.  The engine calls
:meth:`Waitable.subscribe` with the yielded-from process; the waitable must
later call ``process.resume(value)`` (usually via the engine) exactly once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine, Process


class Waitable:
    """Base class for objects a simulation process may ``yield``.

    Declares empty ``__slots__`` so that the per-event hot classes deriving
    from it (``Timeout``, ``Event``, ``Flow``, ``Process``) actually get the
    compact slotted layout their own ``__slots__`` declarations ask for —
    a slotted subclass of a dict-ful base would silently keep the dict.
    """

    __slots__ = ()

    def subscribe(self, process: "Process") -> None:
        raise NotImplementedError


class Timeout(Waitable):
    """Resume the yielding process after ``delay`` microseconds.

    A non-positive delay resumes the process at the current time but still
    goes through the event queue, preserving deterministic ordering.
    """

    __slots__ = ("engine", "delay", "value")

    def __init__(self, engine: "Engine", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"Timeout delay must be >= 0, got {delay}")
        self.engine = engine
        self.delay = delay
        self.value = value

    def subscribe(self, process: "Process") -> None:
        self.engine.call_at(
            self.engine.now + self.delay, process.resume, self.value
        )


class Event(Waitable):
    """A one-shot broadcast event.

    Processes that yield an un-triggered event park until :meth:`trigger`
    fires; a process yielding an already-triggered event resumes immediately
    (via the queue) with the stored value.  Triggering twice is an error —
    create a fresh event per occurrence instead.
    """

    __slots__ = ("engine", "_waiters", "_callbacks", "triggered", "value")

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self._waiters: List["Process"] = []
        self._callbacks: List[Callable[[Any], None]] = []
        self.triggered = False
        self.value: Any = None

    def subscribe(self, process: "Process") -> None:
        if self.triggered:
            self.engine.call_at(self.engine.now, process.resume, self.value)
        else:
            self._waiters.append(process)

    def on_trigger(self, callback: Callable[[Any], None]) -> None:
        """Register a plain callback invoked (immediately or later) on trigger."""
        if self.triggered:
            callback(self.value)
        else:
            self._callbacks.append(callback)

    def trigger(self, value: Any = None) -> None:
        """Fire the event, waking all current and future waiters."""
        if self.triggered:
            raise RuntimeError("Event already triggered")
        self.triggered = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        callbacks, self._callbacks = self._callbacks, []
        for process in waiters:
            self.engine.call_at(self.engine.now, process.resume, value)
        for callback in callbacks:
            callback(value)


class AllOf(Waitable):
    """Resume when every event in the set has triggered.

    The resumed process receives the list of event values in input order.
    """

    __slots__ = ("engine", "events")

    def __init__(self, engine: "Engine", events: List[Event]):
        self.engine = engine
        self.events = list(events)

    def subscribe(self, process: "Process") -> None:
        remaining = {"count": len(self.events)}
        if remaining["count"] == 0:
            self.engine.call_at(self.engine.now, process.resume, [])
            return

        def callback(_value: Any) -> None:
            remaining["count"] -= 1
            if remaining["count"] == 0:
                values = [e.value for e in self.events]
                self.engine.call_at(self.engine.now, process.resume, values)

        for event in self.events:
            event.on_trigger(callback)
