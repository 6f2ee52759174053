"""The discrete-event engine and the Process abstraction.

Time is a ``float`` in microseconds.  The engine owns a binary heap of
``(time, seq, callback, value)`` entries; ``seq`` is a global tick that makes
event ordering total and therefore the whole simulation deterministic.

A :class:`Process` wraps a generator.  The generator yields *waitables*
(:mod:`repro.sim.events`); when a waitable fires, the engine ``send``s the
waitable's value back into the generator.  A generator may also ``yield``
another ``Process`` to join it, or ``yield from`` helper sub-generators to
compose behaviour (the idiom the collective algorithms use heavily).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.sim.events import Event, Timeout, Waitable


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class TransientFaultError(RuntimeError):
    """An injected transient fault surfaced at a protocol boundary.

    Raised by fault-aware services (window mapping, deadline checks) when a
    retry budget is exhausted or a collective misses its deadline.  Unlike a
    model bug — which :class:`Process` wraps in :class:`SimulationError` so
    it fails loudly — a transient fault propagates *unwrapped* out of
    :meth:`Engine.run`, letting a resilience layer catch it, discard the
    machine, and fall back to a hardier protocol.
    """


class Process(Waitable):
    """A cooperative simulation process wrapping a generator.

    The process is itself a waitable: yielding a process joins it, resuming
    the waiter with the joined process's return value once it terminates.
    Exceptions raised inside a process propagate out of :meth:`Engine.run`,
    so a bug in a model fails the simulation loudly rather than deadlocking.
    """

    __slots__ = ("engine", "generator", "name", "finished", "result", "_done_event")

    def __init__(self, engine: "Engine", generator: Generator, name: str = "?"):
        self.engine = engine
        self.generator = generator
        self.name = name
        self.finished = False
        self.result: Any = None
        self._done_event = Event(engine)

    # -- Waitable protocol: joining ------------------------------------
    def subscribe(self, process: "Process") -> None:
        self._done_event.subscribe(process)

    # -- execution ------------------------------------------------------
    def resume(self, value: Any = None) -> None:
        """Advance the generator by one step; called by waitables."""
        if self.finished:
            raise SimulationError(f"process {self.name!r} resumed after finish")
        try:
            target = self.generator.send(value)
        except StopIteration as stop:
            self.finished = True
            self.result = stop.value
            self._done_event.trigger(stop.value)
            return
        except TransientFaultError:
            # Injected faults pass through unwrapped so the resilience
            # layer can distinguish them from genuine model bugs.
            self.finished = True
            raise
        except Exception as exc:  # annotate and re-raise: fail loudly
            self.finished = True
            raise SimulationError(
                f"process {self.name!r} raised {type(exc).__name__}: {exc}"
            ) from exc
        if not isinstance(target, Waitable):
            raise SimulationError(
                f"process {self.name!r} yielded non-waitable {target!r}"
            )
        target.subscribe(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.finished else "running"
        return f"<Process {self.name} {state}>"


class Engine:
    """The event loop: a virtual clock plus a deterministic event heap."""

    __slots__ = (
        "now", "_heap", "_seq", "_running", "telemetry",
    )

    def __init__(self):
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Callable, Any]] = []
        self._seq: int = 0
        self._running = False
        # Optional TelemetryRecorder (repro.telemetry), the one sink of a
        # run's observations, flows included.  Hook sites read this once
        # and skip recording when None; recording never schedules events,
        # so timings are bit-identical whether or not a recorder is attached.
        self.telemetry = None

    # -- scheduling ------------------------------------------------------
    def call_at(self, when: float, callback: Callable, value: Any = None) -> None:
        """Schedule ``callback(value)`` at absolute time ``when``."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule in the past: {when} < now={self.now}"
            )
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, callback, value))

    def call_after(self, delay: float, callback: Callable, value: Any = None) -> None:
        """Schedule ``callback(value)`` after ``delay`` microseconds."""
        self.call_at(self.now + delay, callback, value)

    # -- waitable factories ----------------------------------------------
    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a timeout waitable; ``yield engine.timeout(dt)``."""
        return Timeout(self, delay, value)

    def event(self) -> Event:
        """Create a fresh one-shot event."""
        return Event(self)

    # -- processes ---------------------------------------------------------
    def spawn(self, generator: Generator, name: str = "?") -> Process:
        """Create a process from a generator and start it at the current time."""
        process = Process(self, generator, name=name)
        # First resume primes the generator (send(None) == next()).
        self.call_at(self.now, process.resume, None)
        return process

    # -- running -----------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run events until the heap drains or the clock passes ``until``.

        Returns the final simulation time.  Re-entrant calls are forbidden.
        """
        if self._running:
            raise SimulationError("Engine.run is not re-entrant")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        try:
            if until is None:
                # Hot loop: no deadline checks, locals only.
                while heap:
                    when, _seq, callback, value = pop(heap)
                    self.now = when
                    callback(value)
            else:
                while heap:
                    if heap[0][0] > until:
                        self.now = until
                        break
                    when, _seq, callback, value = pop(heap)
                    self.now = when
                    callback(value)
                else:
                    if until > self.now:
                        self.now = until
        finally:
            self._running = False
        return self.now

    def rebase(self, origin: Optional[float] = None) -> float:
        """Shift the clock origin: ``now`` and all pending event times drop
        by ``origin`` (default: the current time), clamped at zero.

        Floating-point event arithmetic depends on the magnitude of the
        clock — ``fl(now + delay)`` rounds differently at ``now=1e4`` than
        at ``now=2e4`` — so two identical workloads started at different
        absolute times can differ in the last ulp.  Rebasing the clock to
        zero at a quiescent instant (the Fig-5 harness does this at every
        iteration barrier) makes repeated workloads run the *exact same*
        arithmetic and therefore produce bit-identical timings.

        Entries scheduled at exactly ``origin`` (e.g. a barrier-release
        batch) shift to exactly ``0.0``; a batch of same-instant callbacks
        keeps its relative (seq) order.  Returns the subtracted origin.
        """
        if origin is None:
            origin = self.now
        if origin == 0.0:
            return 0.0
        heap = self._heap
        for index, (when, seq, callback, value) in enumerate(heap):
            shifted = when - origin
            heap[index] = (
                shifted if shifted > 0.0 else 0.0, seq, callback, value
            )
        heapq.heapify(heap)
        shifted_now = self.now - origin
        self.now = shifted_now if shifted_now > 0.0 else 0.0
        return origin

    def run_until_processes_finish(self, processes: List[Process]) -> float:
        """Run until every listed process has terminated.

        Raises :class:`SimulationError` on deadlock (event heap drained while
        some process is still parked on a waitable that can never fire).
        """
        self.run()
        stuck = [p for p in processes if not p.finished]
        if stuck:
            names = ", ".join(p.name for p in stuck[:8])
            raise SimulationError(
                f"deadlock: {len(stuck)} process(es) never finished: {names}"
            )
        return self.now
