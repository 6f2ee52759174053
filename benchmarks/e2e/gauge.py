"""A gauge of how fast the host runs while a pass runs.

On a shared host the same code can run twice as fast in one minute as
in the next, and a whole run can fall inside one slow phase.  While a
pass runs, a timer interrupts this process every ``PERIOD_S`` seconds and
the handler times a fixed piece of pure-Python work shaped like the
simulator's inner loop: events popped from and pushed back onto a binary
heap, each updating its own dict and an entry of a shared table.  Code
shaped so slows as the simulator does; an arithmetic loop or a pointer
chase alone slowed less (see ``README.md``).

``run.py`` pins itself and its children to one CPU, so each sample runs
between two slices of the pass it gauges, on the same core.  The gauge
imports nothing from the program, so no change to the program can move
it.
"""

from __future__ import annotations

import contextlib
import heapq
import random
import signal
import time
from typing import Iterator, List, Tuple

#: seconds between samples
PERIOD_S = 0.05
#: events in the queue, distinct keys they update, and events handled per
#: sample (about 2 ms of work)
QUEUE_EVENTS = 50_000
KEYS = 4093
STEPS = 300

#: one sample: (``perf_counter`` when it started, CPU seconds it took)
Sample = Tuple[float, float]


class _Event:
    __slots__ = ("time", "key", "state")

    def __init__(self, time_: float, key: int) -> None:
        self.time = time_
        self.key = key
        self.state = {"handled": 0}

    def __lt__(self, other: "_Event") -> bool:
        return self.time < other.time


class SpeedGauge:
    """Times a fixed piece of work, alone or repeatedly while a block runs."""

    def __init__(self) -> None:
        self._rng = random.Random(3)
        self._queue = [_Event(self._rng.random(), i % KEYS)
                       for i in range(QUEUE_EVENTS)]
        heapq.heapify(self._queue)
        self._table = {key: [0, 0.0] for key in range(KEYS)}

    def sample(self) -> Sample:
        """Handle ``STEPS`` events; return when that started and the CPU
        seconds it took.  CPU time leaves out any slice of the pass that
        preempts the handler."""
        queue, table, rng = self._queue, self._table, self._rng
        at = time.perf_counter()
        start = time.thread_time()
        for _ in range(STEPS):
            event = heapq.heappop(queue)
            entry = table[event.key]
            entry[0] += 1
            entry[1] += event.time
            event.state["handled"] += 1
            event.time += rng.random()
            event.key = (event.key * 31 + 7) % KEYS
            heapq.heappush(queue, event)
        return at, time.thread_time() - start

    @contextlib.contextmanager
    def sampling(self) -> Iterator[List[Sample]]:
        """Yield a list that fills with samples until the block ends.

        The samples come from a ``SIGALRM`` handler, so the block must
        leave that signal alone; Python retries the system calls it
        interrupts.
        """
        samples: List[Sample] = []
        previous = signal.signal(
            signal.SIGALRM, lambda *_: samples.append(self.sample()))
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield samples
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
