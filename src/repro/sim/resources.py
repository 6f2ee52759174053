"""Item-passing resource for the DES kernel.

``Store`` is a bounded FIFO of Python objects with blocking put/get: the
arrival mailboxes and hand-off queues of the collectives.  Bandwidth is
not modelled here.  Every bandwidth-sharing resource (torus links, the
DMA engine, the memory port, tree ports) is a
:class:`~repro.sim.flownet.FlowResource` of the max-min fair
:class:`~repro.sim.flownet.FlowNetwork` in :mod:`repro.sim.flownet`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.sim.engine import Engine
from repro.sim.events import Event


class Store:
    """Bounded FIFO of items with blocking put/get semantics."""

    def __init__(self, engine: Engine, capacity: int = 2**30, name: str = "store"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        """Return an event that fires once ``item`` is placed in the store."""
        event = Event(self.engine)
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            getter = self._getters.popleft()
            getter.trigger(item)
            event.trigger(None)
        elif len(self._items) < self.capacity:
            self._items.append(item)
            event.trigger(None)
        else:
            self._putters.append((event, item))
        return event

    def get(self) -> Event:
        """Return an event that fires with the oldest item."""
        event = Event(self.engine)
        if self._items:
            item = self._items.popleft()
            if self._putters:
                put_event, queued = self._putters.popleft()
                self._items.append(queued)
                put_event.trigger(None)
            event.trigger(item)
        else:
            self._getters.append(event)
        return event
