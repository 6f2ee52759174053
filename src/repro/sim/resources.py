"""Item-passing resource for the DES kernel.

``Store`` is an unbounded FIFO of Python objects with a blocking get: the
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
    """Unbounded FIFO of items: a put never blocks, a get waits for one."""

    def __init__(self, engine: Engine, name: str = "store"):
        self.engine = engine
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Place ``item`` in the store at once; nothing waits on a put."""
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            getter = self._getters.popleft()
            getter.trigger(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the oldest item."""
        event = Event(self.engine)
        if self._items:
            event.trigger(self._items.popleft())
        else:
            self._getters.append(event)
        return event
