"""Process-window (shared address space) system-call model.

The mechanism (section III-B): for process A to read ``n`` bytes at virtual
address ``VA_b`` of process B,

1. B translates ``VA_b`` to a physical address (system call #1);
2. A maps that physical region into its own address space (system call #2),
   consuming one of its ``N`` reserved TLB slots (default ``N = 3`` — one
   per peer on the four-core node).

TLB slots come in 1 MB / 16 MB / 256 MB sizes; a buffer spanning more than
one slot-size region needs one mapping (and one pair of system calls) per
region.

Caching: "In our schemes, we internally cache the buffer information if the
same buffer is repeatedly used in the application" (section VI-A, Fig 8).
With caching on, the first use of a (peer, buffer) pair pays the system
calls and later uses are free; with caching off, every use pays.  Cache
entries are evicted LRU when the peer's slot budget is exhausted.

Faults: an active :class:`~repro.hardware.fault_schedule.WindowFault`
window caps the TLB slots the kernel will hand out on the mapping node.
A mapping attempt that needs more slots than the cap pays its system
calls, fails, and is retried under the machine's
:class:`~repro.hardware.fault_schedule.RetryPolicy` (exponential backoff);
when the budget is exhausted a
:class:`~repro.sim.engine.TransientFaultError` escapes to the resilience
layer.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Optional, Tuple

from repro.sim.engine import TransientFaultError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.machine import Machine


@dataclass(frozen=True)
class WindowMapping:
    """An installed mapping of a peer buffer into the local address space."""

    peer: int
    buffer_key: Hashable
    nbytes: int
    #: number of TLB slots (slot-size regions) the mapping occupies
    slots: int


class ProcessWindows:
    """Per-process window service: syscall accounting plus mapping cache.

    One instance per MPI process; ``caching=False`` reproduces the
    "nocaching" series of Figure 8.  ``node`` scopes fault queries to the
    owning process's node (``None`` = unscoped: any node's window fault
    applies).
    """

    def __init__(self, machine: "Machine", caching: bool = True,
                 node: Optional[int] = None):
        self.machine = machine
        self.params = machine.params
        self.caching = caching
        self.node = node
        # key -> WindowMapping, LRU-ordered (most recent last)
        self._cache: "OrderedDict[Tuple[int, Hashable], WindowMapping]" = (
            OrderedDict()
        )
        #: lifetime statistics, inspectable by tests and benchmarks
        self.syscalls = 0
        self.mappings_installed = 0
        self.cache_hits = 0
        #: mapping attempts retried after hitting an active window fault
        self.retries = 0
        #: mapping operations that exhausted the retry budget
        self.map_faults = 0

    # -- sizing ---------------------------------------------------------
    def slots_needed(self, nbytes: int) -> int:
        """TLB slots required for a buffer of ``nbytes``.

        "In the worst case, more than one mapping may be required to access
        one buffer if the buffer spans across multiple page boundaries";
        we charge one mapping per started slot-size region.
        """
        if nbytes <= 0:
            raise ValueError(f"nbytes must be > 0, got {nbytes}")
        slot = self.params.tlb_slot_bytes
        return (nbytes + slot - 1) // slot

    # -- mapping ----------------------------------------------------------
    def map_buffer(self, peer: int, buffer_key: Hashable, nbytes: int):
        """Sub-generator: make ``peer``'s buffer addressable; returns mapping.

        Charges ``2 x syscall_cost`` per required TLB slot unless the mapping
        is cached.  The calling coroutine is the core doing the syscalls.
        Under an active window fault the attempt fails after paying its
        syscalls and is retried with exponential backoff; retry exhaustion
        raises :class:`TransientFaultError`.
        """
        slots = self.slots_needed(nbytes)
        key = (peer, buffer_key)
        if self.caching:
            cached = self._cache.get(key)
            if cached is not None and cached.nbytes >= nbytes:
                self._cache.move_to_end(key)
                self.cache_hits += 1
                tel = self.machine.engine.telemetry
                if tel is not None:
                    tel.window_event(
                        self.machine.engine.now, self.node, peer, "hit",
                        cached.slots,
                    )
                return cached
        cost = 2.0 * self.params.syscall_cost * slots
        policy = self.machine.retry_policy
        attempt = 1
        while True:
            if cost > 0:
                yield self.machine.engine.timeout(cost)
            self.syscalls += 2 * slots
            cap = self.machine.faults.window_slot_cap(self.node)
            if cap is None or slots <= cap:
                break
            # The kernel refused the mapping: slot-exhaustion window active.
            if attempt >= policy.max_attempts:
                self.map_faults += 1
                self.machine.faults.window_failures += 1
                raise TransientFaultError(
                    f"window mapping for peer {peer} failed after "
                    f"{attempt} attempts (TLB slots capped at {cap}, "
                    f"need {slots})"
                )
            self.retries += 1
            self.machine.faults.window_retries += 1
            yield self.machine.engine.timeout(policy.backoff_us(attempt))
            attempt += 1
        self.mappings_installed += 1
        mapping = WindowMapping(peer, buffer_key, nbytes, slots)
        tel = self.machine.engine.telemetry
        if tel is not None:
            tel.window_event(
                self.machine.engine.now, self.node, peer, "map", slots
            )
        if self.caching:
            self._evict_for(peer, slots)
            self._cache[key] = mapping
        return mapping

    def _evict_for(self, peer: int, slots: int) -> None:
        """Evict LRU mappings of ``peer`` until ``slots`` fit in the budget.

        The slot budget is per peer: quad mode reserves one slot per peer
        process, so repeatedly mapping *different* large buffers of the same
        peer thrashes the slot (and the cache cannot help).
        """
        budget = max(1, self.params.tlb_slots // max(1, self._peers_expected()))
        budget = max(budget, slots)  # a single over-large buffer still maps

        def used() -> int:
            return sum(
                m.slots for (p, _k), m in self._cache.items() if p == peer
            )

        while used() + slots > budget:
            for (p, k) in self._cache:  # OrderedDict: oldest first
                if p == peer:
                    evicted = self._cache.pop((p, k))
                    tel = self.machine.engine.telemetry
                    if tel is not None:
                        tel.window_event(
                            self.machine.engine.now, self.node, p, "unmap",
                            evicted.slots,
                        )
                    break
            else:
                break

    def _peers_expected(self) -> int:
        return max(1, self.machine.ppn - 1)
