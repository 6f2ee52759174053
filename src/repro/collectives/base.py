"""Shared machinery for collective-algorithm invocations.

Every algorithm follows the same shape:

* an **invocation** object holds the per-call shared state (message
  counters, FIFOs, delivery registries, payload buffers) for one collective
  on one machine;
* per MPI rank, :meth:`proc` returns the coroutine that rank's core runs;
  background helpers (DMA forwarders, comm threads) are spawned by the
  invocation as *service* coroutines;
* the invocation optionally carries **real payload bytes** so tests can
  assert bit-exact delivery; large benchmark runs disable this and simulate
  timing only.

Timing follows the paper's Fig-5 microbenchmark: the harness barriers, then
measures each rank's elapsed time through the collective; the reported
elapsed time of one iteration is the maximum over ranks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.hardware.machine import Machine
from repro.kernel.windows import ProcessWindows
from repro.util.buffers import same_bytes
from repro.util.units import bandwidth_mbs

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


@dataclass
class CollectiveResult:
    """Outcome of one measured collective run."""

    algorithm: str
    nbytes: int
    nprocs: int
    #: mean over iterations of (max over ranks) elapsed µs — Fig-5 style
    elapsed_us: float
    #: per-iteration elapsed times (µs)
    iterations_us: List[float] = field(default_factory=list)
    #: transient-fault retries absorbed inside the run (window remaps etc.)
    retries: int = 0
    #: protocols abandoned mid-run, in fallback order (empty when healthy)
    fallbacks: List[str] = field(default_factory=list)
    #: µs of simulated time spent on failed attempts before the protocol
    #: that finally completed (0.0 when the first choice succeeded)
    recovery_time: float = 0.0
    #: :class:`repro.telemetry.manifest.RunManifest` attached by
    #: :func:`repro.bench.harness.run_collective` (plain picklable data, so
    #: results survive the parallel executor)
    manifest: Optional["object"] = None

    @property
    def bandwidth_mbs(self) -> float:
        """Throughput in MB/s, as in the paper's bandwidth figures.

        Zero-byte collectives (a barrier, an empty broadcast) and
        zero-elapsed runs move no measurable bytes per second: 0.0, not a
        ZeroDivisionError.
        """
        if self.nbytes <= 0 or self.elapsed_us <= 0:
            return 0.0
        return bandwidth_mbs(self.nbytes, self.elapsed_us)

    def __str__(self) -> str:
        text = (
            f"{self.algorithm}: {self.nbytes} B in {self.elapsed_us:.2f} us "
            f"({self.bandwidth_mbs:.1f} MB/s) on {self.nprocs} procs"
        )
        if self.retries or self.fallbacks:
            text += (
                f" [retries={self.retries}"
                f" fallbacks={'>'.join(self.fallbacks) or '-'}"
                f" recovery={self.recovery_time:.2f} us]"
            )
        return text


class InvocationSession:
    """Window-service lifecycle shared across repeated invocations.

    The Fig-8 "caching" behaviour: shared-address mapping caches live in
    per-rank :class:`ProcessWindows` services, and those services must
    persist across the iterations of a measurement loop so only the first
    iteration pays mapping system calls.  A session owns that per-rank
    dict; :meth:`adopt` installs it into each fresh invocation, so every
    invocation adopted by the same session sees (and extends) the same
    caches.
    """

    def __init__(self) -> None:
        self.windows_by_rank: Dict[int, "ProcessWindows"] = {}

    def adopt(self, invocation: "InvocationBase") -> "InvocationBase":
        """Install this session's window services into ``invocation``."""
        invocation.install_windows(self.windows_by_rank)
        return invocation


class ProcContext:
    """Everything one MPI rank needs during an invocation."""

    def __init__(self, machine: Machine, rank: int,
                 windows: Optional[ProcessWindows] = None):
        self.machine = machine
        self.rank = rank
        self.node_index = machine.rank_to_node(rank)
        self.node = machine.nodes[self.node_index]
        self.local_rank = machine.rank_to_local(rank)
        self.dma = machine.dma[self.node_index]
        #: per-process window service (present for shared-address schemes)
        self.windows = windows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ProcContext rank={self.rank} node={self.node_index}>"


class InvocationBase:
    """Common state of one collective call: windows, contexts, data hooks.

    Subclasses (broadcast, allreduce, allgather families) implement
    :meth:`setup` and :meth:`proc` and define what the payload means.  The
    torus/tree network engines only rely on this interface: ``machine``,
    ``root``, ``nbytes``, ``carry_data``, :meth:`payload_slice` and
    :meth:`write_result`.
    """

    #: registry name, set by concrete algorithms
    name: str = "?"
    #: "torus" or "tree"
    network: str = "?"

    def __init__(self, machine: Machine, root: int, nbytes: int,
                 window_caching: bool = True):
        # @register installs ``capabilities``; an unregistered base
        # class has none and accepts every mode.
        info = getattr(self, "capabilities", None)
        if info is not None and not info.supports_ppn(machine.ppn):
            raise ValueError(
                f"{self.name} runs at ppn {info.modes}, machine has "
                f"ppn={machine.ppn}"
            )
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        machine.check_rank(root)
        self.machine = machine
        self.root = root
        self.nbytes = nbytes
        self.window_caching = window_caching
        self.carry_data = False
        self._windows: Dict[int, ProcessWindows] = {}

    # -- to implement ---------------------------------------------------
    def setup(self) -> None:
        """Build shared state and spawn service coroutines."""
        raise NotImplementedError

    def proc(self, rank: int):
        """Return the coroutine executed by ``rank``'s core."""
        raise NotImplementedError

    def verify(self) -> None:
        """Assert delivered data is correct (requires carry_data)."""
        raise NotImplementedError

    # -- data hooks (overridden by data-carrying subclasses) ----------------
    def payload_slice(self, offset: int, size: int) -> Optional[np.ndarray]:
        """A byte slice of the logical payload (None when timing-only)."""
        return None

    def write_result(self, rank: int, offset: int, data: np.ndarray) -> None:
        """Record delivered payload bytes for ``rank`` (no-op by default)."""

    # -- window services -------------------------------------------------
    def context(self, rank: int) -> ProcContext:
        """Build the :class:`ProcContext` for a rank (window services are
        cached per rank for the lifetime of the invocation)."""
        windows = self._windows.get(rank)
        if windows is None:
            windows = ProcessWindows(
                self.machine, caching=self.window_caching,
                node=self.machine.rank_to_node(rank),
            )
            self._windows[rank] = windows
        return ProcContext(self.machine, rank, windows)

    def install_windows(self, windows_by_rank: Dict[int, ProcessWindows]) -> None:
        """Share window services across iterations (mapping caches persist,
        which is exactly the Fig-8 'caching' behaviour).  The dict is shared
        by reference: services this invocation creates are visible to later
        invocations installed with the same dict."""
        self._windows = windows_by_rank

    @property
    def windows_by_rank(self) -> Dict[int, ProcessWindows]:
        return self._windows

    @staticmethod
    def session() -> InvocationSession:
        """Start an :class:`InvocationSession` (Fig-8 cache lifecycle)."""
        return InvocationSession()


class BcastInvocation(InvocationBase):
    """Base class for one broadcast call.

    ``payload`` is the root's message; when carried, ``result_buffers[rank]``
    receives the delivered bytes for verification.
    """

    def __init__(
        self,
        machine: Machine,
        root: int,
        nbytes: int,
        payload: Optional[np.ndarray] = None,
        window_caching: bool = True,
    ):
        super().__init__(machine, root, nbytes, window_caching)
        self.carry_data = payload is not None
        if self.carry_data and payload.nbytes != nbytes:
            raise ValueError(
                f"payload is {payload.nbytes} B but nbytes={nbytes}"
            )
        self.payload = payload
        #: rank -> delivered bytes (filled when carry_data).  The root
        #: starts with the payload itself *by reference* — copy-on-write,
        #: so a verify-carrying attempt pays no O(nbytes) copy unless an
        #: algorithm actually writes into the root's buffer.
        self.result_buffers: Dict[int, np.ndarray] = {}
        if self.carry_data:
            import numpy as np

            for rank in range(machine.nprocs):
                if rank == root:
                    self.result_buffers[rank] = payload
                else:
                    self.result_buffers[rank] = np.zeros(nbytes, dtype=np.uint8)
        self.setup()

    def write_result(self, rank: int, offset: int, data: np.ndarray) -> None:
        if self.carry_data:
            buffer = self.result_buffers[rank]
            if buffer is self.payload:
                # First write into the root's buffer: materialize the copy
                # now so the caller-owned payload stays pristine.
                import numpy as np

                buffer = np.array(self.payload, copy=True)
                self.result_buffers[rank] = buffer
            buffer[offset:offset + data.nbytes] = data

    def payload_slice(self, offset: int, size: int) -> Optional[np.ndarray]:
        if not self.carry_data:
            return None
        return self.payload[offset:offset + size]

    def verify(self) -> None:
        """Assert every rank holds the root's bytes (requires carry_data)."""
        if not self.carry_data:
            raise RuntimeError("verify() requires carry_data=True")
        for rank in range(self.machine.nprocs):
            # memoryview-based: zero-copy, and O(1) for the root when no
            # write ever displaced its shared reference to the payload.
            if not same_bytes(self.result_buffers[rank], self.payload):
                import numpy as np

                mismatch = int(
                    np.argmax(self.result_buffers[rank] != self.payload)
                )
                raise AssertionError(
                    f"rank {rank}: payload mismatch at byte {mismatch}"
                )
