"""The Fig-5 microbenchmark harness.

The paper measures collectives with::

    for (i = 0; i < ITERS; i++)
        MPI_Barrier(comm);
        start = MPI_Wtime();
        MPI_Bcast(...);
        elapsed_time += (MPI_Wtime() - start);
    elapsed_time /= ITERS;

We reproduce that loop in simulation: every rank's coroutine barriers, runs
its part of the collective, and records its elapsed simulated time.  The
per-iteration elapsed time is the maximum over ranks (the time at which the
operation completed machine-wide); the reported number is the mean over
iterations, just like the pseudo-code.

One loop, many collectives
--------------------------

Every collective family is measured by the same driver,
:func:`run_collective`; what differs per family — how the verification
payload is built, how the invocation constructor is spelled, what the
reported byte count and the node-local working set are — is captured in a
small :class:`FamilySpec` adapter, one per family in :data:`FAMILY_SPECS`.

Window services (shared-address mapping caches) persist across iterations
through an :class:`~repro.collectives.base.InvocationSession`, so with
caching enabled only the first iteration pays mapping system calls — the
behaviour Figure 8's "caching" series measures.

Steady-state short-circuit
--------------------------

The simulation is deterministic, so once the transient (window mapping
on iteration 0, cache warm-up) has passed, every remaining iteration
produces *bit-identical* per-rank times.  ``_measure`` detects this — two
consecutive iterations with exactly equal per-rank time vectors — stops
simulating, and fills the remaining rows with copies of the steady
iteration.  The returned matrix is bit-identical to simulating all
``ITERS`` iterations, at a fraction of the wall-clock cost.

The detection is exact equality, so it is inherently safe under injected
jitter or mid-run degradation: perturbed iterations never compare equal
and the full loop runs.  It is *not* safe when the caller mutates the
machine from outside between iterations in a way that happens to first
bite on a later iteration; pass ``steady_state=False`` to
:func:`run_collective` in that case.  ``verify=True`` also disables it by
default so the payload actually travels through every iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Union

from repro.collectives.base import CollectiveResult, InvocationBase
from repro.collectives.registry import get_algorithm, select_protocol
from repro.hardware.network import UnsupportedTopologyError
from repro.hardware.machine import Machine
from repro.sim.engine import TransientFaultError
from repro.telemetry.manifest import RunManifest

# The broadcast and allreduce protocols import the recorder's role names:
# loading it with the harness keeps that import out of the first measured
# call.
import repro.telemetry.recorder  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


def _measure(
    machine: Machine,
    make_invocation: Callable[[int], object],
    iters: int,
    verify: bool,
    steady_state: Optional[bool] = None,
    deadline_us: Optional[float] = None,
) -> List[List[float]]:
    """Run the Fig-5 loop; returns per-iteration, per-rank elapsed times.

    With ``steady_state`` the loop stops as soon as two consecutive
    iterations produce exactly equal per-rank time vectors and the
    remaining rows are filled with copies of the steady iteration (see
    module docstring); the returned matrix is bit-identical either way.
    ``None`` (the default) enables it exactly when ``verify`` is off.

    ``deadline_us`` turns the loop into a failure detector for injected
    faults: the engine stops once the clock passes the deadline, and any
    rank still unfinished raises :class:`TransientFaultError` — catching
    stalls and deadlocks without per-wait timeouts.  Because the harness
    rebases the clock at each iteration barrier, the deadline effectively
    bounds one iteration's continuous simulated time, not the whole loop.
    """
    if steady_state is None:
        steady_state = not verify
    engine = machine.engine
    barrier = machine.make_barrier()
    invocations: Dict[int, object] = {}
    session = InvocationBase.session()
    nprocs = machine.nprocs
    times: List[List[float]] = [[0.0] * nprocs for _ in range(iters)]
    # Shared steady-state detector: ``left`` counts ranks yet to finish
    # the current iteration; the last finisher compares the completed row
    # against the previous one and arms ``stop_after``.  ``rebased`` is
    # the iteration whose clock rebase has already run.
    state = {"left": nprocs, "stop_after": None, "rebased": -1}

    def get_invocation(iteration: int):
        inv = invocations.get(iteration)
        if inv is None:
            inv = session.adopt(make_invocation(iteration))
            invocations[iteration] = inv
        return inv

    # Build iteration 0 eagerly so configuration errors (wrong mode, bad
    # root) surface as plain exceptions instead of simulation failures.
    get_invocation(0)

    def rank_loop(rank: int):
        for iteration in range(iters):
            yield barrier.wait()
            # The last rank of iteration k decrements ``left`` *before*
            # arriving at this barrier, so when the barrier releases, all
            # ranks agree on whether steady state was just detected and
            # break together (every rank consumes the same barrier count).
            if state["stop_after"] is not None:
                break
            # First rank out of the barrier resets the clock origin, so
            # every iteration starts at exactly t=0 and warm iterations
            # repeat the exact same float arithmetic (bit-identical
            # rows — which is also what makes the steady-state detection
            # below sound rather than merely likely).
            if state["rebased"] != iteration:
                state["rebased"] = iteration
                machine.rebase_time()
            inv = get_invocation(iteration)
            start = engine.now
            yield from inv.proc(rank)
            times[iteration][rank] = engine.now - start
            state["left"] -= 1
            if state["left"] == 0:
                state["left"] = nprocs
                if (
                    steady_state
                    and iteration >= 1
                    and times[iteration] == times[iteration - 1]
                ):
                    state["stop_after"] = iteration

    procs = [
        machine.spawn(rank_loop(rank), name=f"mpi.r{rank}")
        for rank in range(nprocs)
    ]
    if deadline_us is None:
        engine.run_until_processes_finish(procs)
    else:
        engine.run(until=deadline_us)
        stuck = [p for p in procs if not p.finished]
        if stuck:
            names = ", ".join(p.name for p in stuck[:8])
            raise TransientFaultError(
                f"collective missed its {deadline_us:.0f} us deadline: "
                f"{len(stuck)} rank(s) unfinished: {names}"
            )
    stop_after = state["stop_after"]
    if stop_after is not None:
        steady = times[stop_after]
        for iteration in range(stop_after + 1, iters):
            times[iteration] = list(steady)
    if verify:
        for inv in invocations.values():
            inv.verify()
    return times


# -- family adapters ----------------------------------------------------
#
# The payload builders run only for ``verify``; numpy is imported there,
# so a timing-only run never loads it.

def _bcast_payload(machine: Machine, x: int, rng) -> np.ndarray:
    return rng.integers(0, 256, size=x, dtype="uint8")


def _doubles_payload(machine: Machine, x: int, rng) -> np.ndarray:
    # Small integers stored as doubles: bit-exact under reordering.
    return rng.integers(0, 16, size=(machine.nprocs, x)).astype("float64")


def _blocks_payload(machine: Machine, x: int, rng) -> np.ndarray:
    return rng.integers(0, 256, size=(machine.nprocs, x), dtype="uint8")


def _pairwise_payload(machine: Machine, x: int, rng) -> np.ndarray:
    return rng.integers(
        0, 256, size=(machine.nprocs, machine.nprocs, x), dtype="uint8"
    )


def _payload_rng(seed: int):
    """The generator every verification payload is drawn from."""
    import numpy as np

    return np.random.default_rng(seed)


def _build_root_bytes(cls, machine, x, payload, root, window_caching):
    return cls(machine, root, x, payload=payload,
               window_caching=window_caching)


def _build_values(cls, machine, x, payload, root, window_caching):
    return cls(machine, x, values=payload, window_caching=window_caching)


def _build_blocks(cls, machine, x, payload, root, window_caching):
    return cls(machine, x, blocks=payload, window_caching=window_caching)


def _build_plain(cls, machine, x, payload, root, window_caching):
    return cls(machine)


@dataclass(frozen=True)
class FamilySpec:
    """How one collective family plugs into the generic Fig-5 driver.

    ``x`` is the family's natural size argument (message bytes for bcast,
    element count for the reductions, per-rank/per-pair block bytes for
    the block collectives, ignored for barrier).
    """

    family: str
    #: invocation constructor adapter
    build: Callable[..., object]
    #: reported CollectiveResult.nbytes for a given x
    nbytes: Callable[[Machine, int], int]
    #: node-local hot bytes to install before measuring (None: skip)
    working_set: Optional[Callable[[Machine, int], int]] = None
    #: verification payload builder (None: family cannot carry data)
    payload: Optional[Callable[[Machine, int, object], np.ndarray]] = None
    #: byte size fed to the protocol-selection table for algorithm="auto"
    select_nbytes: Optional[Callable[[Machine, int], int]] = None
    #: the adapter forwards ``root``; every other family runs at root 0
    takes_root: bool = False


#: the adapter table: every family the harness can measure
FAMILY_SPECS: Dict[str, FamilySpec] = {
    # The master's buffer plus one destination buffer per peer process is
    # hot on every node.
    "bcast": FamilySpec(
        family="bcast",
        build=_build_root_bytes,
        nbytes=lambda machine, x: x,
        working_set=lambda machine, x: x * machine.ppn,
        payload=_bcast_payload,
        select_nbytes=lambda machine, x: x,
        takes_root=True,
    ),
    # Every local process's send and receive partitions are touched.
    "allreduce": FamilySpec(
        family="allreduce",
        build=_build_values,
        nbytes=lambda machine, x: x * 8,
        working_set=lambda machine, x: 2 * x * 8 * machine.ppn,
        payload=_doubles_payload,
        select_nbytes=lambda machine, x: x * 8,
    ),
    "reduce": FamilySpec(
        family="reduce",
        build=_build_values,
        nbytes=lambda machine, x: x * 8,
        working_set=lambda machine, x: 2 * x * 8 * machine.ppn,
        payload=_doubles_payload,
        select_nbytes=lambda machine, x: x * 8,
    ),
    # Every rank's assembled buffer is hot on every node.
    "allgather": FamilySpec(
        family="allgather",
        build=_build_blocks,
        nbytes=lambda machine, x: x * machine.nprocs,
        working_set=lambda machine, x: x * machine.nprocs * machine.ppn,
        payload=_blocks_payload,
        # Selection is by the per-rank block size, not the total volume.
        select_nbytes=lambda machine, x: x,
    ),
    # Per-rank volume received (the usual alltoall reporting convention).
    "alltoall": FamilySpec(
        family="alltoall",
        build=_build_blocks,
        nbytes=lambda machine, x: x * machine.nprocs,
        working_set=lambda machine, x: 2 * x * machine.nprocs * machine.ppn,
        payload=_pairwise_payload,
    ),
    "gather": FamilySpec(
        family="gather",
        build=_build_blocks,
        nbytes=lambda machine, x: x * machine.nprocs,
        working_set=lambda machine, x: x * machine.ppn,
        payload=_blocks_payload,
    ),
    "scatter": FamilySpec(
        family="scatter",
        build=_build_blocks,
        nbytes=lambda machine, x: x * machine.nprocs,
        working_set=lambda machine, x: x * machine.ppn,
        payload=_blocks_payload,
    ),
    # A barrier moves no payload; bandwidth is meaningless.
    "barrier": FamilySpec(
        family="barrier",
        build=_build_plain,
        nbytes=lambda machine, x: 0,
    ),
}


def run_collective(
    machine: Machine,
    family: str,
    algorithm: Union[str, type],
    x: int = 0,
    *,
    root: int = 0,
    iters: int = 1,
    verify: bool = False,
    window_caching: bool = True,
    seed: int = 1234,
    steady_state: Optional[bool] = None,
    deadline_us: Optional[float] = None,
    payload: Optional[np.ndarray] = None,
) -> CollectiveResult:
    """Measure one collective of ``family`` with the Fig-5 loop.

    ``algorithm`` is a registry name, ``"auto"`` (resolved through the
    section-V selection table when the family has one), or an invocation
    class.  ``x`` is the family's natural size argument — see
    :class:`FamilySpec`.  ``root`` applies only to bcast; every other
    family runs at root 0 and raises :class:`ValueError` on any other
    root.  ``verify=True`` carries a pseudo-random payload through the
    simulated machine and asserts every rank received the correct bytes
    (slower; meant for tests and small configurations).
    ``payload`` supplies that verification payload directly instead of
    generating it from ``seed`` — callers that retry the same collective
    (the chaos fallback ladder) build it once and reuse it across
    attempts, skipping an O(x) regeneration per attempt.
    ``deadline_us`` (see :func:`_measure`) makes a stalled run raise
    :class:`TransientFaultError` instead of hanging in simulated time.
    """
    if family not in FAMILY_SPECS:
        raise KeyError(
            f"unknown collective family {family!r}; "
            f"known: {sorted(FAMILY_SPECS)}"
        )
    spec = FAMILY_SPECS[family]
    if root != 0 and not spec.takes_root:
        raise ValueError(
            f"family {family!r} takes no root (it runs at root 0); "
            f"got root={root}"
        )
    if isinstance(algorithm, str):
        if algorithm == "auto":
            if spec.select_nbytes is None:
                raise KeyError(
                    f"family {family!r} has no auto-selection policy"
                )
            algorithm = select_protocol(
                family, spec.select_nbytes(machine, x), machine.ppn,
                network=machine.network.name,
            )
        cls = get_algorithm(family, algorithm)
    else:
        cls = algorithm
    wire = getattr(cls, "network", None)
    if wire is not None and not machine.network.supports_wire(wire):
        raise UnsupportedTopologyError(
            f"{family}/{cls.name} rides the {wire!r} wire, which the "
            f"{machine.network.name!r} backend does not provide "
            f"(supported: {list(machine.network.wires)})"
        )
    if not verify:
        if payload is not None:
            raise ValueError("payload requires verify=True")
    elif spec.payload is None:
        raise ValueError(
            f"family {family!r} carries no payload; verify is not "
            "supported"
        )
    elif payload is None:
        payload = spec.payload(machine, x, _payload_rng(seed))
    # Solver env knobs (REPRO_SIM_SLOWPATH / _DEBUG) are re-read at every
    # entry, so a test or sweep can flip them between runs.
    machine.flownet.refresh_config()
    if spec.working_set is not None:
        machine.set_working_set(spec.working_set(machine, x))

    def make_invocation(_iteration: int):
        return spec.build(cls, machine, x, payload, root, window_caching)

    retries_before = machine.faults.window_retries
    times = _measure(
        machine, make_invocation, iters, verify, steady_state, deadline_us,
    )
    per_iter = [max(row) for row in times]
    retries = machine.faults.window_retries - retries_before
    result = CollectiveResult(
        algorithm=cls.name,
        nbytes=spec.nbytes(machine, x),
        nprocs=machine.nprocs,
        elapsed_us=sum(per_iter) / len(per_iter),
        iterations_us=per_iter,
        retries=retries,
    )
    # Every measured run carries its manifest: identity + deterministic
    # metric rollups (no wall clock, no subprocess — see telemetry.manifest;
    # git_rev is stamped only at export time).
    recorder = machine.engine.telemetry
    result.manifest = RunManifest(
        family=family,
        algorithm=cls.name,
        dims=tuple(machine.network.dims),
        network=machine.network.name,
        mode=machine.mode.name,
        ppn=machine.ppn,
        nprocs=machine.nprocs,
        x=x,
        nbytes=result.nbytes,
        iters=iters,
        seed=seed,
        verify=verify,
        elapsed_us=result.elapsed_us,
        bandwidth_mbs=result.bandwidth_mbs,
        rollups=recorder.rollups() if recorder is not None else {},
        solver_mode=machine.flownet.solver_mode,
    )
    return result


def build_payload(machine: Machine, family: str, x: int,
                  seed: int = 1234) -> np.ndarray:
    """The verification payload :func:`run_collective` would generate.

    Exposed so retrying callers (the chaos fallback ladder) can build the
    payload once and pass it to every attempt via ``payload=`` instead of
    regenerating ``x`` pseudo-random bytes per attempt.  Shapes depend
    only on the machine's geometry, so the payload is reusable across the
    fresh machines a retry loop builds.
    """
    spec = FAMILY_SPECS[family]
    if spec.payload is None:
        raise ValueError(f"family {family!r} carries no payload")
    return spec.payload(machine, x, _payload_rng(seed))
