"""Seeded multi-tenant traffic: overlapping collective jobs on one machine.

Production machines rarely run one collective at a time: several jobs,
each on its own sub-communicator, share nodes and wires.  This module
reproduces that regime in simulation.  A **traffic scenario** is drawn
from a single integer seed: ``njobs`` collective jobs, each a
(family, algorithm, size) pick from a point-to-point-portable menu
placed on a contiguous — and usually overlapping — node range of one
:class:`~repro.hardware.machine.Machine`.  Every job is measured twice:

* **isolated** — the job alone on a fresh machine of the same geometry,
  through the standard :func:`~repro.bench.harness.run_collective`
  driver (so manifests, telemetry and the wire-compatibility gate all
  apply);
* **contended** — all jobs at once on one shared machine, their rank
  coroutines interleaved on a single DES engine, their transfers meeting
  in the shared :class:`~repro.sim.flownet.FlowNetwork` channels and
  node DMA/memory ports.

The per-job ``contended_us / isolated_us`` ratio is the cross-job
contention signal; jobs whose node ranges overlap contend for intra-node
ports too, not just wires.

Sub-communicators are modelled by :class:`MachineView`: a zero-copy view
of a contiguous node slice that quacks like a Machine (local rank space,
sliced ``nodes``/``dma``, a :class:`NetworkView` that translates node
indices before delegating to the parent backend).  Because the view
delegates to the *parent's* channels and ports, two views that share
nodes or links genuinely share their resources — contention is physical,
not modelled.  Views are for healthy machines: fault schedules address
the parent's global node space and are not translated.

Determinism: the whole report replays from ``seed`` alone.  Isolated
points and the contended scenario are independent deterministic
simulations dispatched through
:func:`~repro.bench.parallel.execute_points`, so ``jobs=N`` is
byte-identical to serial.  Every job carries a real payload and is
bit-verified in both regimes.

CLI: ``python -m repro traffic --seed 7 --network fattree --jobs 2``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.collectives.base import InvocationBase
from repro.collectives.registry import get_algorithm
from repro.hardware.machine import Machine, Mode
from repro.hardware.network import UnsupportedTopologyError
from repro.sim.sync import SimBarrier, SimCounter

#: the job menu: point-to-point algorithms that run on every backend,
#: with the sizes a job may draw.  Kept explicit (never "auto") so a
#: scenario replays identically even if the selection tables change.
JOB_MENU: Tuple[Tuple[str, str, Tuple[int, ...]], ...] = (
    ("bcast", "ring-pipelined", (16384, 65536)),
    ("allreduce", "allreduce-ring-pipelined", (512, 2048)),
    ("allgather", "allgather-ring-current", (1024, 4096)),
    ("reduce", "reduce-torus-current", (512, 2048)),
    ("gather", "gather-ring-current", (1024, 4096)),
    ("scatter", "scatter-ring-current", (1024, 4096)),
)


class NetworkView:
    """A sub-range window onto a parent :class:`NetworkBackend`.

    Topology queries and transfers translate the view's local node
    indices into the parent's space and delegate, so a transfer issued
    by a view rides the parent's actual channels (and contends with
    every other tenant's traffic).  The channel surface
    (``iter_channels`` / ``channels_touching`` / hooks) is the parent's,
    in global node space.

    Views host only the portable wires: the torus line-broadcast
    primitive needs full coordinate lines, which a node slice does not
    generally contain.
    """

    wires: Tuple[str, ...] = ("ptp", "gi")

    def __init__(self, view: "MachineView", parent) -> None:
        self._view = view
        self._parent = parent
        self.name = parent.name
        self.dims = parent.dims
        self.wrap = parent.wrap

    @property
    def nnodes(self) -> int:
        return self._view.nnodes

    def supports_wire(self, wire: str) -> bool:
        return wire in self.wires

    # -- topology (local node space, translated) --------------------------
    def coords(self, index: int):
        return self._parent.coords(index + self._view.node_start)

    def hop_distance(self, src: int, dst: int) -> int:
        off = self._view.node_start
        return self._parent.hop_distance(src + off, dst + off)

    def ring_order(self, color, root: int) -> List[int]:
        # A rotation is a valid Hamiltonian order on every backend; the
        # parent's ring (a torus snake, say) is over nodes the view may
        # not own, so the view picks its own.
        n = self._view.nnodes
        sign = getattr(color, "sign", 1)
        return [(root + sign * step) % n for step in range(n)]

    # -- transfers (translated, shared with the parent) --------------------
    def ptp_send(self, color: int, src: int, dst: int, nbytes: int,
                 name: str = "ptp"):
        off = self._view.node_start
        return self._parent.ptp_send(
            color, src + off, dst + off, nbytes, name=name
        )

    # -- channel surface (parent's, global node space) ---------------------
    def iter_channels(self):
        return self._parent.iter_channels()

    def channels_touching(self, node: int):
        return self._parent.channels_touching(node)

    def add_channel_hook(self, hook) -> None:
        self._parent.add_channel_hook(hook)

    def remove_channel_hook(self, hook) -> None:
        self._parent.remove_channel_hook(hook)


class MachineView:
    """A contiguous node slice of a Machine, presented as a Machine.

    Rank and node indices are local (``0 .. node_count*ppn-1`` and
    ``0 .. node_count-1``); ``nodes``/``dma`` are slices of the parent's
    lists, so the view's tenants run on the parent's actual cores, DMA
    engines and memory ports.  Everything not overridden here — engine,
    flow network, calibrated params, fault registry — delegates to the
    parent, which is what makes co-tenant contention real.
    """

    def __init__(self, parent: Machine, node_start: int, node_count: int):
        if node_count < 1:
            raise ValueError(f"node_count must be >= 1, got {node_count}")
        if not 0 <= node_start <= parent.nnodes - node_count:
            raise ValueError(
                f"node range [{node_start}, {node_start + node_count}) "
                f"outside the parent's {parent.nnodes} nodes"
            )
        self.parent = parent
        self.node_start = node_start
        self.nnodes = node_count
        self.mode = parent.mode
        self.ppn = parent.ppn
        self.nprocs = node_count * parent.ppn
        self.nodes = parent.nodes[node_start:node_start + node_count]
        self.dma = parent.dma[node_start:node_start + node_count]
        self.network = NetworkView(self, parent.network)

    def __getattr__(self, name: str):
        # engine, flownet, params, memory_model, faults, retry_policy,
        # spawn, run, rebase_time, telemetry hooks, ... — the parent's.
        return getattr(self.parent, name)

    @property
    def torus(self):
        raise UnsupportedTopologyError(
            "a MachineView hosts only point-to-point wires; torus-only "
            "primitives are unavailable on a sub-communicator view"
        )

    # -- rank mapping (local space): Machine's, over the view's sizes -----
    rank_to_node = Machine.rank_to_node
    rank_to_local = Machine.rank_to_local
    node_ranks = Machine.node_ranks
    check_rank = Machine.check_rank

    # -- machine services (view-scoped) ------------------------------------
    def make_barrier(self) -> SimBarrier:
        return SimBarrier(
            self.parent.engine, self.nprocs,
            latency=self.parent.params.barrier_latency,
        )

    def make_counter(
        self, name: str = "counter", node: Optional[int] = None,
        value: float = 0.0,
    ) -> SimCounter:
        translated = None if node is None else node + self.node_start
        return self.parent.make_counter(name, node=translated, value=value)

    def set_working_set(self, nbytes: int):
        """Install the job's cache regime on the view's nodes only.

        Co-tenants sharing a node overwrite each other's regime in job
        order — deterministic, and the right bias: the contention signal
        traffic scenarios measure lives in the shared ports and wires,
        not in per-tenant cache partitioning (which BG/P does not do).
        """
        regime = self.parent.memory_model.regime(nbytes)
        for node in self.nodes:
            node.set_regime(regime)
        return regime

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MachineView nodes=[{self.node_start}, "
            f"{self.node_start + self.nnodes}) of {self.parent!r}>"
        )


# -- scenario drawing -----------------------------------------------------

def overlapping_pairs(jobs: List[dict]) -> List[Tuple[int, int]]:
    """Index pairs of jobs whose node ranges intersect."""
    pairs = []
    for a in range(len(jobs)):
        for b in range(a + 1, len(jobs)):
            lo = max(jobs[a]["node_start"], jobs[b]["node_start"])
            hi = min(
                jobs[a]["node_start"] + jobs[a]["node_count"],
                jobs[b]["node_start"] + jobs[b]["node_count"],
            )
            if lo < hi:
                pairs.append((a, b))
    return pairs


def draw_jobs(seed: int, nnodes: int, njobs: int) -> List[dict]:
    """Draw a traffic scenario's job list from one integer seed.

    Each job is a menu pick plus a contiguous node range of at least two
    nodes.  If the draw happens to produce fully disjoint ranges, job 1
    is deterministically moved onto job 0's range — a scenario exists to
    measure cross-job contention, so it always contains at least one
    overlapping pair (when ``njobs >= 2``).
    """
    if nnodes < 2:
        raise ValueError(f"traffic needs >= 2 nodes, got {nnodes}")
    if njobs < 1:
        raise ValueError(f"njobs must be >= 1, got {njobs}")
    rng = np.random.default_rng(seed)
    jobs: List[dict] = []
    for index in range(njobs):
        family, algorithm, sizes = JOB_MENU[int(rng.integers(len(JOB_MENU)))]
        x = int(sizes[int(rng.integers(len(sizes)))])
        count = int(rng.integers(2, nnodes + 1))
        start = int(rng.integers(0, nnodes - count + 1))
        jobs.append({
            "job": index,
            "family": family,
            "algorithm": algorithm,
            "x": x,
            "node_start": start,
            "node_count": count,
            # distinct per-job payload so verification catches cross-job
            # payload bleed, not just intra-job corruption
            "payload_seed": seed * 7919 + index,
        })
    if njobs >= 2 and not overlapping_pairs(jobs):
        mover = jobs[1]
        mover["node_start"] = jobs[0]["node_start"]
        mover["node_count"] = min(
            mover["node_count"], nnodes - mover["node_start"]
        )
    return jobs


# -- execution ------------------------------------------------------------

def _build_machine(spec: dict) -> Machine:
    return Machine(
        torus_dims=tuple(spec["dims"]), mode=Mode[spec["mode"]],
        network=spec["network"],
    )


def run_contended(machine: Machine, jobs: List[dict]) -> List[dict]:
    """Run every job at once on ``machine``; per-job elapsed µs.

    Each job gets a :class:`MachineView` of its node range, its own
    barrier and its own payload; all jobs' rank coroutines are spawned
    before the engine runs, so their transfers genuinely interleave.
    Every job's payload is bit-verified after the drain.
    """
    from repro.bench.harness import FAMILY_SPECS

    engine = machine.engine
    entries = []
    procs = []
    for job in jobs:
        view = MachineView(machine, job["node_start"], job["node_count"])
        spec = FAMILY_SPECS[job["family"]]
        cls = get_algorithm(job["family"], job["algorithm"])
        wire = getattr(cls, "network", None)
        if wire is not None and not view.network.supports_wire(wire):
            raise UnsupportedTopologyError(
                f"{job['family']}/{cls.name} rides the {wire!r} wire, "
                "which a sub-communicator view does not provide "
                f"(supported: {list(view.network.wires)})"
            )
        payload = spec.payload(
            view, job["x"], np.random.default_rng(job["payload_seed"])
        )
        view.set_working_set(spec.working_set(view, job["x"]))
        invocation = InvocationBase.session().adopt(
            spec.build(cls, view, job["x"], payload, 0, True)
        )
        barrier = view.make_barrier()
        times = [0.0] * view.nprocs

        def rank_loop(rank, invocation=invocation, barrier=barrier,
                      times=times):
            yield barrier.wait()
            start = engine.now
            yield from invocation.proc(rank)
            times[rank] = engine.now - start

        procs.extend(
            machine.spawn(rank_loop(rank), name=f"job{job['job']}.r{rank}")
            for rank in range(view.nprocs)
        )
        entries.append((invocation, times))
    engine.run_until_processes_finish(procs)
    results = []
    for invocation, times in entries:
        invocation.verify()
        results.append({"elapsed_us": max(times)})
    return results


def traffic_point(spec: dict):
    """Worker task: one isolated job, or the whole contended scenario.

    Module-level and spec-driven so it fans out through
    :func:`~repro.bench.parallel.execute_points` (pickle specs, not
    machines).  Machines are always built fresh — identical in serial
    and parallel runs by construction.
    """
    machine = _build_machine(spec)
    if spec["scenario"] == "isolated":
        from repro.bench.harness import run_collective

        job = spec["job"]
        view = MachineView(machine, job["node_start"], job["node_count"])
        result = run_collective(
            view, job["family"], job["algorithm"], job["x"],
            iters=1, verify=True, seed=job["payload_seed"],
        )
        return {
            "elapsed_us": result.elapsed_us,
            "solver": result.manifest.solver_mode,
        }
    if spec["scenario"] == "contended":
        return run_contended(machine, spec["jobs"])
    raise ValueError(f"unknown traffic scenario {spec['scenario']!r}")


def run_traffic(
    *,
    seed: int = 0,
    njobs: int = 3,
    dims: Tuple[int, int, int] = (2, 2, 2),
    mode: Mode = Mode.QUAD,
    network: str = "torus",
    jobs: Optional[int] = None,
) -> dict:
    """Draw and measure a multi-tenant traffic scenario.

    Returns the traffic report: scenario metadata, one record per job
    (placement, isolated/contended elapsed µs, slowdown ratio), and the
    cross-job summary.  Replayable from ``seed`` alone; ``jobs`` fans the
    isolated points and the contended scenario across worker processes
    with byte-identical results.
    """
    from repro.bench.parallel import execute_points

    geometry = Machine(torus_dims=tuple(dims), mode=mode, network=network)
    job_list = draw_jobs(seed, geometry.nnodes, njobs)
    base = {"dims": tuple(dims), "mode": mode.name, "network": network}
    specs = [
        {"scenario": "isolated", "job": job, **base} for job in job_list
    ] + [
        {"scenario": "contended", "jobs": job_list, **base}
    ]
    measured = execute_points(specs, jobs, task=traffic_point)
    isolated, contended = measured[:njobs], measured[njobs]
    records = []
    for job, iso, con in zip(job_list, isolated, contended):
        slowdown = (
            con["elapsed_us"] / iso["elapsed_us"]
            if iso["elapsed_us"] > 0 else 1.0
        )
        records.append({
            **{k: job[k] for k in (
                "job", "family", "algorithm", "x",
                "node_start", "node_count",
            )},
            "isolated_us": iso["elapsed_us"],
            "contended_us": con["elapsed_us"],
            "slowdown": slowdown,
        })
    slowdowns = [r["slowdown"] for r in records]
    return {
        "meta": {
            "schema": 1,
            "seed": seed,
            "njobs": njobs,
            "dims": list(dims),
            "mode": mode.name,
            "network": network,
            "solver": isolated[0]["solver"] if isolated else "incremental",
        },
        "jobs": records,
        "summary": {
            "overlapping_pairs": len(overlapping_pairs(job_list)),
            "mean_slowdown": sum(slowdowns) / len(slowdowns),
            "max_slowdown": max(slowdowns),
        },
    }


# -- reporting ------------------------------------------------------------

def format_traffic_report(report: dict) -> str:
    """Render a traffic report as the table the CLI prints."""
    meta, summary = report["meta"], report["summary"]
    dims = "x".join(str(d) for d in meta["dims"])
    lines = [
        f"traffic seed={meta['seed']} network={meta['network']} "
        f"dims={dims} mode={meta['mode'].lower()} njobs={meta['njobs']}",
        f"{'job':>3}  {'family':10s} {'algorithm':24s} {'x':>7} "
        f"{'nodes':>9}  {'isolated':>11}  {'contended':>11}  {'slow':>6}",
    ]
    for record in report["jobs"]:
        nodes = (
            f"[{record['node_start']},"
            f"{record['node_start'] + record['node_count']})"
        )
        lines.append(
            f"{record['job']:>3}  {record['family']:10s} "
            f"{record['algorithm']:24s} {record['x']:>7} {nodes:>9}  "
            f"{record['isolated_us']:>9.3f}us  "
            f"{record['contended_us']:>9.3f}us  "
            f"{record['slowdown']:>5.2f}x"
        )
    lines.append(
        f"overlapping pairs: {summary['overlapping_pairs']}  "
        f"mean slowdown: {summary['mean_slowdown']:.2f}x  "
        f"max: {summary['max_slowdown']:.2f}x"
    )
    return "\n".join(lines)


def record_bench_entry(path: str, label: str, report: dict) -> dict:
    """Store a traffic report as a labelled ``BENCH_core.json`` entry.

    Three sweeps per entry, all gated by ``repro report --check-bench``'s
    per-point ``elapsed_us`` tolerance: per-job contended time
    (``multitenant``), per-job isolated time (``multitenant-isolated``),
    and the contended/isolated ratio (``multitenant-slowdown`` — the
    ratio rides the ``elapsed_us`` field, which is what the gate
    compares; the x axis is the job index throughout).
    """
    from repro.bench.perfsuite import save_entry

    solver = report["meta"].get("solver", "incremental")

    def sweep(points: List[Dict[str, float]]) -> dict:
        return {"points": points, "wall_s": 0.0, "solver": solver}

    sweeps = {
        "multitenant": sweep([
            {
                "x": r["job"], "elapsed_us": r["contended_us"],
                "isolated_us": r["isolated_us"],
                "slowdown": r["slowdown"],
                "family": r["family"], "algorithm": r["algorithm"],
            }
            for r in report["jobs"]
        ]),
        "multitenant-isolated": sweep([
            {"x": r["job"], "elapsed_us": r["isolated_us"]}
            for r in report["jobs"]
        ]),
        "multitenant-slowdown": sweep([
            {"x": r["job"], "elapsed_us": r["slowdown"]}
            for r in report["jobs"]
        ]),
    }
    return save_entry(path, label, sweeps, smoke=False)
