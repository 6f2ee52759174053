"""Seeded chaos campaigns: collectives under transient-fault timelines.

Two layers live here:

:func:`run_resilient_collective`
    the resilience driver.  It runs one collective under an installed
    :class:`~repro.hardware.fault_schedule.FaultSchedule` with a deadline;
    when a :class:`~repro.sim.engine.TransientFaultError` escapes (window
    retry budget exhausted, counters stalled past the deadline), it
    discards the machine, degrades one rung down the fallback ladder
    (:func:`repro.collectives.registry.fallback_chain` — Shaddr -> FIFO ->
    DMA), reinstalls the *remaining* fault timeline on a fresh machine,
    and tries again.  Payloads are verified bit-exact on whatever protocol
    finally completes; the returned
    :class:`~repro.collectives.base.CollectiveResult` carries the
    ``retries`` / ``fallbacks`` / ``recovery_time`` story.

:func:`chaos_campaign`
    the seeded soak harness behind ``repro chaos``.  For every registered
    algorithm of the covered families it replays ``runs`` randomized fault
    campaigns (each point's schedule drawn from a generator seeded by the
    ``(seed, algorithm index, run)`` triple, so a campaign is replayable
    from a single integer), plus two *deterministic ladder scenarios* —
    permanent window-mapping exhaustion stacked with a permanent counter
    stall — that force a full Shaddr -> FIFO -> DMA walk on both the tree
    and torus chains.  Results, including recovery-latency distributions,
    land in ``BENCH_robustness.json``.

    Because every point reseeds from its own triple, points are mutually
    independent: ``jobs=N`` fans them across worker processes
    (:mod:`repro.bench.parallel`; each worker redraws its point's
    schedule locally from the triple — no sim object crosses the process
    boundary) and the merged report is identical to a serial campaign.

Verification cost: the payload is built **once** per resilient run and
reused across fallback attempts (``payload=`` on ``run_collective``), the
root's result buffer is copy-on-write, and the bit-exactness checks
compare through zero-copy ``memoryview`` casts
(:func:`repro.util.buffers.same_bytes`) — a 2 MB chaos attempt no longer
pays an extra O(n) payload copy per attempt.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.harness import build_payload, run_collective
from repro.bench.parallel import execute_points, resolve_jobs
from repro.collectives.base import CollectiveResult
from repro.collectives.registry import fallback_chain, iter_algorithms
from repro.hardware.fault_schedule import (
    CounterStall,
    FaultSchedule,
    WindowFault,
)
from repro.hardware.machine import Machine, Mode
from repro.hardware.network import backend_class
from repro.sim.engine import TransientFaultError

#: families the campaign sweeps (the fallback ladders under test)
CAMPAIGN_FAMILIES: Tuple[str, ...] = ("bcast", "allreduce")

#: per-family choices of the harness's natural size argument ``x``
SIZE_CHOICES: Dict[str, Tuple[int, ...]] = {
    "bcast": (4096, 65536),
    "allreduce": (512, 4096),
}
SMOKE_SIZE_CHOICES: Dict[str, Tuple[int, ...]] = {
    "bcast": (4096,),
    "allreduce": (512,),
}

#: one iteration of any campaign collective finishes far inside this
DEFAULT_DEADLINE_US = 20_000.0


def run_resilient_collective(
    machine_factory: Callable[[], Machine],
    family: str,
    algorithm: str,
    x: int,
    *,
    schedule: Optional[FaultSchedule] = None,
    deadline_us: float = DEFAULT_DEADLINE_US,
    root: int = 0,
    iters: int = 1,
    verify: bool = True,
    seed: int = 1234,
) -> CollectiveResult:
    """Run one collective, degrading down the fallback ladder on faults.

    ``machine_factory`` builds a fresh machine per attempt (a faulted
    machine is discarded, like a torn-down protocol context).  The fault
    timeline is re-installed on each fresh machine shifted by the campaign
    time already burned, so a window that opened during attempt 1 is still
    open (with its remaining duration) when attempt 2 starts.  Raises
    :class:`TransientFaultError` if every rung of the ladder faults out.
    """
    machine = machine_factory()
    chain = fallback_chain(family, algorithm, machine.ppn,
                           wires=machine.network.wires)
    # One payload for every attempt: rebuilding x pseudo-random bytes per
    # rung is pure waste (shapes depend only on geometry, which the
    # factory fixes), and the harness never mutates it — the root's
    # result buffer is copy-on-write over this very array.
    payload = build_payload(machine, family, x, seed) if verify else None
    fallbacks: List[str] = []
    recovery_us = 0.0
    retries = 0
    failures: List[str] = []
    for index, protocol in enumerate(chain):
        if index > 0:
            machine = machine_factory()
        if schedule is not None:
            schedule.install(machine, at=recovery_us)
        try:
            result = run_collective(
                machine, family, protocol, x,
                root=root, iters=iters, verify=verify, seed=seed,
                steady_state=False, deadline_us=deadline_us,
                payload=payload,
            )
        except TransientFaultError as fault:
            fallbacks.append(protocol)
            recovery_us += machine.engine.now
            retries += machine.faults.window_retries
            failures.append(f"{protocol}: {fault}")
            continue
        result.retries += retries
        result.fallbacks = fallbacks
        result.recovery_time = recovery_us
        return result
    raise TransientFaultError(
        f"{family}/{algorithm}: every protocol in the fallback chain "
        f"faulted out ({'; '.join(failures)})"
    )


# -- campaign ------------------------------------------------------------

def _mode_for(modes: Sequence[int]) -> Mode:
    """The richest operating mode an algorithm supports."""
    return Mode(max(modes))


def _machine_factory(dims: Tuple[int, int, int], mode: Mode,
                     network: str = "torus"):
    def build() -> Machine:
        return Machine(torus_dims=dims, mode=mode, network=network)
    return build


def _record(family: str, algorithm: str, mode: Mode, x: int,
            result: CollectiveResult) -> dict:
    return {
        "family": family,
        "algorithm": algorithm,
        "mode": mode.name,
        "x": x,
        "nbytes": result.nbytes,
        "completed_with": result.algorithm,
        "fallbacks": list(result.fallbacks),
        "retries": result.retries,
        "recovery_us": round(result.recovery_time, 3),
        "elapsed_us": round(result.elapsed_us, 3),
        "payload_ok": True,
    }


#: the deterministic full-ladder scenarios run by every campaign
_LADDER_CASES: Tuple[Tuple[str, str, int], ...] = (
    ("bcast", "torus-shaddr", 65536),
    ("bcast", "tree-shaddr", 65536),
)

#: ladder scenarios for switched point-to-point backends (no torus/tree
#: wires there): the shared-address allgather still walks down to its
#: DMA-counter-driven baseline
_PTP_LADDER_CASES: Tuple[Tuple[str, str, int], ...] = (
    ("allgather", "allgather-ring-shaddr", 4096),
)


def _ladder_cases(network: str) -> Tuple[Tuple[str, str, int], ...]:
    return _LADDER_CASES if network == "torus" else _PTP_LADDER_CASES


#: (family, name) pairs pinned out of a backend's random campaign.  The
#: committed BENCH_robustness.json replays its seeded draws from each
#: algorithm's position in the target list, so the torus list must stay
#: exactly as it was when the baseline was recorded: switched-fabric
#: algorithms added since are excluded there (they are exercised by the
#: fattree/leafspine campaigns, where they are the whole point).
_CAMPAIGN_EXCLUDE: Dict[str, frozenset] = {
    "torus": frozenset({
        ("bcast", "ring-pipelined"),
        ("allreduce", "allreduce-ring-pipelined"),
    }),
}


def chaos_point(spec: dict) -> dict:
    """Worker task: replay one campaign point from its picklable spec.

    Spawn-safety: the spec carries only names, dims and seed material —
    the worker redraws the point's fault schedule from its
    ``(seed, algorithm index, run)`` RNG triple (or rebuilds the
    permanent-fault ladder schedule) and constructs machines locally, so
    a parallel point is the exact computation the serial campaign runs.
    Payload mismatches come back as ``{"mismatch": ...}`` records instead
    of raising, preserving the serial campaign's keep-going behavior.
    """
    dims = tuple(spec["dims"])
    mode = Mode[spec["mode"]]
    network = spec.get("network", "torus")
    factory = _machine_factory(dims, mode, network)
    if spec["scenario"] == "ladder":
        # Permanent (never-clearing) window-mapping exhaustion kills the
        # shared-address rung; a permanent counter stall kills the
        # FIFO/shmem rung, whose progress rides software message
        # counters; the DMA rung uses hardware byte counters and events,
        # which neither fault touches, and completes bit-correct.
        schedule = FaultSchedule([
            WindowFault(start=0.0, duration=None, node=None,
                        slots_available=0),
            CounterStall(start=0.0, duration=None, node=None),
        ])
        x = spec["x"]
        verify_seed = 1234
        faults = None
    else:
        rng = np.random.default_rng(spec["rng_key"])
        x = int(rng.choice(spec["sizes"]))
        # Horizon chosen at collective scale (tens to hundreds of µs)
        # so drawn windows actually overlap the run.
        schedule = FaultSchedule.random(
            rng, factory().nnodes, horizon_us=400.0, max_faults=3
        )
        verify_seed = spec["verify_seed"]
        faults = [f.label() for f in schedule.faults]
    try:
        result = run_resilient_collective(
            factory, spec["family"], spec["algorithm"], x,
            schedule=schedule, deadline_us=spec["deadline_us"],
            verify=True, seed=verify_seed,
        )
    except AssertionError as mismatch:
        return {
            "mismatch": f"{spec['family']}/{spec['algorithm']}: {mismatch}"
        }
    record = _record(spec["family"], spec["algorithm"], mode, x, result)
    if spec["scenario"] == "ladder":
        record["scenario"] = "permanent-window-fault+counter-stall"
    else:
        record["faults"] = faults
    record["summary_line"] = str(result)
    return record


def chaos_campaign(
    *,
    seed: int = 0,
    runs: int = 3,
    dims: Tuple[int, int, int] = (2, 2, 2),
    deadline_us: float = DEFAULT_DEADLINE_US,
    smoke: bool = False,
    out_path: Optional[str] = "BENCH_robustness.json",
    verbose: bool = True,
    jobs: Optional[int] = None,
    network: str = "torus",
    farm: Optional[str] = None,
) -> dict:
    """Randomized fault campaigns over every registered campaign algorithm.

    Replayable from ``seed`` alone.  Returns (and, unless ``out_path`` is
    None, writes) the robustness report; ``smoke`` shrinks the sweep for
    CI.  Raises :class:`AssertionError` if any payload mismatched.

    ``jobs`` fans the campaign's points — every (algorithm, run) pair
    plus the two ladder scenarios — across worker processes.  Each point
    reseeds its own generator from ``(seed, algorithm index, run)``, so
    the schedule a worker draws is exactly the one the serial loop would
    have drawn: the report (records, fault labels, summary counters) is
    identical for any job count.  ``farm`` routes the same points to a
    sweep-farm work-server instead (:mod:`repro.bench.farm`) with the
    same byte-identical merge.
    """
    if smoke:
        runs = min(runs, 1)
    sizes = SMOKE_SIZE_CHOICES if smoke else SIZE_CHOICES
    jobs = resolve_jobs(jobs)

    # Only algorithms whose wire the chosen backend hosts enter the
    # campaign (a fat-tree machine has no torus or tree wires).
    wires = backend_class(network).wires
    excluded = _CAMPAIGN_EXCLUDE.get(network, frozenset())
    targets = [
        info for family in CAMPAIGN_FAMILIES
        for info in iter_algorithms(family)
        if info.data_carrying and info.network in wires
        and (info.family, info.name) not in excluded
    ]
    specs = [
        {
            "scenario": "random",
            "family": info.family,
            "algorithm": info.name,
            "mode": _mode_for(info.modes).name,
            "dims": dims,
            "sizes": sizes[info.family],
            "rng_key": [seed, alg_index, run],
            "verify_seed": seed + run,
            "deadline_us": deadline_us,
            **({"network": network} if network != "torus" else {}),
        }
        for alg_index, info in enumerate(targets)
        for run in range(runs)
    ] + [
        {"scenario": "ladder", "family": family, "algorithm": algorithm,
         "x": x, "dims": dims, "mode": Mode.QUAD.name,
         "deadline_us": deadline_us,
         **({"network": network} if network != "torus" else {})}
        for family, algorithm, x in _ladder_cases(network)
    ]
    outcomes = execute_points(specs, jobs, task=chaos_point, farm=farm)

    records: List[dict] = []
    ladder: List[dict] = []
    mismatches: List[str] = []
    for spec, outcome in zip(specs, outcomes):
        if "mismatch" in outcome:
            mismatches.append(outcome["mismatch"])
            continue
        summary_line = outcome.pop("summary_line", None)
        if spec["scenario"] == "ladder":
            ladder.append(outcome)
            if verbose:
                print(
                    f"  ladder {outcome['algorithm']}: "
                    f"{'>'.join(outcome['fallbacks'] + [outcome['completed_with']])}"
                )
        else:
            records.append(outcome)
            if verbose:
                run = spec["rng_key"][2]
                print(f"  {spec['family']}/{spec['algorithm']} run {run}: "
                      f"{summary_line}")

    all_records = records + ladder
    fallback_events = sum(len(r["fallbacks"]) for r in all_records)
    full_walks = sum(1 for r in all_records if len(r["fallbacks"]) >= 2)
    recovery: Dict[str, dict] = {}
    for record in all_records:
        bucket = recovery.setdefault(
            record["algorithm"],
            {"count": 0, "recovered": 0, "mean_us": 0.0, "max_us": 0.0},
        )
        bucket["count"] += 1
        if record["recovery_us"] > 0.0:
            bucket["recovered"] += 1
        bucket["mean_us"] += record["recovery_us"]
        bucket["max_us"] = max(bucket["max_us"], record["recovery_us"])
    for bucket in recovery.values():
        bucket["mean_us"] = round(bucket["mean_us"] / bucket["count"], 3)

    report = {
        "meta": {
            "seed": seed,
            "runs_per_algorithm": runs,
            "dims": list(dims),
            "deadline_us": deadline_us,
            "smoke": smoke,
            # recorded only off-torus so the committed torus
            # BENCH_robustness.json stays byte-identical
            **({"network": network} if network != "torus" else {}),
        },
        "runs": records,
        "ladder": ladder,
        "recovery_us": recovery,
        "summary": {
            "total_runs": len(all_records),
            "payload_mismatches": len(mismatches),
            "fallback_events": fallback_events,
            "full_ladder_walks": full_walks,
        },
    }
    if out_path is not None:
        # Labelled bench entries (e.g. the farm's robustness rollups, see
        # repro.bench.farm.record_farm_bench_entry) live in the same
        # document; a campaign rewrite must not drop them.
        try:
            with open(out_path) as handle:
                existing = json.load(handle).get("entries")
        except (OSError, json.JSONDecodeError):
            existing = None
        if existing is not None:
            report = {**report, "entries": existing}
        with open(out_path, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        if verbose:
            print(f"wrote {out_path}")
    if mismatches:
        raise AssertionError(
            f"{len(mismatches)} payload mismatch(es): " + "; ".join(mismatches)
        )
    return report


if __name__ == "__main__":  # pragma: no cover - module smoke entry
    chaos_campaign(seed=0, smoke=True)
