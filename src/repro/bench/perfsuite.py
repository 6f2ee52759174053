"""Self-timing performance suite for the simulator core.

The repo's figures are produced by sweeping message sizes through the
Fig-5 harness; every sweep point is dominated by the DES engine's event
loop and the flow network's max-min re-solves.  This module times three
representative sweeps —

* ``tree_bcast``  — shared-address tree broadcast on a 512-node machine
  (deep collective-network pipelines, many small node-local components);
* ``torus_bcast`` — shared-address torus broadcast on a 4x4x4 machine
  (machine-spanning flow components, the solver's worst case);
* ``torus_allreduce`` — the reduce-scatter/allgather torus allreduce
  (long dependency chains through memory ports);

— and records wall-clock seconds plus the simulated results in
``BENCH_core.json``, establishing the repo's performance trajectory.
Entries are keyed by label (``baseline``, ``current``, ...), so a run
before and after an optimisation gives an honest speedup figure *and* a
semantic regression check: the simulated microseconds of two entries
recorded by the same harness must match bit-for-bit unless the model
itself changed.  (The committed ``baseline`` entry predates the
harness's clock rebasing, so it matches later entries only to ~1e-14
relative — the last-ulp measurement wobble the rebasing removed; the
bit-level regression gate lives in ``tests/test_perrank_reference.py``.)

CLI::

    python -m repro.bench.perfsuite --smoke            # quick CI variant
    python -m repro.bench.perfsuite --label current    # full suite
    python -m repro.bench.perfsuite --jobs 4           # parallel executor
    python -m repro.bench.perfsuite --no-steady        # opt out of the
                                                       # steady-state
                                                       # short-circuit

``--slow`` runs with ``REPRO_SIM_SLOWPATH=1`` (the reference from-scratch
solver) — the configuration used to record the pre-optimisation baseline.

Every sweep record carries the solver mode its points actually ran under
(``"solver"``, derived from the returned run manifests so it is correct
across worker processes); the entry gets the union tag.  The tag is a
record only: both solvers give bit-identical results, so ``repro report
--check-bench`` gates a ``--slow`` entry against a default one directly.

``--jobs N`` fans every point of every sweep across ``N`` worker
processes (see :mod:`repro.bench.parallel`); the simulated microseconds
are bit-identical to a serial run — only the wall clock changes — and the
entry records ``jobs`` (and the host CPU count) so parallel and serial
records are distinguishable.  Per-point ``wall_s`` is measured inside the
worker; the sweep-level ``wall_s`` is the sum of its points' (busy time,
comparable across job counts), while the entry-level ``wall_s`` is the
end-to-end suite wall clock the parallel run actually improves.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Dict, List, Optional

from repro.bench.parallel import execute_points, resolve_jobs, run_point_timed
from repro.util.config import setting

DEFAULT_OUT = "BENCH_core.json"

#: full-suite sweep definitions: (kind, algorithm, dims, x values, iters)
SWEEPS = {
    "tree_bcast": {
        "kind": "bcast",
        "algorithm": "tree-shaddr",
        "dims": (8, 8, 8),
        "xs": [64 * 1024, 512 * 1024, 2 * 1024 * 1024],
        "iters": 6,
    },
    "torus_bcast": {
        "kind": "bcast",
        "algorithm": "torus-shaddr",
        "dims": (4, 4, 4),
        "xs": [128 * 1024, 512 * 1024, 1024 * 1024],
        "iters": 6,
    },
    "torus_allreduce": {
        "kind": "allreduce",
        "algorithm": "allreduce-torus-shaddr",
        "dims": (4, 4, 4),
        "xs": [16 * 1024, 64 * 1024, 256 * 1024],
        "iters": 2,
    },
}

#: CI-sized variant: same shape, tiny machines and messages
SMOKE_SWEEPS = {
    "tree_bcast": {
        "kind": "bcast",
        "algorithm": "tree-shaddr",
        "dims": (2, 2, 2),
        "xs": [16 * 1024, 64 * 1024],
        "iters": 5,
    },
    "torus_bcast": {
        "kind": "bcast",
        "algorithm": "torus-shaddr",
        "dims": (2, 2, 2),
        "xs": [64 * 1024, 128 * 1024],
        "iters": 5,
    },
    "torus_allreduce": {
        "kind": "allreduce",
        "algorithm": "allreduce-torus-shaddr",
        "dims": (2, 2, 2),
        "xs": [4 * 1024, 16 * 1024],
        "iters": 2,
    },
}

def _point_specs(spec: dict, steady_state: Optional[bool]) -> List[dict]:
    """The sweep's x values as independent executor point specs."""
    specs = []
    for x in spec["xs"]:
        point = {
            "family": spec["kind"],
            "algorithm": spec["algorithm"],
            "x": x,
            "dims": tuple(spec["dims"]),
            "mode": "QUAD",
            "iters": spec["iters"],
        }
        if steady_state is not None:
            point["steady_state"] = steady_state
        specs.append(point)
    return specs


def _sweep_record(spec: dict, timed_points: List[tuple]) -> dict:
    """Assemble one sweep's JSON record from (wall_s, result) pairs."""
    points = [
        {"x": x, "wall_s": round(wall, 4), "elapsed_us": result.elapsed_us}
        for x, (wall, result) in zip(spec["xs"], timed_points)
    ]
    # Solver attribution comes from the returned manifests, not from this
    # process's environment — the points may have run in worker processes.
    manifests = [
        result.manifest for _, result in timed_points
        if result.manifest is not None
    ]
    modes = sorted({m.solver_mode for m in manifests})
    return {
        "kind": spec["kind"],
        "algorithm": spec["algorithm"],
        "dims": list(spec["dims"]),
        "iters": spec["iters"],
        # busy seconds (sum over points), comparable across job counts;
        # the end-to-end wall clock lives on the suite entry.
        "wall_s": round(sum(p["wall_s"] for p in points), 4),
        "solver": "+".join(modes) if modes else "unknown",
        "points": points,
    }


def run_suite(
    smoke: bool = False, steady_state: Optional[bool] = None,
    jobs: Optional[int] = None, farm: Optional[str] = None,
) -> Dict[str, dict]:
    """Run every sweep of the suite; returns ``{sweep_name: record}``.

    With ``jobs > 1`` every point of every sweep lands in one worker pool
    — the whole suite is the unit of load balancing, so the longest
    single point, not the longest sweep, bounds the wall clock.  The
    suite-level metadata (recorded-at stamp, job count, host CPU count,
    end-to-end wall seconds) rides along under the ``"__meta__"`` key,
    consumed by :func:`save_entry`.
    """
    sweeps = SMOKE_SWEEPS if smoke else SWEEPS
    jobs = resolve_jobs(jobs)
    # One stamp for the whole suite run; every entry written from this
    # run carries it, no matter how long the sweeps take.
    recorded_at = time.strftime("%Y-%m-%d %H:%M:%S")
    suite_start = time.perf_counter()
    all_specs: List[dict] = []
    slices: Dict[str, tuple] = {}
    for name, spec in sweeps.items():
        points = _point_specs(spec, steady_state)
        slices[name] = (len(all_specs), len(points))
        all_specs.extend(points)
    timed = execute_points(all_specs, jobs, task=run_point_timed, farm=farm)
    out: Dict[str, dict] = {}
    for name, spec in sweeps.items():
        offset, count = slices[name]
        record = _sweep_record(spec, timed[offset:offset + count])
        out[name] = record
        print(
            f"{name:18s} {record['wall_s']:8.2f}s busy  "
            + "  ".join(
                f"{p['x']}B:{p['elapsed_us']:.1f}us" for p in record["points"]
            )
            + f" [{record['solver']}]"
        )
    out["__meta__"] = {
        "recorded_at": recorded_at,
        "jobs": jobs,
        "cpus": os.cpu_count(),
        "wall_s": round(time.perf_counter() - suite_start, 4),
    }
    return out


def load_results(path: str) -> dict:
    if os.path.exists(path):
        try:
            with open(path) as handle:
                return json.load(handle)
        except json.JSONDecodeError as exc:
            # Results are loaded *after* the (possibly long) suite run, so a
            # corrupt file must not throw the run away — start fresh instead.
            print(f"warning: {path} is not valid JSON ({exc}); starting fresh",
                  file=sys.stderr)
    return {"suite": "core", "entries": {}}


def save_entry(path: str, label: str, sweeps: Dict[str, dict], smoke: bool) -> dict:
    """Insert/replace one labelled entry in the results file.

    ``sweeps`` is :func:`run_suite`'s return value; its ``"__meta__"``
    rider (stamped once at suite start) becomes the entry's metadata, so
    ``recorded_at`` reflects when the suite *ran*, not when it was saved,
    and ``jobs``/``cpus``/``wall_s`` distinguish parallel records from
    serial ones.
    """
    sweeps = dict(sweeps)
    meta = sweeps.pop("__meta__", None) or {
        "recorded_at": time.strftime("%Y-%m-%d %H:%M:%S"),
        "jobs": 1,
        "cpus": os.cpu_count(),
    }
    # Entry-level solver attribution: the union of the sweep records'
    # manifest-derived modes.
    modes = sorted({
        record.get("solver") for record in sweeps.values()
        if isinstance(record, dict) and record.get("solver")
    })
    slowpath = setting("REPRO_SIM_SLOWPATH")
    solver = "+".join(modes) if modes else (
        "slowpath" if slowpath else "incremental"
    )
    results = load_results(path)
    results.setdefault("entries", {})[label] = {
        **meta,
        "python": platform.python_version(),
        "smoke": smoke,
        "slowpath": slowpath,
        "solver": solver,
        "sweeps": sweeps,
    }
    with open(path, "w") as handle:
        json.dump(results, handle, indent=1)
        handle.write("\n")
    return results


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfsuite", description="Time the simulator core's hot sweeps."
    )
    parser.add_argument("--smoke", action="store_true", help="CI-sized variant")
    parser.add_argument("--label", default="current", help="entry label")
    parser.add_argument("--out", default=DEFAULT_OUT, help="results JSON path")
    parser.add_argument(
        "--no-steady", action="store_true",
        help="disable the harness steady-state short-circuit",
    )
    parser.add_argument(
        "--slow", action="store_true",
        help="use the reference from-scratch solver (REPRO_SIM_SLOWPATH=1)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the point grid (default: REPRO_JOBS or "
             "serial; 0 = one per CPU)",
    )
    parser.add_argument(
        "--farm", default=None, metavar="HOST:PORT",
        help="route the point grid to a sweep-farm work-server (see "
             "repro farm serve); results stay byte-identical to serial",
    )
    args = parser.parse_args(argv)
    if args.slow:
        # set in the environment, so worker processes inherit it too
        os.environ["REPRO_SIM_SLOWPATH"] = "1"
    steady = False if args.no_steady else None
    sweeps = run_suite(smoke=args.smoke, steady_state=steady, jobs=args.jobs,
                       farm=args.farm)
    meta = sweeps.get("__meta__", {})
    if meta:
        print(
            f"{'suite':18s} {meta['wall_s']:8.2f}s wall "
            f"(jobs={meta['jobs']}, cpus={meta['cpus']})"
        )
    save_entry(args.out, args.label, sweeps, args.smoke)
    print(f"\nwrote entry {args.label!r} to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
