"""One benchmark pass in a fresh interpreter.

Takes a job (JSON) as its argument, imports the simulator, prints
``ready`` and runs the job's operations through a public entry point,
timing each call with ``perf_counter``.  Its clock is the system-wide
monotonic one, so ``run.py`` can match each call's start and length
against the speed gauge samples it took meanwhile.  The last stdout line
is the pass as JSON.

Jobs: ``{"kind": "sweep", "workload": W, "seed": N}`` calls
``run_point`` on each point of the sweep; ``{"kind": "serve",
"workload": W, "seed": N}`` sends a serve workload's stream through one
in-process ``PredictionService().serve``; ``{"kind": "reference"}`` runs
every workload point once on a fresh machine.  ``"profile": true`` runs the
operations under ``cProfile`` and adds the per-layer split.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import sys
import time

import layers
from workloads import pass_points, reference_points


def main() -> int:
    job = json.loads(sys.argv[1])
    import repro

    package_dir = os.path.dirname(os.path.realpath(repro.__file__))
    expected = os.path.realpath(os.path.join(job["src"], "repro"))
    if package_dir != expected:
        print(f"worker: imported repro from {package_dir}, not {expected}",
              file=sys.stderr)
        return 2
    import repro.bench.harness  # noqa: F401  (run_point imports it lazily)
    from repro.bench.parallel import run_point

    if job["kind"] == "serve":
        from repro.serve.service import PredictionService

        points = pass_points(job["workload"], job["seed"])
        call = PredictionService().serve
    elif job["kind"] == "sweep":
        points, call = pass_points(job["workload"], job["seed"]), run_point
    else:
        points = [dict(point, fresh_machine=True) for point in reference_points()]
        call = run_point
    print("ready", flush=True)

    profiler = cProfile.Profile() if job["profile"] else None
    ops = []
    start = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    for point in points:
        began = time.perf_counter()
        try:
            answer = call(point)
        except Exception as exc:  # a failed operation is counted, not fatal
            op = {"error": f"{type(exc).__name__}: {exc}"}
        else:
            if isinstance(answer, dict):
                op = {"elapsed_us": answer["elapsed_us"], "tier": answer["tier"]}
            else:
                op = {"elapsed_us": answer.elapsed_us}
        op["start"] = began
        op["seconds"] = time.perf_counter() - began
        ops.append(op)
    if profiler is not None:
        profiler.disable()
    out = {"start": start, "wall_s": time.perf_counter() - start, "ops": ops}
    if profiler is not None:
        stats = pstats.Stats(profiler).stats
        out["self_s"] = layers.attribute(
            stats, layers.classifier(package_dir, os.path.dirname(__file__)),
        )
        out["counts"] = layers.counts(stats, package_dir)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
