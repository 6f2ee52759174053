"""Deterministic parallel execution of independent simulation points.

Every figure and sweep in this repo is a grid of *independent* points —
one (algorithm, message size, geometry) simulation each, fully
deterministic given its spec.  :func:`execute_points` is the one way to
run such a grid: inline, across a pool of local worker processes, or
across hosts through the sweep farm.  Results are merged back **in
point order**, so a parallel or farmed run returns byte-identical
results to the serial run.

Spawn-safety rule: *pickle specs, not machines*
-----------------------------------------------

Workers never receive live simulator objects.  A spec is a plain dict —
geometry, mode, algorithm name, size, seeds — and the worker constructs
its own :class:`~repro.hardware.machine.Machine` (and, for chaos points,
its own ``FaultSchedule`` from the spec's RNG key) locally.  Everything
crossing the process boundary is picklable under the ``spawn`` start
method, so a point runs identically in a worker started by ``fork``
(the POSIX default, which the local pool uses) and by ``spawn`` (the
portable one).

Determinism
-----------

* Results are merged by point index, never by completion order.
* Every point builds its own :class:`~repro.hardware.machine.Machine`,
  in the parent (serial) and in the workers alike, so no point can see
  state another point left behind.
* A worker exception fails only its point: the pool keeps draining the
  other points, and the failed spec is re-run serially in the parent so
  the exception surfaces with a real, debugger-usable traceback (the
  worker's formatted traceback is attached as well).  A point that
  fails again raises :class:`WorkerPointError`.

Job-count resolution: an explicit ``jobs`` argument wins, then the
``REPRO_JOBS`` environment variable, then serial.  ``jobs <= 0`` means
"one worker per CPU".  A serial run (``jobs=1``, or a single point)
runs the task inline, point by point, and never imports
``multiprocessing``: the process pool and the runtime spans are
imported where they are used, so a process that only calls
:func:`run_point` loads neither.

Hung workers
------------

A worker process that wedges (deadlocked C extension, runaway point)
would hang the sweep forever.  The ``REPRO_CHUNK_TIMEOUT_S``
environment variable bounds the wait: when **no chunk completes** for
that many seconds, an outstanding point raises
:class:`WorkerPointError` without a serial re-run (that would hang this
process too), and the wedged pool is terminated.  Unset, the wait is
unbounded.

Beyond one host
---------------

The same point specs fan across machines through the sweep farm
(:mod:`repro.bench.farm`): ``execute_points(specs, farm="host:port")`` —
or the ``REPRO_FARM`` environment variable — submits the specs to a
work-server and merges the journaled results with the identical
index-ordered, byte-identical-to-serial guarantee.  The chunking
(:func:`chunk_specs`), worker-side chunk runner (:func:`_run_chunk`),
and failure merge (:func:`merge_failures`) are shared between the local
and farm backends.
"""

from __future__ import annotations

import os
import time
import traceback
from typing import Callable, List, Optional, Sequence, Tuple

from repro.hardware.machine import Machine, Mode
from repro.util.config import setting


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a worker count: argument > ``REPRO_JOBS`` > serial.

    ``0`` or a negative count means "all CPUs".
    """
    jobs = setting("REPRO_JOBS", jobs)
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


class WorkerPointError(RuntimeError):
    """Raised when a point fails in a worker and cannot be recovered.

    Either the point failed again on its serial re-run (the re-run's
    exception is the ``__cause__``), or it timed out or wedged its farm
    leases and was not re-run.  ``worker_traceback`` preserves the
    original worker-side formatted traceback (local pool worker or
    remote farm worker) so the failing frame survives even though the
    exception object itself could not cross the process boundary;
    ``index`` is the failing point's position in the spec list.
    """

    def __init__(self, message: str, *, index: Optional[int] = None,
                 worker_traceback: Optional[str] = None):
        super().__init__(message)
        self.index = index
        self.worker_traceback = worker_traceback


# -- worker side ---------------------------------------------------------

def _folded_root(spec: dict, dims: tuple, ppn: int) -> Optional[int]:
    """The root on a 2-node stand-in for ``spec``'s machine, or None.

    A point on the collective (``tree``) or global-interrupt (``gi``)
    network runs exactly on 2 nodes built at the full machine's tree
    depth.  On those networks nodes meet only at global counters (a
    :class:`~repro.hardware.tree.TreeOperation` waits for every node's
    injection and drain) and at the barrier, whose latency is a
    constant; every node but the root's runs the same flows on its own
    ports, and machine size enters only through
    :attr:`~repro.hardware.tree.CollectiveNetwork.depth`.  One node of
    the pair is the root's node and the other stands for all the rest:
    the root keeps its local rank and moves from node ``k > 0`` to node
    1, so every error the full run raises comes out of the folded run
    with the same message.

    None (run the full machine) unless every condition holds: a
    registered tree/GI algorithm (``auto`` is resolved on the full
    machine), the torus backend (the only one with a ``tree`` wire),
    more than 2 nodes, no ``verify`` (every rank's bytes are checked),
    no ``deadline_us``, and a valid root the family accepts.
    """
    from repro.bench.harness import FAMILY_SPECS
    from repro.collectives.registry import algorithm_info

    family, algorithm = spec.get("family"), spec.get("algorithm")
    if (
        spec.get("network", "torus") != "torus"
        or spec.get("verify")
        or spec.get("deadline_us") is not None
        or not isinstance(algorithm, str)
        or len(dims) != 3
        or not all(isinstance(d, int) and d >= 1 for d in dims)
    ):
        return None
    try:
        if algorithm_info(family, algorithm).network not in ("tree", "gi"):
            return None
    except KeyError:
        return None
    nnodes = dims[0] * dims[1] * dims[2]
    root = spec.get("root", 0)
    if nnodes <= 2 or not 0 <= root < nnodes * ppn:
        return None
    if root != 0 and not FAMILY_SPECS[family].takes_root:
        return None
    return root if root < ppn else ppn + root % ppn


def run_point(spec: dict):
    """Worker task: measure one collective point described by ``spec``.

    ``spec`` keys: ``family``, ``algorithm``, ``x`` plus the optional
    ``dims``/``mode``/``wrap``/``network`` geometry and any keyword accepted by
    :func:`repro.bench.harness.run_collective` (``iters``, ``verify``,
    ``seed``, ``steady_state``, ``deadline_us``, ``root``,
    ``window_caching``); other keys are ignored.

    Every call builds one fresh machine.  A collective-network point
    (see :func:`_folded_root`) builds a 2-node machine at the full
    machine's tree depth and returns the full machine's answer:
    ``nprocs`` and the manifest's ``dims``/``nprocs`` are restored, and
    the pickled result is byte-identical to :func:`run_collective` on
    the full machine (``tests/test_tree_fold.py``).  Every other point
    runs on the machine it names.
    """
    from repro.bench.harness import run_collective

    dims = tuple(spec.get("dims", (2, 2, 2)))
    mode = Mode[spec.get("mode", "QUAD")]
    wrap = bool(spec.get("wrap", True))
    kwargs = {
        key: spec[key]
        for key in ("root", "iters", "verify", "window_caching", "seed",
                    "steady_state", "deadline_us")
        if key in spec
    }
    root = _folded_root(spec, dims, mode.processes_per_node)
    if root is None:
        machine = Machine(
            torus_dims=dims, mode=mode, wrap=wrap,
            network=spec.get("network", "torus"),
        )
    else:
        nnodes = dims[0] * dims[1] * dims[2]
        machine = Machine((2, 1, 1), mode, wrap=wrap, tree_depth_nodes=nnodes)
        kwargs["root"] = root
    result = run_collective(
        machine, spec["family"], spec["algorithm"], spec.get("x", 0), **kwargs
    )
    if root is not None:
        result.nprocs = result.manifest.nprocs = nnodes * machine.ppn
        result.manifest.dims = dims
    return result


def run_point_timed(spec: dict) -> Tuple[float, object]:
    """:func:`run_point` plus the worker-side wall-clock seconds."""
    start = time.perf_counter()
    result = run_point(spec)
    return time.perf_counter() - start, result


def _run_chunk(task: Callable, chunk: List[Tuple[int, dict]]) -> List[tuple]:
    """Worker entry: run a chunk of (index, spec) pairs, isolating crashes.

    Returns ``(index, "ok", result)`` or ``(index, "error", traceback)``
    per point — an exception never takes down the chunk's siblings or the
    worker process.  Shared by the local pool workers and the farm
    workers (:mod:`repro.bench.farm`), so both get the same crash
    isolation.
    """
    out = []
    for index, spec in chunk:
        try:
            out.append((index, "ok", task(spec)))
        except Exception:
            out.append((index, "error", traceback.format_exc()))
    return out


# -- shared chunking / merge (local pool and farm backends) --------------

def chunk_specs(specs: Sequence[dict], *, jobs: Optional[int] = None,
                chunk_size: Optional[int] = None
                ) -> List[List[Tuple[int, dict]]]:
    """Split specs into small, dynamically dispatchable (index, spec) chunks.

    Points have wildly uneven costs (the largest message of a sweep
    dominates), so chunks are kept small — at least ``4 * jobs`` chunks
    when there are that many points — and handed to whichever worker
    frees up first, rather than pre-partitioned statically.  An explicit
    ``chunk_size`` overrides the heuristic (the farm uses it so a
    campaign has enough chunks to survive worker loss mid-run).
    """
    if chunk_size is None:
        chunk_size = max(1, len(specs) // (max(1, jobs or 1) * 4))
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    indexed = list(enumerate(specs))
    return [
        indexed[i:i + chunk_size]
        for i in range(0, len(indexed), chunk_size)
    ]


def merge_failures(results: List[object],
                   failures: Sequence[Tuple[int, str, bool]],
                   specs: Sequence[dict],
                   task: Callable) -> List[object]:
    """Fold worker-side failures into an index-ordered result list.

    ``failures`` holds ``(index, worker_traceback, rerunnable)`` triples,
    taken in index order.  A rerunnable point is re-run serially so the
    real exception propagates with a debugger-usable traceback (the
    worker's formatted traceback attached as ``worker_traceback``), or
    is recovered if the failure does not reproduce; a point marked
    not-rerunnable — a wall-clock timeout or a farm lease expiry, which
    would hang this process too — raises :class:`WorkerPointError`
    directly.  Shared by the local pool and the farm driver, so local
    and distributed failures surface identically.
    """
    if failures:
        from repro.telemetry.runtime import dump_flight_record

        dump_flight_record("point-failure", component="parallel")
    for index, worker_tb, rerunnable in sorted(failures):
        if not rerunnable:
            raise WorkerPointError(
                f"point {index} timed out in a worker (not re-run serially "
                f"— it would hang this process too); worker traceback:\n"
                f"{worker_tb}",
                index=index, worker_traceback=worker_tb,
            )
        try:
            results[index] = task(specs[index])
        except Exception as exc:
            raise WorkerPointError(
                f"point {index} failed in a worker and again on serial "
                f"re-run; worker traceback:\n{worker_tb}",
                index=index, worker_traceback=worker_tb,
            ) from exc
    return results


# -- parent side ---------------------------------------------------------

def execute_points(specs: Sequence[dict], jobs: Optional[int] = None,
                   *, task: Callable[[dict], object] = run_point,
                   farm: Optional[str] = None,
                   trace_ctx: Optional[dict] = None) -> List[object]:
    """``[task(spec) for spec in specs]``, computed by ``jobs`` workers.

    Same values, same order, whatever runs them.  ``task`` must be a
    picklable module-level callable taking one spec dict, and specs and
    results must be picklable (see the module docstring's spawn-safety
    rule).  A serial run (one job or one point) calls ``task`` inline,
    so a failing point raises its own exception; a point that fails in
    a worker raises as :func:`merge_failures` says.

    ``farm`` (argument > the ``REPRO_FARM`` env var) routes the specs to
    a sweep-farm work-server instead of local processes: same tasks,
    same chunking, same index-ordered merge — see
    :mod:`repro.bench.farm`.  ``REPRO_CHUNK_TIMEOUT_S`` bounds a farm
    campaign's *stall* (no new point for that long raises) rather than a
    chunk: a farm's per-point hang protection is the lease deadline.

    ``trace_ctx`` (a runtime span context) wraps a local run in a
    ``parallel.execute`` span, with one ``parallel.chunk`` child per
    pool chunk.  Trace context never touches the specs, so cache keys,
    fingerprints and pickled results are byte-identical with tracing on
    or off.
    """
    farm = setting("REPRO_FARM", farm)
    if farm:
        from repro.bench.farm import farm_execute_points

        return farm_execute_points(
            specs, farm=farm, task=task, trace_ctx=trace_ctx,
        )
    jobs = resolve_jobs(jobs)
    if trace_ctx is None:
        return _run_local(task, specs, jobs, None)
    from repro.telemetry.runtime import span

    with span("parallel.execute", "parallel", parent=trace_ctx,
              points=len(specs), jobs=jobs) as active:
        return _run_local(task, specs, jobs, active.ctx)


def _run_local(task: Callable[[dict], object], specs: Sequence[dict],
               jobs: int, trace_ctx: Optional[dict]) -> List[object]:
    """Run the points inline, or on a pool of ``jobs`` worker processes.

    The pool lives for this one call.  Each chunk's ``parallel.chunk``
    span is timed parent-side (submit to result), the only window this
    process can observe without perturbing the worker.
    """
    if jobs <= 1 or len(specs) <= 1:
        return [task(spec) for spec in specs]
    from concurrent.futures import (
        FIRST_COMPLETED,
        ProcessPoolExecutor,
        wait,
    )

    from repro.telemetry.runtime import record_span

    timeout = setting("REPRO_CHUNK_TIMEOUT_S")
    results: List[object] = [None] * len(specs)
    failures: List[Tuple[int, str, bool]] = []
    pool = ProcessPoolExecutor(max_workers=jobs)
    wedged = False
    try:
        submitted = {}
        for position, chunk in enumerate(chunk_specs(specs, jobs=jobs)):
            future = pool.submit(_run_chunk, task, chunk)
            submitted[future] = (position, chunk, time.time())
        pending = set(submitted)
        while pending:
            done, pending = wait(
                pending, timeout=timeout, return_when=FIRST_COMPLETED
            )
            if not done:
                # No chunk finished within the window: the pool is wedged.
                # Fail every outstanding point and put the pool down.
                for future in pending:
                    for index, spec in submitted[future][1]:
                        failures.append((
                            index,
                            f"PointTimeout: no chunk completed within "
                            f"{timeout:g}s wall-clock; point {index} "
                            f"({spec!r}) was still outstanding when the "
                            f"pool was terminated",
                            False,
                        ))
                wedged = True
                break
            for future in done:
                position, chunk, submitted_s = submitted[future]
                failed = 0
                for index, status, value in future.result():
                    if status == "ok":
                        results[index] = value
                    else:
                        failures.append((index, value, True))
                        failed += 1
                record_span(
                    "parallel.chunk", "parallel",
                    submitted_s, time.time(), parent=trace_ctx,
                    chunk=position, points=len(chunk), failed=failed,
                )
    finally:
        if wedged:
            # shutdown() only waits politely, and a hung worker never
            # exits: terminate every worker process outright.
            processes = list(pool._processes.values())
            pool.shutdown(wait=False, cancel_futures=True)
            for process in processes:
                if process.is_alive():
                    process.terminate()
            for process in processes:
                process.join(timeout=5.0)
        else:
            pool.shutdown(wait=True)
    return merge_failures(results, failures, specs, task)
