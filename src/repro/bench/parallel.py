"""Deterministic parallel execution of independent simulation points.

Every figure and sweep in this repo is a grid of *independent* points —
one (algorithm, message size, geometry) simulation each, fully
deterministic given its spec.  That makes the drivers embarrassingly
parallel: :class:`ParallelExecutor` fans point **specs** out to a pool of
worker processes and merges the results back **in point order**, so the
output of a parallel run is byte-identical to the serial run.

Spawn-safety rule: *pickle specs, not machines*
-----------------------------------------------

Workers never receive live simulator objects.  A spec is a plain dict —
geometry, mode, algorithm name, size, seeds — and the worker constructs
its own :class:`~repro.hardware.machine.Machine` (and, for chaos points,
its own ``FaultSchedule`` from the spec's RNG key) locally.  Everything
crossing the process boundary is picklable under the ``spawn`` start
method, so the executor works identically under ``fork`` (fast, the
POSIX default) and ``spawn`` (the portable one).

Determinism
-----------

* Results are merged by point index, never by completion order.
* Every point builds its own :class:`~repro.hardware.machine.Machine`,
  in the parent (serial) and in the workers alike, so no point can see
  state another point left behind.
* A worker exception fails only its point: the pool keeps draining the
  other points, and the failed spec is re-run serially in the parent so
  the exception surfaces with a real, debugger-usable traceback (the
  worker's formatted traceback is attached as the cause).

Job-count resolution: an explicit ``jobs`` argument wins, then the
``REPRO_JOBS`` environment variable, then serial.  ``jobs <= 0`` means
"one worker per CPU".  Serial mode (``jobs=1``) never touches
``multiprocessing`` — it runs the task inline, point by point, exactly
like the historical drivers — and never imports it either: the process
pool and the runtime spans are imported where they are used, so a
process that only calls :func:`run_point` loads neither.

Hung workers
------------

A worker process that wedges (deadlocked C extension, runaway point)
would historically hang ``map`` forever.  A wall-clock chunk timeout —
``timeout_s`` on the executor or ``map``, or the ``REPRO_CHUNK_TIMEOUT_S``
environment variable — bounds the wait: when **no chunk completes** for
that many seconds, every still-outstanding point fails with a
:class:`PointFailure` (``on_error='return'``) or a
:class:`WorkerPointError` (``on_error='raise'``; timed-out points are
*not* re-run serially — that would hang this process too), and the
wedged pool is terminated.  The default is no timeout, preserving the
historical behavior.

Beyond one host
---------------

The same point specs fan across machines through the sweep farm
(:mod:`repro.bench.farm`): ``execute_points(specs, farm="host:port")`` —
or the ``REPRO_FARM`` environment variable — submits the specs to a
work-server and merges the journaled results with the identical
index-ordered, byte-identical-to-serial guarantee.  The chunking
(:func:`chunk_specs`), worker-side chunk runner (:func:`_run_chunk`),
and failure merge
(:func:`merge_failures`) are shared between the local and farm
backends.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from repro.hardware.machine import Machine, Mode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import ProcessPoolExecutor

#: environment variable consulted when no explicit job count is given
ENV_JOBS = "REPRO_JOBS"

#: environment variable overriding the multiprocessing start method
ENV_START_METHOD = "REPRO_MP_START"

#: environment variable with the default wall-clock chunk timeout (seconds)
ENV_CHUNK_TIMEOUT = "REPRO_CHUNK_TIMEOUT_S"

#: environment variable with a default farm server address (host:port)
ENV_FARM = "REPRO_FARM"


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a worker count: argument > ``REPRO_JOBS`` > serial.

    ``0`` or a negative count means "all CPUs".
    """
    if jobs is None:
        env = os.environ.get(ENV_JOBS, "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError as exc:
            raise ValueError(
                f"{ENV_JOBS} must be an integer, got {env!r}"
            ) from exc
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def resolve_timeout(timeout_s: Optional[float] = None) -> Optional[float]:
    """Resolve the chunk timeout: argument > ``REPRO_CHUNK_TIMEOUT_S`` > none."""
    if timeout_s is None:
        env = os.environ.get(ENV_CHUNK_TIMEOUT, "").strip()
        if not env:
            return None
        try:
            timeout_s = float(env)
        except ValueError as exc:
            raise ValueError(
                f"{ENV_CHUNK_TIMEOUT} must be a number of seconds, got "
                f"{env!r}"
            ) from exc
    if timeout_s <= 0:
        raise ValueError(f"timeout_s must be positive, got {timeout_s}")
    return timeout_s


@dataclass
class PointFailure:
    """A point whose worker raised (only surfaced with ``on_error='return'``).

    ``traceback`` is the worker's formatted traceback string — the real
    failing frame, not just the spec — and ``spec`` (when the caller
    provided specs) is the point spec that failed, so a campaign report
    can both name the point and show where it died.
    """

    index: int
    traceback: str
    spec: Optional[dict] = None

    def __bool__(self) -> bool:  # failed points are falsy in result lists
        return False


class WorkerPointError(RuntimeError):
    """Raised when a point fails both in the worker and on serial re-run.

    ``worker_traceback`` preserves the original worker-side formatted
    traceback (local pool worker or remote farm worker) so the failing
    frame survives even though the exception object itself could not
    cross the process boundary; ``index`` is the failing point's position
    in the spec list.
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
                   specs: Sequence[dict], task: Callable,
                   on_error: str) -> List[object]:
    """Fold worker-side failures into an index-ordered result list.

    ``failures`` holds ``(index, worker_traceback, rerunnable)`` triples.
    ``on_error='return'`` records them as :class:`PointFailure` entries
    (traceback and spec preserved).  ``on_error='raise'`` re-runs each
    rerunnable point serially so the real exception propagates with a
    debugger-usable traceback (the worker's formatted traceback attached
    both as ``__cause__`` context and as ``worker_traceback``); points
    marked not-rerunnable — wall-clock timeouts, which would hang this
    process too — raise :class:`WorkerPointError` directly.  Shared by
    :meth:`ParallelExecutor.map` and the farm driver, so local and
    distributed failures surface identically.
    """
    if failures:
        from repro.telemetry.runtime import dump_flight_record

        dump_flight_record("point-failure", component="parallel")
    for index, worker_tb, rerunnable in sorted(failures):
        if on_error == "return":
            results[index] = PointFailure(index, worker_tb, spec=specs[index])
            continue
        if not rerunnable:
            raise WorkerPointError(
                f"point {index} timed out in a worker (not re-run serially "
                f"— it would hang this process too); worker traceback:\n"
                f"{worker_tb}",
                index=index, worker_traceback=worker_tb,
            )
        # Serial re-run: reproduces the failure with a real traceback
        # (or recovers the point if the failure does not reproduce).
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

class ParallelExecutor:
    """Fan independent point specs across worker processes.

    ``map(task, specs)`` returns ``[task(spec) for spec in specs]`` — same
    values, same order — but computed by ``jobs`` worker processes.  The
    pool is created lazily on first use and reused across ``map`` calls;
    use the executor as a context manager (or call :meth:`close`) to shut
    it down.

    ``task`` must be a picklable module-level callable taking one spec
    dict; specs and results must be picklable (see the module docstring's
    spawn-safety rule).
    """

    def __init__(self, jobs: Optional[int] = None, *,
                 start_method: Optional[str] = None,
                 chunk_size: Optional[int] = None,
                 timeout_s: Optional[float] = None):
        self.jobs = resolve_jobs(jobs)
        self.start_method = (
            start_method or os.environ.get(ENV_START_METHOD) or None
        )
        self.chunk_size = chunk_size
        self.timeout_s = resolve_timeout(timeout_s)
        self._pool: Optional[ProcessPoolExecutor] = None

    # -- lifecycle -------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            context = (
                multiprocessing.get_context(self.start_method)
                if self.start_method else multiprocessing.get_context()
            )
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=context
            )
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _terminate_pool(self) -> None:
        """Tear down a pool whose workers may be wedged (timeout path).

        ``ProcessPoolExecutor.shutdown`` only waits politely; a hung
        worker never exits, so its process is terminated outright.  The
        executor stays usable — the next ``map`` builds a fresh pool.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        processes = list(getattr(pool, "_processes", {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=5.0)

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- scheduling ------------------------------------------------------
    def _chunks(self, specs: Sequence[dict]) -> List[List[Tuple[int, dict]]]:
        """Chunked scheduling (see :func:`chunk_specs`)."""
        return chunk_specs(specs, jobs=self.jobs, chunk_size=self.chunk_size)

    def map(self, task: Callable[[dict], object], specs: Sequence[dict],
            *, on_error: str = "raise",
            timeout_s: Optional[float] = None,
            trace_ctx: Optional[dict] = None) -> List[object]:
        """Run ``task`` over ``specs``; results ordered by spec index.

        ``on_error='raise'``: a point that failed in its worker is re-run
        serially in this process *after* the surviving points complete, so
        the underlying exception propagates with a real traceback (the
        worker's formatted traceback attached as ``__cause__`` and as
        ``worker_traceback``).  ``on_error='return'``: failed points come
        back as :class:`PointFailure` entries instead (falsy, so
        ``filter(None, ...)`` drops them).

        ``timeout_s`` (argument > executor default > the
        ``REPRO_CHUNK_TIMEOUT_S`` env var) bounds the wall-clock wait for
        chunk progress: when no chunk completes within the window, every
        still-outstanding point fails as a timeout and the wedged pool is
        terminated instead of hanging the whole sweep forever.  Timed-out
        points are never re-run serially (a hung point would hang this
        process too): with ``on_error='raise'`` they raise
        :class:`WorkerPointError` directly.
        """
        if on_error not in ("raise", "return"):
            raise ValueError(f"on_error must be raise|return, got {on_error!r}")
        if self.jobs <= 1 or len(specs) <= 1:
            return self._map_serial(task, specs, on_error)
        from concurrent.futures import FIRST_COMPLETED, wait

        from repro.telemetry.runtime import record_span

        timeout = resolve_timeout(timeout_s) if timeout_s is not None \
            else self.timeout_s
        pool = self._ensure_pool()
        results: List[object] = [None] * len(specs)
        failures: List[Tuple[int, str, bool]] = []
        chunk_of = {}
        chunk_meta = {}
        for position, chunk in enumerate(self._chunks(specs)):
            future = pool.submit(_run_chunk, task, chunk)
            chunk_of[future] = chunk
            chunk_meta[future] = (position, time.time())
        pending = set(chunk_of)
        while pending:
            done, pending = wait(
                pending, timeout=timeout, return_when=FIRST_COMPLETED
            )
            if not done:
                # No chunk finished within the window: the pool is wedged.
                # Fail every outstanding point and put the pool down.
                for future in pending:
                    future.cancel()
                    for index, spec in chunk_of[future]:
                        failures.append((
                            index,
                            f"PointTimeout: no chunk completed within "
                            f"{timeout:g}s wall-clock; point {index} "
                            f"({spec!r}) was still outstanding when the "
                            f"pool was terminated",
                            False,
                        ))
                self._terminate_pool()
                break
            for future in done:
                chunk_ok = 0
                for index, status, value in future.result():
                    if status == "ok":
                        results[index] = value
                        chunk_ok += 1
                    else:
                        failures.append((index, value, True))
                position, submitted_s = chunk_meta[future]
                # Chunk spans are timed parent-side (submit -> result):
                # they bound queueing plus worker execution — the only
                # window this process can observe without perturbing the
                # worker.
                record_span(
                    "parallel.chunk", "parallel",
                    submitted_s, time.time(), parent=trace_ctx,
                    chunk=position, points=len(chunk_of[future]),
                    failed=len(chunk_of[future]) - chunk_ok,
                )
        return merge_failures(results, failures, specs, task, on_error)

    def _map_serial(self, task, specs, on_error) -> List[object]:
        results: List[object] = []
        for index, spec in enumerate(specs):
            if on_error == "return":
                try:
                    results.append(task(spec))
                except Exception:
                    results.append(PointFailure(
                        index, traceback.format_exc(), spec=spec,
                    ))
            else:
                results.append(task(spec))
        return results


def execute_points(specs: Sequence[dict], jobs: Optional[int] = None,
                   *, task: Callable[[dict], object] = run_point,
                   on_error: str = "raise",
                   farm: Optional[str] = None,
                   timeout_s: Optional[float] = None,
                   trace_ctx: Optional[dict] = None) -> List[object]:
    """One-shot convenience: map ``task`` over ``specs`` with ``jobs`` workers.

    Serial (``jobs=1``) runs inline, exactly the historical driver
    behavior; either way every point builds its own machine.

    ``farm`` (argument > the ``REPRO_FARM`` env var) routes the specs to
    a sweep-farm work-server instead of local processes: same tasks,
    same chunking, same index-ordered merge — see
    :mod:`repro.bench.farm`.  ``timeout_s`` is honored there too, but
    as a *stall* bound (no campaign progress for that long raises)
    rather than a per-chunk bound — a farm's per-point hang protection
    is the lease deadline.
    """
    if farm is None:
        farm = os.environ.get(ENV_FARM, "").strip() or None
    if farm:
        from repro.bench.farm import farm_execute_points

        return farm_execute_points(
            specs, farm=farm, task=task, on_error=on_error, jobs=jobs,
            timeout_s=timeout_s, trace_ctx=trace_ctx,
        )
    resolved = resolve_jobs(jobs)
    # The execute span exists only when a caller passed trace context —
    # standalone sweeps stay traceless; a traced query (the serve sweep
    # path) fans into per-chunk child spans under it.  Trace context
    # never touches the specs themselves: cache keys, fingerprints and
    # pickled results are byte-identical with tracing on or off.
    if trace_ctx is not None:
        from repro.telemetry.runtime import span

        trace_span = span(
            "parallel.execute", "parallel", parent=trace_ctx,
            points=len(specs), jobs=resolved,
        )
    else:
        trace_span = None
    if resolved <= 1 or len(specs) <= 1:
        if trace_span is None:
            return ParallelExecutor(1).map(task, specs, on_error=on_error)
        with trace_span:
            return ParallelExecutor(1).map(task, specs, on_error=on_error)
    with ParallelExecutor(resolved, timeout_s=timeout_s) as executor:
        if trace_span is None:
            return executor.map(task, specs, on_error=on_error)
        with trace_span as sp:
            return executor.map(
                task, specs, on_error=on_error, trace_ctx=sp.ctx,
            )
