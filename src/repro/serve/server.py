"""The asyncio prediction server: coalescing + batching over the service.

:class:`PredictionServer` speaks newline-delimited JSON over TCP (one
request object per line, one response object per line) and layers the
two concurrency tiers on top of the synchronous
:class:`~repro.serve.service.PredictionService`:

* **in-flight coalescing** — duplicate concurrent ``predict`` queries
  for the same cache key await one computation instead of racing N
  identical simulations (``stats.coalesced`` counts the riders);
* **sweep batching** — a ``sweep`` request normalizes its points, serves
  the cached ones instantly, and fans the misses through
  :func:`~repro.bench.parallel.execute_points`, honoring ``--jobs`` and
  ``REPRO_FARM`` — the same executor/farm path every sweep driver uses,
  so a work-server full of pull-workers can back large backfills.

All simulation happens on a **one-thread** executor.  The simulator is
pure Python, so a second compute thread would only contend for the
interpreter lock.  The event loop stays free to answer ``stats``/``ping``
(and to coalesce) while a simulation runs.  Sweep batches run on that
same thread; their worker processes (or the farm) provide the
parallelism.  Predicts store their answers on the compute thread and
sweeps on the event loop, so the disk cache locks its own writes.

Protocol
--------

Requests carry an ``op`` (``predict``, ``select``, ``sweep``, ``stats``,
``ping``, ``shutdown``) plus the op's fields; an optional ``id`` is
echoed back for client-side matching.  Errors come back as
``{"ok": false, "error": ...}`` — a malformed query never takes down the
connection, let alone the server.  The server binds loopback by default
(same security posture as the sweep farm: no authentication, so never
expose it beyond hosts you trust).
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

from repro.bench.parallel import execute_points, resolve_jobs
from repro.collectives.selection import candidate_algorithms
from repro.hardware.machine import Mode
from repro.hardware.network import UnsupportedTopologyError
from repro.serve.service import (
    CachedAnswer,
    PredictionService,
    QueryError,
    answer_response,
)
from repro.telemetry.runtime import span, span_store
from repro.util.records import pickle_digest

#: largest accepted request line (a sweep of a few thousand points fits;
#: anything bigger is a protocol error, not a memory grab)
MAX_REQUEST_BYTES = 8 * 1024 * 1024

#: errors reported to the client as a response (not server faults)
_CLIENT_ERRORS = (QueryError, ValueError, KeyError, UnsupportedTopologyError)


class PredictionServer:
    """One asyncio TCP server wrapping a :class:`PredictionService`.

    ``jobs``/``farm`` configure the sweep-batch executor (argument >
    environment > serial, exactly like every other driver).  ``port=0``
    binds an ephemeral port; read :attr:`address` after :meth:`start`.
    """

    def __init__(
        self,
        service: Optional[PredictionService] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        jobs: Optional[int] = None,
        farm: Optional[str] = None,
    ):
        self.service = service if service is not None else PredictionService()
        self.host = host
        self.port = port
        self.jobs = jobs
        self.farm = farm
        self.address: Optional[Tuple[str, int]] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopping: Optional[asyncio.Event] = None
        # ONE compute thread: pure-Python simulations gain nothing from
        # more threads.  Predicts store their answers on it and sweeps on
        # the event loop, so the disk cache locks its own writes.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-compute"
        )
        self._inflight: Dict[str, asyncio.Future] = {}

    # -- lifecycle --------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=MAX_REQUEST_BYTES,
        )
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self.address

    async def run(self, started: Optional[threading.Event] = None) -> None:
        """Start, optionally signal ``started``, serve until :meth:`stop`."""
        await self.start()
        if started is not None:
            started.set()
        try:
            await self._stopping.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()
            self._executor.shutdown(wait=True)

    def stop(self) -> None:
        """Request shutdown; safe to call from any thread, also after a
        ``shutdown`` request has already stopped the server."""
        if self._loop is None or self._stopping is None:
            return
        try:
            self._loop.call_soon_threadsafe(self._stopping.set)
        except RuntimeError:  # the loop has closed: nothing left to stop
            pass

    # -- connection handling ----------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            # Only server shutdown cancels handler tasks; a cancelled
            # connection is a closed connection, not an error to log.
            pass

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(_encode({
                        "ok": False,
                        "error": f"request line exceeds "
                                 f"{MAX_REQUEST_BYTES} bytes",
                    }))
                    await writer.drain()
                    break
                if not line:
                    break
                response = await self._dispatch_line(line)
                writer.write(_encode(response))
                await writer.drain()
                if response.get("op") == "shutdown" and response.get("ok"):
                    self.stop()
                    break
        except ConnectionError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _dispatch_line(self, line: bytes) -> dict:
        start = time.perf_counter()
        request_id = None
        op = None
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise QueryError("request must be a JSON object")
            request_id = request.get("id")
            op = request.get("op", "predict")
            handler = self._HANDLERS.get(op)
            if handler is None:
                raise QueryError(
                    f"unknown op {op!r}; known: {sorted(self._HANDLERS)}"
                )
            self.service.stats.record_request(op)
            response = await handler(self, request)
            response.setdefault("ok", True)
        except _CLIENT_ERRORS as exc:
            self.service.stats.record_error()
            response = {"ok": False, "error": str(exc),
                        "error_type": type(exc).__name__}
        except Exception as exc:  # never take the server down on one query
            self.service.stats.record_error()
            response = {"ok": False, "error": f"internal error: {exc}",
                        "error_type": type(exc).__name__}
        if request_id is not None:
            response["id"] = request_id
        if op is not None:
            response["op"] = op
        self.service.stats.record_latency(time.perf_counter() - start)
        return response

    # -- predict (with coalescing) ----------------------------------------
    async def _compute_keyed(self, spec: dict, key: str,
                             parent: Optional[dict] = None,
                             ) -> Tuple[CachedAnswer, str, bool]:
        """Compute (or join an in-flight computation of) one point.

        Returns ``(answer, tier, coalesced)``.  Exactly one caller per
        key owns the computation; concurrent duplicates await its future.
        """
        existing = self._inflight.get(key)
        if existing is not None:
            self.service.stats.record_coalesced()
            answer, tier = await asyncio.shield(existing)
            return answer, tier, True
        future: asyncio.Future = self._loop.create_future()
        self._inflight[key] = future
        try:
            with span("serve.compute", "serve", parent=parent,
                      key=key) as sp:
                answer, tier = await self._loop.run_in_executor(
                    self._executor, self._compute_and_store, spec, key,
                )
                sp.set(tier=tier)
            future.set_result((answer, tier))
            return answer, tier, False
        except Exception as exc:
            future.set_exception(exc)
            future.exception()  # mark retrieved even with no riders
            raise
        finally:
            self._inflight.pop(key, None)

    def _compute_and_store(self, spec: dict, key: str
                           ) -> Tuple[CachedAnswer, str]:
        answer, tier = self.service.compute(spec)
        self.service.store(key, answer)
        return answer, tier

    async def _op_predict(self, request: dict,
                          parent: Optional[dict] = None) -> dict:
        start = time.perf_counter()
        with span("serve.predict", "serve", parent=parent,
                  family=request.get("family"),
                  algorithm=request.get("algorithm", "auto"),
                  x=request.get("x")) as sp:
            spec, key = self.service.normalize(request)
            cached = self.service.lookup(key)
            if cached is not None:
                answer, tier = cached
                coalesced = False
            else:
                answer, tier, coalesced = await self._compute_keyed(
                    spec, key, parent=sp.ctx,
                )
            sp.set(tier=tier, coalesced=coalesced)
        # Tier counters track real lookups/computations; riders on an
        # in-flight compute are counted by ``stats.coalesced`` alone.
        if not coalesced:
            self.service.stats.record_tier(tier)
            self.service.stats.record_tier_latency(
                time.perf_counter() - start, tier,
            )
        response = answer_response(answer, tier, key)
        if coalesced:
            response["coalesced"] = True
        return response

    # -- select ------------------------------------------------------------
    async def _op_select(self, request: dict) -> dict:
        base = {
            fld: request[fld]
            for fld in ("family", "x", "dims", "mode", "wrap", "network",
                        "iters", "seed", "root", "window_caching")
            if fld in request
        }
        # The table's choice: resolve "auto" through section-V policy.
        table_spec, _ = self.service.normalize({**base, "algorithm": "auto"})
        table_choice = table_spec["algorithm"]
        if not request.get("measure", True):
            return {
                "selected": table_choice,
                "table_choice": table_choice,
                "agrees": True,
                "measured": False,
                "candidates": [],
            }
        names = request.get("candidates")
        if names is None:
            ppn = Mode[table_spec["mode"]].value
            names = candidate_algorithms(
                table_spec["family"], ppn, table_spec["network"],
            )
        if not names:
            raise QueryError(
                f"no candidate algorithms for family "
                f"{table_spec['family']!r} at this mode/network"
            )
        measured: List[dict] = []
        for name in names:
            prediction = await self._op_predict({**base, "algorithm": name})
            measured.append({
                "algorithm": prediction["algorithm"],
                "elapsed_us": prediction["elapsed_us"],
                "tier": prediction["tier"],
                "digest": prediction["digest"],
            })
        best = min(measured, key=lambda entry: entry["elapsed_us"])
        return {
            "selected": best["algorithm"],
            "table_choice": table_choice,
            "agrees": best["algorithm"] == table_choice,
            "measured": True,
            "candidates": measured,
        }

    # -- sweep (batched) ----------------------------------------------------
    async def _op_sweep(self, request: dict) -> dict:
        points = request.get("points")
        if not isinstance(points, list) or not points:
            raise QueryError("sweep requires a non-empty 'points' list")
        with span("serve.sweep", "serve", points=len(points)) as query_sp:
            return await self._sweep_inner(request, points, query_sp)

    async def _sweep_inner(self, request: dict, points: List[dict],
                           query_sp) -> dict:
        normalized = [self.service.normalize(point) for point in points]
        self.service.stats.record_request("sweep_points", len(points))

        # Partition: cached / riding an in-flight compute / to-batch.
        # Duplicate keys inside the sweep batch once, too.
        responses: List[Optional[dict]] = [None] * len(points)
        riders: List[Tuple[int, asyncio.Future]] = []
        to_compute: List[Tuple[str, dict]] = []
        compute_index: Dict[str, int] = {}
        members: Dict[str, List[int]] = {}
        for position, (spec, key) in enumerate(normalized):
            cached = self.service.lookup(key)
            if cached is not None:
                answer, tier = cached
                self.service.stats.record_tier(tier)
                responses[position] = answer_response(answer, tier, key)
                continue
            existing = self._inflight.get(key)
            if existing is not None:
                self.service.stats.record_coalesced()
                riders.append((position, existing))
                continue
            if key not in compute_index:
                compute_index[key] = len(to_compute)
                to_compute.append((key, spec))
                future = self._loop.create_future()
                self._inflight[key] = future
            members.setdefault(key, []).append(position)
        query_sp.set(cached=len(points) - len(riders) - len(to_compute),
                     riders=len(riders), computed=len(to_compute))

        try:
            if to_compute:
                with span("serve.sweep.batch", "serve",
                          parent=query_sp.ctx,
                          points=len(to_compute)) as batch_sp:
                    batch = await self._loop.run_in_executor(
                        self._executor, self._run_batch,
                        [spec for _, spec in to_compute],
                        request.get("jobs"),
                        batch_sp.ctx,
                    )
                for (key, spec), answer in zip(to_compute, batch):
                    self.service.store(key, answer)
                    future = self._inflight.pop(key, None)
                    if future is not None and not future.done():
                        future.set_result((answer, "batch"))
                    # One computation, one tier tick — duplicate positions
                    # inside the sweep share it.
                    self.service.stats.record_tier("batch")
                    for position in members[key]:
                        responses[position] = answer_response(
                            answer, "batch", key,
                        )
        except Exception as exc:
            for key, _ in to_compute:
                future = self._inflight.pop(key, None)
                if future is not None and not future.done():
                    future.set_exception(exc)
                    future.exception()
            raise
        for position, future in riders:
            answer, tier = await asyncio.shield(future)
            _, key = normalized[position]
            responses[position] = answer_response(answer, tier, key)
            responses[position]["coalesced"] = True
        return {"points": responses, "count": len(responses)}

    def _run_batch(self, specs: List[dict], jobs: Optional[int],
                   trace_ctx: Optional[dict] = None) -> List[CachedAnswer]:
        """Fan a sweep's cache misses through the shared point executor."""
        effective = jobs if jobs is not None else self.jobs
        results = execute_points(
            specs, jobs=effective, farm=self.farm, trace_ctx=trace_ctx,
        )
        return [
            CachedAnswer(result=result, digest=pickle_digest(result),
                         spec=spec)
            for spec, result in zip(specs, results)
        ]

    # -- stats / ping / shutdown -------------------------------------------
    async def _op_stats(self, request: dict) -> dict:
        snapshot = self.service.stats_snapshot()
        snapshot["server"] = {
            "address": list(self.address) if self.address else None,
            "jobs": resolve_jobs(self.jobs),
            "farm": self.farm,
            "inflight": len(self._inflight),
        }
        return snapshot

    async def _op_metrics(self, request: dict) -> dict:
        """The metrics registry: structured + Prometheus text."""
        return {
            "metrics": self.service.metrics_snapshot(),
            "exposition": self.service.metrics_text(),
        }

    async def _op_trace(self, request: dict) -> dict:
        """Finished runtime spans from this process's span store."""
        spans = span_store().snapshot()
        return {"spans": spans, "count": len(spans)}

    async def _op_ping(self, request: dict) -> dict:
        return {"pong": True}

    async def _op_shutdown(self, request: dict) -> dict:
        return {"stopping": True}

    _HANDLERS = {
        "predict": _op_predict,
        "select": _op_select,
        "sweep": _op_sweep,
        "stats": _op_stats,
        "metrics": _op_metrics,
        "trace": _op_trace,
        "ping": _op_ping,
        "shutdown": _op_shutdown,
    }


def _encode(response: dict) -> bytes:
    return json.dumps(response, sort_keys=True).encode("ascii") + b"\n"


class BackgroundServer:
    """A :class:`PredictionServer` running on a daemon thread's event loop.

    The in-process harness for tests and the QPS benchmark: start, read
    :attr:`address`, query over loopback, :meth:`stop`.  Usable as a
    context manager.
    """

    def __init__(self, server: PredictionServer, thread: threading.Thread):
        self.server = server
        self.thread = thread

    @property
    def address(self) -> Tuple[str, int]:
        return self.server.address

    @property
    def service(self) -> PredictionService:
        return self.server.service

    def stop(self, timeout: float = 10.0) -> None:
        self.server.stop()
        self.thread.join(timeout=timeout)

    def __enter__(self) -> "BackgroundServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_background_server(
    service: Optional[PredictionService] = None,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    jobs: Optional[int] = None,
    farm: Optional[str] = None,
    timeout: float = 10.0,
) -> BackgroundServer:
    """Start a server on a daemon thread; returns once it is accepting."""
    server = PredictionServer(
        service, host=host, port=port, jobs=jobs, farm=farm,
    )
    started = threading.Event()
    thread = threading.Thread(
        target=lambda: asyncio.run(server.run(started)),
        name="serve-loop", daemon=True,
    )
    thread.start()
    if not started.wait(timeout=timeout):
        raise RuntimeError("prediction server failed to start in time")
    return BackgroundServer(server, thread)


__all__ = [
    "BackgroundServer",
    "MAX_REQUEST_BYTES",
    "PredictionServer",
    "start_background_server",
]
