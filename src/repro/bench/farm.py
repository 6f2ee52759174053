"""Fault-tolerant distributed sweep farm: leased work-server + pull-workers.

:mod:`repro.bench.parallel` fans picklable point specs across *local*
processes; this module fans the very same specs across *hosts*, with
robustness as the headline property.  Three stdlib-only pieces
(``multiprocessing.connection`` over TCP — framing, pickling, and an
HMAC authkey handshake for free):

:class:`FarmServer` (``repro farm serve``)
    owns one campaign: the spec list, its chunking (shared with the
    local executor via :func:`~repro.bench.parallel.chunk_specs`), and
    an append-only fsynced **progress journal**.  Work is handed out as
    **chunk leases** with wall-clock deadlines; workers heartbeat to
    keep a lease alive.  An expired or worker-lost lease is re-queued
    under the chaos harness's
    :class:`~repro.hardware.fault_schedule.RetryPolicy` bounded
    exponential backoff (wall-clock seconds via
    :meth:`~repro.hardware.fault_schedule.RetryPolicy.backoff_s`); a
    chunk that exhausts its retry budget is **quarantined** as a poison
    chunk — its tracebacks preserved — instead of wedging the campaign.

:class:`FarmWorker` (``repro farm work``)
    a pull-worker: lease a chunk, compute it with the shared chunk
    runner (:func:`~repro.bench.parallel._run_chunk` — same crash
    isolation, a fresh machine per point), report completions.  A worker
    that cannot reach the server reconnects with bounded backoff, so it
    rides out a server restart; results it cannot deliver are simply
    recomputed when the lease expires.

:func:`farm_execute_points` (the driver behind ``--farm``)
    submits a campaign, polls, fetches, and merges **in point order** —
    the merged list is byte-identical to a serial
    :func:`~repro.bench.parallel.execute_points` run, verified by
    per-point digest.  A server that stays unreachable raises
    :class:`FarmUnreachableError`; the driver never runs the sweep
    locally instead.

Crash-resumable campaigns
-------------------------

The journal, a :class:`~repro.util.records.RecordLog`, is the only
description of a campaign.  Each change is one fsynced JSON line: the
``campaign`` header keyed by a
:class:`~repro.telemetry.manifest.CampaignManifest` (git rev + spec
hash), a ``point`` per completed point (``{"kind": "point", "index":
i, "digest": sha256(pickle), "data": base64(pickle)}``), a ``span``
per reported chunk span, a ``quarantine`` per poisoned chunk, an
``expire`` per lost lease and a ``resume`` per restart.  The server
makes every change by applying its record with the same function the
start-up replay uses, then appending it, so ``repro farm serve
--resume`` rebuilds the journaled state exactly: journaled points are
**never re-run**, the campaign-lifetime counters (points completed,
leases expired, workers lost, chunks quarantined, resumes) read as
they did before the restart, torn trailing records (a crash
mid-write) are detected by digest, dropped, and cut off before any
server's first append, and a driver that re-submits the same campaign
(same spec hash) attaches to the replayed state instead of starting
over.  Leases, retry attempts and the other counters are not journaled
and start afresh.  Duplicate completions — a slow worker finishing a
chunk that was re-leased after its lease expired — are detected,
digest-verified against the journaled bytes (a mismatch is counted as
a determinism violation), and discarded.

Security note: the wire protocol is ``multiprocessing.connection``
pickle, and **unpickling is code execution** — the task-name allowlist
below only constrains honest peers; any peer holding the authkey can
run arbitrary code on every farm process it talks to.  The HMAC
authkey (``REPRO_FARM_AUTHKEY``) is therefore the *sole* trust
boundary, and its in-repo default (``"repro-farm"``) is public: the
server refuses to bind a non-loopback interface unless
``REPRO_FARM_AUTHKEY`` is explicitly set, and even then the farm
belongs on a trusted private segment — the authkey authenticates, it
does not encrypt.
"""

from __future__ import annotations

import hashlib
import heapq
import importlib
import json
import os
import pickle
import socket
import threading
import time
import uuid
from dataclasses import dataclass
from multiprocessing.connection import Client, Listener
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.bench.parallel import (
    _run_chunk,
    chunk_specs,
    merge_failures,
    run_point,
)
from repro.hardware.fault_schedule import RetryPolicy
from repro.telemetry.manifest import CampaignManifest
from repro.telemetry.runtime import (
    MetricsRegistry,
    dump_flight_record,
    new_span_id,
    runtime_log,
    span_store,
)
from repro.util.config import setting
from repro.util.records import (
    PICKLE_PROTOCOL,
    RecordLog,
    pack,
    restricted_loads,
    unpack,
)

#: the authkey of every farm connection when ``REPRO_FARM_AUTHKEY`` is
#: unset; it is public, so a server binds only loopback under it
_PUBLIC_AUTHKEY = "repro-farm"

#: a lease not heartbeated for this long is considered worker-lost
DEFAULT_LEASE_S = 30.0

#: chunk re-queue budget after lease expiry / worker-side point errors
#: (RetryPolicy reused outside the simulator clock: backoff_s seconds)
DEFAULT_CHUNK_RETRY = RetryPolicy(
    max_attempts=4, base_backoff_us=0.25e6, backoff_factor=2.0,
    max_backoff_us=4e6,
)

#: longest a worker sleeps between two lease requests
_POLL_CAP_S = 2.0

#: reconnect budget for workers and drivers when the server is away —
#: sized to ride out a server restart (~40 s of bounded backoff total)
DEFAULT_RECONNECT = RetryPolicy(
    max_attempts=12, base_backoff_us=0.2e6, backoff_factor=2.0,
    max_backoff_us=5e6,
)


class FarmError(RuntimeError):
    """A farm protocol violation (bad op, campaign mismatch, refused resume)."""


class FarmUnreachableError(FarmError):
    """The server did not answer within the reconnect policy's budget."""


def _loopback(host: str) -> bool:
    """True when ``host`` can only be reached from this machine."""
    return host in ("localhost", "::1") or host.startswith("127.")


def parse_address(address: str) -> Tuple[str, int]:
    """``"host:port"`` (or bare ``":port"``/``"port"``) to a socket address."""
    host, _, port = address.rpartition(":")
    try:
        return (host or "127.0.0.1", int(port))
    except ValueError as exc:
        raise FarmError(
            f"farm address must look like host:port, got {address!r}"
        ) from exc


# -- task registry -------------------------------------------------------

#: farm-runnable tasks: name -> (module, attribute).  Workers only ever
#: execute names from this table (or in-process registrations below) —
#: the wire protocol cannot inject code.
_TASK_IMPORTS: Dict[str, Tuple[str, str]] = {
    "run_point": ("repro.bench.parallel", "run_point"),
    "run_point_timed": ("repro.bench.parallel", "run_point_timed"),
    "chaos_point": ("repro.bench.chaos", "chaos_point"),
}

_REGISTERED: Dict[str, Callable[[dict], object]] = {}


def register_task(name: str, task: Callable[[dict], object]) -> None:
    """Register an in-process task (tests, embedding apps).

    CLI workers run in fresh interpreters and resolve only the import
    table above; in-process registrations reach only workers running in
    this process (threaded test farms).  A task's results must pickle
    to builtin values, ``CollectiveResult`` and ``RunManifest`` only:
    the driver reads them back with
    :func:`~repro.util.records.restricted_loads`, which refuses every
    other global.
    """
    _REGISTERED[name] = task


def known_tasks() -> List[str]:
    return sorted(set(_REGISTERED) | set(_TASK_IMPORTS))


def resolve_task(name: str) -> Callable[[dict], object]:
    """The callable behind a task name; :class:`FarmError` if unregistered."""
    if name in _REGISTERED:
        return _REGISTERED[name]
    if name in _TASK_IMPORTS:
        module, attribute = _TASK_IMPORTS[name]
        task = getattr(importlib.import_module(module), attribute)
        _REGISTERED[name] = task
        return task
    raise FarmError(
        f"unknown farm task {name!r} (known: {known_tasks()})"
    )


def task_name(task: Callable[[dict], object]) -> str:
    """The registered name of a task callable; :class:`FarmError` if none."""
    for name, registered in _REGISTERED.items():
        if registered is task:
            return name
    for name, (module, attribute) in _TASK_IMPORTS.items():
        if (getattr(task, "__module__", None) == module
                and getattr(task, "__qualname__", None) == attribute):
            return name
    raise FarmError(
        f"task {task!r} is not farm-registered; add it to the allowlist or "
        f"call repro.bench.farm.register_task"
    )


# -- wire protocol -------------------------------------------------------

#: longest a farm request waits for its answer
_RPC_TIMEOUT_S = 30.0


def rpc(address: str, op: str, **payload) -> dict:
    """One request/response round trip: connect, send, receive, close.

    A connection per call keeps the protocol stateless — worker-lost
    detection is purely lease-deadline based, never tied to a TCP
    connection's fate — and makes a server restart invisible beyond one
    failed call.
    """
    authkey = setting("REPRO_FARM_AUTHKEY") or _PUBLIC_AUTHKEY
    with Client(parse_address(address), authkey=authkey.encode()) as conn:
        conn.send({"op": op, **payload})
        if not conn.poll(_RPC_TIMEOUT_S):
            raise TimeoutError(
                f"farm op {op!r} timed out after {_RPC_TIMEOUT_S}s"
            )
        status, data = conn.recv()
    if status != "ok":
        raise FarmError(f"{op}: {data}")
    return data


#: errors that mean "the server is (temporarily) away", worth a retry
_TRANSIENT = (ConnectionError, EOFError, OSError, TimeoutError)


def rpc_retry(address: str, op: str, *,
              policy: RetryPolicy = DEFAULT_RECONNECT,
              **payload) -> dict:
    """:func:`rpc` with reconnect-on-failure under a bounded backoff budget."""
    last: Optional[BaseException] = None
    for attempt in range(1, policy.max_attempts + 1):
        try:
            return rpc(address, op, **payload)
        except _TRANSIENT as exc:
            last = exc
            if attempt < policy.max_attempts:
                time.sleep(policy.backoff_s(attempt))
    raise FarmUnreachableError(
        f"farm server {address} unreachable for op {op!r} after "
        f"{policy.max_attempts} attempts: {last!r}"
    ) from last


# -- progress journal ----------------------------------------------------

#: campaign header field -> the type a server reads it as
_HEADER_FIELDS = {"manifest": dict, "specs": list, "task": str}


def _check_header(path: str, header: dict) -> CampaignManifest:
    """The manifest of a journal's campaign header.  Refuses a header the
    server cannot read with :class:`FarmError`, so replay never mistakes
    it for a torn record and nothing touches the file."""
    for name, kind in _HEADER_FIELDS.items():
        if not isinstance(header.get(name), kind):
            raise FarmError(
                f"journal {path!r}: campaign header has no {name!r} "
                f"{kind.__name__}; refusing the journal"
            )
    try:
        return CampaignManifest.from_dict(header["manifest"])
    except TypeError as exc:
        raise FarmError(
            f"journal {path!r}: campaign header's 'manifest' does not "
            f"parse ({exc}); refusing the journal"
        ) from exc


# -- server --------------------------------------------------------------

#: robustness rollups: ``farm status`` stats key -> help text of the
#: ``farm_<key>_total`` counter that stores it.  ``leases_expired``,
#: ``chunks_quarantined``, ``points_completed``, ``workers_lost`` and
#: ``resumes`` count the campaign's life: only journal records move them,
#: so a restart replays them.  The others count this server's life and
#: start at 0 on every restart.
FARM_STATS = {
    "leases_issued": "chunk leases granted to workers",
    "leases_expired": "leases lost to missed heartbeats",
    "heartbeats": "lease heartbeats received",
    "chunks_completed": "chunks fully settled",
    "chunks_retried": "chunks re-queued under the retry budget",
    "chunks_quarantined": "poison chunks quarantined",
    "points_completed": "points journaled complete",
    "duplicate_completions": "duplicate completions discarded",
    "digest_mismatches": "determinism violations on duplicates",
    "workers_lost": "workers that lost a lease",
    "resumes": "journal resumes across server restarts",
    "torn_records": "torn journal records dropped on replay",
}


@dataclass
class _Lease:
    worker: str
    deadline: float


class FarmServer:
    """The leased work-server.  One campaign, one journal, many workers.

    Thread-per-connection over a ``multiprocessing.connection.Listener``;
    all campaign state lives under one lock (requests are tiny compared
    to the simulation work the farm exists to distribute).  Expired
    leases are reaped lazily on every lease/complete/status request —
    no timer thread, so a quiet server does nothing.

    The journal is the only description of the campaign: every change
    to journaled state is a record passed to :meth:`_apply`, live
    through :meth:`_commit` (apply, then append) and at start-up by the
    replay, so a restarted server rebuilds exactly the live state.
    Leases, retry attempts and the ready queue are not journaled.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 journal_path: str,
                 lease_s: float = DEFAULT_LEASE_S,
                 chunk_retry: RetryPolicy = DEFAULT_CHUNK_RETRY,
                 chunk_size: Optional[int] = None,
                 resume: bool = False,
                 verbose: bool = False):
        if chunk_size is not None and chunk_size < 1:
            raise FarmError(f"chunk_size must be >= 1, got {chunk_size}")
        self._host = host
        self._port = port
        self.journal_path = journal_path
        self.lease_s = lease_s
        self.chunk_retry = chunk_retry
        self.chunk_size = chunk_size
        self.verbose = verbose
        # --quiet maps to a warning-level logger: the historical
        # verbose-gated "[farm] ..." lines are info events, so quiet
        # servers stay quiet under every log mode.
        self._logger = runtime_log(
            "farm.server", prefix="farm",
            level="info" if verbose else "warning",
        )
        self.registry = MetricsRegistry()
        #: FARM_STATS key -> its counter in the registry (the only store)
        self._stats = {
            key: self.registry.counter(f"farm_{key}_total", help_text)
            for key, help_text in FARM_STATS.items()
        }
        for counter in self._stats.values():
            counter.inc(0)
        #: the submitting driver's trace context (journaled with the
        #: campaign header; lease grants chain chunk spans under it)
        self._trace: Optional[dict] = None
        #: worker-reported chunk spans (journaled; returned by fetch)
        self._spans: List[dict] = []

        self._lock = threading.RLock()
        self._listener: Optional[Listener] = None
        self._stop = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None

        self.manifest: Optional[CampaignManifest] = None
        self._specs: List[dict] = []
        self._task: Optional[str] = None
        self._chunks: Dict[int, List[Tuple[int, dict]]] = {}
        self._attempts: Dict[int, int] = {}
        self._ready: List[Tuple[float, int]] = []  # (ready_at, chunk_id)
        self._leases: Dict[int, _Lease] = {}
        self._results: Dict[int, bytes] = {}
        self._failures: Dict[int, str] = {}
        self._workers: Set[str] = set()
        self._lost_workers: Set[str] = set()
        self._journal = RecordLog(journal_path)

        # A header the server cannot read raises FarmError out of the
        # replay, before anything touches the file.
        valid_bytes, torn = self._journal.replay(self._apply)
        self._stats["torn_records"].inc(int(torn))
        if self.manifest is not None and not resume:
            raise FarmError(
                f"journal {journal_path!r} already holds campaign "
                f"{self.manifest.spec_hash!r}; pass --resume to continue "
                f"it (or point at a fresh journal)"
            )
        # Drop the torn tail before anything is appended, resumed or
        # not: a record written after untrusted bytes is lost to every
        # later replay (a journal torn during its first header write
        # would otherwise never replay its campaign).
        self._journal.repair(valid_bytes)
        if self.manifest is not None:
            self._resume(torn)

    # -- lifecycle -------------------------------------------------------
    @property
    def address(self) -> str:
        return f"{self._host}:{self._port}"

    def start(self) -> None:
        """Bind and serve in background threads; returns once listening.

        Refuses a non-loopback bind under the default authkey: the wire
        protocol is pickle, so the authkey is the sole trust boundary
        (see the module docstring) and the in-repo default is public.
        """
        authkey = setting("REPRO_FARM_AUTHKEY")
        if authkey is None and not _loopback(self._host):
            raise FarmError(
                f"refusing to bind {self._host!r} with the default "
                f"authkey: the farm protocol is pickle (unpickling is "
                f"code execution), so the REPRO_FARM_AUTHKEY shared "
                f"secret is the only thing keeping arbitrary network "
                f"peers out.  Export REPRO_FARM_AUTHKEY on the server "
                f"and every worker/driver, or bind 127.0.0.1."
            )
        self._listener = Listener(
            (self._host, self._port),
            authkey=(authkey or _PUBLIC_AUTHKEY).encode(),
        )
        self._port = self._listener.address[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="farm-accept", daemon=True
        )
        self._accept_thread.start()
        self._log(f"serving on {self.address} (journal {self.journal_path})")

    def serve_forever(self) -> None:
        """:meth:`start` then block until :meth:`stop` (or a signal)."""
        if self._listener is None:
            self.start()
        self._stop.wait()

    def stop(self) -> None:
        self._stop.set()
        listener, self._listener = self._listener, None
        if listener is not None:
            # Closing a Listener does not wake a thread blocked in accept();
            # a bare connection does (a Client could hang on the handshake).
            try:
                socket.create_connection(listener.address, timeout=1.0).close()
            except OSError:
                pass
            try:
                listener.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None
        self._journal.close()

    def __enter__(self) -> "FarmServer":
        if self._listener is None:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _log(self, message: str, event: str = "log", **fields) -> None:
        self._logger.info(event, message, **fields)

    # -- connection handling ---------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn = self._listener.accept()
            except Exception:
                if self._stop.is_set():
                    return
                # auth failure or a half-open connect: keep serving
                continue
            threading.Thread(
                target=self._handle, args=(conn,), daemon=True
            ).start()

    def _handle(self, conn) -> None:
        try:
            request = conn.recv()
            op = request.pop("op", None)
            handler = getattr(self, f"_op_{op}", None)
            if handler is None:
                conn.send(("error", f"unknown op {op!r}"))
                return
            worker = request.get("worker")
            if worker:
                with self._lock:
                    self._workers.add(worker)
            try:
                conn.send(("ok", handler(**request)))
            except FarmError as exc:
                conn.send(("error", str(exc)))
        except (EOFError, OSError):
            pass  # client went away mid-request; nothing to answer
        except Exception as exc:  # defensive: never kill the server
            try:
                conn.send(("error", f"internal: {exc!r}"))
            except (EOFError, OSError):
                pass
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    # -- the campaign state machine -------------------------------------
    def _apply(self, record: dict) -> None:
        """Make the one state change a journal record stands for.

        The live ops reach it through :meth:`_commit`, the start-up
        replay directly, so both build the same state; the campaign's
        lifetime counters move only here.  A record that does not parse
        raises ``ValueError``, ``KeyError`` or ``TypeError`` before
        changing anything, which ends a replay at the record (see
        :meth:`RecordLog.replay`); a campaign header the server cannot
        install raises :class:`FarmError` instead, so it is refused,
        never cut away as torn.
        """
        kind = record["kind"]
        if kind == "campaign":
            # One campaign per journal: the live op refuses a second
            # submission before it commits anything.
            if self.manifest is None:
                manifest = _check_header(self.journal_path, record)
                try:
                    self._install_campaign(
                        manifest, record["specs"], record["task"],
                        record.get("chunk"),
                    )
                except (ValueError, KeyError, TypeError) as exc:
                    # A header that does not install is refused, never
                    # mistaken for a torn record and cut away.
                    raise FarmError(
                        f"campaign {manifest.spec_hash!r} (journal "
                        f"{self.journal_path!r}) does not install: {exc}"
                    ) from exc
                trace = record.get("trace")
                # The trace id lives as long as the campaign; chunks
                # leased after a restart chain fresh span ids under it.
                # A trace without a string id is dropped, live and on
                # replay: every lease grant copies that id.
                if (isinstance(trace, dict)
                        and isinstance(trace.get("trace_id"), str)):
                    self._trace = dict(trace)
        elif kind == "span":
            if isinstance(record.get("span"), dict):
                self._spans.append(dict(record["span"]))
        elif kind == "point":
            data = unpack(record)
            index = int(record["index"])
            # A late honest completion beats a quarantine verdict: an
            # index never sits in both maps.
            self._failures.pop(index, None)
            self._results[index] = data
            self._stats["points_completed"].inc()
        elif kind == "quarantine":
            indices = [int(index) for index in record["indices"]]
            traceback_text = record["traceback"]
            for index in indices:
                self._failures[index] = traceback_text
            self._stats["chunks_quarantined"].inc()
        elif kind == "expire":
            worker = record["worker"]
            self._stats["leases_expired"].inc()
            if worker not in self._lost_workers:
                self._lost_workers.add(worker)
                self._stats["workers_lost"].inc()
        elif kind == "resume":
            self._stats["resumes"].inc()

    def _commit(self, record: dict) -> None:
        """Apply a record, then journal it (fsynced): an op that raises
        journals nothing."""
        self._apply(record)
        self._journal.append(record)

    def _install_campaign(self, manifest: CampaignManifest,
                          specs: List[dict], task: str,
                          chunk_size: Optional[int]) -> None:
        size = chunk_size or self.chunk_size or max(1, len(specs) // 16)
        chunks = chunk_specs(specs, chunk_size=size)
        self.manifest = manifest
        self._specs = specs
        self._task = task
        self._chunks = dict(enumerate(chunks))
        self._attempts = {chunk_id: 0 for chunk_id in self._chunks}
        # Every chunk is queued; a lease skips one that replayed records
        # have since covered.
        now = time.monotonic()
        self._ready = [(now, chunk_id) for chunk_id in self._chunks]

    def _resume(self, torn: bool) -> None:
        """Mark a restart over a replayed campaign in the journal."""
        from repro.telemetry.manifest import git_revision

        self._commit({
            "kind": "resume",
            "at": time.strftime("%Y-%m-%d %H:%M:%S"),
            "git_rev": git_revision(),
        })
        manifest = self.manifest
        if manifest.git_rev not in ("unknown", git_revision()):
            self._logger.warning(
                "journal_git_rev_mismatch",
                f"warning: journal {self.journal_path!r} was "
                f"recorded at git rev {manifest.git_rev}, resuming at "
                f"{git_revision()} — results may not be byte-identical",
                journal=self.journal_path,
                recorded_rev=manifest.git_rev, running_rev=git_revision(),
            )
        self._log(
            f"resumed campaign {manifest.spec_hash} "
            f"({len(self._results)}/{manifest.nspecs} points journaled, "
            f"{int(torn)} torn record(s) dropped)",
            event="campaign_resumed", campaign=manifest.spec_hash,
            journaled=len(self._results), torn=int(torn),
        )

    # -- internal helpers (lock held) ------------------------------------
    def _chunk_remaining(self, chunk_id: int) -> List[Tuple[int, dict]]:
        """The chunk's points not yet completed or quarantined."""
        return [
            (index, spec) for index, spec in self._chunks[chunk_id]
            if index not in self._results and index not in self._failures
        ]

    def _campaign_done(self) -> bool:
        if self.manifest is None:
            return False
        # Union, not a sum of lengths: an index transiently covered by
        # both maps (quarantined, then honestly completed late) must
        # count once, or the campaign reports done one point early.
        covered = self._results.keys() | self._failures.keys()
        return len(covered) >= len(self._specs)

    def _reap(self) -> None:
        """Expire overdue leases; re-queue (or quarantine) their chunks."""
        now = time.monotonic()
        for chunk_id, lease in list(self._leases.items()):
            if lease.deadline > now:
                continue
            del self._leases[chunk_id]
            self._commit({
                "kind": "expire", "chunk": chunk_id, "worker": lease.worker,
            })
            self._log(
                f"lease on chunk {chunk_id} expired (worker "
                f"{lease.worker}); re-queueing",
                event="lease_expired", chunk=chunk_id, lost=lease.worker,
            )
            self._requeue(
                chunk_id,
                f"FarmLeaseExpired: worker {lease.worker!r} lost its lease "
                f"on chunk {chunk_id} (no heartbeat within "
                f"{self.lease_s:g}s) and the chunk exhausted its retry "
                f"budget",
            )

    def _requeue(self, chunk_id: int, quarantine_tb: str) -> None:
        """Back the chunk off for retry, or quarantine it when exhausted."""
        attempt = self._attempts[chunk_id] = self._attempts[chunk_id] + 1
        if attempt >= self.chunk_retry.max_attempts:
            self._quarantine(chunk_id, quarantine_tb)
            return
        self._stats["chunks_retried"].inc()
        ready_at = time.monotonic() + self.chunk_retry.backoff_s(attempt)
        heapq.heappush(self._ready, (ready_at, chunk_id))

    def _quarantine(self, chunk_id: int, traceback_text: str) -> None:
        indices = [index for index, _ in self._chunk_remaining(chunk_id)]
        if not indices:
            return
        self._commit({
            "kind": "quarantine",
            "chunk": chunk_id,
            "indices": indices,
            "traceback": traceback_text,
        })
        self._log(
            f"chunk {chunk_id} quarantined after "
            f"{self._attempts[chunk_id]} attempt(s): "
            f"{len(indices)} point(s) poisoned",
            event="chunk_quarantined", chunk=chunk_id,
            attempts=self._attempts[chunk_id], poisoned=len(indices),
        )
        dump_flight_record(
            f"farm-quarantine: chunk {chunk_id}", component="farm.server",
        )

    # -- metrics ---------------------------------------------------------
    def _sync_registry(self) -> None:
        """Set the gauges of live campaign state (lock held)."""
        reg = self.registry
        reg.gauge(
            "farm_chunks_leased", "chunks currently leased out",
        ).set(len(self._leases))
        reg.gauge(
            "farm_workers_seen", "distinct workers ever seen",
        ).set(len(self._workers))
        reg.gauge(
            "farm_points_total", "points in the installed campaign",
        ).set(len(self._specs))
        reg.gauge(
            "farm_points_covered", "points completed or quarantined",
        ).set(len(self._results.keys() | self._failures.keys()))

    # -- RPC handlers ----------------------------------------------------
    def _op_submit(self, manifest: dict, specs: List[dict], task: str,
                   chunk_size: Optional[int] = None,
                   worker: Optional[str] = None,
                   trace: Optional[dict] = None) -> dict:
        if task not in known_tasks():
            raise FarmError(
                f"unknown farm task {task!r} (known: {known_tasks()})"
            )
        submitted = CampaignManifest.from_dict(manifest)
        with self._lock:
            if self.manifest is not None:
                if submitted.spec_hash == self.manifest.spec_hash:
                    # An attach keeps the original trace: the campaign's
                    # identity (and its journaled span lineage) belongs
                    # to the first submission.
                    return {
                        "campaign": self.manifest.spec_hash,
                        "attached": True,
                        "total": len(self._specs),
                        "completed": len(self._results),
                    }
                raise FarmError(
                    f"server already holds campaign "
                    f"{self.manifest.spec_hash!r}; refuse to mix in "
                    f"{submitted.spec_hash!r} (one campaign per journal)"
                )
            self._commit({
                "kind": "campaign",
                "manifest": submitted.to_dict(),
                "task": task,
                "chunk": chunk_size or self.chunk_size,
                "specs": [dict(spec) for spec in specs],
                "trace": dict(trace) if isinstance(trace, dict) else None,
            })
            self._log(
                f"campaign {submitted.spec_hash} submitted: "
                f"{len(specs)} point(s), {len(self._chunks)} chunk(s)",
                event="campaign_submitted", campaign=submitted.spec_hash,
                points=len(specs), chunks=len(self._chunks),
            )
            return {
                "campaign": submitted.spec_hash,
                "attached": False,
                "total": len(specs),
                "completed": len(self._results),
            }

    def _op_lease(self, worker: str) -> dict:
        with self._lock:
            self._reap()
            if self.manifest is None:
                return {"wait": 1.0}
            now = time.monotonic()
            while self._ready:
                ready_at, chunk_id = self._ready[0]
                if ready_at > now:
                    return {"wait": ready_at - now}
                heapq.heappop(self._ready)
                points = self._chunk_remaining(chunk_id)
                if not points or chunk_id in self._leases:
                    continue  # resolved (or duplicated) while queued
                self._leases[chunk_id] = _Lease(
                    worker=worker, deadline=now + self.lease_s
                )
                self._stats["leases_issued"].inc()
                grant = {
                    "chunk": chunk_id,
                    "task": self._task,
                    "points": points,
                    "lease_s": self.lease_s,
                }
                if self._trace is not None:
                    # A fresh span id per *lease* — a chunk re-leased
                    # after expiry gets a new span under the same trace,
                    # so the exported timeline shows both attempts.
                    grant["trace"] = {
                        "trace_id": self._trace["trace_id"],
                        "span_id": new_span_id(),
                        "parent_span": self._trace.get("span_id"),
                    }
                return grant
            if self._campaign_done():
                return {"done": True}
            # Everything is leased out: poll again around lease granularity.
            return {"wait": min(1.0, self.lease_s / 4.0)}

    def _op_heartbeat(self, worker: str, chunk: int) -> dict:
        with self._lock:
            self._stats["heartbeats"].inc()
            lease = self._leases.get(chunk)
            if lease is None or lease.worker != worker:
                return {"ok": False}  # stale: chunk was re-leased or done
            lease.deadline = time.monotonic() + self.lease_s
            return {"ok": True}

    def _op_complete(self, worker: str, chunk: int,
                     outcomes: List[Tuple[int, str, object]],
                     spans: Optional[List[dict]] = None) -> dict:
        with self._lock:
            if chunk not in self._chunks:
                raise FarmError(f"unknown chunk {chunk}")
            # Worker-reported chunk spans ride beside the completion and
            # are journaled like every other campaign event, so a trace
            # assembled after a resume still shows pre-crash chunks.
            for span in spans or ():
                if isinstance(span, dict) and span.get("trace_id"):
                    self._commit({"kind": "span", "span": span})
            lease = self._leases.get(chunk)
            # Only the lease holder settles the lease (and, below, the
            # retry budget).  A stale completion — a worker whose lease
            # expired and was re-issued — must not evict the current
            # holder, though its fresh ok results are still welcome.
            owns = lease is not None and lease.worker == worker
            if owns:
                del self._leases[chunk]
            duplicates = 0
            fresh = 0
            errors: List[Tuple[int, str]] = []
            for index, status, value in outcomes:
                if status != "ok":
                    errors.append((index, value))
                    continue
                data = pickle.dumps(value, protocol=PICKLE_PROTOCOL)
                known = self._results.get(index)
                if known is not None:
                    duplicates += 1
                    if data != known:
                        self._stats["digest_mismatches"].inc()
                        self._log(
                            f"digest mismatch on duplicate completion of "
                            f"point {index} (worker {worker}) — "
                            f"determinism violation; keeping first result"
                        )
                    continue
                self._commit({"kind": "point", "index": index, **pack(data)})
                fresh += 1
            self._stats["duplicate_completions"].inc(duplicates)
            requeued = False
            if errors and owns:
                tb = errors[-1][1]
                self._requeue(
                    chunk,
                    tb if isinstance(tb, str) else repr(tb),
                )
                requeued = True
            elif errors:
                # Stale errors don't burn the retry budget: the chunk's
                # fate belongs to the current holder (or to lease expiry,
                # which already re-queued it once for this worker).
                self._log(
                    f"ignoring {len(errors)} stale error(s) for chunk "
                    f"{chunk} from {worker} (not the lease holder)"
                )
            elif fresh or not duplicates:
                self._stats["chunks_completed"].inc()
            if self._campaign_done():
                self._log("campaign complete")
            return {
                "accepted": fresh,
                "duplicates": duplicates,
                "requeued": requeued,
            }

    def _op_status(self, worker: Optional[str] = None) -> dict:
        with self._lock:
            self._reap()
            self._sync_registry()
            now = time.monotonic()
            return {
                "metrics": self.registry.snapshot(),
                "campaign": (
                    None if self.manifest is None else self.manifest.to_dict()
                ),
                "total": len(self._specs),
                "completed": len(self._results),
                "quarantined": len(self._failures),
                "done": self._campaign_done(),
                "leased": {
                    chunk_id: {
                        "worker": lease.worker,
                        "expires_in": round(lease.deadline - now, 2),
                        "attempt": self._attempts[chunk_id],
                    }
                    for chunk_id, lease in self._leases.items()
                },
                "workers": sorted(self._workers),
                "journal": self.journal_path,
                "stats": {
                    key: int(counter.value())
                    for key, counter in self._stats.items()
                },
            }

    def _op_fetch(self, worker: Optional[str] = None) -> dict:
        with self._lock:
            self._reap()
            if not self._campaign_done():
                # Progress counts let the polling driver tell "slow"
                # from "stalled" (see farm_execute_points' timeout_s).
                return {
                    "done": False,
                    "completed": len(self._results),
                    "quarantined": len(self._failures),
                }
            merged: List[Tuple[int, str, object]] = []
            for index in range(len(self._specs)):
                if index in self._results:
                    merged.append((index, "ok", self._results[index]))
                else:
                    merged.append((index, "error", self._failures[index]))
            digest = hashlib.sha256()
            for index, status, value in merged:
                if status == "ok":
                    digest.update(value)
            return {
                "done": True,
                "results": merged,
                "merge_digest": digest.hexdigest(),
                "spans": [dict(span) for span in self._spans],
            }

    def _op_metrics(self, worker: Optional[str] = None) -> dict:
        """The metrics registry: structured + Prometheus text."""
        with self._lock:
            self._reap()
            self._sync_registry()
            return {
                "metrics": self.registry.snapshot(),
                "exposition": self.registry.dump_metrics(),
            }

    def _op_trace(self, worker: Optional[str] = None) -> dict:
        """Worker-reported chunk spans accumulated by this campaign."""
        with self._lock:
            return {
                "spans": [dict(span) for span in self._spans],
                "trace": dict(self._trace) if self._trace else None,
                "count": len(self._spans),
            }

    def _op_shutdown(self, worker: Optional[str] = None) -> dict:
        self._stop.set()
        return {"ok": True}


# -- worker --------------------------------------------------------------

class FarmWorker:
    """A pull-worker: lease, compute, heartbeat, report, repeat.

    Graceful degradation when the server goes away: every RPC retries
    under ``reconnect`` (:class:`RetryPolicy`, wall-clock backoff), so a
    server restart mid-campaign stalls the worker instead of killing it.
    A completion that cannot be delivered within the budget is dropped —
    the lease expires server-side and the chunk is recomputed, which is
    safe because points are deterministic.
    """

    def __init__(self, server: str, *,
                 worker_id: Optional[str] = None,
                 reconnect: RetryPolicy = DEFAULT_RECONNECT,
                 exit_when_done: bool = True,
                 verbose: bool = False):
        self.server = server
        self.worker_id = worker_id or (
            f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        )
        self.reconnect = reconnect
        self.exit_when_done = exit_when_done
        self.verbose = verbose
        self.chunks_computed = 0
        self.points_computed = 0
        self._logger = runtime_log(
            "farm.worker", prefix=self.worker_id,
            level="info" if verbose else "warning",
        )

    def _log(self, message: str, event: str = "log", **fields) -> None:
        self._logger.info(event, message, **fields)

    def run(self, *, max_chunks: Optional[int] = None) -> int:
        """Pull work until the campaign is done (or ``max_chunks``).

        Returns the number of chunks computed.  Raises
        :class:`FarmUnreachableError` only when the server stays away
        beyond the whole reconnect budget.
        """
        while True:
            grant = rpc_retry(
                self.server, "lease", worker=self.worker_id,
                policy=self.reconnect,
            )
            if grant.get("done"):
                if self.exit_when_done:
                    self._log("campaign done; exiting")
                    return self.chunks_computed
                time.sleep(_POLL_CAP_S)
                continue
            if "wait" in grant:
                time.sleep(min(float(grant["wait"]), _POLL_CAP_S))
                continue
            self._work(grant)
            if max_chunks is not None and self.chunks_computed >= max_chunks:
                return self.chunks_computed

    def _work(self, grant: dict) -> None:
        chunk_id = grant["chunk"]
        lease_s = float(grant["lease_s"])
        points = [(int(index), spec) for index, spec in grant["points"]]
        self._log(f"leased chunk {chunk_id} ({len(points)} point(s))",
                  event="chunk_leased", chunk=chunk_id, points=len(points))
        try:
            task = resolve_task(grant["task"])
        except FarmError as exc:
            # A worker that cannot even resolve the task reports every
            # point as errored so the server's retry/quarantine logic —
            # not a silent lease expiry — decides the chunk's fate.
            outcomes = [
                (index, "error", f"FarmError: {exc}") for index, _ in points
            ]
            self._complete(chunk_id, outcomes)
            return
        stop_heartbeat = threading.Event()
        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            args=(chunk_id, lease_s, stop_heartbeat),
            daemon=True,
        )
        heartbeat.start()
        start_s = time.time()
        try:
            outcomes = _run_chunk(task, points)
        finally:
            stop_heartbeat.set()
            heartbeat.join(timeout=5.0)
        self.chunks_computed += 1
        self.points_computed += len(points)
        spans = None
        trace = grant.get("trace")
        if isinstance(trace, dict):
            # The span id was minted server-side with the lease, so a
            # re-leased chunk reports a distinct span under one trace id;
            # wall-clock start/end lets the driver line this span up
            # against its own serve/execute spans.
            spans = [{
                "trace_id": trace.get("trace_id"),
                "span_id": trace.get("span_id") or new_span_id(),
                "parent_id": trace.get("parent_span"),
                "name": f"farm.chunk.{chunk_id}",
                "component": "farm.worker",
                "start_s": start_s,
                "end_s": time.time(),
                "attrs": {
                    "worker": self.worker_id,
                    "chunk": chunk_id,
                    "points": len(points),
                    "failed": sum(
                        1 for _, status, _ in outcomes if status != "ok"
                    ),
                },
            }]
        self._complete(chunk_id, outcomes, spans=spans)

    def _complete(self, chunk_id: int, outcomes: List[tuple],
                  spans: Optional[List[dict]] = None) -> None:
        payload = {"chunk": chunk_id, "outcomes": outcomes}
        if spans is not None:
            payload["spans"] = spans
        try:
            rpc_retry(
                self.server, "complete", worker=self.worker_id,
                policy=self.reconnect, **payload,
            )
        except FarmUnreachableError:
            # Results undeliverable: drop them.  The lease expires and
            # the deterministic chunk is recomputed by whoever is left.
            self._log(
                f"could not deliver chunk {chunk_id}; dropping results",
                event="chunk_undeliverable", chunk=chunk_id,
            )

    def _heartbeat_loop(self, chunk_id: int, lease_s: float,
                        stop: threading.Event) -> None:
        interval = max(0.05, lease_s / 3.0)
        while not stop.wait(interval):
            try:
                alive = rpc(
                    self.server, "heartbeat", worker=self.worker_id,
                    chunk=chunk_id,
                )
                if not alive.get("ok"):
                    return  # lease re-assigned; duplicate handling applies
            except _TRANSIENT:
                pass  # server away: keep computing, retry next beat


# -- driver --------------------------------------------------------------

def farm_execute_points(specs: Sequence[dict], *, farm: str,
                        task: Callable[[dict], object] = run_point,
                        chunk_size: Optional[int] = None,
                        poll_s: float = 0.5,
                        reconnect: RetryPolicy = DEFAULT_RECONNECT,
                        trace_ctx: Optional[dict] = None,
                        ) -> List[object]:
    """Run specs on a farm; merged results identical to the local executor.

    Submits a :class:`CampaignManifest`-keyed campaign, polls the
    server, fetches the journaled completions, and merges them **in
    point order** through :func:`~repro.bench.parallel.merge_failures`,
    as a local run does: a quarantined point is re-run serially, so its
    real exception surfaces with the worker traceback attached.  Points
    quarantined after *lease expiry* (the farm's hung-worker bound) are
    never re-run serially — a wedged point would wedge the driver too —
    so they raise :class:`~repro.bench.parallel.WorkerPointError`
    directly.

    ``REPRO_CHUNK_TIMEOUT_S`` bounds the *stall*, not the campaign:
    when the server reports no new covered point for that many seconds
    — no workers attached, every worker wedged — the driver raises
    :class:`FarmError` instead of polling forever.  The campaign itself
    stays live on the server and resumable from its journal.  Per-point
    hang protection on a farm is the lease deadline, not this timeout.

    Server restarts mid-campaign are absorbed by the reconnect budget; a
    server that never answers raises :class:`FarmUnreachableError`.
    """
    timeout = setting("REPRO_CHUNK_TIMEOUT_S")
    name = task_name(task)
    specs = list(specs)
    manifest = CampaignManifest.build(name, specs)
    submit_payload = {
        "manifest": manifest.to_dict(), "specs": specs, "task": name,
        "chunk_size": chunk_size,
    }
    # Trace context rides beside the campaign, never inside it: the
    # manifest (and so the spec hash, the journal identity, and every
    # journaled result byte) is computed from the bare specs above.
    if trace_ctx is not None:
        submit_payload["trace"] = {
            "trace_id": trace_ctx.get("trace_id"),
            "span_id": trace_ctx.get("span_id"),
        }
    rpc_retry(farm, "submit", policy=reconnect, **submit_payload)
    covered = -1
    stall_deadline = None
    while True:
        payload = rpc_retry(farm, "fetch", policy=reconnect)
        if payload["done"]:
            break
        if timeout is not None:
            now = time.monotonic()
            progress = (int(payload.get("completed", 0))
                        + int(payload.get("quarantined", 0)))
            if progress != covered:
                covered = progress
                stall_deadline = now + timeout
            elif now >= stall_deadline:
                raise FarmError(
                    f"no farm progress within {timeout:g}s "
                    f"({covered}/{len(specs)} points covered) — are any "
                    f"workers attached?  The campaign stays live on "
                    f"{farm} and resumable from its journal."
                )
        time.sleep(poll_s)
    if payload.get("spans"):
        # Chunk spans computed by remote workers land in this process's
        # span store so one `repro trace --runtime` export shows the
        # query fanning into farm chunks.
        span_store().record_many(payload["spans"])
    results: List[object] = [None] * len(specs)
    failures: List[Tuple[int, str, bool]] = []
    for index, status, value in payload["results"]:
        if status == "ok":
            results[index] = restricted_loads(value)
        else:
            # A lease-expiry quarantine marks a point that may have
            # wedged every worker that leased it: not-rerunnable, or
            # the serial diagnosis re-run would wedge this process too.
            rerunnable = not str(value).startswith("FarmLeaseExpired")
            failures.append((index, value, rerunnable))
    return merge_failures(results, failures, specs, task)


# -- robustness rollups (BENCH_robustness.json entry) --------------------

#: status/stats fields recorded as tolerance-gateable sweep points (the
#: scripted smoke scenario makes these deterministic); noisier
#: timing-dependent counters ride along ungated under ``"rollups"``.
GATED_ROLLUPS: Tuple[str, ...] = (
    "total_points",
    "points_completed",
    "quarantined_points",
    "digest_mismatches",
    "workers_lost",
    "resumes",
)


def farm_rollups(status: dict) -> Dict[str, float]:
    """Flatten a ``repro farm status`` payload into labelled counters."""
    stats = status.get("stats", {})
    return {
        "total_points": float(status.get("total", 0)),
        "points_completed": float(stats.get("points_completed", 0)),
        "quarantined_points": float(status.get("quarantined", 0)),
        "digest_mismatches": float(stats.get("digest_mismatches", 0)),
        "workers_lost": float(stats.get("workers_lost", 0)),
        "resumes": float(stats.get("resumes", 0)),
        "leases_issued": float(stats.get("leases_issued", 0)),
        "leases_expired": float(stats.get("leases_expired", 0)),
        "chunks_completed": float(stats.get("chunks_completed", 0)),
        "chunks_retried": float(stats.get("chunks_retried", 0)),
        "chunks_quarantined": float(stats.get("chunks_quarantined", 0)),
        "duplicate_completions": float(
            stats.get("duplicate_completions", 0)
        ),
        "torn_records": float(stats.get("torn_records", 0)),
    }


def record_farm_bench_entry(path: str, label: str, status: dict, *,
                            smoke: bool = True) -> dict:
    """Store farm robustness rollups as a labelled bench entry.

    The entry is shaped for ``repro report --check-bench``: one
    ``farm-robustness`` sweep whose points carry the deterministic
    rollups of :data:`GATED_ROLLUPS` on the gate's ``elapsed_us`` field
    (x = rollup index, like the multi-tenant entry rides per-job times).
    The full counter set — including the timing-dependent lease/retry
    counters the gate must not pin — is preserved under ``"rollups"``.
    Existing document content (a chaos campaign report, other entries)
    is preserved; the write matches the chaos writer's format so the
    committed ``BENCH_robustness.json`` stays regenerable byte-for-byte.
    """
    rollups = farm_rollups(status)
    points = [
        {"x": x, "metric": metric, "elapsed_us": rollups[metric]}
        for x, metric in enumerate(GATED_ROLLUPS)
    ]
    entry = {
        "smoke": smoke,
        "solver": "farm",
        "workers": status.get("workers", []),
        "rollups": rollups,
        "sweeps": {
            "farm-robustness": {
                "points": points,
                "wall_s": 0.0,
                "solver": "farm",
            },
        },
    }
    # The registry snapshot rides along ungated: compare_bench reads
    # only smoke/sweeps, so entries with and without a metrics key gate
    # identically and committed baselines keep their bytes.
    if status.get("metrics") is not None:
        entry["metrics"] = status["metrics"]
    try:
        with open(path) as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError):
        document = {}
    document.setdefault("entries", {})[label] = entry
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
    return document


def format_status(status: dict) -> str:
    """Human-readable ``repro farm status`` summary."""
    lines: List[str] = []
    campaign = status.get("campaign")
    if campaign is None:
        lines.append("no campaign submitted yet")
    else:
        lines.append(
            f"campaign {campaign['spec_hash']} ({campaign['task']}, "
            f"{campaign['nspecs']} points, rev {campaign['git_rev']})"
        )
    lines.append(
        f"progress: {status.get('completed', 0)}/{status.get('total', 0)} "
        f"completed, {status.get('quarantined', 0)} quarantined"
        + (" — DONE" if status.get("done") else "")
    )
    leased = status.get("leased", {})
    for chunk_id, lease in sorted(leased.items()):
        lines.append(
            f"  chunk {chunk_id}: leased to {lease['worker']} "
            f"(expires in {lease['expires_in']}s, "
            f"attempt {lease['attempt']})"
        )
    workers = status.get("workers", [])
    if workers:
        lines.append(f"workers seen: {', '.join(workers)}")
    stats = status.get("stats", {})
    if stats:
        lines.append(
            "stats: " + ", ".join(
                f"{key}={value}" for key, value in sorted(stats.items())
            )
        )
    return "\n".join(lines)
