"""The tiered prediction service core (transport-free).

:class:`PredictionService` turns one normalized query — *what does
protocol P on geometry G at size S cost?* — into a
:class:`~repro.collectives.base.CollectiveResult` as cheaply as
possible, walking the tiers from cheapest to dearest:

1. **memo** — an in-memory LRU (:class:`MemoCache`) keyed on the full
   query identity ``(family, protocol, geometry, network, mode, size,
   iters, seed, root, window caching, steady-state, faults, solver
   mode)``;
2. **disk** — the same entries persisted by :class:`DiskCache`, so a
   restarted server answers repeat queries without re-simulating;
3. **cold** — a full DES run on a freshly built machine
   (:func:`~repro.bench.parallel.run_point`, the same call every sweep
   point goes through).

Every served answer carries the SHA-256 of its pinned-protocol pickle
(:func:`repro.util.records.pickle_digest`), so a client can prove that a
memoized or disk-cached answer is **bit-identical** to a cold serial
run — the same byte-identity currency the sweep farm journals.

Cache identity and invalidation
-------------------------------

The cache key is the :func:`~repro.telemetry.manifest.spec_fingerprint`
of the normalized executable spec plus the resolved solver mode — the
very identity the sweep farm's :class:`CampaignManifest` uses, collapsed
to one point.  The on-disk cache adds the **git revision** as a header:
a cache written by different code is refused wholesale (and truncated),
never silently served; a tampered entry (spec hash or payload digest
mismatch) is dropped individually.  Flipping a solver env var changes
the resolved solver mode and therefore the key, so entries recorded
under another solver are simply never looked up.  The file is a
:class:`~repro.util.records.RecordLog`, the durable log the sweep
farm's journal also writes through: a torn tail ends the trusted prefix
and is cut before the next store.

The service is synchronous and single-simulation by design; the asyncio
server (:mod:`repro.serve.server`) runs it on a one-thread executor and
adds in-flight coalescing and sweep batching on top.
"""

from __future__ import annotations

import pickle
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

from repro.bench.harness import FAMILY_SPECS
from repro.bench.parallel import run_point
from repro.collectives.base import CollectiveResult
from repro.collectives.registry import algorithm_info
from repro.collectives.selection import select_protocol
from repro.hardware.machine import Mode
from repro.hardware.network import UnsupportedTopologyError, known_backends
from repro.telemetry.manifest import git_revision, spec_fingerprint
from repro.telemetry.runtime import MetricsRegistry, runtime_log, span
from repro.util.config import setting
from repro.util.records import (
    PICKLE_PROTOCOL,
    RecordLog,
    pack,
    pickle_digest,
    restricted_loads,
    unpack,
)

#: the fingerprint namespace: one query == a one-point campaign
_FINGERPRINT_TASK = "serve-predict"

#: on-disk cache format version (bumped on incompatible layout changes)
DISK_CACHE_VERSION = 1

#: service latency samples kept for the p50/p95 stats (ring buffer)
_LATENCY_WINDOW = 2048

#: structured logger for cache lifecycle events (bare messages: these
#: lines predate the runtime plane and keep their historical shape)
_cache_log = runtime_log("serve.cache")


class QueryError(ValueError):
    """A malformed or unservable query (reported to the client, not raised
    through the server loop)."""


# -- normalization --------------------------------------------------------

#: spec fields run_point/run_collective accept, with serve defaults
_SPEC_DEFAULTS = {
    "dims": (2, 2, 2),
    "mode": "QUAD",
    "wrap": True,
    "network": "torus",
    "iters": 1,
    "seed": 1234,
    "root": 0,
    "window_caching": True,
}

#: optional fields forwarded only when the client sets them
_SPEC_OPTIONAL = ("steady_state",)

#: request fields the serving layer refuses (the service is timing-only
#: and fault-free; these would silently change what "the same query"
#: means or cannot cross the JSON boundary faithfully)
_REFUSED_FIELDS = ("verify", "payload", "deadline_us")

_KNOWN_FIELDS = frozenset(
    ("family", "algorithm", "x", "faults")
    + tuple(_SPEC_DEFAULTS) + _SPEC_OPTIONAL
)


def _integer(field: str, value) -> int:
    """``value`` as an int: an int, an integral float or a numeric string.
    A bool or a fractional float is refused rather than truncated, so a
    client is never served the answer to a different question."""
    if isinstance(value, bool) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise QueryError(f"{field} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise QueryError(f"{field} must be an integer, got {value!r}")


def _flag(field: str, value) -> bool:
    """``value`` if it is a JSON boolean (``"false"`` would read as true)."""
    if not isinstance(value, bool):
        raise QueryError(f"{field} must be true or false, got {value!r}")
    return value


def normalize_query(request: dict) -> dict:
    """Canonicalize one predict request into an executable point spec.

    The result is exactly a :func:`repro.bench.parallel.run_point` spec —
    the same dict the sweep endpoint fans through ``execute_points`` —
    with every default made explicit so the spec is its own cache
    identity.  ``algorithm: "auto"`` is resolved through the section-V
    selection table here, so the cache key is always a concrete
    protocol.  Raises :class:`QueryError` on unknown fields, refused
    fields, or unservable values.
    """
    if not isinstance(request, dict):
        raise QueryError(f"query must be a JSON object, got {type(request).__name__}")
    for fld in _REFUSED_FIELDS:
        if request.get(fld):
            raise QueryError(
                f"the prediction service is timing-only and fault-free; "
                f"field {fld!r} is not servable"
            )
    if request.get("faults") not in (None, [], {}):
        raise QueryError(
            "fault schedules are not servable; run `repro chaos` for "
            "fault campaigns"
        )
    unknown = set(request) - _KNOWN_FIELDS - {"op", "id", "jobs", "measure"}
    if unknown:
        raise QueryError(f"unknown query field(s): {sorted(unknown)}")

    family = request.get("family")
    if not isinstance(family, str) or family not in FAMILY_SPECS:
        raise QueryError(
            f"unknown collective family {family!r}; known: "
            f"{sorted(FAMILY_SPECS)}"
        )
    x = _integer("x", request.get("x", 0))
    if x < 0:
        raise QueryError(f"x must be >= 0, got {x}")

    algorithm = request.get("algorithm", "auto")
    if not isinstance(algorithm, str):
        raise QueryError(f"algorithm must be a name, got {algorithm!r}")
    spec = {"family": family, "algorithm": algorithm, "x": x}
    for fld, default in _SPEC_DEFAULTS.items():
        spec[fld] = request.get(fld, default)
    for fld in _SPEC_OPTIONAL:
        if fld in request and request[fld] is not None:
            spec[fld] = _flag(fld, request[fld])

    dims = spec["dims"]
    if isinstance(dims, str):
        try:
            dims = tuple(int(part) for part in dims.lower().split("x"))
        except ValueError:
            raise QueryError(f"dims must look like 4x4x4, got {dims!r}")
    if not isinstance(dims, (list, tuple)):
        raise QueryError(f"dims must be three integers, got {dims!r}")
    dims = tuple(_integer("dims", d) for d in dims)
    if len(dims) != 3 or any(d < 1 for d in dims):
        raise QueryError(f"dims must be three positive integers, got {dims}")
    spec["dims"] = dims

    mode = str(spec["mode"]).upper()
    if mode not in Mode.__members__:
        raise QueryError(
            f"mode must be one of {sorted(Mode.__members__)}, got "
            f"{spec['mode']!r}"
        )
    spec["mode"] = mode
    spec["wrap"] = _flag("wrap", spec["wrap"])
    if spec["network"] not in known_backends():
        raise QueryError(
            f"unknown network {spec['network']!r}; known: {known_backends()}"
        )
    for fld in ("iters", "seed", "root"):
        spec[fld] = _integer(fld, spec[fld])
    if spec["iters"] < 1:
        raise QueryError(f"iters must be >= 1, got {spec['iters']}")
    if spec["root"] != 0 and not FAMILY_SPECS[family].takes_root:
        raise QueryError(
            f"family {family!r} takes no root (it runs at root 0); "
            f"got root={spec['root']}"
        )
    spec["window_caching"] = _flag("window_caching", spec["window_caching"])

    if spec["algorithm"] == "auto":
        fam_spec = FAMILY_SPECS[family]
        if fam_spec.select_nbytes is None:
            raise QueryError(f"family {family!r} has no auto-selection policy")
        ppn = Mode[mode].value
        # The select_nbytes adapters only consult geometry-free fields;
        # a lightweight stand-in keeps normalization machine-free.
        proxy = SimpleNamespace(ppn=ppn, nprocs=ppn * dims[0] * dims[1] * dims[2])
        spec["algorithm"] = select_protocol(
            family, fam_spec.select_nbytes(proxy, x), ppn,
            network=spec["network"],
        )
    else:
        # Surface lookup typos at normalize time, not deep in a worker.
        algorithm_info(family, spec["algorithm"])
    return spec


def _solver_mode() -> str:
    """The solver mode of a flow network built now."""
    return "slowpath" if setting("REPRO_SIM_SLOWPATH") else "incremental"


def query_key(spec: dict) -> str:
    """The cache identity of a normalized spec.

    A :func:`spec_fingerprint` (the ``CampaignManifest`` identity,
    collapsed to one point) over the executable spec *plus* the resolved
    solver mode — two processes running different solver configurations
    never share a key, so a cache can never serve an incremental answer
    to a slowpath client (they are bit-identical by construction, but the
    manifest's ``solver_mode`` attribution would lie).
    """
    keyed = dict(spec)
    keyed["solver_mode"] = _solver_mode()
    keyed["faults"] = None
    return spec_fingerprint(_FINGERPRINT_TASK, [keyed])


# -- caches ---------------------------------------------------------------

@dataclass
class CachedAnswer:
    """One memoized answer: the result plus its byte-identity digest."""

    result: CollectiveResult
    digest: str
    spec: dict
    #: the response fields that do not depend on the tier, built by the
    #: first :func:`answer_response` on this answer and reused after it
    body: Optional[dict] = field(
        default=None, init=False, repr=False, compare=False,
    )
    #: the whole encoded response line of an id-less memo hit on this
    #: answer, built by the server's first such hit and written as is by
    #: every later one (an answer is memoized under one key)
    hit_line: Optional[bytes] = field(
        default=None, init=False, repr=False, compare=False,
    )


class MemoCache:
    """A bounded LRU of :class:`CachedAnswer` keyed by query fingerprint,
    counting its hits and misses in ``registry`` (the service's)."""

    def __init__(self, max_entries: int = 1024,
                 registry: Optional[MetricsRegistry] = None):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, CachedAnswer]" = OrderedDict()
        registry = registry if registry is not None else MetricsRegistry()
        self._hits = registry.counter("serve_memo_hits_total", "memo LRU hits")
        self._misses = registry.counter(
            "serve_memo_misses_total", "memo LRU misses",
        )
        self._hits.inc(0)
        self._misses.inc(0)
        self.evictions = 0

    def get(self, key: str) -> Optional[CachedAnswer]:
        entry = self._entries.get(key)
        if entry is None:
            self._misses.inc()
            return None
        self._entries.move_to_end(key)
        self._hits.inc()
        return entry

    def put(self, key: str, answer: CachedAnswer) -> None:
        self._entries[key] = answer
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        """Whether ``key`` is resident; counts neither a hit nor a miss."""
        return key in self._entries

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": int(self._hits.value()),
            "misses": int(self._misses.value()),
            "evictions": self.evictions,
        }


class DiskCache:
    """Manifest-keyed persistent cache: restarts serve warm, stale refused.

    Layout: a :class:`~repro.util.records.RecordLog`.  The first record
    is a header carrying the cache version and the **git revision** that
    computed the entries; each following record is one entry::

        {"kind": "result", "key": <spec fingerprint>, "spec": {...},
         "digest": sha256(pickle), "data": base64(pickle)}

    Loading re-derives every entry's fingerprint from its stored spec and
    re-hashes its payload; an entry whose key or digest does not match is
    **dropped, never served** — same for the whole file when the header's
    git revision differs from the running code's (the file is truncated
    on the next store so it cannot shadow fresh entries forever).  A torn
    line (a crash mid-append), or one that does not parse or is not an
    object, ends the trusted prefix: it and everything after it are
    dropped, and cut off before the next store.  :meth:`put` is safe to
    call from several threads: the server stores from its compute thread
    and from its event loop, and a lock keeps their writes apart.
    """

    def __init__(self, path: str):
        self.path = path
        self._log = RecordLog(path)
        self._entries: Dict[str, Tuple[str, bytes, dict]] = {}
        self.loaded = 0
        self.dropped = 0
        self.stale_git_rev: Optional[str] = None
        #: bytes of the file the first store keeps (0: start over with a
        #: header); None once a store has cut the file back
        self._keep: Optional[int] = 0
        self._store_lock = threading.Lock()
        self._load()

    # -- loading ----------------------------------------------------------
    def _load(self) -> None:
        records: List[dict] = []
        valid_bytes, torn = self._log.replay(records.append)
        self.dropped += torn
        if not (records or torn):
            return
        header = records[0] if records else {}
        entries = records[1:]
        if header.get("kind") != "header":
            _cache_log.warning(
                "cache_header_unreadable",
                f"serve cache {self.path}: unreadable header; refusing "
                f"the whole file",
                path=self.path, dropped=len(records) + torn,
            )
            self.dropped += len(records)
            return
        if header.get("version") != DISK_CACHE_VERSION:
            _cache_log.warning(
                "cache_version_mismatch",
                f"serve cache {self.path}: version "
                f"{header.get('version')!r} != {DISK_CACHE_VERSION}; "
                f"refusing the whole file",
                path=self.path,
                found=header.get("version"), expected=DISK_CACHE_VERSION,
            )
            self.dropped += len(entries)
            return
        rev = git_revision()
        if header.get("git_rev") != rev:
            # Stale manifests are refused, never silently served: results
            # recorded by other code may not be byte-identical to ours.
            self.stale_git_rev = header.get("git_rev")
            self.dropped += len(entries)
            _cache_log.warning(
                "cache_stale_git_rev",
                f"serve cache {self.path}: recorded at git rev "
                f"{self.stale_git_rev!r}, running {rev!r}; refusing "
                f"{len(entries)} stale entr(ies)",
                path=self.path,
                recorded_rev=self.stale_git_rev, running_rev=rev,
                dropped=len(entries),
            )
            return
        self._keep = valid_bytes
        for record in entries:
            if self._load_entry(record):
                self.loaded += 1
            else:
                self.dropped += 1

    def _load_entry(self, record: dict) -> bool:
        try:
            if record.get("kind") != "result":
                return False
            key = record["key"]
            spec = dict(record["spec"])
            if "dims" in spec:
                spec["dims"] = tuple(spec["dims"])
            data = unpack(record)
        except (ValueError, KeyError, TypeError):
            return False
        # The spec hash is the entry's identity: recompute it from the
        # stored spec so a tampered or mislabeled entry cannot be served
        # under a key it does not own.
        spec.pop("solver_mode", None)
        spec.pop("faults", None)
        if query_key(spec) != key:
            return False
        self._entries[key] = (record["digest"], data, spec)
        return True

    # -- serving ----------------------------------------------------------
    def get(self, key: str) -> Optional[CachedAnswer]:
        entry = self._entries.get(key)
        if entry is None:
            return None
        digest, data, spec = entry
        try:
            result = restricted_loads(data)
        except Exception:
            del self._entries[key]
            self.dropped += 1
            return None
        return CachedAnswer(result=result, digest=digest, spec=spec)

    def __len__(self) -> int:
        return len(self._entries)

    # -- storing ----------------------------------------------------------
    def put(self, key: str, answer: CachedAnswer) -> None:
        data = pickle.dumps(answer.result, protocol=PICKLE_PROTOCOL)
        spec = dict(answer.spec)
        spec["solver_mode"] = _solver_mode()
        spec["faults"] = None
        record = {"kind": "result", "key": key, "spec": spec, **pack(data)}
        with self._store_lock:
            if self._keep is not None:
                # Nothing is stored after untrusted bytes: cut a torn
                # tail, or the whole of a refused file, before the first
                # store.
                self._log.repair(self._keep)
                if not self._keep:
                    self._log.append({
                        "kind": "header",
                        "version": DISK_CACHE_VERSION,
                        "git_rev": git_revision(),
                    })
                self._keep = None
            self._log.append(record)
            # Stores are rare and the cache has no shutdown hook: hold no
            # file open between them.
            self._log.close()
            self._entries[key] = (record["digest"], data, answer.spec)

    def stats(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "entries": len(self._entries),
            "loaded": self.loaded,
            "dropped": self.dropped,
            "stale_git_rev": self.stale_git_rev,
        }


# -- stats ----------------------------------------------------------------

def _percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sorted sample list."""
    rank = max(0, min(len(samples) - 1, int(round(q * (len(samples) - 1)))))
    return samples[rank]


def _summarize_latencies(samples: List[float]) -> Dict[str, float]:
    if not samples:
        return {"count": 0}
    ordered = sorted(samples)
    return {
        "count": len(ordered),
        "p50_ms": round(_percentile(ordered, 0.50) * 1e3, 3),
        "p95_ms": round(_percentile(ordered, 0.95) * 1e3, 3),
        "max_ms": round(ordered[-1] * 1e3, 3),
        "mean_ms": round(sum(ordered) / len(ordered) * 1e3, 3),
    }


class ServiceStats:
    """Observable behaviour of the service: tier hits and latencies.

    Every count is a counter in ``registry``, the one store that both
    :meth:`snapshot` and the ``metrics`` op read; callers count via the
    ``record_*`` methods only.  The latency rings give ``--stats`` its
    exact percentiles.  Besides the global ring, each tier keeps its own
    window (``tier_latencies_s``): a memo hit and a cold DES run differ
    by orders of magnitude, and one shared ring hides that behind a
    meaningless blended p95.  The server's compute thread writes the
    rings while the asyncio thread reads them, so one lock guards them.
    Latencies also feed registry histograms live (ring buffers forget;
    histograms don't).
    """

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self.latencies_s: List[float] = []
        self.tier_latencies_s: Dict[str, List[float]] = {}
        self._lock = threading.Lock()
        self._tiers = registry.counter(
            "serve_tier_answers_total", "answers served, split by tier",
        )
        for tier in ("memo", "disk", "cold", "batch"):  # listed at 0 first
            self._tiers.inc(0, tier=tier)
        self._requests = registry.counter(
            "serve_requests_total", "requests received, split by op",
        )
        self._coalesced = registry.counter(
            "serve_coalesced_total",
            "duplicate in-flight queries coalesced onto one computation",
        )
        self._errors = registry.counter(
            "serve_errors_total", "requests answered with an error",
        )
        self._coalesced.inc(0)
        self._errors.inc(0)
        self._request_latency = registry.histogram(
            "serve_request_latency_seconds",
            "end-to-end serve latency per request",
        )
        self._tier_latency = registry.histogram(
            "serve_tier_latency_seconds",
            "serve latency split by answering tier",
        )

    def record_tier(self, tier: str) -> None:
        self._tiers.inc(tier=tier)

    def record_request(self, op: str, n: int = 1) -> None:
        self._requests.inc(n, op=op)

    def record_coalesced(self) -> None:
        self._coalesced.inc()

    def record_error(self) -> None:
        self._errors.inc()

    def _observe_tier(self, seconds: float, tier: str) -> None:
        # Caller holds the lock.
        ring = self.tier_latencies_s.setdefault(tier, [])
        ring.append(seconds)
        if len(ring) > _LATENCY_WINDOW:
            del ring[: len(ring) - _LATENCY_WINDOW]
        self._tier_latency.observe(seconds, tier=tier)

    def record_latency(self, seconds: float,
                       tier: Optional[str] = None) -> None:
        """One end-to-end request, the only sample the request histogram
        and the ``--stats`` latency ring count."""
        with self._lock:
            self.latencies_s.append(seconds)
            if len(self.latencies_s) > _LATENCY_WINDOW:
                del self.latencies_s[: len(self.latencies_s) - _LATENCY_WINDOW]
            self._request_latency.observe(seconds)
            if tier is not None:
                self._observe_tier(seconds, tier)

    def record_tier_latency(self, seconds: float, tier: str) -> None:
        """A per-tier sample that is *not* an end-to-end request (the
        server records request latency separately at the dispatch loop)."""
        with self._lock:
            self._observe_tier(seconds, tier)

    def snapshot(self) -> dict:
        """A copy of every count (as integers) and every latency ring."""
        with self._lock:
            return {
                "tiers": self._tiers.by_label("tier"),
                "coalesced": int(self._coalesced.value()),
                "errors": int(self._errors.value()),
                "requests": self._requests.by_label("op"),
                "latencies_s": list(self.latencies_s),
                "tier_latencies_s": {
                    tier: list(ring)
                    for tier, ring in self.tier_latencies_s.items()
                },
            }


# -- the service ----------------------------------------------------------

class PredictionService:
    """Tier walker: memo -> disk -> cold -> store.

    ``max_memo``/``cache_path`` size the memo LRU and enable the on-disk
    cache; ``use_memo=False`` turns both off (the benchmark's cold tier).

    The service itself is synchronous and runs one simulation at a time;
    thread-safety of the *caches* is the caller's concern (the asyncio
    server funnels every compute through a one-thread executor).
    """

    def __init__(
        self,
        *,
        max_memo: int = 1024,
        cache_path: Optional[str] = None,
        use_memo: bool = True,
    ):
        # Per-instance registry (tests build many services; a process
        # global would blend their counts and break exposition == stats).
        self.registry = MetricsRegistry()
        self.memo = MemoCache(max_memo, registry=self.registry)
        self.disk = DiskCache(cache_path) if cache_path else None
        self.use_memo = use_memo
        self.stats = ServiceStats(registry=self.registry)
        self.started_at = time.time()

    # -- lookup (cheap; safe on the event-loop thread) --------------------
    def normalize(self, request: dict) -> Tuple[dict, str]:
        spec = normalize_query(request)
        return spec, query_key(spec)

    def lookup(self, key: str) -> Optional[Tuple[CachedAnswer, str]]:
        """A cached answer and the tier it came from, or None."""
        if not self.use_memo:
            return None
        answer = self.memo.get(key)
        if answer is not None:
            return answer, "memo"
        if self.disk is not None:
            answer = self.disk.get(key)
            if answer is not None:
                # Promote: repeat queries stay O(dict) after a restart.
                self.memo.put(key, answer)
                return answer, "disk"
        return None

    # -- compute (expensive; the server calls this off-loop) --------------
    def compute(self, spec: dict) -> Tuple[CachedAnswer, str]:
        """Run the point cold; returns (answer, tier)."""
        result = run_point(spec)
        answer = CachedAnswer(
            result=result, digest=pickle_digest(result), spec=spec,
        )
        return answer, "cold"

    def store(self, key: str, answer: CachedAnswer) -> None:
        if not self.use_memo:
            return
        self.memo.put(key, answer)
        if self.disk is not None:
            self.disk.put(key, answer)

    # -- one-call convenience (benchmark, tests, serial callers) ----------
    def serve(self, request: dict) -> dict:
        """Normalize, look up, compute-and-store; returns the response dict."""
        start = time.perf_counter()
        with span("serve.predict", "serve",
                  family=request.get("family"),
                  algorithm=request.get("algorithm", "auto"),
                  x=request.get("x")) as sp:
            spec, key = self.normalize(request)
            cached = self.lookup(key)
            if cached is not None:
                answer, tier = cached
            else:
                answer, tier = self.compute(spec)
                self.store(key, answer)
            sp.set(tier=tier, key=key)
        self.stats.record_tier(tier)
        self.stats.record_latency(time.perf_counter() - start, tier=tier)
        return answer_response(answer, tier, key)

    # -- stats ------------------------------------------------------------
    def stats_snapshot(self) -> dict:
        snap = self.stats.snapshot()
        total = sum(snap["tiers"].values())
        return {
            "tiers": snap["tiers"],
            "hit_rates": {
                tier: (round(count / total, 4) if total else 0.0)
                for tier, count in snap["tiers"].items()
            },
            "coalesced": snap["coalesced"],
            "errors": snap["errors"],
            "requests": snap["requests"],
            "memo": self.memo.stats() if self.use_memo else None,
            "disk": self.disk.stats() if self.disk is not None else None,
            "latency": _summarize_latencies(snap["latencies_s"]),
            "latency_by_tier": {
                tier: _summarize_latencies(samples)
                for tier, samples in sorted(snap["tier_latencies_s"].items())
            },
            "uptime_s": round(time.time() - self.started_at, 3),
            "solver_mode": _solver_mode(),
            "git_rev": git_revision(),
        }

    # -- metrics ----------------------------------------------------------
    def _sync_metrics(self) -> None:
        """Set the gauges of live state; every count is current already."""
        reg = self.registry
        if self.use_memo:
            reg.gauge(
                "serve_memo_entries", "entries resident in the memo LRU",
            ).set(len(self.memo))
        if self.disk is not None:
            reg.gauge(
                "serve_disk_entries", "entries resident in the disk cache",
            ).set(len(self.disk))
        reg.gauge(
            "serve_uptime_seconds", "seconds since service start",
        ).set(round(time.time() - self.started_at, 3))

    def metrics_snapshot(self) -> dict:
        self._sync_metrics()
        return self.registry.snapshot()

    def metrics_text(self) -> str:
        """Prometheus text exposition of the registry."""
        self._sync_metrics()
        return self.registry.dump_metrics()


def answer_response(answer: CachedAnswer, tier: str, key: str) -> dict:
    """The JSON body of one served prediction.

    Everything but ``tier`` and ``key`` is built once per answer, on its
    first response, and reused by every later one: a memo hit copies
    references instead of converting the manifest again.  Each call
    returns a fresh top-level dict, so fields the server adds to one
    response (``id``, ``op``, ``coalesced``) never reach the next; the
    nested values (``manifest``, ``spec``, ``iterations_us``) are shared
    between responses and must not be changed.
    """
    if answer.body is None:
        result = answer.result
        manifest = result.manifest
        answer.body = {
            "family": answer.spec["family"],
            "algorithm": result.algorithm,
            "x": answer.spec["x"],
            "nbytes": result.nbytes,
            "nprocs": result.nprocs,
            "elapsed_us": result.elapsed_us,
            "bandwidth_mbs": result.bandwidth_mbs,
            "iterations_us": list(result.iterations_us),
            "digest": answer.digest,
            "manifest": manifest.to_dict() if manifest is not None else None,
            "spec": {**answer.spec, "dims": list(answer.spec["dims"])},
        }
    return {"ok": True, "tier": tier, "key": key, **answer.body}


__all__ = [
    "CachedAnswer",
    "DiskCache",
    "MemoCache",
    "PredictionService",
    "QueryError",
    "ServiceStats",
    "answer_response",
    "normalize_query",
    "query_key",
    "UnsupportedTopologyError",
]
