"""Unified runtime observability: structured logs, metrics, trace spans.

PR 5 gave the *simulator* deep observability (role timelines, Perfetto
counter tracks, the manifest gate); this module gives the same plane to
the distributed layers that grew around it — the prediction service
(:mod:`repro.serve`), the sweep farm (:mod:`repro.bench.farm`), and the
parallel executor (:mod:`repro.bench.parallel`).  Three pillars:

**Structured logs** (:func:`runtime_log`)
    Component-scoped loggers emitting one event per line.  The default
    *console* format reproduces the historical stderr shapes
    (``[farm] message``, ``[worker-id] message``, bare cache warnings),
    so adopting the logger changes nothing a human or a log scraper
    sees; ``REPRO_RUNTIME_LOG=json`` switches to newline-JSON events
    (``{"ts", "component", "level", "event", ...fields}``).
    ``REPRO_LOG_LEVEL`` (debug/info/warning/error) filters globally;
    per-logger levels (the farm's ``--quiet``) override it.

**Metrics** (:class:`MetricsRegistry`)
    A process-local registry of counters, gauges and histograms (fixed
    bucket bounds).  Recorded values are counts and durations — never
    wall-clock timestamps — so snapshots are portable and diffable.
    :meth:`MetricsRegistry.dump_metrics` renders Prometheus text
    exposition; :func:`serve_metrics_http` serves it over HTTP
    (``repro serve --metrics-port``).  Each serve and farm server owns
    one instance, and it is the only store of that server's counts:
    ``--stats`` and ``farm status`` read their numbers back from it, so
    an exposition always matches them.  Only gauges of live state
    (occupancy, uptime) are set at read time.

**Trace spans** (:func:`span`, :class:`SpanStore`)
    ``trace_id``/``span_id`` pairs minted where a query enters the
    service and propagated *beside* the data — explicit context dicts
    through ``execute_points``, extra fields on farm lease grants and
    completion records — never inside point specs, cache keys, or
    pickled results (observability must not perturb byte identity).
    Finished spans land in a bounded process-local :class:`SpanStore`
    and export through the simulator's Chrome-trace writer
    (:func:`repro.telemetry.trace.runtime_trace`; ``repro trace
    --runtime``), under their own pid so runtime spans sit beside role
    timelines.

A **flight recorder** rides along: every structured event (any level)
is kept in a per-component ring buffer of the last
:data:`FLIGHT_RING` events, dumped to a JSONL artifact by
:func:`dump_flight_record` on quarantine, point failure, or unclean
shutdown (:func:`install_excepthook`) — set ``REPRO_FLIGHT_DIR`` to
enable dumps.

See ``docs/observability.md`` ("Runtime observability") for the log
schema, the metric name table, and the span model.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.util.config import setting

_LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}


# -- flight recorder ring ------------------------------------------------

#: events kept per component for post-mortem dumps
FLIGHT_RING = 256

_FLIGHT_LOCK = threading.Lock()
_FLIGHT: "Dict[str, deque]" = {}
_FLIGHT_SEQ = itertools.count(1)


def _flight_append(component: str, event: dict) -> None:
    with _FLIGHT_LOCK:
        ring = _FLIGHT.get(component)
        if ring is None:
            ring = _FLIGHT[component] = deque(maxlen=FLIGHT_RING)
        ring.append(event)


def flight_snapshot(component: Optional[str] = None) -> List[dict]:
    """The ring's events (one component, or all), oldest first."""
    with _FLIGHT_LOCK:
        if component is not None:
            return list(_FLIGHT.get(component, ()))
        events: List[dict] = []
        for ring in _FLIGHT.values():
            events.extend(ring)
    events.sort(key=lambda event: event.get("ts", 0.0))
    return events


def dump_flight_record(reason: str, *, component: Optional[str] = None,
                       path: Optional[str] = None) -> Optional[str]:
    """Dump the flight-recorder ring to a JSONL artifact; returns its path.

    No-op (returns ``None``) when neither an explicit ``path`` nor
    ``REPRO_FLIGHT_DIR`` names a destination — a test suite full of
    deliberate point failures must not litter the working directory.
    """
    if path is None:
        directory = setting("REPRO_FLIGHT_DIR")
        if directory is None:
            return None
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(
            directory,
            f"flight-{component or 'runtime'}-{os.getpid()}"
            f"-{next(_FLIGHT_SEQ)}.jsonl",
        )
    events = flight_snapshot(component)
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True, default=str))
            handle.write("\n")
        handle.write(json.dumps(
            {"kind": "flight", "reason": reason, "events": len(events),
             "ts": round(time.time(), 6)},
            sort_keys=True,
        ))
        handle.write("\n")
    return path


_EXCEPTHOOK_INSTALLED = False


def install_excepthook(component: str = "runtime") -> None:
    """Dump the flight recorder on an uncaught exception (once per process).

    Wired into the long-running entry points (``repro serve``,
    ``repro farm serve``) so an unclean shutdown leaves its last
    :data:`FLIGHT_RING` events behind for diagnosis.
    """
    global _EXCEPTHOOK_INSTALLED
    if _EXCEPTHOOK_INSTALLED:
        return
    _EXCEPTHOOK_INSTALLED = True
    previous = sys.excepthook

    def _hook(exc_type, exc, tb):
        if not issubclass(exc_type, KeyboardInterrupt):
            dump_flight_record(
                f"unclean-shutdown: {exc_type.__name__}: {exc}",
                component=None,
            )
        previous(exc_type, exc, tb)

    sys.excepthook = _hook


# -- structured logging --------------------------------------------------

class RuntimeLogger:
    """One component's structured logger.

    ``prefix`` is the console-format tag (``[prefix] message``); ``None``
    prints bare messages (the serve cache's historical shape).  ``level``
    (a name from debug/info/warning/error) overrides the global
    ``REPRO_LOG_LEVEL`` threshold for this logger — the farm maps its
    ``--quiet`` flag here.
    """

    __slots__ = ("component", "prefix", "_threshold")

    def __init__(self, component: str, *, prefix: Optional[str] = None,
                 level: Optional[str] = None):
        self.component = component
        self.prefix = prefix
        self._threshold = _LEVELS[level] if level is not None else None

    def _line(self, message: str) -> str:
        if self.prefix:
            return f"[{self.prefix}] {message}"
        return message

    def log(self, level: str, event: str, message: Optional[str] = None,
            **fields) -> None:
        severity = _LEVELS.get(level, _LEVELS["info"])
        threshold = (self._threshold if self._threshold is not None
                     else _LEVELS[setting("REPRO_LOG_LEVEL")])
        record = {
            "ts": round(time.time(), 6),
            "component": self.component,
            "level": level,
            "event": event,
        }
        if message is not None:
            record["msg"] = message
        for key, value in fields.items():
            record[key] = value
        _flight_append(self.component, record)
        if severity < threshold:
            return
        if setting("REPRO_RUNTIME_LOG") == "json":
            print(json.dumps(record, sort_keys=True, default=str),
                  file=sys.stderr, flush=True)
            return
        if message is not None:
            text = message
        else:
            detail = " ".join(f"{k}={v}" for k, v in fields.items())
            text = f"{event} {detail}".rstrip()
        print(self._line(text), file=sys.stderr, flush=True)

    def debug(self, event: str, message: Optional[str] = None,
              **kwargs) -> None:
        self.log("debug", event, message, **kwargs)

    def info(self, event: str, message: Optional[str] = None,
             **kwargs) -> None:
        self.log("info", event, message, **kwargs)

    def warning(self, event: str, message: Optional[str] = None,
                **kwargs) -> None:
        self.log("warning", event, message, **kwargs)

    def error(self, event: str, message: Optional[str] = None,
              **kwargs) -> None:
        self.log("error", event, message, **kwargs)


def runtime_log(component: str, *, prefix: Optional[str] = None,
                level: Optional[str] = None) -> RuntimeLogger:
    """A structured logger for ``component`` (see :class:`RuntimeLogger`)."""
    return RuntimeLogger(component, prefix=prefix, level=level)


# -- metrics registry ----------------------------------------------------

#: fixed histogram bucket bounds (seconds) — identical in every process,
#: so scraped histograms merge without renegotiating boundaries
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _label_str(key: _LabelKey) -> str:
    return ",".join(f"{k}={v}" for k, v in key)


def _prom_labels(key: _LabelKey, extra: Optional[Tuple[str, str]] = None
                 ) -> str:
    pairs = list(key)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in pairs)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


class _Labelled:
    """One value per label set, guarded by the registry's lock."""

    def __init__(self, name: str, help_text: str, lock: threading.RLock):
        self.name = name
        self.help = help_text
        self._lock = lock
        self._values: Dict[_LabelKey, float] = {}

    def value(self, **labels) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)


class Counter(_Labelled):
    """A monotonically increasing count, optionally labelled."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def by_label(self, label: str) -> Dict[str, int]:
        """Integer counts keyed by ``label``'s value, in first-seen order
        (for a counter labelled by that one label, such as ``tier``)."""
        with self._lock:
            return {
                dict(key)[label]: int(value)
                for key, value in self._values.items()
            }


class Gauge(_Labelled):
    """A value that can go up and down (occupancy, sizes)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)


class Histogram:
    """Fixed-bound bucketed observations (durations, sizes — never
    timestamps)."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str, lock: threading.RLock,
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(
                f"histogram {name} buckets must be ascending, got {buckets}"
            )
        self.name = name
        self.help = help_text
        self.buckets = tuple(float(b) for b in buckets)
        self._lock = lock
        #: labels -> [per-bucket counts..., +Inf count, sum, count]
        self._series: Dict[_LabelKey, List[float]] = {}

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = (
                    [0.0] * (len(self.buckets) + 1) + [0.0, 0.0]
                )
            for position, bound in enumerate(self.buckets):
                if value <= bound:
                    series[position] += 1
                    break
            else:
                series[len(self.buckets)] += 1
            series[-2] += value
            series[-1] += 1

    def summary(self, **labels) -> Dict[str, float]:
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                return {"count": 0, "sum": 0.0}
            return {"count": int(series[-1]), "sum": series[-2]}


class MetricsRegistry:
    """A process-local set of named metrics with one shared lock.

    ``counter``/``gauge``/``histogram`` get-or-create by name (a name
    re-registered as a different kind is an error — the registry is the
    schema).  :meth:`snapshot` returns plain dicts for JSON transport;
    :meth:`dump_metrics` renders Prometheus text exposition format.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, factory: Callable[[], object],
             kind: str) -> object:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = factory()
            elif metric.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{metric.kind}, not {kind}"
                )
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get(
            name, lambda: Counter(name, help_text, self._lock), "counter",
        )

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get(
            name, lambda: Gauge(name, help_text, self._lock), "gauge",
        )

    def histogram(self, name: str, help_text: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get(
            name,
            lambda: Histogram(name, help_text, self._lock, buckets),
            "histogram",
        )

    # -- export ----------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-dict view: ``{"counters": {name: {labels: value}}, ...}``."""
        out = {"counters": {}, "gauges": {}, "histograms": {}}
        with self._lock:
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                if metric.kind in ("counter", "gauge"):
                    out[metric.kind + "s"][name] = {
                        _label_str(key): value
                        for key, value in sorted(metric._values.items())
                    }
                else:
                    series_out = {}
                    for key, series in sorted(metric._series.items()):
                        buckets = {
                            _format_value(bound): int(count)
                            for bound, count in zip(metric.buckets, series)
                        }
                        buckets["+Inf"] = int(series[len(metric.buckets)])
                        series_out[_label_str(key)] = {
                            "count": int(series[-1]),
                            "sum": series[-2],
                            "buckets": buckets,
                        }
                    out["histograms"][name] = series_out
        return out

    def dump_metrics(self) -> str:
        """Prometheus text exposition (format version 0.0.4)."""
        lines: List[str] = []
        with self._lock:
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                if metric.help:
                    lines.append(f"# HELP {name} {metric.help}")
                lines.append(f"# TYPE {name} {metric.kind}")
                if metric.kind in ("counter", "gauge"):
                    for key, value in sorted(metric._values.items()):
                        lines.append(
                            f"{name}{_prom_labels(key)} "
                            f"{_format_value(value)}"
                        )
                else:
                    for key, series in sorted(metric._series.items()):
                        cumulative = 0.0
                        for bound, count in zip(metric.buckets, series):
                            cumulative += count
                            lines.append(
                                f"{name}_bucket"
                                f"{_prom_labels(key, ('le', _format_value(bound)))} "
                                f"{_format_value(cumulative)}"
                            )
                        cumulative += series[len(metric.buckets)]
                        lines.append(
                            f"{name}_bucket"
                            f"{_prom_labels(key, ('le', '+Inf'))} "
                            f"{_format_value(cumulative)}"
                        )
                        lines.append(
                            f"{name}_sum{_prom_labels(key)} "
                            f"{_format_value(series[-2])}"
                        )
                        lines.append(
                            f"{name}_count{_prom_labels(key)} "
                            f"{_format_value(series[-1])}"
                        )
        return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> Dict[str, Dict[str, float]]:
    """Parse exposition text back to ``{name: {labelstr: value}}``.

    Enough of the format for the smoke drills to assert scraped counters
    equal the stats snapshot; not a general client.
    """
    out: Dict[str, Dict[str, float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        try:
            value = float(value_part)
        except ValueError:
            continue  # prose sharing the stream (e.g. a status summary)
        if "{" in name_part:
            name, _, label_part = name_part.partition("{")
            labels = label_part.rstrip("}")
            labels = ",".join(
                part.replace('"', "")
                for part in labels.split(",") if part
            )
        else:
            name, labels = name_part, ""
        out.setdefault(name, {})[labels] = value
    return out


# -- metrics over HTTP ---------------------------------------------------

def serve_metrics_http(host: str, port: int, render: Callable[[], str]):
    """Serve ``render()`` as Prometheus text on ``/metrics`` (daemon thread).

    Returns the bound ``ThreadingHTTPServer`` (``.server_address`` for
    the ephemeral-port case; ``.shutdown()`` to stop).  The endpoint is
    read-only and unauthenticated — same loopback-only posture as the
    serve protocol itself.
    """
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class _MetricsHandler(BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802 (http.server API)
            if self.path.split("?")[0].rstrip("/") in ("", "/metrics"):
                try:
                    body = render().encode("utf-8")
                except Exception as exc:  # surface, don't kill the thread
                    body = f"# metrics render failed: {exc}\n".encode()
                    self.send_response(500)
                else:
                    self.send_response(200)
                self.send_header(
                    "Content-Type", "text/plain; version=0.0.4"
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
            else:
                self.send_error(404)

        def log_message(self, *args):  # scrapes are not access-logged
            pass

    httpd = ThreadingHTTPServer((host, port), _MetricsHandler)
    thread = threading.Thread(
        target=httpd.serve_forever, name="metrics-http", daemon=True,
    )
    thread.start()
    return httpd


# -- trace spans ---------------------------------------------------------

def new_trace_id() -> str:
    """32 random lowercase hex digits."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """16 random lowercase hex digits."""
    return os.urandom(8).hex()


def mint_trace() -> Dict[str, str]:
    """A fresh trace context: ``{"trace_id", "span_id"}`` (root span)."""
    return {"trace_id": new_trace_id(), "span_id": new_span_id()}


class SpanStore:
    """Process-local bounded store of finished spans (oldest dropped)."""

    def __init__(self, max_spans: int = 8192):
        self._lock = threading.Lock()
        self._spans: deque = deque(maxlen=max_spans)

    def record(self, span_dict: dict) -> None:
        with self._lock:
            self._spans.append(dict(span_dict))

    def record_many(self, spans: Sequence[dict]) -> None:
        with self._lock:
            for span_dict in spans:
                if isinstance(span_dict, dict):
                    self._spans.append(dict(span_dict))

    def snapshot(self) -> List[dict]:
        with self._lock:
            return [dict(span_dict) for span_dict in self._spans]

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


_SPAN_STORE = SpanStore()


def span_store() -> SpanStore:
    return _SPAN_STORE


class ActiveSpan:
    """Handle yielded by :func:`span`: context to propagate + live attrs.

    ``ctx`` is the ``{"trace_id", "span_id"}`` dict a child (or a wire
    hop) should use as its parent.  :meth:`set` adds attributes that are
    only known mid-span (the tier a query resolved to, say).
    """

    __slots__ = ("ctx", "attrs")

    def __init__(self, ctx: Optional[Dict[str, str]], attrs: dict):
        self.ctx = ctx
        self.attrs = attrs

    def set(self, **attrs) -> None:
        self.attrs.update(attrs)


@contextmanager
def span(name: str, component: str, *,
         parent: Optional[Dict[str, str]] = None,
         store: Optional[SpanStore] = None,
         **attrs) -> Iterator[ActiveSpan]:
    """Record one span around a block; yields an :class:`ActiveSpan`.

    A ``parent`` context chains the new span under it (same trace,
    fresh span id); ``parent=None`` mints a new trace.
    """
    ctx = {
        "trace_id": (parent or {}).get("trace_id") or new_trace_id(),
        "span_id": new_span_id(),
    }
    active = ActiveSpan(ctx, dict(attrs))
    start_s = time.time()
    # "store or _SPAN_STORE" would misroute: an empty SpanStore is falsy.
    target = store if store is not None else _SPAN_STORE
    try:
        yield active
    finally:
        target.record({
            "trace_id": ctx["trace_id"],
            "span_id": ctx["span_id"],
            "parent_id": (parent or {}).get("span_id"),
            "name": name,
            "component": component,
            "start_s": start_s,
            "end_s": time.time(),
            "attrs": active.attrs,
        })


def record_span(name: str, component: str, start_s: float, end_s: float, *,
                parent: Optional[Dict[str, str]] = None,
                span_id: Optional[str] = None,
                store: Optional[SpanStore] = None,
                **attrs) -> Optional[dict]:
    """Record a span whose timing was captured out-of-band.

    Used where the work ran somewhere a context manager cannot wrap —
    a pool future, a farm worker's chunk.  Returns the recorded span
    (or ``None`` when there is no parent context to attach to).
    """
    if parent is None:
        return None
    span_dict = {
        "trace_id": parent["trace_id"],
        "span_id": span_id or new_span_id(),
        "parent_id": parent.get("span_id"),
        "name": name,
        "component": component,
        "start_s": start_s,
        "end_s": end_s,
        "attrs": dict(attrs),
    }
    (store if store is not None else _SPAN_STORE).record(span_dict)
    return span_dict


__all__ = [
    "ActiveSpan",
    "Counter",
    "DEFAULT_BUCKETS",
    "FLIGHT_RING",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RuntimeLogger",
    "SpanStore",
    "dump_flight_record",
    "flight_snapshot",
    "install_excepthook",
    "mint_trace",
    "new_span_id",
    "new_trace_id",
    "parse_prometheus",
    "record_span",
    "runtime_log",
    "serve_metrics_http",
    "span",
    "span_store",
]
