"""Stage-level telemetry: recorder, run manifests, and report tables.

``repro.telemetry.runtime`` adds the *runtime* observability plane for
the long-running components (serve / farm / parallel): structured logs,
a metrics registry with Prometheus exposition, cross-component trace
spans, and a flight recorder.  See ``docs/observability.md`` for both
planes.
"""

from repro.telemetry.manifest import (
    DEFAULT_TOLERANCE,
    CampaignManifest,
    RunManifest,
    compare_bench,
    compare_manifests,
    compare_with_baseline_file,
    git_revision,
    load_baseline,
    save_baseline,
    spec_fingerprint,
)
from repro.telemetry.recorder import (
    ROLE_COPIER,
    ROLE_DMA_WAIT,
    ROLE_INJECTOR,
    ROLE_MASTER,
    ROLE_PROTOCOL,
    ROLE_RECEIVER,
    TelemetryRecorder,
    ThreadTelemetry,
    reduce_core_role,
)
from repro.telemetry.report import format_report
from repro.telemetry.runtime import (
    MetricsRegistry,
    RuntimeLogger,
    SpanStore,
    dump_flight_record,
    parse_prometheus,
    record_span,
    runtime_log,
    span,
    span_store,
    write_runtime_trace,
)

__all__ = [
    "CampaignManifest",
    "DEFAULT_TOLERANCE",
    "MetricsRegistry",
    "ROLE_COPIER",
    "ROLE_DMA_WAIT",
    "ROLE_INJECTOR",
    "ROLE_MASTER",
    "ROLE_PROTOCOL",
    "ROLE_RECEIVER",
    "RunManifest",
    "RuntimeLogger",
    "SpanStore",
    "TelemetryRecorder",
    "ThreadTelemetry",
    "compare_bench",
    "compare_manifests",
    "compare_with_baseline_file",
    "dump_flight_record",
    "format_report",
    "git_revision",
    "load_baseline",
    "parse_prometheus",
    "record_span",
    "reduce_core_role",
    "runtime_log",
    "save_baseline",
    "span",
    "span_store",
    "spec_fingerprint",
    "write_runtime_trace",
]
