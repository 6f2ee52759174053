"""Stage-level telemetry: recorder, run manifests, report tables, and
the Chrome-trace writer.

``repro.telemetry.runtime`` adds the *runtime* observability plane for
the long-running components (serve / farm / parallel): structured logs,
a metrics registry with Prometheus exposition, cross-component trace
spans, and a flight recorder.  See ``docs/observability.md`` for both
planes.
"""

from repro.util.lazy import lazy_exports

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
    "runtime_trace",
    "save_baseline",
    "simulation_trace",
    "span",
    "span_store",
    "spec_fingerprint",
    "write_trace",
]

# Each name's module is imported when the name is first read: the
# harness needs only the manifest, and a measuring process loads neither
# the runtime plane nor the report formatter.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.telemetry.manifest": (
        "DEFAULT_TOLERANCE", "CampaignManifest", "RunManifest",
        "compare_bench", "compare_manifests", "compare_with_baseline_file",
        "git_revision", "load_baseline", "save_baseline",
        "spec_fingerprint",
    ),
    "repro.telemetry.recorder": (
        "ROLE_COPIER", "ROLE_DMA_WAIT", "ROLE_INJECTOR", "ROLE_MASTER",
        "ROLE_PROTOCOL", "ROLE_RECEIVER", "TelemetryRecorder",
        "reduce_core_role",
    ),
    "repro.telemetry.report": ("format_report",),
    "repro.telemetry.runtime": (
        "MetricsRegistry", "RuntimeLogger", "SpanStore",
        "dump_flight_record", "parse_prometheus", "record_span",
        "runtime_log", "span", "span_store",
    ),
    "repro.telemetry.trace": (
        "runtime_trace", "simulation_trace", "write_trace",
    ),
})
