"""Observability layer: metrics, trace export, critical-path profiling.

Built on the span/flow model in :mod:`repro.simtime.trace` (see
``docs/observability.md``):

* :mod:`repro.obs.metrics` — counters/gauges/histograms with label
  aggregation,
* :mod:`repro.obs.export` — Chrome/Perfetto ``trace_event`` JSON and a
  plain-text flamegraph-style report,
* :mod:`repro.obs.critical_path` — longest-chain extraction over the
  span + causality DAG,
* :mod:`repro.obs.scenarios` — canned instrumented runs for
  ``python -m repro obs`` and the bench ``--obs`` mode.

Live (wall-clock) telemetry for the serving stack — see the "Live
telemetry" section of ``docs/observability.md``:

* :mod:`repro.obs.live` — real-time spans + trace-id propagation,
* :mod:`repro.obs.store` — the persistent sqlite run ledger,
* :mod:`repro.obs.prom` — Prometheus text exposition of the registry.
"""

from repro._lazy import lazy_getattr

#: Every public name and submodule, and the submodule that defines it.
#: They resolve on first use, so a job that never traces, exports or
#: serves loads none of these modules.
_LAZY = {
    "compute_critical_path": "critical_path",
    "chrome_trace": "export",
    "dumps": "export",
    "flame_report": "export",
    "validate_chrome_trace": "export",
    "LiveTelemetry": "live",
    "normalize_chrome_trace": "live",
    "trace_id": "live",
    "Histogram": "metrics",
    "MetricsRegistry": "metrics",
    "prometheus_text": "prom",
    "RunLedger": "store",
    **{module: module for module in (
        "critical_path", "export", "identity", "live", "metrics", "prom",
        "scenarios", "store")},
}
__getattr__ = lazy_getattr(__name__, _LAZY)

__all__ = [
    "Histogram",
    "LiveTelemetry",
    "MetricsRegistry",
    "RunLedger",
    "chrome_trace",
    "compute_critical_path",
    "dumps",
    "flame_report",
    "normalize_chrome_trace",
    "prometheus_text",
    "trace_id",
    "validate_chrome_trace",
]
