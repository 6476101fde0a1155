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

from repro.obs.critical_path import compute_critical_path
from repro.obs.export import chrome_trace, dumps, flame_report, validate_chrome_trace
from repro.obs.live import LiveTelemetry, normalize_chrome_trace, trace_id
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.prom import prometheus_text
from repro.obs.store import RunLedger

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
