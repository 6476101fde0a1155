"""Prometheus text exposition rendered from a :class:`MetricsRegistry`.

The registry's dotted names (``serve.requests{status=ok}``) map to the
Prometheus naming rules as underscores (``serve_requests{status="ok"}``)
— the dotted scheme stays canonical in code (the metric-name lint
enforces it); this module is a pure rendering of it.

* counters / gauges -> one ``# TYPE`` header + one sample per label set
* histograms -> a Prometheus *summary*: ``{quantile="0.5|0.9|0.99"}``
  samples plus ``_sum`` and ``_count``

Output is deterministic: families and samples render in sorted order,
numbers use the registry's own formatter, and no timestamp is emitted
(scrape time is the scraper's business).  ``python -m repro serve metrics``
and the ``metrics`` wire op serve this text.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Iterable, List, Tuple

from repro.obs.metrics import MetricsRegistry

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def prom_name(name: str) -> str:
    """Dotted registry name -> Prometheus metric name."""
    out = _NAME_OK.sub("_", name.replace(".", "_"))
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _escape(value: Any) -> str:
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _labels(items: Iterable[Tuple[str, Any]]) -> str:
    rendered = [f'{prom_name(str(k))}="{_escape(v)}"' for k, v in items]
    return "{" + ",".join(rendered) + "}" if rendered else ""


def _num(v: float) -> str:
    return MetricsRegistry._num(float(v))


def prometheus_text(metrics: MetricsRegistry) -> str:
    """Render the whole registry as Prometheus text exposition."""
    lines: List[str] = []

    def family(store: Dict, kind: str) -> None:
        by_name: Dict[str, List] = {}
        for key in store:
            by_name.setdefault(key[0], []).append(key)
        for name in sorted(by_name):
            pname = prom_name(name)
            lines.append(f"# TYPE {pname} {kind}")
            for key in sorted(by_name[name]):
                lines.append(f"{pname}{_labels(key[1])} "
                             f"{_num(store[key])}")

    family(metrics.all_counters(), "counter")
    family(metrics.gauges, "gauge")

    by_name: Dict[str, List] = {}
    for key in metrics.histograms:
        by_name.setdefault(key[0], []).append(key)
    for name in sorted(by_name):
        pname = prom_name(name)
        lines.append(f"# TYPE {pname} summary")
        for key in sorted(by_name[name]):
            hist = metrics.histograms[key]
            base = list(key[1])
            summary = hist.summary()
            for q, p in (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99")):
                lines.append(
                    f"{pname}{_labels(base + [('quantile', q)])} "
                    f"{_num(summary.get(p, 0.0))}")
            lines.append(f"{pname}_sum{_labels(base)} {_num(hist.total)}")
            lines.append(f"{pname}_count{_labels(base)} {hist.count}")

    return "\n".join(lines) + ("\n" if lines else "")
