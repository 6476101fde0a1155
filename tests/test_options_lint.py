"""Knob lint: the settable options of the serving shell and the tracer, pinned.

Options pile up one harmless keyword at a time, and a knob only tests
set is still surface every caller reads past.  The shell's
constructors and hook points are listed here by parameter name, in
order, ``*`` marking where the keyword-only ones start; a change that
adds, drops or renames a knob must edit this list, where review sees
it (the style of ``tests/test_run_loop_lint.py``).
"""

import inspect

import pytest

from repro.chaos import ChaosPlan
from repro.obs import LiveTelemetry
from repro.serve import ResultStore, ServeClient, SimServer
from repro.simtime.trace import Tracer
from repro.sweep import SweepCache, run_sweep

KNOBS = {
    "SimServer": (SimServer.__init__,
                  "*, workers, capacity, cache_dir, address, store, "
                  "retry_limit, retry_seed, telemetry, trace_dir, chaos, "
                  "breaker_threshold, breaker_cooldown_s"),
    "ServeClient": (ServeClient.__init__,
                    "address, *, timeout, trace, retries, retry_base, "
                    "retry_seed, retry_deadline_s, chaos"),
    "SweepCache": (SweepCache.__init__, "cache_dir, *, metrics, chaos"),
    "ResultStore": (ResultStore.__init__, "*, hot_capacity"),
    "run_sweep": (run_sweep, "points, *, jobs, cache"),
    "LiveTelemetry": (LiveTelemetry.__init__, "*, clock"),
    "ChaosPlan.attach": (ChaosPlan.attach, "metrics"),
    "ChaosPlan.on": (ChaosPlan.on, "site, scenario"),
    "Tracer": (Tracer.__init__, "*, id_start, id_step"),
}


def knobs(fn) -> str:
    """``fn``'s parameter names (``self`` dropped), ``*`` before the
    first keyword-only one."""
    names = []
    for param in inspect.signature(fn).parameters.values():
        if param.name == "self":
            continue
        if param.kind is param.KEYWORD_ONLY and "*" not in names:
            names.append("*")
        names.append(param.name)
    return ", ".join(names)


@pytest.mark.parametrize("name", sorted(KNOBS))
def test_knobs_are_the_listed_ones(name):
    fn, expected = KNOBS[name]
    assert knobs(fn) == expected, (
        f"{name}'s options changed; update KNOBS in "
        f"tests/test_options_lint.py if the new knob has a caller "
        f"outside tests")
