"""Byte-identity fingerprint of the simulator (``python -m repro obs --identity``).

One line per registered obs scenario x engine — the sha256 of its
canonical Perfetto export, the events the engine executed and the final
clock — and one per chaos-soak seed.  A change that must leave every
simulated byte alone proves it with ``diff`` of this text from the
parent tree and from its own; two runs of one tree print the same text.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.obs.export import chrome_trace, dumps
from repro.obs.scenarios import run_scenario, scenario_names


def identity_lines(seeds: Iterable[int] = ()) -> Iterator[str]:
    """``name engine sha256(perfetto) events_executed final_clock`` per
    scenario and engine, then ``soak/<seed> digest`` per soak seed."""
    import hashlib

    from repro.recovery import soak_run

    for name in scenario_names():
        for engine in ("fast", "compat"):
            run = run_scenario(name, engine_compat=engine == "compat")
            sha = hashlib.sha256(dumps(chrome_trace(run.tracer)).encode()).hexdigest()
            yield (f"{name} {engine} {sha} "
                   f"{run.cluster.engine.events_executed} {run.t_end!r}")
    for seed in seeds:
        yield f"soak/{seed} {soak_run(seed)['digest']}"
