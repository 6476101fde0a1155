"""Byte-identity fingerprint of the simulator (``python -m repro obs --identity``).

The frozen-bytes corpus ``tests/stackparity/identity.txt`` is this text
for ``--seeds 0:50``; tier-1 checks every line.  A change that must
leave every simulated byte alone proves it with ``diff`` of this text
from the parent tree and from its own.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator

from repro.obs.export import chrome_trace, dumps
from repro.obs.scenarios import run_scenario, scenario_names
from repro.simtime.trace import Tracer

#: ``(nodes, ppn)`` every scenario runs at.
SCENARIO_SIZES = ((2, 2), (4, 4), (8, 8))
#: ``(num_nodes, num_ranks)`` soak seed 0 also runs at.
SOAK_SIZES = ((8, 16), (8, 32))


def _sha(obj) -> str:
    return hashlib.sha256(dumps(obj).encode()).hexdigest()


def _soak_line(label: str, seed: int, **kwargs) -> str:
    from repro.recovery import soak_run

    tracer = Tracer()
    record = soak_run(seed, tracer=tracer, **kwargs)
    return f"{label} {record['digest']} {_sha(chrome_trace(tracer))}"


def identity_lines(seeds: Iterable[int] = ()) -> Iterator[str]:
    """``name NxP sha256(perfetto) events final_clock sha256(metrics)``
    per scenario and size, ``soak/0@NxR digest sha256(trace)`` per
    scaled soak, then ``soak/<seed> digest sha256(trace)`` per soak seed."""
    for name in scenario_names():
        for nodes, ppn in SCENARIO_SIZES:
            run = run_scenario(name, nodes=nodes, ppn=ppn)
            yield (f"{name} {nodes}x{ppn} {_sha(chrome_trace(run.tracer))} "
                   f"{run.cluster.engine.events_executed} {run.t_end!r} "
                   f"{_sha(run.metrics.to_dict())}")
    for num_nodes, num_ranks in SOAK_SIZES:
        yield _soak_line(f"soak/0@{num_nodes}x{num_ranks}", 0,
                         num_nodes=num_nodes, num_ranks=num_ranks)
    for seed in seeds:
        yield _soak_line(f"soak/{seed}", seed)
