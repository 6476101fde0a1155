"""``repro.serve`` — the concurrent simulation-serving layer.

Long-lived job server (:class:`SimServer`) that accepts simulation
requests (scenario name + JSON params, with :class:`repro.api.SimSpec`
as the payload for simulator runs), admits them through a bounded
backpressure queue with per-request deadlines, fans them out to a
resizable multiprocessing worker pool, memoizes through the
``repro.sweep`` result cache, and retries transient worker deaths with
seeded backoff.  See docs/serving.md.

    from repro.serve import ServerThread, ServeClient

    with ServerThread(workers=4, cache_dir=".servecache") as srv:
        with ServeClient(srv.address) as client:
            client.submit("sim", {"spec": spec.to_payload(), "seed": 1})

Endpoints are named by one :class:`ServeAddress` (TCP or unix socket).
"""

from repro.serve.client import ServeClient, ServeConnectionError
from repro.serve.pool import Worker, WorkerDied
from repro.serve.protocol import VERSION, ServeAddress
from repro.serve.registry import (
    PROGRAMS,
    register_scenario,
    run_simspec,
    run_simspec_traced,
    scenario,
    scenario_names,
    traceable,
)
from repro.serve.server import ServerThread, ServeStats, SimServer
from repro.serve.store import ResultStore

__all__ = [
    "PROGRAMS",
    "ResultStore",
    "ServeAddress",
    "ServeClient",
    "ServeConnectionError",
    "ServeStats",
    "ServerThread",
    "SimServer",
    "VERSION",
    "Worker",
    "WorkerDied",
    "register_scenario",
    "run_simspec",
    "run_simspec_traced",
    "scenario",
    "scenario_names",
    "traceable",
]
