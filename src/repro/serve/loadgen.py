"""Closed-loop load generator for ``repro.serve``.

:func:`run_loadgen` drives N concurrent synchronous clients against a
server — each client submits its next request the moment the previous
one completes (closed loop), so offered load tracks service capacity
and the latency numbers are honest queueing numbers, not
coordinated-omission artifacts.  ``python -m repro serve loadgen`` is
its shell front-end.

Two self-hosting probes sit beside it (``tests/serve/`` runs both):

:func:`backpressure_probe`
    A 4x-oversubscription burst against a tiny queue: proves admission
    control rejects the overflow while the queue depth never exceeds
    its bound.
:func:`determinism_check`
    The same chaos-soak seeds submitted concurrently through the
    server and run serially through ``repro.sweep`` — the two result
    sets must be byte-identical (canonical JSON).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.api import SimSpec
from repro.obs.metrics import Histogram
from repro.recovery import soak_run
from repro.serve.client import ServeClient
from repro.serve.protocol import ServeAddress, as_address
from repro.serve.thread import ServerThread
from repro.sweep import CANONICAL, SweepPoint, run_sweep

Workload = List[Tuple[str, Dict[str, Any]]]


def sim_workload(requests: int, *, seed: int = 0, nprocs: int = 4,
                 repeat_every: int = 4) -> Workload:
    """A seeded ``sim`` workload: mostly unique points, with every
    ``repeat_every``-th request repeating an earlier one (so a cache-
    backed server shows a non-zero hit rate under load)."""
    spec = SimSpec(nprocs=nprocs).to_payload()
    out: Workload = []
    for i in range(requests):
        repeats = bool(repeat_every) and i and i % repeat_every == 0
        out.append(("sim", {"spec": spec, "program": "allreduce",
                            "seed": seed if repeats else seed + i}))
    return out


def run_loadgen(address: Union[ServeAddress, str], workload: Workload, *,
                clients: int = 4,
                deadline_s: Optional[float] = None) -> Dict[str, Any]:
    """Drive ``workload`` through ``clients`` closed-loop clients.

    ``address`` is a :class:`ServeAddress` or its string form.
    Requests are dealt round-robin to the clients; each client issues
    its share back-to-back.  Returns throughput + latency aggregates and the
    per-status counts.
    """
    addr = as_address(address, caller="run_loadgen")
    shares: List[Workload] = [workload[i::clients] for i in range(clients)]
    records: List[List[Dict[str, Any]]] = [[] for _ in range(clients)]
    errors: List[str] = []

    def actor(idx: int) -> None:
        try:
            with ServeClient(addr) as client:
                for scenario, params in shares[idx]:
                    t0 = time.monotonic()
                    response = client.submit(scenario, params,
                                             deadline_s=deadline_s)
                    records[idx].append({
                        "status": response.get("status"),
                        "cached": bool(response.get("cached")),
                        "latency_s": time.monotonic() - t0,
                    })
        except Exception as err:    # noqa: BLE001 — surfaced in the report
            errors.append(f"client {idx}: {type(err).__name__}: {err}")

    threads = [threading.Thread(target=actor, args=(i,), daemon=True)
               for i in range(clients)]
    t_start = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = max(time.monotonic() - t_start, 1e-9)

    flat = [r for recs in records for r in recs]
    lat = Histogram()
    by_status: Dict[str, int] = {}
    cached = 0
    for r in flat:
        by_status[r["status"]] = by_status.get(r["status"], 0) + 1
        if r["status"] == "ok":
            lat.observe(r["latency_s"])
            cached += r["cached"]
    return {
        "clients": clients,
        "requests": len(workload),
        "completed": len(flat),
        "by_status": dict(sorted(by_status.items())),
        "cached_responses": cached,
        "wall_s": wall,
        "throughput_rps": by_status.get("ok", 0) / wall,
        "latency_s": lat.summary(),
        "client_errors": errors,
    }


def backpressure_probe(*, capacity: int = 4, oversubscription: int = 4,
                       hold_s: float = 0.2) -> Dict[str, Any]:
    """Burst ``oversubscription * capacity`` concurrent one-shot submits
    at a single-worker server whose queue holds ``capacity``.

    The worker is pinned by a ``sleep`` scenario, so the burst lands on
    a full queue: admission must reject the overflow and the queue
    depth must never exceed ``capacity`` (it cannot — the queue is
    bounded by construction — but the report carries the measured
    maximum as proof).
    """
    burst = oversubscription * capacity
    with ServerThread(workers=1, capacity=capacity) as srv:
        with ServeClient(srv.address) as warm:
            # Pin the worker so every burst submit meets a busy server.
            pin = threading.Thread(
                target=lambda: warm.submit("sleep", {"seconds": hold_s}),
                daemon=True)
            pin.start()
            time.sleep(hold_s / 4)     # let the pin reach the worker

            statuses: List[str] = [""] * burst

            def one(i: int) -> None:
                try:
                    with ServeClient(srv.address) as c:
                        r = c.submit("sleep", {"seconds": hold_s / 10,
                                               "tag": i})
                        statuses[i] = r.get("status", "error")
                except Exception:   # noqa: BLE001
                    statuses[i] = "error"

            threads = [threading.Thread(target=one, args=(i,), daemon=True)
                       for i in range(burst)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            pin.join()
            stats = warm.stats()["stats"]

    rejected = sum(1 for s in statuses if s == "rejected")
    completed = sum(1 for s in statuses if s == "ok")
    return {
        "capacity": capacity,
        "oversubscription": oversubscription,
        "burst": burst,
        "ok": completed,
        "rejected": rejected,
        "max_queue_depth": stats["max_queue_depth"],
        "bounded": stats["max_queue_depth"] <= capacity,
        "rejections_observed": rejected > 0,
    }


def determinism_check(seeds: Sequence[int], *, workers: int = 2,
                      clients: int = 2, num_nodes: int = 2,
                      num_ranks: int = 4) -> Dict[str, Any]:
    """Serve the chaos-soak seeds concurrently; rerun them serially via
    ``repro.sweep``; compare canonical JSON byte-for-byte."""
    params = [{"seed": s, "num_nodes": num_nodes, "num_ranks": num_ranks}
              for s in seeds]
    workload: Workload = [("recovery-soak", p) for p in params]
    with ServerThread(workers=workers,
                      capacity=max(len(seeds), 1)) as srv:
        served: Dict[int, Any] = {}
        errors: List[str] = []

        def actor(idx: int) -> None:
            try:
                with ServeClient(srv.address) as client:
                    for j in range(idx, len(workload), clients):
                        scenario, p = workload[j]
                        r = client.submit(scenario, p)
                        if r.get("status") != "ok":
                            errors.append(f"seed {p['seed']}: {r}")
                        served[j] = r.get("result")
            except Exception as err:    # noqa: BLE001
                errors.append(f"client {idx}: {type(err).__name__}: {err}")

        threads = [threading.Thread(target=actor, args=(i,), daemon=True)
                   for i in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    serial = run_sweep([SweepPoint("recovery-soak", soak_run, p)
                        for p in params])
    matches = [CANONICAL.encode(served.get(i)) == CANONICAL.encode(serial[i])
               for i in range(len(params))]
    return {
        "seeds": list(seeds),
        "num_nodes": num_nodes,
        "num_ranks": num_ranks,
        "clients": clients,
        "workers": workers,
        "digests": [rec["digest"] for rec in serial],
        "serve_matches_serial_sweep": all(matches) and not errors,
        "mismatched_seeds": [s for s, m in zip(seeds, matches) if not m],
        "errors": errors,
    }
