"""The traced run: where one repetition's host time goes, layer by layer.

Everything here runs only under ``--trace 1``, after the untraced
repetitions of the same process, and none of its timings feed an
end-to-end metric.  Four instruments:

* one repetition under ``cProfile``, ``tottime``/``ncalls`` folded by file
  path under ``src/repro`` into the layers of ``LAYERS`` (for ``serve-*``
  the serving process's client and server threads; the pool worker's
  share is ``serve.run_ms``);
* counters the stack already keeps, read off the worlds the workload owns;
* layer probes: direct timed calls of one public function each;
* for ``serve-*`` the request decomposition from the server's ``stats``,
  for ``init-1k`` the partitioned-execution probe.

``profile.self_s`` carries profiler overhead: read shares, cite ``calls``.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import shutil
import statistics
import time
from typing import Any, Callable, Dict, List, Tuple

import repro
from repro import dsim
from repro.api import SimSpec, make_world
from repro.bench import perf
from repro.machine.presets import jupiter
from repro.ompi.config import MpiConfig
from repro.serve import protocol, run_simspec
from repro.sweep import SweepCache, cache_key

import measure
import workloads

SRC = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: Layer -> path prefixes under src/repro/ (first match wins; anything
#: else, the standard library and builtins included, is ``other``).
LAYERS: List[Tuple[str, Tuple[str, ...]]] = [
    ("simtime", ("simtime/",)),
    ("prrte", ("prrte/",)),
    ("pmix", ("pmix/",)),
    ("ompi.pml", ("ompi/pml/", "ompi/btl/", "ompi/request.py")),
    ("ompi.coll", ("ompi/coll/",)),
    ("ompi.group", ("ompi/group.py",)),
    ("ompi.comm", ("ompi/comm.py", "ompi/cid.py", "ompi/excid.py",
                   "ompi/intercomm.py")),
    ("ompi.core", ("ompi/",)),
    ("apps", ("apps/", "quo/", "bench/")),
    ("faults", ("faults/", "recovery.py")),
    ("obs", ("obs/",)),
    ("serve", ("serve/", "sweep.py", "chaos.py")),
]
LAYER_NAMES = [name for name, _prefixes in LAYERS] + ["other"]


def layer_of(filename: str) -> str:
    if filename.startswith(SRC):
        rel = filename[len(SRC):].replace(os.sep, "/")
        for name, prefixes in LAYERS:
            if rel.startswith(prefixes):
                return name
    return "other"


def fold(profiles: List[cProfile.Profile]) -> Dict[str, float]:
    """``<layer>.self_s`` / ``<layer>.calls`` summed over the profiles."""
    out = {f"{name}.{kind}": 0.0 for name in LAYER_NAMES
           for kind in ("self_s", "calls")}
    for profile in profiles:
        stats = pstats.Stats(profile).stats
        for (filename, _line, _fn), (_cc, ncalls, tottime, _ct, _callers) in stats.items():
            layer = layer_of(filename)
            out[f"{layer}.self_s"] += tottime
            out[f"{layer}.calls"] += ncalls
    return out


def profiled_repetition(wl: Any, judge: Any) -> Tuple[float, List[Any], Dict[str, float]]:
    """One repetition with the profiler on in this thread and, where the
    workload has a server, in the server's loop thread."""
    profiles = [cProfile.Profile()]
    if wl.server is not None:
        profiles.append(cProfile.Profile())

        async def switch(_server: Any, on: bool) -> None:
            (profiles[1].enable if on else profiles[1].disable)()

        wl.server.call(switch, True)
    profiles[0].enable()
    try:
        wall, spans = measure.repetition(wl, judge)
    finally:
        profiles[0].disable()
        if wl.server is not None:
            wl.server.call(switch, False)
    return wall, spans, fold(profiles)


def per_call_s(fn: Callable[[], Any], min_s: float) -> float:
    """Median seconds per call of ``fn`` over at least ``min_s`` of calls."""
    samples: List[float] = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        fn()
        t1 = time.perf_counter()
        samples.append(t1 - t0)
        if t1 - t_start >= min_s:
            return statistics.median(samples)


def layer_probes(min_s: float, scratch: str) -> Dict[str, float]:
    events = perf.fence_storm(False) + perf.comm_dup(False)
    kernel_s = per_call_s(lambda: (perf.fence_storm(False), perf.comm_dup(False)), min_s)

    spec = SimSpec(nprocs=1024, machine=jupiter(64), ppn=16,
                   config=MpiConfig.sessions_prototype())
    world_s = per_call_s(lambda: make_world(spec), min_s)

    small = SimSpec(nprocs=16, machine=jupiter(2), ppn=8,
                    config=MpiConfig.sessions_prototype()).to_payload()
    params = {"spec": small, "program": "sessions", "seed": 0}
    result = run_simspec(**params)
    key = cache_key("sim", params)
    cache = SweepCache(scratch)
    try:
        cache_s = per_call_s(lambda: (cache.put(key, result), cache.get(key)), min_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    submit = {"op": "submit", "id": 1, "v": protocol.VERSION,
              "scenario": "sim", "params": params}
    codec_s = per_call_s(lambda: protocol.decode(protocol.encode(submit)), min_s)
    return {"simtime.kernel_eps": events / kernel_s,
            "api.make_world_ms": world_s * 1e3,
            "sweep.cache_rt_us": cache_s * 1e6,
            "serve.codec_rt_us": codec_s * 1e6}


def serve_decomposition(wl: Any, judge: Any) -> Dict[str, float]:
    """One more unprofiled repetition between two ``stats`` snapshots:
    per-request means of what the server measured, against what the
    client saw."""

    async def snapshot(server: Any) -> Dict[str, Any]:
        return server.snapshot()

    def totals(snap: Dict[str, Any]) -> Dict[str, float]:
        out = {k: snap[k] for k in ("coalesced", "retries", "worker_deaths")}
        out.update(hits=snap["cache"]["hits"], misses=snap["cache"]["misses"])
        for name in ("latency_s", "queue_wait_s", "run_s"):
            summary = snap[name]
            out[name] = summary["count"] * summary.get("mean", 0.0)
        return out

    before = totals(wl.server.call(snapshot))
    _wall, spans = measure.repetition(wl, judge)
    after = totals(wl.server.call(snapshot))
    delta = {k: after[k] - before[k] for k in after}
    n = len(spans)
    client_ms = sum(t1 - t0 for _key, t0, t1 in spans) / n * 1e3
    server_ms = delta["latency_s"] / n * 1e3
    queue_ms = delta["queue_wait_s"] / n * 1e3
    run_ms = delta["run_s"] / n * 1e3
    return {"serve.proto_ms": client_ms - server_ms,
            "serve.queue_ms": queue_ms,
            "serve.run_ms": run_ms,
            "serve.overhead_ms": server_ms - queue_ms - run_ms,
            "serve.store.hit_ratio": delta["hits"] / (delta["hits"] + delta["misses"]),
            "serve.coalesced": delta["coalesced"],
            "serve.retries": delta["retries"],
            "serve.worker_deaths": delta["worker_deaths"]}


def dsim_probe(size: Dict[str, int], judge: Any) -> Dict[str, float]:
    """The workload's Sessions job once serially and once across two
    worker partitions: same events or the op fails.  No wall-clock claim
    -- two workers and a coordinator oversubscribe a 2-core host."""
    nodes, ppn = size["nodes"], size["ppn"]
    spec = SimSpec(nprocs=nodes * ppn, machine=jupiter(nodes), ppn=ppn,
                   config=MpiConfig.sessions_prototype())
    t0 = time.perf_counter()
    world = make_world(spec)
    world.spawn_ranks(workloads.sessions_main)
    world.run()
    t1 = time.perf_counter()
    res = dsim.run_partitioned(spec.replace(partitions=2), workloads.sessions_main)
    t2 = time.perf_counter()
    judge.attempted += 1
    serial = world.cluster.engine.events_executed
    if res.failures or res.events != serial:
        judge.fail(f"dsim: {res.events} events across 2 partitions, {serial} "
                   f"serially; failures {res.failures}")
    return {"dsim.windows": res.windows, "dsim.boundary_msgs": res.boundary_msgs,
            "dsim.events": res.events, "dsim.wall_ratio": (t2 - t1) / (t1 - t0)}


def write_trace(path: str, name: str, reps: List[Tuple[float, List[Any]]],
                profiled: int, per_layer: Dict[str, float], wl: Any) -> None:
    """``suite.workload -> suite.rep -> suite.op`` spans with parent ids."""
    origin = reps[0][1][0][1]
    spans = [{"id": 1, "parent": 0, "name": "suite.workload", "workload": name,
              "start_s": 0.0, "end_s": reps[-1][1][-1][2] - origin}]
    for index, (_wall, ops) in enumerate(reps):
        rep_id = len(spans) + 1
        spans.append({"id": rep_id, "parent": 1, "name": "suite.rep",
                      "profiled": index == profiled,
                      "start_s": ops[0][1] - origin, "end_s": ops[-1][2] - origin})
        for key, t0, t1 in ops:
            spans.append({"id": len(spans) + 1, "parent": rep_id,
                          "name": "suite.op", "op": key,
                          "start_s": t0 - origin, "end_s": t1 - origin})
    doc = {"workload": name, "per_layer": per_layer, "spans": spans}
    if wl.telemetry is not None:
        doc["serve_trace"] = wl.telemetry.export()
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def traced_repetition(name: str, wl: Any, judge: Any,
                      untraced: List[Tuple[float, List[Any]]], smoke: bool,
                      trace_path: str) -> Dict[str, float]:
    per_layer: Dict[str, float] = {
        "req_p99_ms": min(measure.rep_summary(wall, spans)["req_p99_ms"]
                          for wall, spans in untraced)}
    reps = list(untraced)
    if wl.server is not None:
        per_layer.update(serve_decomposition(wl, judge))
    wall, spans, layers = profiled_repetition(wl, judge)
    profiled = len(reps)
    reps.append((wall, spans))
    per_layer.update(layers)
    if wl.counts:
        # Counted apart from the profile: the live counters need the
        # world's metrics registry on, which would show up as obs calls.
        wl.counting = True
        reps.append(measure.repetition(wl, judge))
        wl.counting = False
        per_layer.update(wl.counters)
    per_layer["trace.overhead_ratio"] = wall / statistics.median(
        w for w, _spans in untraced)
    per_layer.update(layer_probes(0.05 if smoke else 0.5,
                                  os.path.join(os.path.dirname(trace_path),
                                               f"cache-probe-{name}")))
    if name == "init-1k":
        size = workloads.SIZES[name]["smoke" if smoke else "full"]
        per_layer.update(dsim_probe(size, judge))
    write_trace(trace_path, name, reps, profiled, per_layer, wl)
    return per_layer
