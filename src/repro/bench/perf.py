"""Wall-clock benchmark suite: fast-path engine vs compat reference.

Measures events/second on canonical workloads, once on the default
fast-path scheduler and once on ``Engine(compat=True)`` (the pure-heap
reference), and reports the speedup.  Two kinds of cases:

* **scheduler-bound kernels** (``fence-storm``, ``comm-dup``): distilled
  from the two hottest runtime patterns — the PMIx fence fan-in
  (staggered arrivals, a timed wait per participant whose watchdog timer
  is canceled on completion, then a same-timestamp release cascade) and
  the CID-allocation chains behind ``MPI_Comm_dup`` (long zero-delay
  message round-trips punctuated by daemon hops).  These isolate the
  engine + trampoline, which is where the fast paths live, and carry the
  ISSUE's >= 2x acceptance bar.
* **full-stack scenarios** (``recovery-soak``, ``fig3-init``): end-to-end
  runs of the real middleware stack.  Most of their wall-clock is
  app-layer Python (collectives, PMIx bookkeeping), so the scheduler
  speedup is diluted — they are tracked for trend, not held to 2x.

Every case also cross-checks determinism: the fast and compat runs must
execute exactly the same number of engine events (the golden-trace tests
prove the stronger byte-identical-ordering property).

``python -m repro bench`` is the CLI; ``benchmarks/test_perf.py`` asserts the
speedup bars; ``tests/bench/test_perf_smoke.py`` runs a tiny guard in
tier-1.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.simtime.engine import Engine
from repro.simtime.primitives import SimEvent
from repro.simtime.process import SLEEP0, SimProcess, Sleep, Wait


def _spawn(engine: Engine, gen, name: str = "") -> SimProcess:
    proc = SimProcess(engine, gen, name)
    proc.defuse()
    proc.start()
    return proc


# ---------------------------------------------------------------------------
# scheduler-bound kernels
# ---------------------------------------------------------------------------
def fence_storm(compat: bool, procs: int = 64, rounds: int = 120) -> int:
    """PMIx-fence fan-in kernel; returns events executed.

    Per round, each participant arrives after a per-rank stagger (heap
    traffic at distinct timestamps), blocks in a *timed* wait — arming a
    watchdog timer that completion cancels, the retransmission-timer
    pattern that motivated lazy deletion — and the last arrival releases
    everyone into a same-timestamp drain chain (ready-lane traffic).
    """
    engine = Engine(compat=compat)
    state = {"count": 0, "event": SimEvent()}

    def rank(r: int):
        for rnd in range(rounds):
            yield Sleep((r + 1) * 1e-8)
            state["count"] += 1
            if state["count"] == procs:
                event = state["event"]
                state["event"] = SimEvent()
                state["count"] = 0
                event.succeed(rnd)
            else:
                # The stagger makes arrival order strict, so the fence
                # completes long before the watchdog: every timer here
                # is armed and then canceled.
                yield Wait(state["event"], timeout=1.0)
            # Post-release cascade: grpcomm release -> per-client PMIx
            # notify -> completion callbacks, all at the same instant.
            for _ in range(10):
                yield SLEEP0
    for r in range(procs):
        _spawn(engine, rank(r), f"rank{r}")
    engine.run()
    return engine.events_executed


def comm_dup(compat: bool, procs: int = 32, dups: int = 100) -> int:
    """CID-allocation chain kernel; returns events executed.

    Models the ``MPI_Comm_dup`` hot loop: each dup is a burst of
    zero-delay allocation round-trips (agreement messages landing at the
    same instant) followed by one short daemon hop.  Almost pure
    ready-lane + trampoline traffic.
    """
    engine = Engine(compat=compat)

    def rank(r: int):
        for _ in range(dups):
            for _ in range(10):
                yield SLEEP0
            yield Sleep(1e-7)
    for r in range(procs):
        _spawn(engine, rank(r), f"rank{r}")
    engine.run()
    return engine.events_executed


# ---------------------------------------------------------------------------
# full-stack scenarios
# ---------------------------------------------------------------------------
def recovery_soak(compat: bool, seeds: int = 3) -> int:
    """End-to-end chaos soak (repro.recovery) across a few seeds."""
    from repro.recovery import soak_run

    events = 0
    for seed in range(seeds):
        events += soak_run(seed, engine_compat=compat)["events"]
    return events


def fig3_init(compat: bool, nodes: int = 2, ppn: int = 4) -> int:
    """The paper's Fig 3 Sessions-init scenario, fully instrumented."""
    from repro.obs.scenarios import run_scenario

    run = run_scenario("fig3-init", nodes=nodes, ppn=ppn,
                       engine_compat=compat)
    return run.cluster.engine.events_executed


def fig3_init_1k(compat: bool, nodes: int = 64, ppn: int = 16) -> int:
    """Fig 3 Sessions-init at cluster scale (default 1024 simulated
    ranks) — the large-scale point the paper's evaluation is about.
    Same scenario as ``fig3-init``; split out as its own case so the
    committed trajectory tracks the big configuration explicitly."""
    return fig3_init(compat, nodes=nodes, ppn=ppn)


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------
@dataclass
class BenchCase:
    name: str
    fn: Callable[..., int]          # fn(compat, **params) -> events executed
    params: Dict[str, int]
    quick_params: Dict[str, int]
    min_speedup: Optional[float]    # acceptance bar, None = tracked only

    def run(self, compat: bool, quick: bool) -> int:
        return self.fn(compat, **(self.quick_params if quick else self.params))


CASES: List[BenchCase] = [
    BenchCase("fence-storm", fence_storm,
              dict(procs=64, rounds=120), dict(procs=16, rounds=20),
              min_speedup=2.0),
    BenchCase("comm-dup", comm_dup,
              dict(procs=32, dups=100), dict(procs=8, dups=20),
              min_speedup=2.0),
    BenchCase("recovery-soak", recovery_soak,
              dict(seeds=3), dict(seeds=1), min_speedup=None),
    BenchCase("fig3-init", fig3_init,
              dict(nodes=4, ppn=8), dict(nodes=2, ppn=2), min_speedup=None),
    BenchCase("fig3-init-1k", fig3_init_1k,
              dict(nodes=64, ppn=16), dict(nodes=16, ppn=8),
              min_speedup=None),
]


def measure(fn: Callable[[], int], repeats: int = 3):
    """Best-of-``repeats`` wall time for one run of ``fn``.

    Best-of (not mean) because scheduler noise is strictly additive:
    the fastest observed run is the closest estimate of the true cost.
    """
    best = float("inf")
    events = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        ev = fn()
        dt = time.perf_counter() - t0
        if events is None:
            events = ev
        elif ev != events:
            raise RuntimeError(f"nondeterministic event count: {ev} != {events}")
        if dt < best:
            best = dt
    return events, best


def run_case(case: BenchCase, *, quick: bool = False,
             repeats: int = 3) -> Dict[str, object]:
    """Measure one case fast vs compat; returns the result record."""
    ev_fast, t_fast = measure(lambda: case.run(False, quick), repeats)
    ev_compat, t_compat = measure(lambda: case.run(True, quick), repeats)
    if ev_fast != ev_compat:
        raise RuntimeError(
            f"{case.name}: fast/compat event counts diverge "
            f"({ev_fast} != {ev_compat}) — determinism contract broken"
        )
    return {
        "kind": "scheduler",
        "params": case.quick_params if quick else case.params,
        "events": ev_fast,
        "fast_s": t_fast,
        "compat_s": t_compat,
        "fast_eps": ev_fast / t_fast,
        "compat_eps": ev_compat / t_compat,
        "speedup": t_compat / t_fast,
        "min_speedup": case.min_speedup,
    }


# ---------------------------------------------------------------------------
# partitioned cases: one world, N worker processes (repro.dsim)
# ---------------------------------------------------------------------------
@dataclass
class PartitionedCase:
    """Serial vs partitioned execution of one full-stack workload.

    A different axis from the scheduler cases: both sides run the
    fast-path engine; the measured ratio is single-process wall time
    over N-worker conservative-parallel wall time.  ``min_speedup`` is
    a real-parallelism claim, so it is only *enforced* when the host
    actually has at least ``partitions`` cores (the committed record
    carries ``cores`` so the context of every measurement is explicit —
    see docs/performance.md, "Partitioned execution").
    """

    name: str
    params: Dict[str, int]          # nodes, ppn, partitions
    quick_params: Dict[str, int]
    min_speedup: Optional[float]


PARTITIONED_CASES: List[PartitionedCase] = [
    PartitionedCase("fig3-init-1k-p4",
                    dict(nodes=64, ppn=16, partitions=4),
                    dict(nodes=16, ppn=4, partitions=4),
                    min_speedup=2.0),
    PartitionedCase("fig3-init-4k",
                    dict(nodes=256, ppn=16, partitions=4),
                    dict(nodes=32, ppn=4, partitions=4),
                    min_speedup=None),
]


def _partitioned_spec(nodes: int, ppn: int):
    from repro.api import SimSpec
    from repro.machine.presets import jupiter
    from repro.ompi.config import MpiConfig

    return SimSpec(nprocs=nodes * ppn, machine=jupiter(nodes), ppn=ppn,
                   config=MpiConfig.sessions_prototype())


def run_partitioned_case(case: PartitionedCase, *, quick: bool = False,
                         repeats: int = 3) -> Dict[str, object]:
    """Measure one case serially vs partitioned; returns the record.

    Both sides run untraced (tracing skews a wall-clock claim) and must
    execute exactly the same number of engine events — the dsim
    bit-equivalence contract, cross-checked here on every measurement.
    """
    from repro import dsim
    from repro.api import make_world
    from repro.obs.scenarios import _sessions_init_main

    p = case.quick_params if quick else case.params
    nodes, ppn, nparts = p["nodes"], p["ppn"], p["partitions"]
    spec = _partitioned_spec(nodes, ppn)

    def serial() -> int:
        world = make_world(spec=spec)
        procs = world.spawn_ranks(_sessions_init_main)
        world.run()
        for proc in procs:
            if proc.exception is not None:
                raise proc.exception
        return world.cluster.engine.events_executed

    shape: Dict[str, int] = {}

    def partitioned() -> int:
        res = dsim.run_partitioned(spec.replace(partitions=nparts),
                                   _sessions_init_main)
        res.raise_first_failure()
        shape["windows"] = res.windows
        shape["boundary_msgs"] = res.boundary_msgs
        return res.events

    ev_serial, t_serial = measure(serial, repeats)
    ev_part, t_part = measure(partitioned, repeats)
    if ev_serial != ev_part:
        raise RuntimeError(
            f"{case.name}: serial/partitioned event counts diverge "
            f"({ev_serial} != {ev_part}) — dsim equivalence contract broken"
        )
    cores = os.cpu_count() or 1
    return {
        "kind": "partitioned",
        "params": p,
        "events": ev_serial,
        "partitions": nparts,
        "cores": cores,
        "windows": shape["windows"],
        "boundary_msgs": shape["boundary_msgs"],
        "serial_s": t_serial,
        "partitioned_s": t_part,
        "serial_eps": ev_serial / t_serial,
        "partitioned_eps": ev_part / t_part,
        "speedup": t_serial / t_part,
        "min_speedup": case.min_speedup,
        "enforced": case.min_speedup is not None and cores >= nparts,
    }


def run_case_point(case: str, quick: bool = False,
                   repeats: int = 3) -> Dict[str, object]:
    """Sweep-friendly wrapper (module-level, picklable): run one named
    case and return its result record — what ``python -m repro bench --jobs``
    fans across processes via :mod:`repro.sweep`."""
    lookup = {c.name: c for c in CASES}
    if case in lookup:
        return run_case(lookup[case], quick=quick, repeats=repeats)
    part_lookup = {c.name: c for c in PARTITIONED_CASES}
    return run_partitioned_case(part_lookup[case], quick=quick,
                                repeats=repeats)


def check_regression(report: Dict[str, object], baseline: Dict[str, object],
                     tolerance: float = 0.2) -> List[str]:
    """Regression gate: compare a fresh bench report to a committed one.

    Returns a list of human-readable failures (empty = gate passes):

    * a case present in the baseline but absent from the report —
      coverage must never silently shrink;
    * an event-count drift at identical params — the determinism
      contract is exact, so any drift is a hard failure regardless of
      tolerance;
    * a speedup below ``baseline * (1 - tolerance)`` — wall-clock noise
      is real, so only the relative trajectory is gated.  For the
      ``partitioned``/``fleet`` kinds the speedup is compared only when
      both records ran on the same core count *and* both were enforced
      (the host could actually parallelize); un-enforced records keep
      the deterministic checks only.

    Speedups are only comparable like-for-like: gate a full run against
    a full baseline (``python -m repro bench --check``); a quick-vs-full
    comparison still runs but skips the event check (params differ).
    """
    failures: List[str] = []
    base_cases = baseline.get("cases", {})
    cur_cases = report.get("cases", {})
    for name in sorted(base_cases):
        base = base_cases[name]
        rec = cur_cases.get(name)
        if rec is None:
            failures.append(f"{name}: case missing from current report")
            continue
        if base.get("kind", "scheduler") != rec.get("kind", "scheduler"):
            failures.append(
                f"{name}: case kind changed "
                f"{base.get('kind', 'scheduler')!r} -> "
                f"{rec.get('kind', 'scheduler')!r}; speedups are only "
                f"comparable within a kind"
            )
            continue
        if base.get("params") == rec.get("params") \
                and base.get("events") != rec.get("events"):
            failures.append(
                f"{name}: event count drifted {base.get('events')} -> "
                f"{rec.get('events')} at identical params (determinism "
                f"contract; not subject to tolerance)"
            )
        if rec.get("kind") in ("partitioned", "fleet"):
            # A partitioned (or fleet-scaling) speedup is a property of
            # the host's core count; comparing across hosts gates
            # nothing meaningful.  Un-enforced records (no bar, or a
            # host that cannot run the workers in parallel) are honest
            # trajectory tracking, not gates — their wall-clock ratio
            # is noise-bound, so only the deterministic checks apply.
            if rec.get("cores") != base.get("cores"):
                continue
            if not (rec.get("enforced") and base.get("enforced")):
                continue
        floor = base["speedup"] * (1.0 - tolerance)
        if rec["speedup"] < floor:
            failures.append(
                f"{name}: speedup {rec['speedup']:.2f}x fell below "
                f"baseline {base['speedup']:.2f}x minus {tolerance:.0%} "
                f"tolerance (floor {floor:.2f}x)"
            )
    return failures


def run_bench(*, quick: bool = False, repeats: int = 3,
              cases: Optional[List[str]] = None) -> Dict[str, object]:
    """Run the suite; returns the BENCH_*.json payload."""
    selected = [c for c in CASES if cases is None or c.name in cases]
    results = {case.name: run_case(case, quick=quick, repeats=repeats)
               for case in selected}
    for case in PARTITIONED_CASES:
        if cases is None or case.name in cases:
            results[case.name] = run_partitioned_case(case, quick=quick,
                                                      repeats=repeats)
    return {
        "bench": "engine-fast-path",
        "mode": "quick" if quick else "full",
        "repeats": repeats,
        "python": sys.version.split()[0],
        "cases": results,
    }


def ledger_records(report: Dict[str, object]) -> List[Dict[str, object]]:
    """One :class:`repro.obs.RunLedger` row per bench case.

    ``python -m repro bench --ledger`` appends these (``kind="bench"``), so the
    run ledger holds the whole measured history next to the serve and
    sweep rows — every perf claim traceable to a recorded run.
    """
    rows: List[Dict[str, object]] = []
    for name in sorted(report.get("cases", {})):
        rec = report["cases"][name]
        if rec.get("kind") == "partitioned":
            detail = {
                "events": rec["events"],
                "speedup": rec["speedup"],
                "serial_s": rec["serial_s"],
                "partitions": rec["partitions"],
                "cores": rec["cores"],
                "mode": report.get("mode"),
            }
            wall = rec["partitioned_s"]
        else:
            detail = {
                "events": rec["events"],
                "speedup": rec["speedup"],
                "compat_s": rec["compat_s"],
                "mode": report.get("mode"),
            }
            wall = rec["fast_s"]
        rows.append({
            "kind": "bench",
            "scenario": name,
            "status": "ok",
            "wall_s": wall,
            "detail": detail,
        })
    return rows
