"""Deterministic fault injection for the *operational* stack.

``repro.faults`` attacks the simulated world (proc kills, dropped RML
messages — all in simulated time).  This module points the same idea at
the wall-clock operational layer around it: the ``repro.serve`` job
server, its process pool and client, and the on-disk result cache.  A
:class:`ChaosPlan` mirrors :class:`repro.faults.FaultPlan`: a
declarative, seeded schedule of fault actions that fire on the N-th
operation crossing an explicit hook point ("site"), with per-action hit
budgets.

Sites and the kinds that fire there (docs/robustness.md):

=================  ======================================================
``worker.call``    ``kill_worker`` (the pool process is killed before the
                   dispatch, surfacing as :class:`~repro.serve.pool
                   .WorkerDied`), ``hang_worker`` (the call stalls
                   ``delay`` wall seconds first), ``break_pipe`` (the
                   parent end of the worker pipe is closed).
``client.send``    ``drop_conn`` — the client connection dies mid-rpc:
                   ``phase="mid"`` writes half the request line then
                   closes (a torn request the server must ignore);
                   ``phase="after"`` sends the full request and drops
                   before the response (the reply is lost and the
                   client must resubmit).
``cache.put``      ``corrupt_cache`` (the written entry's bytes are
                   damaged mid-file), ``torn_write`` (the entry is
                   truncated half-way, as if the writer died).
=================  ======================================================

The plan is pure bookkeeping and holds no wall-clock or PRNG state of
its own; each hook point consults it with :meth:`ChaosPlan.on`, which
counts the operation and returns the actions that fired.  Counters are
guarded by a lock so one plan may be shared by the client thread and
the server loop thread of an in-process soak.  Every injection is
recorded in :attr:`ChaosPlan.stats` and fanned out to any attached
:class:`~repro.obs.metrics.MetricsRegistry` /
:class:`~repro.obs.events.EventLog` as ``chaos.injected`` metrics and
events, so injected faults are first-class telemetry.

Determinism contract (the headline invariant of ``python -m repro chaos``):
a *survivable* plan — kills within the server's retry budget, connection
drops within the client's resubmit budget, any amount of cache damage —
must leave results byte-identical to a clean run, because every layer it
attacks recomputes or retries deterministically.  :func:`chaos_plan`
derives such a plan from a seed; same seed, same plan, same injections.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import tempfile
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

KINDS = (
    "kill_worker",
    "hang_worker",
    "break_pipe",
    "drop_conn",
    "corrupt_cache",
    "torn_write",
)

#: Hook point each kind fires at.
SITE_OF = {
    "kill_worker": "worker.call",
    "hang_worker": "worker.call",
    "break_pipe": "worker.call",
    "drop_conn": "client.send",
    "corrupt_cache": "cache.put",
    "torn_write": "cache.put",
}

SITES = tuple(sorted(set(SITE_OF.values())))

DROP_PHASES = ("mid", "after")

#: Budgets of a :func:`chaos_plan`: worker kills (``kill_worker`` and
#: ``break_pipe``) and connection drops, each within what the soak's
#: server and client retry.
MAX_KILLS = 2
MAX_DROPS = 2


@dataclass
class ChaosAction:
    """One scheduled operational fault.

    Fires at its kind's site either on the ``after_count``-th matching
    operation (1-based, once), or — with ``after_count=None`` — on every
    matching operation up to ``max_hits`` (``None`` = unlimited, e.g. a
    worker pool where every dispatch dies).  ``scenario`` restricts
    matching to operations carrying that scenario name.
    """

    kind: str
    after_count: Optional[int] = None   # fire on the Nth matching op (1-based)
    max_hits: Optional[int] = 1         # budget when not count-triggered
    scenario: Optional[str] = None      # match only ops for this scenario
    delay: float = 0.0                  # hang_worker: stall seconds
    phase: str = "mid"                  # drop_conn: "mid" | "after" the send
    # runtime counters (owned by the plan, not user input)
    seen: int = field(default=0, compare=False)
    hits: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown chaos kind {self.kind!r} (have {KINDS})")
        if self.kind == "hang_worker" and self.delay <= 0.0:
            raise ValueError("hang_worker needs delay > 0")
        if self.kind == "drop_conn" and self.phase not in DROP_PHASES:
            raise ValueError(f"drop_conn phase must be one of {DROP_PHASES}")
        if self.after_count is not None and self.after_count < 1:
            raise ValueError("after_count is 1-based (>= 1)")

    @property
    def site(self) -> str:
        return SITE_OF[self.kind]

    def observe(self, scenario: Optional[str] = None) -> bool:
        """Count one matching operation; True if the action fires on it."""
        if self.scenario is not None and scenario != self.scenario:
            return False
        self.seen += 1
        if self.after_count is not None:
            if self.seen != self.after_count:
                return False
        elif self.max_hits is not None and self.hits >= self.max_hits:
            return False
        self.hits += 1
        return True

    def describe(self) -> str:
        bits = [self.kind]
        for name in ("after_count", "scenario"):
            v = getattr(self, name)
            if v is not None:
                bits.append(f"{name}={v}")
        if self.after_count is None and self.max_hits != 1:
            bits.append(f"max_hits={self.max_hits}")
        if self.kind == "hang_worker":
            bits.append(f"delay={self.delay}")
        if self.kind == "drop_conn":
            bits.append(f"phase={self.phase}")
        return " ".join(bits)


class ChaosPlan:
    """An ordered schedule of :class:`ChaosAction`s with run-scoped
    counters: install one plan instance per run (like ``FaultPlan``).

    Hook points call :meth:`on`; recorders attached with :meth:`attach`
    see every injection as a ``chaos.injected`` metric/event.
    """

    def __init__(self, actions: Optional[List[ChaosAction]] = None) -> None:
        self.actions: List[ChaosAction] = []
        self.stats: Counter = Counter()
        self._lock = threading.Lock()
        self._recorders: List[Tuple[Any, Any]] = []   # (metrics, events)
        for act in actions or []:
            self.add(act)

    def add(self, action: ChaosAction) -> "ChaosPlan":
        if not isinstance(action, ChaosAction):
            raise TypeError(f"expected ChaosAction, got {type(action).__name__}")
        self.actions.append(action)
        return self

    def attach(self, *, metrics: Any = None, events: Any = None) -> "ChaosPlan":
        """Record every future injection in a metrics registry and/or an
        event log (both optional; callable multiple times — e.g. by the
        server and a test harness)."""
        if metrics is not None or events is not None:
            self._recorders.append((metrics, events))
        return self

    # -- the hook-point API -------------------------------------------------
    def on(self, site: str, scenario: Optional[str] = None,
           **ctx: Any) -> List[ChaosAction]:
        """Consulted by a hook point for one operation at ``site``.

        Counts the operation against every action of that site and
        returns the actions that fired (usually zero or one).  ``ctx``
        is recorder-only context (worker id, cache key, ...).
        """
        fired: List[ChaosAction] = []
        with self._lock:
            for act in self.actions:
                if act.site != site:
                    continue
                if act.observe(scenario):
                    fired.append(act)
            for act in fired:
                self.stats[act.kind] += 1
        for act in fired:
            self._record(site, act, scenario, ctx)
        return fired

    def _record(self, site: str, act: ChaosAction,
                scenario: Optional[str], ctx: Dict[str, Any]) -> None:
        for metrics, events in self._recorders:
            if metrics is not None:
                metrics.inc("chaos.injected", kind=act.kind, site=site)
            if events is not None:
                events.emit("chaos.injected", kind=act.kind, site=site,
                            scenario=scenario, **ctx)

    @property
    def injected(self) -> int:
        """Total injections so far, across all kinds."""
        return sum(self.stats.values())

    # -- convenience constructors (mirror FaultPlan) ------------------------
    def kill_worker(self, **kw: Any) -> "ChaosPlan":
        return self.add(ChaosAction("kill_worker", **kw))

    def hang_worker(self, delay: float, **kw: Any) -> "ChaosPlan":
        return self.add(ChaosAction("hang_worker", delay=delay, **kw))

    def break_pipe(self, **kw: Any) -> "ChaosPlan":
        return self.add(ChaosAction("break_pipe", **kw))

    def drop_conn(self, phase: str = "mid", **kw: Any) -> "ChaosPlan":
        return self.add(ChaosAction("drop_conn", phase=phase, **kw))

    def corrupt_cache(self, **kw: Any) -> "ChaosPlan":
        return self.add(ChaosAction("corrupt_cache", **kw))

    def torn_write(self, **kw: Any) -> "ChaosPlan":
        return self.add(ChaosAction("torn_write", **kw))

    def describe(self) -> str:
        return "; ".join(act.describe() for act in self.actions) or "<empty plan>"

    def __len__(self) -> int:
        return len(self.actions)


def chaos_plan(
    seed: int,
    *,
    n_actions: int = 5,
    kinds: Optional[Tuple[str, ...]] = None,
    ops_window: int = 10,
) -> ChaosPlan:
    """A seed-deterministic *survivable* plan: same arguments, same plan.

    Survivable means every injection stays inside the hardening budgets
    the soak servers/clients run with (docs/robustness.md): at most
    :data:`MAX_KILLS` worker kills and :data:`MAX_DROPS` connection
    drops, each pinned to a distinct operation index in ``[1,
    ops_window]`` so no single request can accumulate more faults than
    its retry budget absorbs, plus unbounded-damage-but-harmless cache
    corruption and short worker hangs.  Results under such a plan must be
    byte-identical to a clean run.
    """
    rng = random.Random(f"chaos-plan:{seed}")
    pool = list(kinds or KINDS)
    plan = ChaosPlan()
    kills = drops = 0
    free: Dict[str, List[int]] = {
        site: list(range(1, ops_window + 1)) for site in SITES
    }

    def pick(site: str) -> Optional[int]:
        if not free[site]:
            return None
        n = rng.choice(free[site])
        free[site].remove(n)
        return n

    for _ in range(n_actions):
        kind = rng.choice(pool)
        if kind in ("kill_worker", "break_pipe"):
            n = pick("worker.call")
            if kills >= MAX_KILLS or n is None:
                continue
            plan.add(ChaosAction(kind, after_count=n))
            kills += 1
        elif kind == "hang_worker":
            n = pick("worker.call")
            if n is None:
                continue
            plan.hang_worker(rng.uniform(0.01, 0.05), after_count=n)
        elif kind == "drop_conn":
            n = pick("client.send")
            if drops >= MAX_DROPS or n is None:
                continue
            plan.drop_conn(rng.choice(DROP_PHASES), after_count=n)
            drops += 1
        elif kind in ("corrupt_cache", "torn_write"):
            n = pick("cache.put")
            if n is None:
                continue
            plan.add(ChaosAction(kind, after_count=n))
    return plan


# ---------------------------------------------------------------------------
# The chaos soak (python -m repro chaos)
# ---------------------------------------------------------------------------
def _digest(obj: Any) -> str:
    """sha256 of the canonical JSON — byte-parity is digest equality."""
    import hashlib     # kept off the import path of a plain simulation

    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def soak_point(x: int = 0, seed: int = 0) -> Dict[str, Any]:
    """The sweep soak's unit of work: pure, fast, picklable, seeded."""
    rng = random.Random(f"chaos-soak:{seed}:{x}")
    vals = [round(rng.random(), 12) for _ in range(8)]
    return {"x": x, "seed": seed, "sum": round(sum(vals), 12), "vals": vals}


def serve_soak(seed: int, workdir: str, *, requests: int = 4,
               nprocs: int = 4) -> Dict[str, Any]:
    """One serve-layer soak leg: clean run vs. injected run, byte-checked.

    The injected run attacks the pool (worker kills, pipe breaks, hangs)
    and the client connection (mid-line and post-send drops) with a
    :func:`chaos_plan` sized inside the hardening budgets: server
    ``retry_limit=3`` absorbs the at-most-2 kills, client ``retries=4``
    absorbs the at-most-2 drops, and the breaker threshold sits above
    every possible death count so degraded mode never engages.  The
    single sequential client makes the operation order — and therefore
    the injection schedule — deterministic for a given seed.
    """
    from repro.api import SimSpec
    from repro.serve import ServeClient, ServerThread

    spec = SimSpec(nprocs=nprocs).to_payload()

    def drive(client: ServeClient) -> List[Any]:
        out = []
        for k in range(requests):
            r = client.submit("sim", {"spec": spec, "program": "allreduce",
                                      "seed": k})
            out.append({"status": r.get("status"), "result": r.get("result")})
        return out

    with ServerThread(workers=2,
                      cache_dir=os.path.join(workdir, f"clean-{seed}")) as srv:
        with ServeClient(srv.address) as client:
            clean = drive(client)

    plan = chaos_plan(seed, kinds=("kill_worker", "hang_worker",
                                   "break_pipe", "drop_conn"))
    with ServerThread(workers=2, retry_limit=3, retry_seed=seed,
                      breaker_threshold=1000, chaos=plan,
                      cache_dir=os.path.join(workdir, f"chaos-{seed}")) as srv:
        with ServeClient(srv.address, retries=4, retry_seed=seed,
                         chaos=plan) as client:
            injected = drive(client)
            reconnects = client.reconnects
        deaths = srv.server.stats.worker_deaths

    return {
        "clean_digest": _digest(clean),
        "chaos_digest": _digest(injected),
        "ok": _digest(clean) == _digest(injected),
        "injected": dict(sorted(plan.stats.items())),
        "worker_deaths": deaths,
        "client_reconnects": reconnects,
    }


def sweep_soak(seed: int, workdir: str, *, points_n: int = 6,
               jobs: int = 2) -> Dict[str, Any]:
    """One sweep-layer soak leg: cache corruption under a parallel sweep.

    Pass 1 runs with a chaos-wired cache (torn and corrupted writes
    land on disk); pass 2 re-reads that damaged cache with a clean
    one — every damaged entry must be quarantined and recomputed.  Both
    passes must be byte-identical to the cache-less clean run.
    """
    from repro.sweep import SweepCache, SweepPoint, run_sweep

    pts = [SweepPoint("chaos-soak", soak_point, {"x": i, "seed": seed})
           for i in range(points_n)]
    clean = run_sweep(pts)
    plan = chaos_plan(seed, kinds=("corrupt_cache", "torn_write"),
                      n_actions=4, ops_window=points_n)
    cdir = os.path.join(workdir, f"sweepcache-{seed}")
    damaged = SweepCache(cdir, chaos=plan)
    first = run_sweep(pts, jobs=jobs, cache=damaged)
    reread = SweepCache(cdir)
    second = run_sweep(pts, jobs=jobs, cache=reread)
    d_clean = _digest(clean)
    return {
        "clean_digest": d_clean,
        "chaos_digest": _digest(first),
        "reread_digest": _digest(second),
        "ok": d_clean == _digest(first) == _digest(second),
        "injected": dict(sorted(plan.stats.items())),
        "quarantined": reread.corrupt,
    }


def soak_run(seed: int, *, workdir: Optional[str] = None, requests: int = 4,
             points_n: int = 6, nprocs: int = 4) -> Dict[str, Any]:
    """One full chaos-soak run (the ``chaos-soak`` CLI unit): the serve
    leg plus the sweep leg for one seed; ``ok`` iff both held byte
    parity.  ``digest`` summarizes every deterministic field, so a
    ``--verify-determinism`` re-run must reproduce it exactly."""
    own = workdir is None
    if own:
        workdir = tempfile.mkdtemp(prefix=f"chaos-soak-{seed}-")
    try:
        serve = serve_soak(seed, workdir, requests=requests, nprocs=nprocs)
        sweep = sweep_soak(seed, workdir, points_n=points_n)
    finally:
        if own:
            shutil.rmtree(workdir, ignore_errors=True)
    rec = {"seed": seed, "ok": serve["ok"] and sweep["ok"],
           "serve": serve, "sweep": sweep}
    rec["digest"] = _digest(rec)
    return rec


def degraded_run(workdir: Optional[str] = None) -> Dict[str, Any]:
    """The corrupt-cache + dead-worker scenario (acceptance criterion):
    the server must end up *degraded* — answering cached requests,
    rejecting uncached ones with a ``degraded`` reason — instead of
    crashing, and the corrupt entry must be quarantined."""
    from repro.api import SimSpec
    from repro.serve import ServeClient, ServerThread
    from repro.sweep import cache_key

    own = workdir is None
    if own:
        workdir = tempfile.mkdtemp(prefix="chaos-degraded-")
    cache_dir = os.path.join(workdir, "cache")
    state_dir = os.path.join(workdir, "flaky")
    spec = SimSpec(nprocs=2).to_payload()
    params_a = {"spec": spec, "program": "allreduce", "seed": 1}
    params_b = {"spec": spec, "program": "allreduce", "seed": 2}
    try:
        with ServerThread(workers=1, cache_dir=cache_dir, retry_limit=0,
                          breaker_threshold=2,
                          breaker_cooldown_s=3600.0) as srv:
            with ServeClient(srv.address) as client:
                ok_a = client.submit("sim", params_a)
                ok_b = client.submit("sim", params_b)
                # Damage B's entry on disk behind the server's back.
                path = os.path.join(cache_dir,
                                    cache_key("sim", params_b) + ".json")
                with open(path, "r+") as fh:
                    fh.seek(max(0, os.path.getsize(path) // 2))
                    fh.write("\x00chaos\x00")
                # Two hard worker deaths with no retry budget: the
                # breaker trips on the second.
                dead_1 = client.submit("flaky", {"state_dir": state_dir,
                                                 "key": "x", "crashes": 9})
                dead_2 = client.submit("flaky", {"state_dir": state_dir,
                                                 "key": "y", "crashes": 9})
                health = client.health()
                hit = client.submit("sim", params_a)        # cached: served
                miss = client.submit("sim", params_b)       # corrupt: rejected
            quarantined = os.path.exists(path + ".corrupt")
            trips = srv.server.stats.breaker_trips
    finally:
        if own:
            shutil.rmtree(workdir, ignore_errors=True)
    reason = str(miss.get("reason", ""))
    record = {
        "precache_ok": (ok_a.get("status"), ok_b.get("status")) == ("ok", "ok"),
        "deaths_errored": (dead_1.get("status") == "error"
                           and dead_2.get("status") == "error"),
        "degraded_in_health": bool(health.get("degraded")),
        "cached_served_while_degraded": (hit.get("status") == "ok"
                                         and bool(hit.get("cached"))),
        "uncached_rejected": miss.get("status") == "rejected",
        "reject_reason": reason,
        "quarantined": quarantined,
        "breaker_trips": trips,
    }
    record["ok"] = all([
        record["precache_ok"], record["deaths_errored"],
        record["degraded_in_health"], record["cached_served_while_degraded"],
        record["uncached_rejected"], reason.startswith("degraded"),
        record["quarantined"], trips == 1,
    ])
    return record

