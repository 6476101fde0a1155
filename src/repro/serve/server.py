"""`repro.serve`: a long-running simulation-serving job server.

Architecture (docs/serving.md)::

    client --line-JSON--> asyncio server --bounded queue--> worker loops
                                                        --> process pool

Admission control is a bounded FIFO queue: a ``submit`` whose queue is
full is *rejected immediately* (backpressure — the client decides to
back off or shed load), so queue depth, and therefore queueing delay,
is bounded by construction.  Each admitted request carries an optional
deadline measured from admission; a request that overstays it — in the
queue or mid-run — answers ``expired`` (mid-run enforcement kills the
worker process).  Transient worker deaths are retried on a fresh
process with seeded exponential backoff, so results stay deterministic:
a served request returns byte-identical payloads to the same point run
through ``repro.sweep`` serially.

Results are memoized through the *same* sha256 on-disk cache the batch
sweeps use (``repro.sweep.SweepCache`` keyed by
``cache_key(scenario, params)``): a request the sweep CLIs already
computed is answered without touching the pool, and vice versa.

Robustness (docs/robustness.md): submits for a cache key already being
computed coalesce onto the in-flight leader (*single-flight*), which is
what makes client resubmits after a dropped reply safe — the retry
never recomputes or double-counts.  A circuit breaker flips the server
into cache-only *degraded* mode after ``breaker_threshold`` consecutive
worker deaths (cache hits still answer; uncached submits are rejected
with a ``degraded`` reason) and half-opens after a cooldown.  An
optional :class:`repro.chaos.ChaosPlan` injects worker kills, pipe
breaks, hangs and cache corruption through the ``worker.call`` and
``cache.put`` hook points.

Everything observable lands in a :class:`repro.obs.metrics
.MetricsRegistry`: queue depth, admission rejections, cache hit rate,
latency histograms (p50/p99 via the ``stats`` op), worker deaths.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Dict, Optional, Union

from repro.obs.events import EventLog
from repro.obs.live import LiveTelemetry, trace_id
from repro.obs.metrics import MetricsRegistry
from repro.obs.prom import prometheus_text
from repro.obs.store import RunLedger
from repro.serve import protocol
from repro.serve.endpoint import HISTOGRAM_MAX_SAMPLES, Endpoint, LoopThread, Reply
from repro.serve.pool import Worker, WorkerDied
from repro.serve.registry import scenario_names, traceable
from repro.sweep import SweepCache, cache_key


@dataclass
class _Request:
    seq: int
    scenario: str
    params: Dict[str, Any]
    deadline_s: Optional[float]
    enq_t: float
    future: "asyncio.Future[Dict[str, Any]]"
    key: str                            # cache_key(scenario, params)
    attempts: int = 0                   # completed (failed) delivery attempts
    trace: str = ""                     # live-telemetry trace id ("" = off)
    sid_queue: Optional[int] = None     # serve.queue span (telemetry only)
    sim_trace: str = ""                 # exported sim-time trace, if any

    def remaining(self, now: float) -> Optional[float]:
        if self.deadline_s is None:
            return None
        return self.deadline_s - (now - self.enq_t)


@dataclass
class ServeStats:
    """Counters the ``stats`` op reports (beyond the metrics registry)."""

    started: float = 0.0
    submitted: int = 0
    ok: int = 0
    errors: int = 0
    rejected: int = 0
    expired: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    retries: int = 0
    worker_deaths: int = 0
    worker_spawns: int = 0
    max_queue_depth: int = 0
    breaker_trips: int = 0
    degraded_rejects: int = 0
    coalesced: int = 0


#: Base of the seeded exponential backoff before a worker-death retry.
RETRY_BASE_S = 0.02

#: What a request is told when the server stops before answering it.
_STOPPED = {"status": protocol.STATUS_ERROR, "error": "server stopped"}


class SimServer(Endpoint):
    """The serving layer: asyncio front, multiprocessing back.

    ``await start()`` spawns the worker loops and binds the socket
    (:class:`~repro.serve.endpoint.Endpoint`); ``address`` then holds
    the bound address (``port=0`` requests an ephemeral port).
    ``workers`` is resizable at runtime via :meth:`resize` (or the
    ``resize`` wire op).
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        capacity: int = 16,
        cache_dir: Optional[str] = None,
        address: Optional[Union[protocol.ServeAddress, str]] = None,
        store: Any = None,
        retry_limit: int = 2,
        retry_seed: int = 0,
        telemetry: Optional[LiveTelemetry] = None,
        event_log: Optional[Union[str, EventLog]] = None,
        ledger: Optional[Union[str, RunLedger]] = None,
        trace_dir: Optional[str] = None,
        chaos: Any = None,
        breaker_threshold: int = 5,
        breaker_cooldown_s: float = 30.0,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        if capacity < 1:
            raise ValueError("need a queue capacity of at least one")
        if breaker_threshold < 1:
            raise ValueError("breaker threshold must be >= 1")
        super().__init__(protocol.as_address(address, caller="SimServer"))
        self.capacity = capacity
        self.retry_limit = retry_limit
        self.retry_seed = retry_seed
        self.metrics = MetricsRegistry(
            enabled=True, histogram_max_samples=HISTOGRAM_MAX_SAMPLES)
        # Live telemetry (docs/observability.md): all four are optional
        # and off by default; each instrumentation site costs exactly
        # one `is not None` branch when disabled.
        self.tel = telemetry if (telemetry is not None
                                 and telemetry.enabled) else None
        self.events = (EventLog(event_log) if isinstance(event_log, str)
                       else event_log)
        self.ledger = (RunLedger(ledger) if isinstance(ledger, str)
                       else ledger)
        # Chaos plan (docs/robustness.md): consulted at worker.call and
        # cache.put; injections show up as chaos.* metrics/events.
        self.chaos = chaos
        if chaos is not None:
            chaos.attach(metrics=self.metrics, events=self.events)
        # Result storage: a caller-built store (a ResultStore, the
        # memory tier) wins over a private SweepCache built from cache_dir.
        if store is not None:
            self.cache = store
        else:
            self.cache = (SweepCache(cache_dir, metrics=self.metrics,
                                     events=self.events, chaos=chaos)
                          if cache_dir else None)
        # Circuit breaker: after `breaker_threshold` consecutive worker
        # deaths the server flips to cache-only degraded mode; after
        # `breaker_cooldown_s` it half-opens (one more death re-trips).
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown_s = breaker_cooldown_s
        self.degraded = False
        self._consec_deaths = 0
        self._breaker_opened = 0.0
        # Single-flight: one in-flight computation per cache key; later
        # submits for the same key await the leader's future (this is
        # what makes client resubmits after a dropped reply safe).
        self._singleflight: Dict[str, "asyncio.Future[Dict[str, Any]]"] = {}
        self.trace_dir = trace_dir
        self._trace_seq = itertools.count(1)   # fallback server-side ids
        self.stats = ServeStats()
        self._target_workers = workers
        self._queue: "asyncio.Queue[_Request]" = asyncio.Queue(maxsize=capacity)
        self._seq = itertools.count()
        self._loops: Dict[int, asyncio.Task] = {}
        self._workers: Dict[int, Worker] = {}
        self._busy: Dict[int, bool] = {}
        self._retiring: set = set()
        self._next_wid = itertools.count()
        self._inflight = 0
        self._draining = False

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> "SimServer":
        self.stats.started = asyncio.get_running_loop().time()
        for _ in range(self._target_workers):
            self._add_loop()
        return await super().start()

    async def _answer_admitted(self) -> None:
        # A cancelled worker loop answers the request it was running
        # (_worker_loop); what never left the queue is answered here.
        loops = list(self._loops.values())
        for task in loops:
            task.cancel()
        await asyncio.gather(*loops, return_exceptions=True)
        self._loops.clear()
        for worker in list(self._workers.values()):
            worker.kill()
        self._workers.clear()
        while not self._queue.empty():
            self._resolve(self._queue.get_nowait(), _STOPPED)

    async def _teardown(self) -> None:
        if self.tel is not None and self.trace_dir is not None:
            self.tel.write(os.path.join(self.trace_dir, "serve-trace.json"))
        if self.events is not None:
            self.events.emit("serve.stopped")
            self.events.close()
        if self.ledger is not None:
            self.ledger.close()

    async def drain(self) -> None:
        """Stop admitting; wait until the queue and the pool are empty."""
        self._draining = True
        while self._queue.qsize() or self._inflight:
            await asyncio.sleep(0.01)

    def resize(self, workers: int) -> int:
        """Grow or shrink the worker pool; returns the new target size."""
        if workers < 1:
            raise ValueError("need at least one worker")
        current = [wid for wid in sorted(self._loops) if wid not in self._retiring]
        if workers > len(current):
            for _ in range(workers - len(current)):
                self._add_loop()
        else:
            for wid in current[workers:]:
                self._retiring.add(wid)
                if not self._busy.get(wid):
                    self._loops[wid].cancel()
        self._target_workers = workers
        return workers

    # -- worker pool ---------------------------------------------------------
    def _add_loop(self) -> None:
        wid = next(self._next_wid)
        self._busy[wid] = False
        self._loops[wid] = asyncio.get_running_loop().create_task(
            self._worker_loop(wid), name=f"serve-loop-{wid}")

    def _ensure_worker(self, wid: int) -> Worker:
        worker = self._workers.get(wid)
        if worker is None or not worker.alive:
            worker = Worker(wid)
            self._workers[wid] = worker
            self.stats.worker_spawns += 1
            self.metrics.inc("serve.worker.spawns")
            if self.events is not None:
                self.events.emit("serve.worker.spawned", wid=wid,
                                 pid=worker.proc.pid)
        return worker

    def _kill_worker(self, wid: int) -> None:
        worker = self._workers.pop(wid, None)
        if worker is not None:
            worker.kill()

    async def _worker_loop(self, wid: int) -> None:
        try:
            while True:
                req = await self._queue.get()
                self._set_depth()
                self._busy[wid] = True
                self._inflight += 1
                try:
                    await self._run_request(req, wid)
                except asyncio.CancelledError:
                    # stop() cancelled this loop mid-run: the client
                    # must not be left waiting on a computation nobody
                    # is going to finish.
                    self._resolve(req, _STOPPED)
                    raise
                finally:
                    self._inflight -= 1
                    self._busy[wid] = False
                if wid in self._retiring:
                    break
        except asyncio.CancelledError:
            if not self._stopping and wid not in self._retiring:
                raise
        finally:
            self._busy.pop(wid, None)
            self._retiring.discard(wid)
            self._loops.pop(wid, None)
            worker = self._workers.pop(wid, None)
            if worker is not None:
                worker.retire()

    async def _run_request(self, req: _Request, wid: int) -> None:
        loop = asyncio.get_running_loop()
        wait_s = loop.time() - req.enq_t
        self.metrics.observe("serve.queue.wait", wait_s)
        tel = self.tel
        if tel is not None:
            if req.sid_queue is not None:
                tel.annotate(req.sid_queue, wait_s=round(wait_s, 6))
                tel.end(req.sid_queue)
            # Flow edge: request track -> the worker track that picked
            # it up, so Perfetto draws the hand-off arrow.
            tel.flow("serve.dispatch", f"req:{req.trace}",
                     f"serve:worker/{wid}", trace=req.trace)
        meta: Optional[Dict[str, Any]] = None
        if (tel is not None and self.trace_dir is not None
                and req.trace and traceable(req.scenario)):
            meta = {"trace": req.trace,
                    "sim_trace": os.path.join(self.trace_dir,
                                              f"sim-{req.trace}.json")}
        while True:
            remaining = req.remaining(loop.time())
            if remaining is not None and remaining <= 0:
                self._expire(req, "deadline passed while queued"
                             if req.attempts == 0
                             else "deadline passed during retry")
                return
            worker = self._ensure_worker(wid)
            run_t0 = loop.time()
            sid_run = None
            if tel is not None:
                sid_run = tel.begin(f"serve:worker/{wid}", "serve.run",
                                    trace=req.trace, scenario=req.scenario,
                                    attempt=req.attempts + 1)
            task = asyncio.ensure_future(
                asyncio.to_thread(worker.call, req.scenario, req.params, meta,
                                  chaos=self.chaos))
            if remaining is not None:
                done, _pending = await asyncio.wait({task}, timeout=remaining)
                if not done:
                    # Mid-run deadline: the only way to stop a compute-
                    # bound scenario is to kill its process; the killed
                    # pipe unblocks the executor thread with WorkerDied.
                    self._kill_worker(wid)
                    try:
                        await task
                    except WorkerDied:
                        pass
                    if tel is not None:
                        tel.annotate(sid_run, outcome="expired")
                        tel.end(sid_run)
                    self._expire(req, "deadline passed mid-run")
                    return
            try:
                kind, payload = await task
            except WorkerDied:
                self._kill_worker(wid)
                self.stats.worker_deaths += 1
                self.metrics.inc("serve.worker.deaths")
                self._note_worker_death()
                if tel is not None:
                    tel.annotate(sid_run, outcome="worker-died")
                    tel.end(sid_run)
                if self.events is not None:
                    self.events.emit("serve.worker.died", wid=wid,
                                     trace=req.trace, scenario=req.scenario,
                                     attempt=req.attempts + 1)
                req.attempts += 1
                if req.attempts > self.retry_limit:
                    self._resolve(req, {
                        "status": protocol.STATUS_ERROR,
                        "error": f"worker died {req.attempts} time(s); "
                                 f"retry budget ({self.retry_limit}) exhausted",
                        "attempts": req.attempts,
                    })
                    return
                self.stats.retries += 1
                self.metrics.inc("serve.retries")
                if self.events is not None:
                    self.events.emit("serve.request.retried", trace=req.trace,
                                     scenario=req.scenario,
                                     attempt=req.attempts)
                await asyncio.sleep(self._backoff(req))
                continue
            self._consec_deaths = 0     # a live worker answered
            run_s = loop.time() - run_t0
            self.metrics.observe("serve.run", run_s)
            if tel is not None:
                if meta is not None and os.path.exists(meta["sim_trace"]):
                    # Cross-link: wall-clock run span -> the simulated-
                    # time trace the worker exported for this request.
                    req.sim_trace = meta["sim_trace"]
                    tel.annotate(sid_run, sim_trace=req.sim_trace)
                tel.annotate(sid_run, outcome=kind)
                tel.end(sid_run)
            if kind == "ok":
                if self.cache is not None:
                    self.cache.put(req.key, payload)
                self._resolve(req, {"status": protocol.STATUS_OK,
                                    "result": payload, "cached": False,
                                    "attempts": req.attempts + 1})
            else:
                self._resolve(req, {"status": protocol.STATUS_ERROR,
                                    "error": payload,
                                    "attempts": req.attempts + 1})
            return

    def _backoff(self, req: _Request) -> float:
        """Seeded exponential backoff with deterministic jitter."""
        rng = random.Random(f"{self.retry_seed}:{req.seq}:{req.attempts}")
        return RETRY_BASE_S * (2 ** (req.attempts - 1)) * (0.5 + 0.5 * rng.random())

    # -- circuit breaker -----------------------------------------------------
    def _note_worker_death(self) -> None:
        self._consec_deaths += 1
        if not self.degraded and self._consec_deaths >= self.breaker_threshold:
            self.degraded = True
            self._breaker_opened = asyncio.get_running_loop().time()
            self.stats.breaker_trips += 1
            self.metrics.inc("serve.breaker.trips")
            if self.events is not None:
                self.events.emit("serve.breaker.opened",
                                 consecutive_deaths=self._consec_deaths,
                                 threshold=self.breaker_threshold)

    def _degraded_active(self, now: float) -> bool:
        """Is cache-only mode in force right now?  Half-opens after the
        cooldown: one probe request reaches the pool, and a single
        further death re-trips immediately."""
        if not self.degraded:
            return False
        if now - self._breaker_opened >= self.breaker_cooldown_s:
            self.degraded = False
            self._consec_deaths = self.breaker_threshold - 1
            if self.events is not None:
                self.events.emit("serve.breaker.half_open")
            return False
        return True

    def _expire(self, req: _Request, why: str) -> None:
        self._resolve(req, {"status": protocol.STATUS_EXPIRED, "reason": why,
                            "attempts": req.attempts})

    def _resolve(self, req: _Request, response: Dict[str, Any]) -> None:
        if not req.future.done():
            req.future.set_result(response)

    def _set_depth(self) -> None:
        depth = self._queue.qsize()
        self.metrics.set("serve.queue.depth", depth)
        if depth > self.stats.max_queue_depth:
            self.stats.max_queue_depth = depth

    # -- ops -----------------------------------------------------------------
    def _dispatch(self, msg: Dict[str, Any]) -> Reply:
        # Runs in the read loop: only a submit that must wait, and a
        # drain, return a coroutine (and get a task).
        bad_version = protocol.check_version(msg)
        if bad_version is not None:
            self.metrics.inc("serve.requests", status="error")
            return dict(bad_version)
        op = msg.get("op")
        if op == "submit":
            return self._op_submit(msg)
        if op == "stats":
            return {"status": protocol.STATUS_OK, "stats": self.snapshot()}
        if op == "health":
            return self._op_health()
        if op == "metrics":
            return {"status": protocol.STATUS_OK,
                    "prometheus": prometheus_text(self.metrics)}
        if op == "drain":
            return self._op_drain()
        if op == "resize":
            try:
                workers = int(msg["workers"])
                return {"status": protocol.STATUS_OK,
                        "workers": self.resize(workers)}
            except (KeyError, TypeError, ValueError) as err:
                return {"status": protocol.STATUS_ERROR,
                        "error": f"bad resize request: {err}"}
        if op == "shutdown":
            asyncio.get_running_loop().call_soon(
                lambda: asyncio.ensure_future(self.stop()))
            return {"status": protocol.STATUS_OK, "stopping": True}
        return {"status": protocol.STATUS_ERROR,
                "error": f"unknown op {op!r}; have: {', '.join(protocol.OPS)}"}

    def _op_submit(self, msg: Dict[str, Any]) -> Reply:
        """validate -> trace id -> probe -> coalesce -> admit, returning
        the response — or, once coalesced or admitted, :meth:`_settle`;
        every answered request leaves through :meth:`_finish`."""
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        scenario = msg.get("scenario")
        params = {} if msg.get("params") is None else msg["params"]
        deadline_s = msg.get("deadline_s")
        self.stats.submitted += 1
        if scenario not in scenario_names():
            return self._bad_request(f"unknown scenario {scenario!r}; "
                                     f"have: {', '.join(scenario_names())}")
        if not isinstance(params, dict):
            return self._bad_request("params must be a JSON object")
        # Straight off the wire: anything but a finite real number (a
        # JSON true is an int to Python, not to a caller) would raise
        # inside the worker loop that does the deadline arithmetic.
        if deadline_s is not None and (
                isinstance(deadline_s, bool)
                or not isinstance(deadline_s, (int, float))
                or not math.isfinite(deadline_s)):
            return self._bad_request("deadline_s must be a number")

        # Trace id: client-minted when present on the wire, else a
        # server fallback — but only when something will consume it.
        trace = str(msg.get("trace") or "")
        tel = self.tel
        if not trace and (tel is not None or self.events is not None
                          or self.ledger is not None):
            trace = trace_id("s", next(self._trace_seq))
        sid = None
        if tel is not None:
            sid = tel.begin(f"req:{trace}", "serve.request",
                            trace=trace, scenario=scenario)

        try:
            key = cache_key(scenario, params)
        except (TypeError, ValueError) as err:
            return self._bad_request(f"params not cacheable: {err}", sid)
        if self.cache is not None:
            hit = self.cache.get(key)
            probe = "hit" if hit is not None else "miss"
            if tel is not None:
                tel.event(f"req:{trace}", "serve.cache.probe", trace=trace,
                          result=probe)
            self.metrics.inc("serve.cache", result=probe)
            if self.events is not None:
                self.events.emit(f"serve.cache.{probe}", trace=trace,
                                 scenario=scenario, digest=key)
            if hit is not None:
                self.stats.cache_hits += 1
                return self._finish(
                    {"status": protocol.STATUS_OK, "result": hit,
                     "cached": True}, t0, scenario, key, trace, sid)
            self.stats.cache_misses += 1

        # Single-flight: if the same cache key is already being computed,
        # coalesce onto the leader's future instead of re-running it —
        # a resubmit after a dropped reply costs no second computation,
        # with or without a store attached.
        leader = self._singleflight.get(key)
        if leader is not None and not leader.done():
            self.stats.coalesced += 1
            self.metrics.inc("serve.coalesced")
            if self.events is not None:
                self.events.emit("serve.request.coalesced", trace=trace,
                                 scenario=scenario, digest=key)
            return self._settle(leader, t0, scenario, key, trace, sid)

        reason = None
        if self._draining or self._stopping:
            reason = "draining"
        elif self._degraded_active(t0):
            reason = "degraded: cache-only mode (circuit breaker open)"
            self.stats.degraded_rejects += 1
        else:
            req = _Request(seq=next(self._seq), scenario=scenario,
                           params=params, deadline_s=deadline_s,
                           enq_t=t0, future=loop.create_future(), key=key,
                           trace=trace)
            if tel is not None:
                # Child span on the same track: Tracer nests it under
                # the still-open serve.request span automatically.
                req.sid_queue = tel.begin(f"req:{trace}", "serve.queue",
                                          trace=trace)
            try:
                self._queue.put_nowait(req)
                self._singleflight[key] = req.future
            except asyncio.QueueFull:
                reason = "queue full"
                if tel is not None:
                    tel.end(req.sid_queue)
                    req.sid_queue = None
        if reason is not None:
            return self._reject(reason, scenario, trace, sid)
        self._set_depth()
        if self.events is not None:
            self.events.emit("serve.request.admitted", trace=trace,
                             scenario=scenario, depth=self._queue.qsize())
        return self._settle(req.future, t0, scenario, key, trace, sid, req)

    async def _settle(self, future: asyncio.Future, t0: float, scenario: str,
                      key: str, trace: str, sid: Optional[int],
                      req: Optional[_Request] = None) -> Dict[str, Any]:
        """Await admitted ``req``'s future, or (no ``req``) the leader's."""
        try:
            response = dict(await future)
        finally:
            if req is not None and self._singleflight.get(key) is future:
                del self._singleflight[key]
        if req is None:
            response["coalesced"] = True
        return self._finish(response, t0, scenario, key, trace, sid, req)

    def _bad_request(self, error: str,
                     sid: Optional[int] = None) -> Dict[str, Any]:
        """A submit refused for its own shape; ``sid`` is its
        ``serve.request`` span when one was already open."""
        self.stats.errors += 1
        self.metrics.inc("serve.requests", status="error")
        if sid is not None:
            self.tel.annotate(sid, status="error")
            self.tel.end(sid)
        return {"status": protocol.STATUS_ERROR, "error": error}

    def _reject(self, reason: str, scenario: str, trace: str,
                sid: Optional[int]) -> Dict[str, Any]:
        """Admission control said no (draining, degraded, queue full)."""
        self.stats.rejected += 1
        self.metrics.inc("serve.requests", status="rejected")
        if sid is not None:
            self.tel.annotate(sid, status="rejected", reason=reason)
            self.tel.end(sid)
        if self.events is not None:
            self.events.emit("serve.request.rejected", trace=trace,
                             scenario=scenario, reason=reason)
        response = {"status": protocol.STATUS_REJECTED, "reason": reason,
                    "capacity": self.capacity}
        if trace:
            response["trace"] = trace
        return response

    def _finish(self, response: Dict[str, Any], t0: float, scenario: str,
                key: str, trace: str, sid: Optional[int],
                req: Optional[_Request] = None) -> Dict[str, Any]:
        """The one epilogue of an answered submit — cache hit, coalesced
        follower and the leader that ran alike; the response itself says
        which (``cached`` / ``coalesced``).  ``req`` is the admitted
        request when this submit was the one that ran (its event carries
        the attempt count, its ledger row the exported sim trace)."""
        latency = asyncio.get_running_loop().time() - t0
        response["latency_s"] = latency
        status = response.get("status")
        if status == protocol.STATUS_OK:
            self.stats.ok += 1
            self.metrics.observe("serve.latency", latency)
        elif status == protocol.STATUS_EXPIRED:
            self.stats.expired += 1
        else:
            self.stats.errors += 1
        self.metrics.inc("serve.requests", status=status)
        cached = response.get("cached") is True
        if sid is not None:
            marks = {k: True for k in ("cached", "coalesced")
                     if response.get(k) is True}
            self.tel.annotate(sid, status=status, **marks)
            self.tel.end(sid)
        if self.events is not None:
            ran = ({} if req is None
                   else {"attempts": response.get("attempts")})
            self.events.emit("serve.request.completed", trace=trace,
                             scenario=scenario, status=status, cached=cached,
                             latency_s=latency, **ran)
        if self.ledger is not None:
            self.ledger.record(kind="serve", scenario=scenario,
                               digest=key, status=str(status),
                               wall_s=latency, cached=cached, trace=trace,
                               trace_path=req.sim_trace if req else "")
        if trace:
            response["trace"] = trace
        return response

    def _op_health(self) -> Dict[str, Any]:
        loop = asyncio.get_running_loop()
        alive = sum(1 for w in self._workers.values() if w.alive)
        return {
            "status": protocol.STATUS_OK,
            "protocol_v": protocol.VERSION,
            "workers": self._target_workers,
            "workers_alive": alive,
            "queue_depth": self._queue.qsize(),
            "capacity": self.capacity,
            "draining": self._draining,
            "degraded": self._degraded_active(loop.time()),
            "breaker": {
                "threshold": self.breaker_threshold,
                "consecutive_deaths": self._consec_deaths,
                "trips": self.stats.breaker_trips,
                "cooldown_s": self.breaker_cooldown_s,
            },
            "uptime_s": loop.time() - self.stats.started,
            "scenarios": scenario_names(),
        }

    async def _op_drain(self) -> Dict[str, Any]:
        await self.drain()
        return {"status": protocol.STATUS_OK, "drained": True,
                "stats": self.snapshot()}

    # -- reporting -----------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable stats: counters + latency percentiles."""
        loop = asyncio.get_running_loop()
        uptime = max(loop.time() - self.stats.started, 1e-9)
        lat = self.metrics.merged_histogram("serve.latency").summary()
        wait = self.metrics.merged_histogram("serve.queue.wait").summary()
        run = self.metrics.merged_histogram("serve.run").summary()
        s = self.stats
        return {
            "uptime_s": uptime,
            "workers": self._target_workers,
            "capacity": self.capacity,
            "queue_depth": self._queue.qsize(),
            "max_queue_depth": s.max_queue_depth,
            "submitted": s.submitted,
            "ok": s.ok,
            "errors": s.errors,
            "rejected": s.rejected,
            "expired": s.expired,
            "retries": s.retries,
            "worker_deaths": s.worker_deaths,
            "worker_spawns": s.worker_spawns,
            "breaker_trips": s.breaker_trips,
            "degraded_rejects": s.degraded_rejects,
            "coalesced": s.coalesced,
            "degraded": self.degraded,
            "cache": {"hits": s.cache_hits, "misses": s.cache_misses,
                      "hit_rate": (s.cache_hits / (s.cache_hits + s.cache_misses)
                                   if (s.cache_hits + s.cache_misses) else 0.0)},
            "throughput_rps": s.ok / uptime,
            "latency_s": lat,
            "queue_wait_s": wait,
            "run_s": run,
        }


class ServerThread(LoopThread):
    """A :class:`SimServer` on a private event loop in a thread — for
    the CLI's self-hosted loadgen, tests, the sync client's examples::

        with ServerThread(workers=2) as srv:
            client = ServeClient(srv.address)
    """

    def __init__(self, **server_kwargs: Any) -> None:
        super().__init__(lambda: SimServer(**server_kwargs), "serve-server")

    @property
    def server(self) -> Optional[SimServer]:
        return self._service
