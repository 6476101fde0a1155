"""Fleet front door: a consistent-hash router over SimServer shards.

The router speaks the same newline-JSON protocol as the shards (so a
:class:`~repro.serve.client.ServeClient` cannot tell it from a single
server) and forwards every ``submit`` to the shard owning the request's
``cache_key(scenario, params)`` on a :class:`HashRing`.  Identical
submissions therefore always land on the same shard, which makes PR 8's
per-server single-flight dedup *fleet-wide by construction*: the second
concurrent submit of a key coalesces on its owner shard, wherever in
the fleet it entered.

Failover (docs/serving.md, "Fleet mode"): a forward that hits a dead
shard marks it dead on the ring and retries the same key on the ring
*successor* — bounded movement, only the dead shard's keys move.  With
every shard dead the router degrades to a structured ``rejected``
answer, composing with the PR 8 circuit-breaker semantics (a degraded
shard already rejects uncached submits itself).

Observability: routing decisions are counted under ``serve.fleet.*``
(``routed`` per shard, ``failover``, ``shards`` live-gauge) and each
forward runs inside a ``serve.route`` span on the router's telemetry
track, joining the client-minted trace-id flow of PR 7.
"""

from __future__ import annotations

import asyncio
import bisect
from dataclasses import replace
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.live import LiveTelemetry
from repro.obs.metrics import MetricsRegistry
from repro.obs.prom import prometheus_text
from repro.serve import protocol
from repro.serve.client import AsyncServeClient, ServeConnectionError
from repro.serve.endpoint import HISTOGRAM_MAX_SAMPLES, Endpoint
from repro.sweep import cache_key


def _ring_hash(text: str) -> int:
    import hashlib     # kept off the import path of a plain simulation

    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


class HashRing:
    """Consistent hashing with virtual nodes.

    Each node is placed at ``replicas`` pseudo-random points on a
    2^64 ring (sha256 of ``"{node}:{i}"``); a key belongs to the first
    point clockwise from its own hash.  Properties the fleet relies on
    (proven in tests/serve/test_fleet.py):

    * adding a node moves keys only *onto* the new node;
    * removing a node moves only *its* keys (to their successors);
    * expected movement is ~K/(N+1) of K keys for N nodes either way.
    """

    def __init__(self, nodes: Sequence[Any] = (), *, replicas: int = 64) -> None:
        if replicas < 1:
            raise ValueError("need at least one replica per node")
        self.replicas = replicas
        self._points: List[Tuple[int, Any]] = []
        self._nodes: set = set()
        for node in nodes:
            self.add(node)

    def add(self, node: Any) -> None:
        if node in self._nodes:
            return
        self._nodes.add(node)
        for i in range(self.replicas):
            self._points.append((_ring_hash(f"{node}:{i}"), node))
        self._points.sort()

    def remove(self, node: Any) -> None:
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        self._points = [p for p in self._points if p[1] != node]

    @property
    def nodes(self) -> frozenset:
        return frozenset(self._nodes)

    def owner(self, key: str, *, dead: frozenset = frozenset()) -> Any:
        """The live node owning ``key`` (ring successor skips ``dead``).

        Raises :class:`LookupError` when the ring is empty or every
        node is dead."""
        if not self._points:
            raise LookupError("hash ring is empty")
        h = _ring_hash(key)
        start = bisect.bisect_right(self._points, (h, object())) % len(self._points)
        seen: set = set()
        for off in range(len(self._points)):
            node = self._points[(start + off) % len(self._points)][1]
            if node in seen:
                continue
            seen.add(node)
            if node not in dead:
                return node
        raise LookupError("no live node on the ring")


class FleetRouter(Endpoint):
    """The routing process: one asyncio server, N shard connections.

    ``shards`` maps shard id -> :class:`~repro.serve.protocol
    .ServeAddress`.  Connections to shards are lazy, one multiplexing
    :class:`AsyncServeClient` per shard, re-dialed after failures.
    ``on_kill`` is the chaos hook's victim-killer (the fleet wires it
    to actually stop a shard when a ``kill_shard`` action fires at the
    ``fleet.route`` site).
    """

    def __init__(self, shards: Dict[int, protocol.ServeAddress], *,
                 address: Optional[protocol.ServeAddress] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 telemetry: Optional[LiveTelemetry] = None,
                 chaos: Any = None,
                 on_kill: Optional[Callable[[int], Awaitable[None]]] = None,
                 replicas: int = 64) -> None:
        if not shards:
            raise ValueError("a fleet needs at least one shard")
        address = protocol.as_address(address, caller="FleetRouter")
        if address.role == "server":
            address = replace(address, role="router")
        super().__init__(address)
        self.shards = dict(shards)
        self.metrics = metrics or MetricsRegistry(
            enabled=True, histogram_max_samples=HISTOGRAM_MAX_SAMPLES)
        self.tel = telemetry if (telemetry is not None
                                 and telemetry.enabled) else None
        self.chaos = chaos
        if chaos is not None:
            chaos.attach(metrics=self.metrics)
        self.on_kill = on_kill
        self.ring = HashRing(sorted(self.shards), replicas=replicas)
        self.dead: set = set()
        self.routed: Dict[int, int] = {sid: 0 for sid in self.shards}
        self.failovers = 0
        self._clients: Dict[int, AsyncServeClient] = {}
        self._dial_locks: Dict[int, asyncio.Lock] = {}
        self.metrics.set("serve.fleet.shards", len(self.shards))

    # -- lifecycle -----------------------------------------------------------
    async def _teardown(self) -> None:
        for client in list(self._clients.values()):
            await client.close()
        self._clients.clear()

    # -- shard connections ---------------------------------------------------
    async def _client(self, sid: int) -> AsyncServeClient:
        # One dial at a time per shard: concurrent forwards must share
        # a connection, not orphan each other's read loops.
        lock = self._dial_locks.setdefault(sid, asyncio.Lock())
        async with lock:
            client = self._clients.get(sid)
            if client is not None and client._dead is None:
                return client
            if client is not None:
                await client.close()
                self._clients.pop(sid, None)
            client = await AsyncServeClient.connect(self.shards[sid],
                                                    retries=0)
            self._clients[sid] = client
            return client

    def _mark_dead(self, sid: int) -> None:
        if sid in self.dead:
            return
        self.dead.add(sid)
        self.failovers += 1
        self.metrics.inc("serve.fleet.failover")
        self.metrics.set("serve.fleet.shards",
                         len(self.shards) - len(self.dead))

    @property
    def live_shards(self) -> List[int]:
        return [sid for sid in sorted(self.shards) if sid not in self.dead]

    # -- routing -------------------------------------------------------------
    def _route_key(self, msg: Dict[str, Any]) -> str:
        scenario = msg.get("scenario")
        params = msg.get("params") or {}
        try:
            return cache_key(str(scenario), params if isinstance(params, dict)
                             else {})
        except (TypeError, ValueError):
            # Uncacheable params still need a deterministic owner.
            return f"{scenario}:{sorted(str(params))}"

    async def _forward(self, sid: int, msg: Dict[str, Any]) -> Dict[str, Any]:
        client = await self._client(sid)
        return await client.request(msg)

    async def _route_submit(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        scenario = msg.get("scenario")
        key = self._route_key(msg)
        if self.chaos is not None:
            for act in self.chaos.on("fleet.route", scenario=scenario):
                if (act.kind == "kill_shard" and self.on_kill is not None
                        and self.live_shards):
                    await self.on_kill(
                        self.ring.owner(key, dead=frozenset(self.dead)))
        tel = self.tel
        sid_span = None
        if tel is not None:
            sid_span = tel.begin("fleet:router", "serve.route",
                                 trace=str(msg.get("trace") or ""),
                                 scenario=scenario)
        try:
            while True:
                try:
                    sid = self.ring.owner(key, dead=frozenset(self.dead))
                except LookupError:
                    response = {"status": protocol.STATUS_REJECTED,
                                "reason": "fleet degraded: no live shards"}
                    if tel is not None:
                        tel.annotate(sid_span, status="rejected")
                    return response
                try:
                    response = await self._forward(sid, msg)
                except (ServeConnectionError, ConnectionError, OSError):
                    self._mark_dead(sid)
                    continue            # fail the key over to the successor
                self.routed[sid] += 1
                self.metrics.inc("serve.fleet.routed", shard=str(sid))
                response = dict(response)
                # The shard echoed the *router's* request id; the
                # endpoint restores the client's own id (or none at all).
                response.pop("id", None)
                response["shard"] = sid
                response["forwarded"] = True
                if tel is not None:
                    tel.annotate(sid_span, shard=sid,
                                 status=response.get("status"))
                return response
        finally:
            if tel is not None:
                tel.end(sid_span)

    async def _fanout(self, msg: Dict[str, Any]) -> Dict[int, Dict[str, Any]]:
        """Send ``msg`` to every live shard; map shard id -> response."""
        out: Dict[int, Dict[str, Any]] = {}
        for sid in self.live_shards:
            try:
                out[sid] = await self._forward(sid, msg)
            except (ServeConnectionError, ConnectionError, OSError):
                self._mark_dead(sid)
        return out

    # -- ops -----------------------------------------------------------------
    async def _dispatch(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        bad_version = protocol.check_version(msg)
        if bad_version is not None:
            return dict(bad_version)
        op = msg.get("op")
        if op == "submit":
            return await self._route_submit(msg)
        if op == "stats":
            return await self._op_stats(msg)
        if op == "health":
            return await self._op_health(msg)
        if op == "metrics":
            return {"status": protocol.STATUS_OK,
                    "prometheus": prometheus_text(self.metrics)}
        if op == "drain":
            replies = await self._fanout({"op": "drain"})
            ok = all(r.get("status") == protocol.STATUS_OK
                     for r in replies.values())
            return {"status": protocol.STATUS_OK if ok
                    else protocol.STATUS_ERROR,
                    "drained": ok, "shards": sorted(replies)}
        if op == "resize":
            replies = await self._fanout({"op": "resize",
                                          "workers": msg.get("workers")})
            ok = all(r.get("status") == protocol.STATUS_OK
                     for r in replies.values())
            if not ok:
                bad = dict(next(r for r in replies.values()
                                if r.get("status") != protocol.STATUS_OK))
                bad.pop("id", None)
                return bad
            return {"status": protocol.STATUS_OK,
                    "workers": {str(sid): r.get("workers")
                                for sid, r in replies.items()}}
        if op == "shutdown":
            await self._fanout({"op": "shutdown"})
            asyncio.get_running_loop().call_soon(
                lambda: asyncio.ensure_future(self.stop()))
            return {"status": protocol.STATUS_OK, "stopping": True}
        return {"status": protocol.STATUS_ERROR,
                "error": f"unknown op {op!r}; have: {', '.join(protocol.OPS)}"}

    async def _op_stats(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        replies = await self._fanout({"op": "stats"})
        per_shard = {str(sid): r.get("stats", {})
                     for sid, r in replies.items()}
        totals = {"submitted": 0, "ok": 0, "errors": 0, "rejected": 0,
                  "expired": 0, "coalesced": 0}
        for s in per_shard.values():
            for k in totals:
                totals[k] += int(s.get(k, 0))
        return {
            "status": protocol.STATUS_OK,
            "stats": {
                "fleet": {
                    "shards": len(self.shards),
                    "live": len(self.live_shards),
                    "routed": {str(sid): n for sid, n in self.routed.items()},
                    "failovers": self.failovers,
                    **totals,
                },
                "per_shard": per_shard,
            },
        }

    async def _op_health(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        replies = await self._fanout({"op": "health"})
        live = [sid for sid, r in replies.items()
                if r.get("status") == protocol.STATUS_OK]
        return {
            "status": (protocol.STATUS_OK if live
                       else protocol.STATUS_ERROR),
            "protocol_v": protocol.VERSION,
            "role": "router",
            "shards": len(self.shards),
            "live": len(live),
            "dead": sorted(self.dead),
            "per_shard": {str(sid): r for sid, r in replies.items()},
        }
