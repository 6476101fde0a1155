"""A SimServer fleet: N shards, one shared store, one router in front.

:class:`SimFleet` wires the pieces of docs/serving.md's "Fleet mode"
on a single event loop::

                     +-> shard 0 (SimServer) --+
    client -> router-+-> shard 1 (SimServer) --+-> shared ResultStore
                     +-> shard N-1           --+      (hot LRU + disk)

Every shard gets ``shard_id`` and the *same* :class:`~repro.serve
.store.ResultStore` (two-tier, keyed by ``cache_key``); the router
consistent-hashes submits so identical requests land on one shard and
coalesce there (fleet-wide single-flight).  The non-negotiable
invariant — fleet results byte-identical to a single server's for the
same ``SimSpec`` stream — holds because shards run the same scenario
registry on the same deterministic workers; routing only chooses
*where*, never *how*, a request runs.

:class:`FleetThread` mirrors :class:`~repro.serve.server.ServerThread`
for synchronous hosts (tests, the CLI's self-hosted fleet loadgen).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union

from repro.obs.live import LiveTelemetry
from repro.obs.metrics import MetricsRegistry
from repro.serve import protocol
from repro.serve.endpoint import HISTOGRAM_MAX_SAMPLES, LoopThread
from repro.serve.router import FleetRouter
from repro.serve.server import SimServer
from repro.serve.store import ResultStore


class SimFleet:
    """N shards + router + shared store, all on the calling loop.

    ``shards`` is the shard count; ``**shard_kwargs`` pass through to
    every :class:`SimServer` (workers, capacity, retry knobs, chaos...).
    The fleet owns one :class:`ResultStore` (``cache_dir`` feeds its
    disk tier) shared by all shards, and the router's chaos ``on_kill``
    hook is wired to :meth:`kill_shard` so a ``kill_shard`` action at
    the ``fleet.route`` site really does take a shard down.
    """

    def __init__(self, *, shards: int = 2, workers: int = 1,
                 capacity: int = 16,
                 cache_dir: Optional[str] = None,
                 hot_capacity: int = 256,
                 address: Optional[Union[protocol.ServeAddress, str]] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 telemetry: Optional[LiveTelemetry] = None,
                 chaos: Any = None,
                 mp_context: Optional[str] = None,
                 **shard_kwargs: Any) -> None:
        if shards < 1:
            raise ValueError("a fleet needs at least one shard")
        self.n_shards = shards
        self.metrics = metrics or MetricsRegistry(
            enabled=True, histogram_max_samples=HISTOGRAM_MAX_SAMPLES)
        self.store = ResultStore(cache_dir, hot_capacity=hot_capacity,
                                 metrics=self.metrics)
        self.servers: List[SimServer] = [
            SimServer(workers=workers, capacity=capacity,
                      address=protocol.ServeAddress(port=0, role="shard"),
                      store=self.store, shard_id=sid,
                      metrics=self.metrics, mp_context=mp_context,
                      **shard_kwargs)
            for sid in range(shards)
        ]
        self._router_address = protocol.as_address(
            address, default=protocol.ServeAddress(port=0, role="router"),
            caller="SimFleet")
        self._telemetry = telemetry
        self._chaos = chaos
        self.router: Optional[FleetRouter] = None

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> "SimFleet":
        for server in self.servers:
            await server.start()
        self.router = FleetRouter(
            {sid: server.address for sid, server in enumerate(self.servers)},
            address=self._router_address, metrics=self.metrics,
            telemetry=self._telemetry, chaos=self._chaos,
            on_kill=self.kill_shard)
        await self.router.start()
        return self

    async def stop(self) -> None:
        # Shards first: each answers what it had admitted ("server
        # stopped") and the router relays those replies before it is
        # reaped; the other way round the router would sit on its
        # in-flight forwards until the shards finished the work.
        for server in self.servers:
            await server.stop()
        if self.router is not None:
            await self.router.stop()

    async def kill_shard(self, sid: int) -> None:
        """Hard-stop one shard (chaos / failover tests).  The router
        notices on its next forward and fails the keys over."""
        await self.servers[sid].stop()

    # -- addressing ----------------------------------------------------------
    @property
    def address(self) -> protocol.ServeAddress:
        assert self.router is not None, "fleet not started"
        return self.router.address

    # -- reporting -----------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Fleet-level stats: routing, dedup, store tiers, per-shard."""
        per_shard = [server.stats for server in self.servers]
        return {
            "shards": self.n_shards,
            "live": len(self.router.live_shards) if self.router else 0,
            "routed": dict(self.router.routed) if self.router else {},
            "failovers": self.router.failovers if self.router else 0,
            "coalesced": sum(s.coalesced for s in per_shard),
            "ok": sum(s.ok for s in per_shard),
            "submitted": sum(s.submitted for s in per_shard),
            "store": self.store.stats(),
        }


class FleetThread(LoopThread):
    """A :class:`SimFleet` on a private event loop in a thread — the
    synchronous mirror of :class:`~repro.serve.server.ServerThread`::

        with FleetThread(shards=2, workers=1) as fleet:
            client = ServeClient(fleet.address)
    """

    def __init__(self, **fleet_kwargs: Any) -> None:
        super().__init__(lambda: SimFleet(**fleet_kwargs), "serve-fleet")

    @property
    def fleet(self) -> Optional[SimFleet]:
        return self._service
