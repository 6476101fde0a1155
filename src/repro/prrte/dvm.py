"""The distributed virtual machine: one daemon per node plus the HNP.

The DVM boots before any job runs (the paper launched with the ``prte``
daemon and ``prun``).  Daemon 0 doubles as the Head Node Process (HNP),
which owns the global PGCID allocator — the "resource manager" that the
PMIx group extension says assigns the unique 64-bit context ids.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional

from repro.machine.model import MachineModel
from repro.prrte.grpcomm import GrpcommModule
from repro.prrte.rml import RmlMessage, RoutingLayer
from repro.simtime.engine import Engine
from repro.simtime.trace import track_for_daemon


class Daemon:
    """Per-node runtime daemon: RML endpoint + grpcomm + local PMIx server."""

    def __init__(
        self,
        dvm: "DVM",
        node: int,
        grpcomm_mode: str = "tree",
        grpcomm_radix: int = 2,
    ) -> None:
        self.dvm = dvm
        self.node = node
        self.engine: Engine = dvm.engine
        self.machine: MachineModel = dvm.machine
        self.grpcomm = GrpcommModule(self, mode=grpcomm_mode, radix=grpcomm_radix)
        self.pmix_server = None  # attached by PmixServer.__init__
        self.alive = True
        self.known_down: set = set()   # nodes this daemon knows are dead
        self.heals = 0                 # routing-tree re-parent events here
        self._handlers: Dict[str, Callable[[RmlMessage], None]] = {
            "grpcomm_up": self.grpcomm.handle_up,
            "grpcomm_down": self.grpcomm.handle_down,
            "grpcomm_flat": self.grpcomm.handle_flat,
            "pgcid_req": self._handle_pgcid_req,
            "pgcid_resp": self.grpcomm.handle_pgcid_resp,
            "daemon_down": self._handle_daemon_down,
        }
        dvm.rml.register(node, self.deliver)

    def send(self, dst_node: int, tag: str, payload: Dict[str, Any]) -> None:
        self.dvm.rml.send(RmlMessage(src=self.node, dst=dst_node, tag=tag, payload=payload))

    def deliver(self, msg: RmlMessage) -> None:
        handler = self._handlers.get(msg.tag)
        if handler is None:
            raise KeyError(f"daemon {self.node}: no handler for tag {msg.tag!r}")
        handler(msg)

    def add_handler(self, tag: str, handler: Callable[[RmlMessage], None]) -> None:
        """Register an extra dispatch tag (used by the PMIx server)."""
        if tag in self._handlers:
            raise ValueError(f"handler for {tag!r} already registered")
        self._handlers[tag] = handler

    # -- daemon failure propagation ---------------------------------------
    def is_node_down(self, node: int) -> bool:
        return node in self.known_down

    def _handle_daemon_down(self, msg: RmlMessage) -> None:
        self.daemon_down(msg.payload["node"])

    # -- healed routing tree (docs/recovery.md) ----------------------------
    def survivors(self) -> List[int]:
        """Node ids this daemon believes are alive, sorted."""
        return [n for n in range(self.machine.num_nodes) if n not in self.known_down]

    def tree_parent(self) -> Optional[int]:
        """This daemon's parent in the radix tree over the survivor list.

        Every survivor computes the same sorted survivor list, so the
        healed topology is a deterministic function of the death set —
        no election protocol needed.  Returns ``None`` at the root.
        """
        alive = self.survivors()
        idx = alive.index(self.node)
        if idx == 0:
            return None
        return alive[(idx - 1) // self.grpcomm.radix]

    def tree_children(self) -> List[int]:
        """This daemon's children in the healed radix tree."""
        alive = self.survivors()
        idx = alive.index(self.node)
        radix = self.grpcomm.radix
        lo = radix * idx + 1
        return alive[lo:lo + radix]

    def daemon_down(self, down: int) -> None:
        """Learn (and relay) that a daemon died.

        The announcement fans out over a static radix tree rooted at the
        HNP (grpcomm's radix, over all node ids) — each daemon relays to
        its tree children, then repairs its own state: in-flight grpcomm
        instances involving the dead node complete with an error (or
        restart over the survivors, in recovery mode), and the local
        PMIx server evicts the node's procs.
        """
        if down in self.known_down:
            return
        old_parent = self.tree_parent() if self.alive else None
        self.known_down.add(down)
        if self.alive and self.node not in self.known_down:
            new_parent = self.tree_parent()
            if new_parent != old_parent:
                # This daemon was re-parented by the healed topology.
                self.heals += 1
                tr = self.engine.tracer
                if tr.enabled:
                    tr.event(self.engine.now, track_for_daemon(self.node),
                             "recovery.heal", down=down,
                             old_parent=old_parent, new_parent=new_parent)
        # Relay to tree children; a dead child's subtree is adopted (its
        # children are contacted directly) so the announcement reaches
        # every survivor.
        radix = self.grpcomm.radix
        n = self.machine.num_nodes
        stack = list(range(radix * self.node + 1, min(radix * self.node + 1 + radix, n)))
        while stack:
            child = stack.pop(0)
            if child == down or child in self.known_down:
                stack.extend(range(radix * child + 1, min(radix * child + 1 + radix, n)))
            else:
                self.send(child, "daemon_down", {"node": down})
        self.grpcomm.node_down(down)
        if self.pmix_server is not None:
            self.pmix_server.node_down(down)

    # -- HNP services -----------------------------------------------------
    def _handle_pgcid_req(self, msg: RmlMessage) -> None:
        if self.node != self.dvm.hnp_node:
            raise RuntimeError("pgcid_req routed to non-HNP daemon")
        pgcid = self.dvm.allocate_pgcid()

        def respond() -> None:
            self.send(
                msg.payload["reply_to"],
                "pgcid_resp",
                {"sig": msg.payload["sig"], "context_id": pgcid},
            )

        self.engine.call_later(self.machine.pgcid_allocate_cost, respond)


class DVM:
    """The booted runtime: daemons on every node, HNP on node 0."""

    def __init__(
        self,
        engine: Engine,
        machine: MachineModel,
        grpcomm_mode: str = "tree",
        grpcomm_radix: int = 2,
    ) -> None:
        self.engine = engine
        self.machine = machine
        self.rml = RoutingLayer(engine, machine)
        self.hnp_node = 0
        self._pgcid_counter = itertools.count(1)  # PGCIDs are non-zero
        self.pgcids_allocated = 0
        self.daemons: List[Daemon] = [
            Daemon(self, node, grpcomm_mode, grpcomm_radix)
            for node in range(machine.num_nodes)
        ]
        self._job_counter = itertools.count(1)
        self.fence_retries = 0   # survivor-reissued fences (recovery mode)
        self.boot_time = self._model_boot_time()

    def _model_boot_time(self) -> float:
        """Simulated DVM bootstrap cost (daemons wire up over a tree)."""
        import math

        n = self.machine.num_nodes
        rounds = max(1, math.ceil(math.log2(n + 1)))
        return self.machine.daemon_wireup_cost * rounds

    def allocate_pgcid(self) -> int:
        """Allocate the next 64-bit process-group context id (HNP-only)."""
        self.pgcids_allocated += 1
        pgcid = next(self._pgcid_counter)
        tr = self.engine.tracer
        if tr.enabled:
            from repro.simtime.trace import track_for_daemon

            tr.event(self.engine.now, track_for_daemon(self.hnp_node),
                     "prrte.hnp.pgcid_alloc", pgcid=pgcid)
        return pgcid

    def announce_daemon_down(self, node: int) -> None:
        """HNP detected a dead daemon; start the xcast at the tree root."""
        self.daemon_for(self.hnp_node).daemon_down(node)

    def next_job_name(self) -> str:
        return f"prrte-job-{next(self._job_counter)}"

    def daemon_for(self, node: int) -> Daemon:
        return self.daemons[node]

    def server_for(self, node: int):
        server = self.daemons[node].pmix_server
        if server is None:
            raise RuntimeError(f"no PMIx server attached on node {node}")
        return server
