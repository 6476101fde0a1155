"""Generalized inter-daemon data exchange ("grpcomm").

This is the all-to-all substrate paper §III-A says PMIx groups and
fences ride on.  Two wire strategies are provided:

* ``"tree"`` (default): contributions flow up a radix tree rooted at the
  lowest participating node, the root optionally obtains a Process Group
  Context ID from the HNP, and the combined result is broadcast back
  down — the "three-stage hierarchical fashion" of the paper once the
  node-local gather done by the PMIx server is counted as stage one.
* ``"flat"``: every daemon sends its contribution directly to every
  other participant.  Kept as an ablation (DESIGN.md §4.3) to show why
  the hierarchy matters at scale.

Each daemon owns one :class:`GrpcommModule`; collective instances are
keyed by an opaque signature that all participants derive identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional

from repro.pmix.wire import SizedDict
from repro.simtime.primitives import SimEvent
from repro.simtime.trace import track_for_daemon


@dataclass
class GrpcommResult:
    """Outcome of one allgather: merged payloads + optional context id.

    ``status`` is 0 on success; a nonzero (PMIx) status means the
    collective was abandoned — e.g. a participating daemon died — and
    ``data`` is not meaningful.
    """

    data: Dict[Any, Any]
    context_id: Optional[int] = None
    status: int = 0


@dataclass
class _Instance:
    sig: Hashable
    participants: List[int] = field(default_factory=list)
    need_context_id: bool = False
    contribution: Optional[Dict] = None
    child_payloads: Dict[int, Dict] = field(default_factory=dict)
    early_up: List[Dict] = field(default_factory=list)   # ups before contribute()
    early_flat: List[Dict] = field(default_factory=list)
    early_down: List[Dict] = field(default_factory=list)  # downs before contribute()
    flat_received: Dict[int, Dict] = field(default_factory=dict)
    completed: SimEvent = field(default_factory=SimEvent)
    up_sent: bool = False
    awaiting_pgcid: bool = False
    obs_span: int = 0                  # prrte.grpcomm.allgather span
    # Recovery mode: traffic from peers that already healed onto a
    # smaller participant list than ours — replayed once we restart.
    pending_restart: List[Dict] = field(default_factory=list)


class GrpcommModule:
    """Per-daemon collective engine. ``daemon`` supplies rml/node/dvm."""

    def __init__(self, daemon, mode: str = "tree", radix: int = 2) -> None:
        if mode not in ("tree", "flat"):
            raise ValueError(f"unknown grpcomm mode {mode!r}")
        if radix < 1:
            raise ValueError("radix must be >= 1")
        self.daemon = daemon
        self.mode = mode
        self.radix = radix
        self._instances: Dict[Hashable, _Instance] = {}
        # Signatures already completed/aborted: late or duplicated
        # messages for them (possible under fault injection) are ignored
        # instead of resurrecting an empty instance.
        self._done_sigs: set = set()
        # Recovery mode (docs/recovery.md): instead of failing in-flight
        # collectives on a daemon death, restart them over the healed
        # topology.  Set by Cluster(recovery=True).
        self.recovery = False
        self.restarts = 0
        # Completed results kept (recovery only) so a participant that
        # restarts after we already finished can be re-answered with the
        # *same* data and context id instead of hanging.
        self._results: Dict[Hashable, GrpcommResult] = {}

    # -- public API ------------------------------------------------------
    def allgather(
        self,
        sig: Hashable,
        participants: List[int],
        contribution: Dict,
        need_context_id: bool = False,
    ) -> SimEvent:
        """Contribute to collective ``sig`` over daemon nodes ``participants``.

        Returns an event that succeeds with a :class:`GrpcommResult` once
        every participant's payload (and the PGCID, if requested) has
        arrived at this daemon.
        """
        participants = sorted(participants)
        if self.recovery:
            # Exclude nodes this daemon already knows are dead; peers
            # that learn later converge via _restart_instance, and the
            # parts gating below keeps mismatched generations apart.
            participants = [
                n for n in participants
                if n == self.daemon.node or not self.daemon.is_node_down(n)
            ]
        if self.daemon.node not in participants:
            raise ValueError(
                f"daemon {self.daemon.node} not in participants {participants}"
            )
        inst = self._get(sig)
        if inst.contribution is not None:
            raise RuntimeError(f"duplicate contribution for signature {sig!r}")
        inst.participants = participants
        inst.need_context_id = need_context_id
        # Sized once, where it was built (the PMIx server hands one in);
        # every payload that carries it from here on adds sizes up.
        inst.contribution = SizedDict.of(contribution)
        tr = self.daemon.engine.tracer
        if tr.enabled:
            inst.obs_span = tr.begin(
                self.daemon.engine.now, track_for_daemon(self.daemon.node),
                "prrte.grpcomm.allgather", mode=self.mode,
                nodes=len(participants), cid=need_context_id,
            )
        # Replay any traffic that arrived before we knew the shape.
        for payload in inst.early_up:
            gate = self._parts_gate(inst, payload)
            if gate == "accept":
                self._accept_up(inst, payload)
            elif gate == "defer":
                inst.pending_restart.append(payload)
        inst.early_up.clear()
        for payload in inst.early_flat:
            if self._parts_gate(inst, payload) == "accept":
                self._accept_flat(inst, payload)
        inst.early_flat.clear()
        if inst.early_down:
            payload = inst.early_down[0]
            inst.early_down.clear()
            self._forward_down(inst, payload["data"], payload["context_id"])
            return inst.completed

        if len(participants) == 1:
            self._single_node_complete(inst)
        elif self.mode == "tree":
            self._try_send_up(inst)
        else:
            self._flat_broadcast(inst)
            self._check_flat_done(inst)
        return inst.completed

    # -- message handlers (called by the daemon's dispatcher) --------------
    def _parts_gate(self, inst: _Instance, payload: Dict) -> str:
        """Decide what to do with a contribution given its sender's view
        of the participant list (recovery mode only).

        Same list -> accept.  Sender healed onto a *smaller* list than
        ours -> defer (we have not processed the death yet; replay after
        our own restart).  Sender on a *larger* list -> drop: that is
        stale pre-death traffic, and the sender will resend once its own
        instance restarts.
        """
        if not self.recovery:
            return "accept"
        parts = payload.get("parts")
        if parts is None or list(parts) == list(inst.participants):
            return "accept"
        if len(parts) < len(inst.participants):
            return "defer"
        return "drop"

    def handle_up(self, msg) -> None:
        sig = msg.payload["sig"]
        if sig in self._done_sigs:
            if self.recovery and sig in self._results:
                # A peer restarted after we finished: re-answer with the
                # cached result so every survivor sees the same data and
                # context id.
                res = self._results[sig]
                self.daemon.send(
                    msg.payload["from_node"], "grpcomm_down",
                    {"sig": sig, "data": res.data, "context_id": res.context_id},
                )
            return
        inst = self._get(sig)
        if inst.contribution is None:
            inst.early_up.append(msg.payload)
            return
        gate = self._parts_gate(inst, msg.payload)
        if gate == "defer":
            inst.pending_restart.append(msg.payload)
            return
        if gate == "drop":
            return
        self._accept_up(inst, msg.payload)
        self._try_send_up(inst)

    def handle_down(self, msg) -> None:
        if msg.payload["sig"] in self._done_sigs:
            return
        inst = self._get(msg.payload["sig"])
        if inst.contribution is None:
            # Possible only under fault injection (delayed up + fast
            # path elsewhere); replayed when allgather() is called.
            inst.early_down.append(msg.payload)
            return
        self._forward_down(inst, msg.payload["data"], msg.payload["context_id"])

    def handle_flat(self, msg) -> None:
        if msg.payload["sig"] in self._done_sigs:
            return
        inst = self._get(msg.payload["sig"])
        if inst.contribution is None:
            inst.early_flat.append(msg.payload)
            return
        if self._parts_gate(inst, msg.payload) != "accept":
            return
        self._accept_flat(inst, msg.payload)
        self._check_flat_done(inst)

    def handle_pgcid_resp(self, msg) -> None:
        inst = self._instances.get(msg.payload["sig"])
        if inst is None or not inst.awaiting_pgcid:
            return
        inst.awaiting_pgcid = False
        self._root_dispatch(inst, msg.payload["context_id"])

    # -- tree mechanics ----------------------------------------------------
    def _index(self, inst: _Instance) -> int:
        return inst.participants.index(self.daemon.node)

    def _children(self, inst: _Instance) -> List[int]:
        idx = self._index(inst)
        n = len(inst.participants)
        lo = self.radix * idx + 1
        return [inst.participants[i] for i in range(lo, min(lo + self.radix, n))]

    def _parent(self, inst: _Instance) -> Optional[int]:
        idx = self._index(inst)
        if idx == 0:
            return None
        return inst.participants[(idx - 1) // self.radix]

    def _accept_up(self, inst: _Instance, payload: Dict) -> None:
        inst.child_payloads[payload["from_node"]] = payload["data"]

    def _try_send_up(self, inst: _Instance) -> None:
        if inst.up_sent or inst.contribution is None:
            return
        children = self._children(inst)
        if any(ch not in inst.child_payloads for ch in children):
            return
        combined = SizedDict.union(
            [inst.contribution] + [inst.child_payloads[ch] for ch in children]
        )
        inst.up_sent = True
        parent = self._parent(inst)
        if parent is None:
            self._root_complete(inst, combined)
        else:
            payload = {"sig": inst.sig, "from_node": self.daemon.node, "data": combined}
            if self.recovery:
                # Only in recovery mode: the extra field changes the
                # wire size, and non-recovery timing must stay byte-
                # identical to the pre-recovery code path.
                payload["parts"] = list(inst.participants)
            self.daemon.send(parent, "grpcomm_up", payload)

    def _root_complete(self, inst: _Instance, combined: Dict) -> None:
        inst.child_payloads["__combined__"] = combined
        if inst.need_context_id:
            hnp = self.daemon.dvm.hnp_node
            if self.daemon.node == hnp:
                pgcid = self.daemon.dvm.allocate_pgcid()
                delay = self.daemon.machine.pgcid_allocate_cost
                self.daemon.engine.call_later(
                    delay, lambda: self._root_dispatch(inst, pgcid)
                )
            else:
                inst.awaiting_pgcid = True
                self.daemon.send(hnp, "pgcid_req", {"sig": inst.sig, "reply_to": self.daemon.node})
        else:
            self._root_dispatch(inst, None)

    def _root_dispatch(self, inst: _Instance, context_id: Optional[int]) -> None:
        combined = inst.child_payloads["__combined__"]
        self._forward_down(inst, combined, context_id)

    def _forward_down(self, inst: _Instance, data: Dict, context_id: Optional[int]) -> None:
        if self.mode == "tree":
            targets = list(self._children(inst))
            if self.recovery and not inst.up_sent:
                # Completing via a down without ever having sent our up
                # (possible only around a restart): our healed parent is
                # still waiting for us, so push the result to it too.
                # Downs for finished signatures are ignored, so this can
                # only unstick the spine, never corrupt it.
                parent = self._parent(inst)
                if parent is not None:
                    targets.append(parent)
            for ch in targets:
                self.daemon.send(
                    ch, "grpcomm_down", {"sig": inst.sig, "data": data, "context_id": context_id}
                )
        self._complete(inst, GrpcommResult(data=data, context_id=context_id))

    # -- flat mechanics ------------------------------------------------------
    def _flat_broadcast(self, inst: _Instance) -> None:
        for node in inst.participants:
            if node != self.daemon.node:
                payload = {"sig": inst.sig, "from_node": self.daemon.node,
                           "data": inst.contribution}
                if self.recovery:
                    payload["parts"] = list(inst.participants)
                self.daemon.send(node, "grpcomm_flat", payload)

    def _accept_flat(self, inst: _Instance, payload: Dict) -> None:
        inst.flat_received[payload["from_node"]] = payload["data"]

    def _check_flat_done(self, inst: _Instance) -> None:
        others = [n for n in inst.participants if n != self.daemon.node]
        if any(n not in inst.flat_received for n in others):
            return
        combined = SizedDict.union(
            [inst.contribution or {}] + list(inst.flat_received.values())
        )
        if inst.need_context_id:
            # Flat mode still needs one authoritative PGCID: the lowest
            # participant asks the HNP and redistributes.
            root = inst.participants[0]
            if self.daemon.node == root:
                inst.child_payloads["__combined__"] = combined
                self._root_complete_flat(inst)
            # Non-roots wait for the root's grpcomm_down carrying the id.
            else:
                inst.child_payloads["__combined__"] = combined
        else:
            self._complete(inst, GrpcommResult(data=combined))

    def _root_complete_flat(self, inst: _Instance) -> None:
        hnp = self.daemon.dvm.hnp_node
        if self.daemon.node == hnp:
            pgcid = self.daemon.dvm.allocate_pgcid()
            self.daemon.engine.call_later(
                self.daemon.machine.pgcid_allocate_cost,
                lambda: self._flat_distribute(inst, pgcid),
            )
        else:
            inst.awaiting_pgcid = True
            self.daemon.send(hnp, "pgcid_req", {"sig": inst.sig, "reply_to": self.daemon.node})

    def _flat_distribute(self, inst: _Instance, pgcid: int) -> None:
        combined = inst.child_payloads["__combined__"]
        for node in inst.participants:
            if node != self.daemon.node:
                self.daemon.send(
                    node, "grpcomm_down", {"sig": inst.sig, "data": combined, "context_id": pgcid}
                )
        self._complete(inst, GrpcommResult(data=combined, context_id=pgcid))

    # -- shared ---------------------------------------------------------------
    def _single_node_complete(self, inst: _Instance) -> None:
        combined = SizedDict.of(inst.contribution or {})
        inst.child_payloads["__combined__"] = combined
        if inst.need_context_id:
            self._root_complete(inst, combined)
        else:
            self._complete(inst, GrpcommResult(data=combined))

    def _complete(self, inst: _Instance, result: GrpcommResult) -> None:
        if self.mode == "flat" and inst.need_context_id and result.context_id is None:
            # Flat non-root: completion happens via the root's grpcomm_down.
            return
        self._instances.pop(inst.sig, None)
        # It takes a fault (or a recovery restart) for a message to be
        # late or duplicated: a fault-free DVM remembers no signature, so
        # hosting job after job costs it nothing.
        faults = getattr(self.daemon.dvm, "faults", None)
        if self.recovery or faults is None or faults.active:
            self._done_sigs.add(inst.sig)
        if self.recovery and result.status == 0:
            self._results[inst.sig] = result
        if inst.obs_span:
            self.daemon.engine.tracer.end(self.daemon.engine.now, inst.obs_span)
        inst.completed.succeed(result)

    def _get(self, sig: Hashable) -> _Instance:
        inst = self._instances.get(sig)
        if inst is None:
            inst = _Instance(sig=sig)
            self._instances[sig] = inst
        return inst

    # -- fault handling ----------------------------------------------------
    def node_down(self, node: int) -> None:
        """A participating daemon died.

        Default: every in-flight instance whose participant list names
        the dead node completes with an error status — the PMIx server
        above translates that into error releases for its waiting
        clients.  In recovery mode (tree only) the instance instead
        *restarts* over the healed topology and completes normally,
        with the dead node's procs marked aborted in the result.
        """
        from repro.pmix.types import PMIX_ERR_PROC_ABORTED

        for sig, inst in list(self._instances.items()):
            if not inst.participants or node not in inst.participants:
                continue
            if self.recovery and self.mode == "tree" and inst.contribution is not None:
                self._restart_instance(inst, node)
                continue
            self._instances.pop(sig, None)
            self._done_sigs.add(sig)
            if inst.obs_span:
                self.daemon.engine.tracer.end(self.daemon.engine.now, inst.obs_span)
            if not inst.completed.triggered:
                inst.completed.succeed(
                    GrpcommResult(data={}, status=PMIX_ERR_PROC_ABORTED)
                )

    def _restart_instance(self, inst: _Instance, down: int) -> None:
        """Re-run an in-flight collective over the survivors.

        Every survivor independently derives the same healed participant
        list, resets its up/flat state, substitutes aborted markers for
        the dead node's procs, and replays the reduction.  Deferred
        contributions from peers that healed before us are replayed;
        stale pre-death traffic is discarded by the parts gating.
        """
        from repro.pmix.types import ABORTED_MARKER, PmixProc

        inst.participants = [n for n in inst.participants if n != down]
        inst.up_sent = False
        inst.awaiting_pgcid = False
        inst.child_payloads = {}
        inst.flat_received = {}
        self.restarts += 1
        tr = self.daemon.engine.tracer
        if tr.enabled:
            tr.event(self.daemon.engine.now, track_for_daemon(self.daemon.node),
                     "recovery.grpcomm.restart", sig=str(inst.sig), down=down,
                     survivors=len(inst.participants))
        # Stand in aborted markers for the dead node's procs so the
        # merged result names them as failed.  Every survivor injects
        # the same markers, so dict merges stay consistent.
        server = self.daemon.pmix_server
        if server is not None and inst.contribution is not None:
            nspaces = {p.nspace for p in inst.contribution
                       if hasattr(p, "nspace")}
            markers = {}
            for nspace, rank_map in sorted(server.job_maps.items()):
                if nspaces and nspace not in nspaces:
                    continue
                for rank in sorted(rank_map):
                    if rank_map[rank] == down:
                        markers[PmixProc(nspace, rank)] = ABORTED_MARKER
            inst.contribution = SizedDict.union([inst.contribution, markers])
        pending, inst.pending_restart = inst.pending_restart, []
        for payload in pending:
            gate = self._parts_gate(inst, payload)
            if gate == "accept":
                self._accept_up(inst, payload)
            elif gate == "defer":
                inst.pending_restart.append(payload)
        if len(inst.participants) == 1:
            self._single_node_complete(inst)
        else:
            self._try_send_up(inst)

    def abort_sig(self, sig: Hashable) -> None:
        """Abandon one signature (server-side collective timeout)."""
        self._instances.pop(sig, None)
        self._done_sigs.add(sig)
