"""Intercommunicators: communication between two disjoint groups.

Client/server structures (paper §II-C) are the natural users: each side
keeps its own local group, and point-to-point plainly addresses ranks
of the *remote* group.  ``create`` follows MPI_Intercomm_create (two
local leaders bridge through a peer communicator); ``merge`` flattens
an intercommunicator into a normal intracommunicator.

Implementation: an :class:`Intercomm` owns a hidden intracommunicator
spanning both groups (built with the exCID machinery or consensus,
whichever the config provides) and translates remote-group ranks to
bridge ranks.  This mirrors how collective semantics over
intercommunicators are defined in MPI ("rooted" operations address the
remote group).
"""

from __future__ import annotations

from typing import Optional

from repro.ompi.constants import ANY_SOURCE, ANY_TAG
from repro.ompi.errors import MPIErrArg, MPIErrGroup, MPIErrRank
from repro.ompi.group import Group
from repro.ompi.status import Status

_TAG_BRIDGE = 900000  # user-space tag block reserved for intercomm setup


def build_bridge(runtime, session, my_members, remote_members, tag_str: str,
                 consensus_tag: int):
    """Sub-generator: the hidden intracommunicator spanning both sides.

    Used by :meth:`Intercomm.create`.  Both sides order the union
    identically (group with the lowest leader process first) and build
    it with the exCID machinery, or via ``create_group`` on the WPM
    world when the exCID generator is unavailable.
    """
    ours_first = my_members[0] < remote_members[0]
    both = list(my_members) + list(remote_members) if ours_first \
        else list(remote_members) + list(my_members)
    bridge = yield from construct_over(runtime, session, both, tag_str, consensus_tag)
    return bridge


def construct_over(runtime, session, members, tag_str: str, consensus_tag: int):
    """Sub-generator: build an intracomm over an explicit member list,
    via exCID when available, else create_group on the WPM world."""
    group = Group(members)
    group.session = session
    if runtime.excid_enabled:
        comm = yield from runtime.comm_create_from_group(group, tag_str)
    else:
        world = runtime.COMM_WORLD
        if world is None:
            raise MPIErrArg(
                "intercommunicator construction without ob1/exCID needs the "
                "World Process Model (a common parent for the consensus CID)"
            )
        comm = yield from world.create_group(group, tag=consensus_tag)
    return comm


class Intercomm:
    """One rank's handle on an intercommunicator."""

    def __init__(self, bridge, local_group: Group, remote_group: Group) -> None:
        self._bridge = bridge                  # hidden intracomm over both groups
        self.local_group = local_group
        self.remote_group = remote_group
        self.rank = local_group.rank_of(bridge.runtime.proc)
        self.local_size = local_group.size
        self.remote_size = remote_group.size
        self.freed = False

    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        local_comm,
        local_leader: int,
        peer_comm,
        remote_leader: int,
        tag: int = 0,
    ):
        """Sub-generator: MPI_Intercomm_create.

        ``local_comm`` is this side's intracommunicator; the two
        leaders exchange group membership over ``peer_comm`` (present
        at the leaders only), then everyone collectively builds the
        bridge communicator.
        """
        runtime = local_comm.runtime
        my_members = list(local_comm.group.members())
        if local_comm.rank == local_leader:
            if peer_comm is None:
                raise MPIErrArg("the local leader needs the peer communicator")
            remote_members = yield from peer_comm.sendrecv(
                my_members, remote_leader, remote_leader,
                sendtag=_TAG_BRIDGE + tag, recvtag=_TAG_BRIDGE + tag,
            )
        else:
            remote_members = None
        remote_members = yield from local_comm.bcast(remote_members, root=local_leader)
        remote_group = Group(remote_members)
        if set(remote_members) & set(my_members):
            raise MPIErrGroup("intercomm groups must be disjoint")

        session = getattr(local_comm.group, "session", None) or local_comm.session
        bridge = yield from build_bridge(
            runtime, session, my_members, remote_members,
            f"intercomm:{tag}", _TAG_BRIDGE + tag,
        )
        return cls(bridge, Group(my_members), remote_group)

    # ------------------------------------------------------------------
    def _check(self) -> None:
        if self.freed:
            raise MPIErrArg("intercommunicator used after free")

    def _bridge_rank(self, remote_rank: int) -> int:
        if not 0 <= remote_rank < self.remote_size:
            raise MPIErrRank(f"remote rank {remote_rank} out of range")
        return self._bridge.group.rank_of(self.remote_group.proc(remote_rank))

    # -- point-to-point addresses the REMOTE group -------------------------
    def send(self, obj, dest: int, tag: int = 0, nbytes: Optional[int] = None):
        self._check()
        yield from self._bridge.send(obj, self._bridge_rank(dest), tag, nbytes)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             status: Optional[Status] = None):
        self._check()
        if source == ANY_SOURCE:
            payload = yield from self._bridge.recv(ANY_SOURCE, tag, status)
        else:
            payload = yield from self._bridge.recv(self._bridge_rank(source), tag, status)
        if status is not None and status.source >= 0:
            proc = self._bridge.group.proc(status.source)
            status.source = self.remote_group.rank_of(proc)
        return payload

    # -- collectives ---------------------------------------------------------
    def barrier(self):
        """Barrier across both groups."""
        self._check()
        yield from self._bridge.barrier()

    def merge(self, high: bool = False):
        """Sub-generator: MPI_Intercomm_merge -> plain intracommunicator.

        ``high`` orders this side's ranks after the remote side's.
        """
        self._check()
        me = self._bridge.runtime.proc
        entries = yield from self._bridge.allgather((high, me))
        remote_high = next(h for h, p in entries if p in self.remote_group)
        ours = list(self.local_group.members())
        theirs = list(self.remote_group.members())
        if high == remote_high:
            # Both sides chose the same value: MPI leaves the order
            # implementation-defined; break the tie by lowest member so
            # every rank computes the identical result.
            mine_first = min(ours) < min(theirs)
        else:
            mine_first = not high  # the "low" group comes first
        merged_members = ours + theirs if mine_first else theirs + ours
        merged = yield from construct_over(
            self._bridge.runtime, self._bridge.session, merged_members,
            "icmerge", _TAG_BRIDGE + 1,
        )
        return merged

    def free(self) -> None:
        self._check()
        self._bridge.free()
        self.freed = True
