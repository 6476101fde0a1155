"""Stage-one readiness: a server launches a collective's exchange once
every local participant has arrived or is known dead.

The server keeps the set of local participants still pending, updated
at each arrival and each death, instead of scanning the node's
participants on every arrival.  Here local participants of a fence die
before, during and after their arrival.  Each case must launch the
exchange on every server at the same simulated instant, and execute the
same number of events, as the scanning server did (the pinned values
were recorded with it), and at every launch check the pending set must
agree with a scan.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.machine.presets import laptop
from repro.pmix.server import PmixServer
from repro.pmix.types import PMIX_ERR_PROC_ABORTED, PmixError
from repro.simtime.process import ProcessKilled, Sleep

#: Node 0 hosts ranks 0-3 and node 1 ranks 4-7.  Rank -> when its fence
#: arrives (after init): on node 0, rank 3 first and rank 1 last.
ARRIVAL = {0: 2e-3, 1: 4e-3, 2: 3e-3, 3: 1e-3, 4: 1e-3, 5: 1e-3, 6: 1e-3, 7: 1e-3}

#: Which local participant dies when, relative to its own arrival.
KILLS = {
    "before": (1, 0.5e-3),     # dead before anyone arrives
    "during": (2, 2.5e-3),     # dies while the node is part-arrived
    "after": (3, 1.5e-3),      # dies after it arrived, before the launch
}

OK, DEAD, ABORTED = "ok", "killed", PMIX_ERR_PROC_ABORTED

#: case -> ((node, launch instant) per node, events executed, final time,
#: outcome per rank), recorded with the scanning server.
EXPECTED = {
    (): (((0, 0.004024000000000001), (1, 0.0010840000000000003)), 46,
         0.004044327000000001, (OK,) * 8),
    ("before",): (((0, 0.0030239999999999998), (1, 0.0010840000000000003)), 48,
                  0.003044339999999999, (ABORTED, DEAD) + (ABORTED,) * 6),
    ("during",): (((0, 0.004024000000000001), (1, 0.0010840000000000003)), 48,
                  0.004044340000000001, (ABORTED,) * 2 + (DEAD,) + (ABORTED,) * 5),
    ("after",): (((0, 0.004024000000000001), (1, 0.0010840000000000003)), 51,
                 0.004044327000000001, (OK,) * 3 + (DEAD,) + (OK,) * 4),
    ("before", "during", "after"): (
        ((0, 0.0025), (1, 0.0010840000000000003)), 55,
        0.0025283529999999997, (ABORTED,) + (DEAD,) * 3 + (ABORTED,) * 4),
}


def _scan_ready(server: PmixServer, state) -> bool:
    """The readiness rule as the scanning server evaluated it."""
    local = state.participants.by_node(server.node_of).get(server.node, ())
    return all(p in state.arrived or p in state.aborted for p in local)


def run_case(kills):
    cluster = Cluster(machine=laptop(num_nodes=2))
    job = cluster.launch(8, ppn=4)
    launches = {}
    for server in cluster.servers:
        grpcomm = server.daemon.grpcomm
        allgather = grpcomm.allgather

        def recorded(*args, _node=server.node, _allgather=allgather, **kw):
            launches.setdefault(_node, cluster.now)
            return _allgather(*args, **kw)

        grpcomm.allgather = recorded

    def rank_main(rank):
        client = job.client(rank)
        try:
            yield from client.init()
            yield Sleep(ARRIVAL[rank])
            yield from client.fence()
            return "ok"
        except PmixError as err:
            return err.status
        except ProcessKilled:
            return "killed"

    procs = []
    for rank in range(8):
        sim = cluster.spawn(rank_main(rank), name=f"rank{rank}")
        cluster.faults.register_rank_proc(job.proc(rank), sim)
        procs.append(sim)
    for name in kills:
        rank, at = KILLS[name]
        cluster.engine.call_at(at, lambda r=rank: cluster.faults.kill_rank(job, r))
    cluster.run()
    return (tuple(sorted(launches.items())), cluster.engine.events_executed,
            cluster.now, tuple(p.result for p in procs))


def _check_against_scan(monkeypatch, checked):
    launch = PmixServer._maybe_launch

    def checking(self, state):
        if not state.launched and state.arrived:
            assert (not state.pending) == _scan_ready(self, state)
            checked.append(not state.pending)
        return launch(self, state)

    monkeypatch.setattr(PmixServer, "_maybe_launch", checking)


@pytest.mark.parametrize("kills", sorted(EXPECTED, key=len),
                         ids=lambda kills: "-".join(kills) or "none")
def test_launch_instant_matches_the_scanning_server(kills, monkeypatch):
    checked = []
    _check_against_scan(monkeypatch, checked)
    got = run_case(kills)
    assert checked.count(True) == len(got[0])     # one launch per server
    assert got == EXPECTED[kills]
