"""Integration tests: PMIx clients + servers + PRRTE grpcomm."""

import pytest

from repro.cluster import Cluster
from repro.machine.presets import laptop
from repro.pmix.types import (
    PMIX_ERR_TIMEOUT,
    PMIX_JOB_SIZE,
    PMIX_QUERY_NUM_PSETS,
    PMIX_QUERY_PSET_NAMES,
    PMIX_TIMEOUT,
    PmixError,
    PmixProc,
)
from tests.conftest import run_procs


def make_job(nodes=4, ranks=8, ppn=2, **kw):
    cluster = Cluster(machine=laptop(num_nodes=nodes), **kw)
    job = cluster.launch(ranks, ppn=ppn)
    return cluster, job


def test_fence_exchanges_blobs_across_nodes():
    cluster, job = make_job()

    def rank_proc(rank):
        client = job.client(rank)
        yield from client.init()
        client.put("endpoint", f"ep-{rank}")
        yield from client.commit()
        yield from client.fence()
        # After the fence every rank can read every other rank's blob locally.
        values = []
        for peer in range(job.num_ranks):
            value = yield from client.get(job.proc(peer), "endpoint")
            values.append(value)
        return values

    results = run_procs(cluster, *(rank_proc(r) for r in range(job.num_ranks)))
    expected = [f"ep-{r}" for r in range(job.num_ranks)]
    assert all(res == expected for res in results)


def test_fence_takes_nonzero_simulated_time():
    cluster, job = make_job()

    def rank_proc(rank):
        client = job.client(rank)
        yield from client.init()
        yield from client.commit()
        yield from client.fence()

    run_procs(cluster, *(rank_proc(r) for r in range(job.num_ranks)))
    assert cluster.now > 0


def test_group_construct_agrees_on_pgcid():
    cluster, job = make_job()

    def rank_proc(rank):
        client = job.client(rank)
        yield from client.init()
        procs = [job.proc(r) for r in range(job.num_ranks)]
        pgcid = yield from client.group_construct("grp-all", procs)
        return pgcid

    results = run_procs(cluster, *(rank_proc(r) for r in range(job.num_ranks)))
    assert len(set(results)) == 1
    assert results[0] >= 1  # PGCIDs are non-zero


def test_distinct_groups_get_distinct_pgcids():
    cluster, job = make_job()

    def rank_proc(rank):
        client = job.client(rank)
        yield from client.init()
        all_procs = [job.proc(r) for r in range(job.num_ranks)]
        evens = [job.proc(r) for r in range(0, job.num_ranks, 2)]
        pgcid_all = yield from client.group_construct("g-all", all_procs)
        pgcid_sub = None
        if rank % 2 == 0:
            pgcid_sub = yield from client.group_construct("g-even", evens)
        return (pgcid_all, pgcid_sub)

    results = run_procs(cluster, *(rank_proc(r) for r in range(job.num_ranks)))
    alls = {a for a, _ in results}
    subs = {s for _, s in results if s is not None}
    assert len(alls) == 1 and len(subs) == 1
    assert alls != subs


def test_group_destruct_removes_record():
    cluster, job = make_job(nodes=2, ranks=4, ppn=2)

    def rank_proc(rank):
        client = job.client(rank)
        yield from client.init()
        procs = [job.proc(r) for r in range(job.num_ranks)]
        yield from client.group_construct("gone", procs)
        yield from client.group_destruct("gone", procs)

    run_procs(cluster, *(rank_proc(r) for r in range(4)))
    for server in cluster.servers[:2]:
        assert "gone" not in server.groups


def test_group_construct_timeout_when_member_absent():
    cluster, job = make_job(nodes=2, ranks=4, ppn=2)

    def present(rank):
        client = job.client(rank)
        yield from client.init()
        procs = [job.proc(r) for r in range(4)]
        with pytest.raises(PmixError) as err:
            yield from client.group_construct(
                "g-timeout", procs, {PMIX_TIMEOUT: 0.5}
            )
        assert err.value.status == PMIX_ERR_TIMEOUT
        return "timed-out"

    # Rank 3 never joins the group.
    def absent(rank):
        client = job.client(rank)
        yield from client.init()
        return "absent"

    results = run_procs(
        cluster, present(0), present(1), present(2), absent(3)
    )
    assert results == ["timed-out"] * 3 + ["absent"]


def test_query_psets_and_job_size():
    cluster, job = make_job(nodes=2, ranks=4, ppn=2)
    cluster.psets.define("app/ocean", [job.proc(0), job.proc(1)])

    def rank_proc(rank):
        client = job.client(rank)
        yield from client.init()
        out = yield from client.query(
            [PMIX_QUERY_NUM_PSETS, PMIX_QUERY_PSET_NAMES, PMIX_JOB_SIZE]
        )
        members = yield from client.pset_membership("app/ocean")
        return out, members

    results = run_procs(cluster, *(rank_proc(r) for r in range(4)))
    out, members = results[0]
    assert out[PMIX_QUERY_NUM_PSETS] == 1
    assert out[PMIX_QUERY_PSET_NAMES] == ["app/ocean"]
    assert out[PMIX_JOB_SIZE] == 4
    assert members == (job.proc(0), job.proc(1))


def test_dmodex_without_fence():
    """Direct modex: get remote data that was committed but never fenced."""
    cluster, job = make_job(nodes=2, ranks=2, ppn=1)
    sync = []

    def publisher():
        client = job.client(0)
        yield from client.init()
        client.put("addr", "node0-nic")
        yield from client.commit()
        sync.append(True)

    def reader():
        client = job.client(1)
        yield from client.init()
        # Busy-wait (simulated) until the publisher committed.
        from repro.simtime.process import Sleep

        while not sync:
            yield Sleep(1e-4)
        value = yield from client.get(job.proc(0), "addr")
        return value

    results = run_procs(cluster, publisher(), reader())
    assert results[1] == "node0-nic"


def test_event_notification_reaches_all_registered():
    cluster, job = make_job(nodes=2, ranks=4, ppn=2)
    seen = []

    def rank_proc(rank):
        client = job.client(rank)
        yield from client.init()
        client.register_event_handler([123], lambda code, src, info: seen.append((rank, code, src.rank)))
        if rank == 0:
            from repro.simtime.process import Sleep

            yield Sleep(0.01)
            client.notify_event(123, {"why": "test"})
        yield from _drain()

    def _drain():
        from repro.simtime.process import Sleep

        yield Sleep(0.1)

    run_procs(cluster, *(rank_proc(r) for r in range(4)))
    assert sorted(seen) == [(0, 123, 0), (1, 123, 0), (2, 123, 0), (3, 123, 0)]


@pytest.mark.parametrize("mode,radix", [("tree", 2), ("tree", 4), ("flat", 2)])
def test_group_construct_all_grpcomm_modes(mode, radix):
    cluster, job = make_job(nodes=4, ranks=8, ppn=2, grpcomm_mode=mode, grpcomm_radix=radix)

    def rank_proc(rank):
        client = job.client(rank)
        yield from client.init()
        procs = [job.proc(r) for r in range(8)]
        pgcid = yield from client.group_construct("g", procs)
        return pgcid

    results = run_procs(cluster, *(rank_proc(r) for r in range(8)))
    assert len(set(results)) == 1


@pytest.mark.parametrize("recovery", [False, True], ids=["plain", "recovery"])
def test_fault_free_fence_makes_no_dead_node_lookup(recovery, monkeypatch):
    """With no node known dead, neither the PMIx server's launch nor
    grpcomm's recovery-mode participant filter asks about every node: a
    64-node fence would otherwise cost O(nodes^2) lookups."""
    from repro.prrte.dvm import Daemon

    calls = []
    lookup = Daemon.is_node_down

    def counting(self, node):
        calls.append(node)
        return lookup(self, node)

    monkeypatch.setattr(Daemon, "is_node_down", counting)
    cluster, job = make_job(nodes=64, ranks=64, ppn=1, recovery=recovery)

    def rank_proc(rank):
        client = job.client(rank)
        yield from client.init()
        yield from client.commit()
        yield from client.fence()
        return True

    assert run_procs(cluster, *(rank_proc(r) for r in range(job.num_ranks))) \
        == [True] * 64
    assert calls == []
