"""A finished rank leaves nothing behind (paper §III-B5: the last
``MPI_Session_finalize`` returns the library "to a truly uninitialized
state"; Zhou et al.: no hidden state survives a session).

Per-rank state is acyclic and singly owned: once a rank's last release
has run and its process has finished, its records point at nothing that
points back, and every registration made for it (fault manager, PMIx
server, fabric) has been undone.  So dropping a world frees it by
reference counting — measured here with the collector *disabled*
(``tests/_objcount.survivors``), at 128 and at 512 ranks: the marginal
survivors per rank must be (next to) zero.  Before, 35.9 (Sessions) and
38.8 (``MPI_Init``) GC-tracked objects per rank waited for a gen-2 pass:
``SimProcess`` <-> its resume ``partial``, ``MpiRuntime``, ``PmixClient``,
three component-framework records, six lists, six dicts...
"""

from __future__ import annotations

import pytest

from tests._objcount import JOBS, survivors

#: Marginal survivors per rank; achieved 0.0 for both jobs.
LIMIT = 1.0


@pytest.mark.parametrize("job", sorted(JOBS))
def test_a_dropped_world_is_freed_without_the_collector_128_to_512(job):
    small, large = survivors(job, 8), survivors(job, 32)
    per_rank = {kind: (large[kind] - small[kind]) / (32 * 16 - 8 * 16)
                for kind in set(small) | set(large) if large[kind] != small[kind]}
    total = sum(per_rank.values())
    kinds = "\n".join(f"  {n:8.2f} x {kind}" for kind, n in
                      sorted(per_rank.items(), key=lambda kv: -kv[1]))
    assert total <= LIMIT, (
        f"{job}: {total:.1f} GC-tracked objects per rank outlive a dropped "
        f"world with the collector off (limit {LIMIT}); surviving types per "
        f"rank:\n{kinds}"
    )


def test_a_dropped_run_result_is_freed_without_the_collector(monkeypatch):
    """``repro.api.run_world`` hands back a ``RunResult`` that holds its
    world (and any rank's exception); it must add no cycle of its own,
    so dropping the result — what ``run_mpi`` does — frees the world."""
    from repro.api import SimSpec, run_mpi
    from repro.machine.presets import jupiter
    from tests import _objcount

    def run(job, nodes, probe):
        main, config = JOBS[job]
        run_mpi(SimSpec(nprocs=nodes * _objcount.PPN, machine=jupiter(nodes),
                        ppn=_objcount.PPN, config=config()),
                main, args=(probe,))

    monkeypatch.setattr(_objcount, "_run", run)
    small, large = survivors("sessions", 8), survivors("sessions", 32)
    extra = large - small
    assert sum(extra.values()) <= LIMIT * (32 - 8) * _objcount.PPN, (
        f"objects outliving a dropped RunResult grow with the world: {extra}")


def test_a_pmix_call_on_a_retired_namespace_names_the_dropped_job():
    """Holding ``job.clients`` does not hold the ``Job``: once it is
    dropped its namespace is retired, and the first PMIx call of any of
    its ranks says so rather than failing at whichever lookup misses."""
    from repro.api import SimSpec, make_world
    from repro.machine.presets import laptop
    from repro.pmix.types import PMIX_ERR_NOT_FOUND, PmixError

    world = make_world(SimSpec(nprocs=2, machine=laptop(num_nodes=1)))
    cluster, clients = world.cluster, world.job.clients
    nspace = world.job.nspace
    del world

    def rank(client, call):
        with pytest.raises(PmixError) as err:
            yield from call(client)
        assert err.value.status == PMIX_ERR_NOT_FOUND
        assert str(err.value).endswith(
            f"namespace {nspace} was retired: its Job was dropped while "
            f"ranks still use it")
        return "named"

    calls = [lambda c: c.init(), lambda c: c.fence(),
             lambda c: c.get(c.proc, "pmix.job.size"),
             lambda c: c.group_construct("g", [c.proc])]
    procs = [cluster.spawn(rank(clients[0], call)) for call in calls]
    cluster.run()
    assert [p.result for p in procs] == ["named"] * 4
