"""ULFM-lite: revoke / agree / shrink, fence retry, session re-query
(docs/recovery.md)."""

from __future__ import annotations

import pytest

from repro.api import SimSpec, make_world
from repro.faults import FaultPlan
from repro.machine.presets import laptop
from repro.ompi.config import MpiConfig
from repro.ompi.constants import SUM
from repro.ompi.errors import ERRORS_RETURN, MPIError, MPIErrRevoked
from repro.simtime.process import Sleep
from tests.recovery.conftest import SIM_BOUND

pytestmark = pytest.mark.recovery

CONFIGS = {
    "consensus": MpiConfig.baseline,           # legacy CID agreement
    "excid": MpiConfig.sessions_prototype,     # PMIx-group context ids
}


def _world(ranks=6, nodes=3, config=None, seed=1, psets=None):
    return make_world(spec=SimSpec(
        nprocs=ranks, machine=laptop(num_nodes=nodes), ppn=ranks // nodes,
        config=config, recovery=True, recovery_seed=seed, psets=psets))


def _spawn(world, gens):
    procs = []
    for rank, gen in enumerate(gens):
        sim = world.cluster.spawn(gen, name=f"rank{rank}")
        world.cluster.faults.register_rank_proc(world.job.proc(rank), sim)
        procs.append(sim)
    for p in procs:
        p.defuse()
    return procs


def _run(world):
    world.run()
    assert world.cluster.now < SIM_BOUND
    return world.cluster.now


class TestRevoke:
    def test_revoke_unblocks_pending_recv_everywhere(self):
        world = _world()
        outcomes = {}

        def blocked(mpi):
            comm = yield from mpi.mpi_init()
            comm.set_errhandler(ERRORS_RETURN)
            try:
                yield from comm.recv(source=0, tag=7)   # never sent
                outcomes[mpi.rank_in_job] = "ok"
            except MPIErrRevoked:
                outcomes[mpi.rank_in_job] = "revoked"

        def revoker(mpi):
            comm = yield from mpi.mpi_init()
            comm.set_errhandler(ERRORS_RETURN)
            yield Sleep(2e-3)                           # peers are blocked now
            comm.revoke()
            outcomes[mpi.rank_in_job] = "revoker"

        gens = [revoker(world.runtimes[0])]
        gens += [blocked(world.runtimes[r]) for r in range(1, world.num_ranks)]
        _spawn(world, gens)
        _run(world)
        assert outcomes[0] == "revoker"
        assert all(outcomes[r] == "revoked" for r in range(1, world.num_ranks))
        assert world.cluster.recovery_stats["revoke"] >= 1

    def test_revoked_comm_rejects_new_operations(self):
        world = _world()
        outcomes = {}

        def main(mpi):
            comm = yield from mpi.mpi_init()
            comm.set_errhandler(ERRORS_RETURN)
            if mpi.rank_in_job == 0:
                comm.revoke()
            while not comm.revoked:
                yield Sleep(50e-6)
            try:
                yield from comm.allreduce(1, op=SUM)
                outcomes[mpi.rank_in_job] = "ok"
            except MPIErrRevoked:
                outcomes[mpi.rank_in_job] = "revoked"

        _spawn(world, [main(rt) for rt in world.runtimes])
        _run(world)
        assert all(v == "revoked" for v in outcomes.values())


class TestAgree:
    def test_agree_is_uniform_and_ands_contributions(self):
        world = _world()
        flags = {}

        def main(mpi):
            comm = yield from mpi.mpi_init()
            comm.set_errhandler(ERRORS_RETURN)
            # Rank 1 contributes False: everyone must land on False.
            flags[mpi.rank_in_job] = yield from comm.agree(mpi.rank_in_job != 1)

        _spawn(world, [main(rt) for rt in world.runtimes])
        _run(world)
        assert set(flags) == set(range(world.num_ranks))
        assert set(flags.values()) == {False}

    def test_agree_tolerates_a_dead_member(self):
        world = _world()
        world.cluster.faults.install(FaultPlan().kill_proc(3, at_time=5e-3))
        flags = {}

        def victim(mpi):
            yield from mpi.mpi_init()
            yield Sleep(1.0)               # killed at 5ms

        def survivor(mpi):
            comm = yield from mpi.mpi_init()
            comm.set_errhandler(ERRORS_RETURN)
            while not comm.failed_peers:
                yield Sleep(50e-6)
            flag = yield from comm.agree(True)
            flags[mpi.rank_in_job] = (flag, 3 in comm.failed_peers)

        gens = [victim(rt) if r == 3 else survivor(rt)
                for r, rt in enumerate(world.runtimes)]
        _spawn(world, gens)
        _run(world)
        survivors = [r for r in range(world.num_ranks) if r != 3]
        assert sorted(flags) == survivors
        # ULFM semantics: the dead member is excluded from the AND (it
        # lands in failed_peers), so the survivors' True flags prevail.
        assert set(flags.values()) == {(True, True)}
        assert world.cluster.recovery_stats["agree"] == len(survivors)


class TestShrink:
    @pytest.mark.parametrize("mode", sorted(CONFIGS))
    def test_shrink_builds_fresh_cid_over_survivors(self, mode):
        world = _world(config=CONFIGS[mode]())
        world.cluster.faults.install(FaultPlan().kill_proc(2, at_time=5e-3))
        out = {}

        def victim(mpi):
            yield from mpi.mpi_init()
            yield Sleep(1.0)

        def survivor(mpi):
            comm = yield from mpi.mpi_init()
            comm.set_errhandler(ERRORS_RETURN)
            while not comm.failed_peers:
                yield Sleep(50e-6)
            comm.revoke()
            ok = yield from comm.agree(True)
            shrunk = yield from comm.shrink()
            total = yield from shrunk.allreduce(shrunk.rank, op=SUM)
            out[mpi.rank_in_job] = {
                "agree": ok,
                "size": shrunk.size,
                "cid": shrunk.local_cid,
                "world_cid": comm.local_cid,
                "sum": total,
            }

        gens = [victim(rt) if r == 2 else survivor(rt)
                for r, rt in enumerate(world.runtimes)]
        _spawn(world, gens)
        _run(world)
        survivors = [r for r in range(world.num_ranks) if r != 2]
        assert sorted(out) == survivors
        n = len(survivors)
        for rec in out.values():
            assert rec["size"] == n
            assert rec["cid"] != rec["world_cid"]      # fresh CID
            assert rec["sum"] == n * (n - 1) // 2
        # Consensus mode agrees on one CID value; excid mode only
        # guarantees a consistent *context*, so compare sizes there.
        if mode == "consensus":
            assert len({rec["cid"] for rec in out.values()}) == 1

    def test_shrink_without_damage_still_returns_fresh_comm(self):
        world = _world()
        out = {}

        def main(mpi):
            comm = yield from mpi.mpi_init()
            comm.set_errhandler(ERRORS_RETURN)
            shrunk = yield from comm.shrink()
            out[mpi.rank_in_job] = (shrunk.size, shrunk.local_cid != comm.local_cid)

        _spawn(world, [main(rt) for rt in world.runtimes])
        _run(world)
        assert all(v == (world.num_ranks, True) for v in out.values())


class TestFenceRetry:
    def test_fence_retry_prunes_dead_and_bumps_counter(self):
        world = _world()
        world.cluster.faults.install(FaultPlan().kill_proc(4, at_time=5e-3))
        out = {}

        def victim(mpi):
            yield from mpi.mpi_init()
            yield Sleep(1.0)

        def survivor(mpi):
            yield from mpi.mpi_init()
            yield Sleep(4e-3)              # past the kill + announcement
            result = yield from mpi.pmix.fence_retry()
            out[mpi.rank_in_job] = sorted(p.rank for p in result.data)

        gens = [victim(rt) if r == 4 else survivor(rt)
                for r, rt in enumerate(world.runtimes)]
        _spawn(world, gens)
        _run(world)
        survivors = [r for r in range(world.num_ranks) if r != 4]
        assert all(out[r] == survivors for r in survivors)
        assert world.cluster.dvm.fence_retries > 0


class TestSessionRequery:
    def test_re_query_psets_excludes_failed_procs(self):
        world = _world(config=MpiConfig.sessions_prototype())
        world.cluster.faults.install(FaultPlan().kill_proc(5, at_time=5e-3))
        out = {}

        def victim(mpi):
            yield from mpi.mpi_init()
            yield Sleep(1.0)

        def survivor(mpi):
            session = yield from mpi.session_init()
            while not mpi.failed_procs:
                yield Sleep(50e-6)
            before = yield from session.group_from_pset("mpi://world")
            names = yield from session.re_query_psets()
            after = yield from session.group_from_pset("mpi://world")
            comm = yield from mpi.comm_create_from_group(after, "survivors")
            total = yield from comm.allreduce(comm.rank, op=SUM)
            out[mpi.rank_in_job] = {
                "before": before.size,
                "names": names,
                "after": after.size,
                "sum": total,
            }
            yield from session.finalize()

        gens = [victim(rt) if r == 5 else survivor(rt)
                for r, rt in enumerate(world.runtimes)]
        _spawn(world, gens)
        _run(world)
        survivors = [r for r in range(world.num_ranks) if r != 5]
        n = len(survivors)
        assert sorted(out) == survivors
        for rec in out.values():
            assert rec["before"] == world.num_ranks    # static view pre-requery
            assert rec["after"] == n                   # survivors only
            assert "mpi://world" in rec["names"]
            assert rec["sum"] == n * (n - 1) // 2
        assert world.cluster.recovery_stats["pset_requery"] == n


    def test_shared_membership_is_rederived_after_eviction(self):
        """mpi://world and a user pset are one shared ProcSet each; a
        death must mint new ones (order/stride/size derived afresh, the
        dead proc gone) rather than patch or reuse the old facts, and a
        communicator over the survivors must still construct."""
        evens = (0, 2, 4, 6)
        world = _world(ranks=8, nodes=4, config=MpiConfig.sessions_prototype(),
                       psets={"app/evens": evens})
        world.cluster.faults.install(FaultPlan().kill_proc(4, at_time=5e-3))
        dead = world.job.proc(4)
        registry = world.cluster.psets
        evens_before = registry.members("app/evens")
        assert evens_before.stride == (world.job.nspace, 0, 4, 2)
        out = {}

        def victim(mpi):
            yield from mpi.mpi_init()
            yield Sleep(1.0)

        def survivor(mpi):
            session = yield from mpi.session_init()
            before = yield from session.group_from_pset("mpi://world")
            assert before.members() is world.job.all_procs      # shared, not copied
            assert before.is_strided and dead in before
            while not mpi.failed_procs:
                yield Sleep(50e-6)
            yield from session.re_query_psets()
            after = yield from session.group_from_pset("mpi://world")
            members = after.members()
            assert members is not world.job.all_procs
            assert dead not in after and after.size == 7
            assert not after.is_strided                 # 0..3,5..7: the gap shows
            assert members.member_key == (7, members[0], members[-1], 28 - 4)
            assert [after.rank_of(p) for p in members] == list(range(7))
            assert after.rank_of(dead) < 0
            if mpi.rank_in_job in evens:
                sub = yield from session.group_from_pset("app/evens")
                assert sub.members() is registry.members("app/evens")
                assert sub.members() is not evens_before
                assert [p.rank for p in sub.members()] == [0, 2, 6]
                assert not sub.is_strided and sub.members().stride is None
                assert sub.members().member_key[0] == 3
                sub_comm = yield from mpi.comm_create_from_group(sub, "evens")
                assert sub_comm.size == 3
                sub_comm.free()
            comm = yield from mpi.comm_create_from_group(after, "survivors")
            out[mpi.rank_in_job] = yield from comm.allreduce(1, op=SUM)
            comm.free()
            yield from session.finalize()

        gens = [victim(rt) if r == 4 else survivor(rt)
                for r, rt in enumerate(world.runtimes)]
        procs = _spawn(world, gens)
        _run(world)
        for r, p in enumerate(procs):
            assert r == 4 or p.exception is None, f"rank {r}: {p.exception!r}"
        assert out == {r: 7 for r in range(8) if r != 4}
        # The value held before the death is untouched (immutable).
        assert len(evens_before) == 4 and dead in evens_before


class TestErrorTaxonomy:
    def test_err_revoked_is_a_typed_mpi_error(self):
        assert issubclass(MPIErrRevoked, MPIError)
        from repro.ompi.errors import _ERRCLASS_NAMES, ERR_REVOKED
        assert _ERRCLASS_NAMES[ERR_REVOKED] == "MPI_ERR_REVOKED"
        assert MPIErrRevoked("gone").errclass == ERR_REVOKED
