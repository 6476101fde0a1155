"""hashlib and sqlite3 stay off the import path of a plain simulation.

A simulation never hashes and never opens a ledger, yet libcrypto and
libsqlite were 1.8 MB of every process that imported the stack.  The
first digest / the first ledger connection imports them (sibling of
``tests/test_numpy_lazy.py``; fresh interpreters for the same reason).
"""

from __future__ import annotations

from tests.test_numpy_lazy import run_fresh

HEAVY = ("hashlib", "_hashlib", "sqlite3", "_sqlite3")


def test_imports_and_a_sessions_job_import_neither():
    run_fresh(f"""
        import sys
        import repro.api, repro.serve, repro.recovery, repro.obs
        loaded = [m for m in {HEAVY} if m in sys.modules]
        assert not loaded, f"an import pulled in {{loaded}}"

        from repro.api import SimSpec, run_mpi
        from repro.machine.presets import laptop
        from repro.ompi.config import MpiConfig
        from repro.ompi.constants import SUM

        def main(mpi):
            session = yield from mpi.session_init()
            group = yield from session.group_from_pset("mpi://world")
            comm = yield from mpi.comm_create_from_group(group, "plain")
            total = yield from comm.allreduce(comm.rank + 1, op=SUM)
            comm.free()
            yield from session.finalize()
            return total

        spec = SimSpec(nprocs=4, machine=laptop(num_nodes=2), ppn=2,
                       config=MpiConfig.sessions_prototype())
        assert run_mpi(spec, main) == [10] * 4
        loaded = [m for m in {HEAVY} if m in sys.modules]
        assert not loaded, f"running a job pulled in {{loaded}}"
    """)


def test_first_digest_and_first_ledger_connection_import_them(tmp_path):
    run_fresh(f"""
        import sys
        from repro.obs.store import RunLedger
        from repro.recovery import soak_run
        from repro.sweep import cache_key, result_digest
        assert "hashlib" not in sys.modules and "sqlite3" not in sys.modules

        key = cache_key("sim", {{"seed": 1}})
        assert len(key) == 64 and key == cache_key("sim", {{"seed": 1}})
        assert "hashlib" in sys.modules and "sqlite3" not in sys.modules
        assert len(result_digest({{"a": 1}})) == 64
        record = soak_run(3)
        assert record["ok"] and len(record["digest"]) == 64

        ledger = RunLedger({str(tmp_path / "ledger.sqlite")!r})
        assert "sqlite3" not in sys.modules     # opened by the first use
        row = ledger.record(kind="test", scenario="s", digest=key)
        assert "sqlite3" in sys.modules
        assert ledger.query(digest=key[:12])[0]["id"] == row
        ledger.close()
    """)
