"""What a plain simulation does not load: hashing, sqlite, the serving runtime.

A simulation never hashes, never opens a ledger and never serves, yet
libcrypto and libsqlite were 1.8 MB of every process that imported the
stack, and the serving runtime (asyncio, which maps libssl and libcrypto
through ``_ssl``, plus multiprocessing, concurrent.futures and logging)
another 7 MB.  The first digest / the first ledger connection / the
first server imports them (sibling of ``tests/test_numpy_lazy.py``;
fresh interpreters for the same reason).  Module names alone would miss
a shared library that a different module maps, so the job's check also
reads ``/proc/self/maps``.

Nor does it load the parts of the stack it never enters: trace export,
live telemetry, Prometheus text, the run ledger, the metrics registry,
the figure harness, and the MPI info, window and file objects
(``repro.obs``, ``repro.bench`` and ``repro.ompi`` resolve those names
on first use).
"""

from __future__ import annotations

from tests.test_numpy_lazy import run_fresh

HEAVY = ("hashlib", "_hashlib", "sqlite3", "_sqlite3", "asyncio", "ssl",
         "_ssl", "multiprocessing", "concurrent.futures", "logging")

#: Shared objects those modules map.
HEAVY_LIBS = ("libssl", "libcrypto", "libsqlite3")

#: Modules of the stack a plain Sessions job never needs.
UNUSED = tuple(f"repro.{name}" for name in (
    "obs.critical_path", "obs.export", "obs.live", "obs.metrics",
    "obs.prom", "obs.store", "bench.figures", "ompi.info", "ompi.io",
    "ompi.win"))


def test_imports_and_a_sessions_job_import_neither():
    run_fresh(f"""
        import os, sys
        import repro.api, repro.serve, repro.recovery, repro.obs
        from repro.serve import ResultStore, ServeClient, ServerThread
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
        loaded = [m for m in {UNUSED} if m in sys.modules]
        assert not loaded, f"running a job loaded {{loaded}}"
        if os.path.exists("/proc/self/maps"):
            with open("/proc/self/maps") as fh:
                maps = fh.read()
            mapped = [lib for lib in {HEAVY_LIBS} if lib in maps]
            assert not mapped, f"the process maps {{mapped}}"
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


def test_a_serial_sweep_leaves_multiprocessing_unloaded():
    """Every ``python -m repro`` subcommand imports ``repro.sweep``; only
    a pool (``jobs > 1``) imports multiprocessing."""
    run_fresh("""
        import sys
        import repro.cli.figure
        from repro.sweep import SweepPoint, run_sweep

        def square(x):
            return x * x

        points = [SweepPoint("square", square, {"x": x}) for x in range(3)]
        assert run_sweep(points, jobs=1) == [0, 1, 4]
        assert "multiprocessing" not in sys.modules, "a serial sweep loaded it"
        assert run_sweep(points, jobs=2) == [0, 1, 4]
        assert "multiprocessing" in sys.modules
    """)


def test_a_lazily_loaded_server_still_serves():
    """The serving runtime loads when ``ServerThread`` enters, and what
    ``repro.serve`` resolves on first use is the real thing."""
    run_fresh("""
        import sys
        from repro.serve import ResultStore, ServeClient, ServerThread
        assert "asyncio" not in sys.modules, "an import pulled in asyncio"

        from repro.api import SimSpec
        params = {"spec": SimSpec(nprocs=2).to_payload(), "seed": 1}
        with ServerThread(workers=1, store=ResultStore()) as srv:
            assert "asyncio" in sys.modules
            with ServeClient(srv.address) as client:
                miss = client.submit("sim", params)
                hit = client.submit("sim", params)
        assert miss["status"] == hit["status"] == "ok"
        assert miss["cached"] is False and hit["cached"] is True
        assert hit["result"] == miss["result"]

        from repro.serve import ServeStats, SimServer, Worker, WorkerDied
        from repro.serve.pool import Worker as PoolWorker
        from repro.serve.server import SimServer as ServerSimServer
        assert SimServer is ServerSimServer and Worker is PoolWorker
        assert isinstance(srv.server, SimServer)
        assert issubclass(WorkerDied, RuntimeError)
        assert isinstance(srv.server.stats, ServeStats)
    """)


def test_lazy_names_resolve_to_the_real_thing():
    """What ``repro.obs``, ``repro.bench``, ``repro.ompi`` and
    ``repro.serve`` resolve on first use is what their submodules
    define (or the submodule itself)."""
    run_fresh("""
        import importlib
        import repro.bench, repro.obs, repro.ompi, repro.serve

        for package in (repro.bench, repro.obs, repro.ompi, repro.serve):
            for name, where in sorted(package._LAZY.items()):
                value = getattr(package, name)
                module = importlib.import_module(f"{package.__name__}.{where}")
                assert value is (module if where == name
                                 else getattr(module, name)), name
            try:
                package.no_such_name
            except AttributeError:
                pass
            else:
                raise AssertionError(f"{package.__name__}.no_such_name")
    """)
