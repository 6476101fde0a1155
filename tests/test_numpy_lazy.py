"""numpy stays off the import path: the first array or window imports it.

Simulated programs move Python ints; a worker, pool process or CLI call
that never touches an array must not pay numpy's import (~170 ms, 16 MB
and ~30 k objects in every full GC pass).  Each check runs in a fresh
interpreter, because this test process imported numpy long ago.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import repro

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def run_fresh(code: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_ROOT, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, f"{proc.stdout}\n{proc.stderr}"


def test_imports_and_plain_jobs_leave_numpy_unimported():
    run_fresh("""
        import sys
        import repro.api, repro.serve, repro.bench.osu, repro.bench.hpcc
        import repro.apps.twomesh.driver, repro.recovery, repro.dsim, repro.obs
        assert "numpy" not in sys.modules, "an import pulled numpy in"

        from repro.api import SimSpec, run_mpi
        from repro.machine.presets import laptop
        from repro.ompi.config import MpiConfig
        from repro.ompi.constants import MAX, MIN, SUM
        from repro.serve.registry import run_simspec

        def main(mpi):
            session = yield from mpi.session_init()
            group = yield from session.group_from_pset("mpi://world")
            comm = yield from mpi.comm_create_from_group(group, "lazy")
            total = yield from comm.allreduce(comm.rank + 1, op=SUM)
            high = yield from comm.allreduce(comm.rank, op=MAX)
            low = yield from comm.allreduce(comm.rank + 0.5, op=MIN)
            comm.free()
            yield from session.finalize()
            return (total, high, low)

        spec = SimSpec(nprocs=4, machine=laptop(num_nodes=2), ppn=2,
                       config=MpiConfig.sessions_prototype())
        assert run_mpi(spec=spec, main=main) == [(10, 3, 0.5)] * 4
        assert run_simspec(SimSpec(nprocs=4))["digest"]
        assert "numpy" not in sys.modules, "running a job pulled numpy in"
    """)


def test_first_array_use_imports_numpy_and_still_works():
    run_fresh("""
        import sys
        from repro.api import SimSpec, run_mpi
        from repro.ompi.constants import MAX, MIN
        from repro.ompi.datatype import sizeof_payload
        from repro.ompi.status import Status
        from repro.ompi.win import Window
        assert "numpy" not in sys.modules

        import numpy as np

        a, b = np.array([1, 5, 3]), np.array([4, 2, 6])
        assert isinstance(MAX(a, b), np.ndarray)
        assert (MAX(a, b) == np.maximum(a, b)).all()
        assert (MIN(a, b) == np.minimum(a, b)).all()
        assert sizeof_payload(np.zeros(100)) == 800

        def main(mpi):
            comm = yield from mpi.mpi_init()
            win = yield from Window.allocate(comm, 4)
            yield from win.fence()
            yield from win.put([comm.rank + 1.0], 0, offset=comm.rank)
            yield from win.fence()
            seen = win.memory.tolist() if comm.rank == 0 else None
            win.free()
            count = None
            if comm.rank == 0:
                yield from comm.send(np.arange(10, dtype=np.int32), 1, tag=3)
            elif comm.rank == 1:
                status = Status()
                yield from comm.recv(0, tag=3, status=status)
                count = status.count                # sized by nbytes
            yield from mpi.mpi_finalize()
            return (seen, count)

        results = run_mpi(spec=SimSpec(nprocs=2), main=main)
        assert results[0] == ([1.0, 2.0, 0.0, 0.0], None)
        assert results[1] == (None, 40)
    """)
