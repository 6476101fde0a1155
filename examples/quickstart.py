#!/usr/bin/env python
"""Quickstart: the MPI Sessions flow from Figure 1 of the paper.

Eight simulated ranks each: acquire a session handle, query the runtime
for available process sets, build an MPI group from ``mpi://world``,
create a communicator with MPI_Comm_create_from_group, and compute with
it.  Run with::

    python examples/quickstart.py
"""

from repro.api import SimSpec, run_mpi
from repro.ompi.config import MpiConfig
from repro.ompi.constants import SUM


def main(mpi):
    # Step 1 (Fig 1): MPI_Session_init — local and light-weight.
    session = yield from mpi.session_init()

    # Step 2: query the runtime for available process sets.
    num = yield from session.get_num_psets()
    names = []
    for n in range(num):
        names.append((yield from session.get_nth_pset(n)))
    info = yield from session.get_pset_info("mpi://world")

    # Step 3: MPI_Group_from_session_pset — still local.
    group = yield from session.group_from_pset("mpi://world")

    # Step 4: MPI_Comm_create_from_group — collective over the group.
    comm = yield from mpi.comm_create_from_group(group, "quickstart")

    total = yield from comm.allreduce(comm.rank, op=SUM)
    if comm.rank == 0:
        print(f"process sets visible to the runtime: {names}")
        print(f"mpi://world size reported by the runtime: {info.get('mpi_size')}")
        print(f"allreduce over ranks 0..{comm.size - 1}: {total}")

    comm.free()
    yield from session.finalize()
    return total


if __name__ == "__main__":
    results = run_mpi(SimSpec(nprocs=8, config=MpiConfig.sessions_prototype()),
                      main)
    expected = sum(range(8))
    assert results == [expected] * 8, results
    print(f"all 8 ranks agreed on {expected} — quickstart OK")
