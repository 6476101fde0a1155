"""One rank program, three ways to obtain its communicator.

``create_communicator(name, mpi)`` has the shape of ChainerMN's factory
of the same name: the name selects one way to get a communicator, and
everything after that is the same program.

=========  ==============================================================
name       how the communicator is obtained
=========  ==============================================================
world      ``MPI_Init``: ``MPI_COMM_WORLD``
pset       ``MPI_Session_init``, ``MPI_Group_from_session_pset``
           (``mpi://world``), ``MPI_Comm_create_from_group``, then
           ``MPI_Group_free``
subgroup   as ``pset``, then ``MPI_Group_incl`` of every other rank in
           reverse order before ``MPI_Comm_create_from_group``; ranks
           left out get no communicator
=========  ==============================================================

All three run on the exCID stack (``MpiConfig.sessions_prototype()``),
the one ``MPI_Comm_create_from_group`` needs.  A program is
``body(mpi, comm)``, a sub-generator; :func:`run` returns its results
in communicator-rank order.
"""

from __future__ import annotations

from repro.api import SimSpec, run_mpi
from repro.machine.presets import laptop
from repro.ompi.config import MpiConfig

WAYS = ("world", "pset", "subgroup")

NPROCS = 6
NODES = 2


def subgroup_ranks(nprocs: int):
    """World ranks of the ``subgroup`` way's communicator, in its order."""
    return list(range(nprocs - 1, -1, -2))


def create_communicator(name: str, mpi):
    """Sub-generator: this rank's communicator for way ``name``, or
    None for a rank the way leaves out."""
    if name == "world":
        return (yield from mpi.mpi_init())
    if name not in ("pset", "subgroup"):
        raise ValueError(f'unrecognized communicator: "{name}"')
    session = yield from mpi.session_init()
    group = yield from session.group_from_pset("mpi://world")
    if name == "subgroup":
        group = group.incl(subgroup_ranks(group.size))
        group.session = session
        if mpi.proc not in group:
            return None
    comm = yield from mpi.comm_create_from_group(group, f"conformance-{name}")
    group.free()            # as MPI-4.0's Sessions examples do
    return comm


def release(mpi, comm):
    """Sub-generator: free what :func:`create_communicator` made."""
    if mpi.wpm_initialized:
        yield from mpi.mpi_finalize()
        return
    if comm is not None and not comm.freed:
        comm.free()
    for session in list(mpi.sessions):
        yield from session.finalize()


def spec(nprocs: int = NPROCS, nodes: int = NODES) -> SimSpec:
    return SimSpec(nprocs=nprocs, machine=laptop(num_nodes=nodes),
                   ppn=-(-nprocs // nodes),
                   config=MpiConfig.sessions_prototype())


def run(way: str, body, nprocs: int = NPROCS):
    """Run ``body`` over way ``way``'s communicator on every rank that
    gets one; returns the results in communicator-rank order."""
    def main(mpi):
        comm = yield from create_communicator(way, mpi)
        result = None if comm is None else (yield from body(mpi, comm))
        yield from release(mpi, comm)
        return result

    results = run_mpi(spec(nprocs), main)
    if way == "subgroup":
        return [results[r] for r in subgroup_ranks(nprocs)]
    return results
