#!/usr/bin/env python
"""The 2MESH multi-physics experiment at example scale (paper §IV-E).

Runs the coupled L0 (MPI-everywhere) + L1 (MPI+OpenMP) application with
both quiescence mechanisms — QUO_barrier and the sessions-based
MPI_Ibarrier + nanosleep replacement — and prints the Fig-7-style
normalized execution times.  Uses a shrunken P1-like problem so it runs
in seconds; the paper-size problems are ``python -m repro figure fig7 --full``.

Run with::

    python examples/multi_physics.py
"""

from repro.apps.twomesh.driver import TwoMeshProblem, run_twomesh
from repro.machine.presets import trinity

PROBLEM = TwoMeshProblem(
    name="P1-mini",
    ranks=64,
    ppn=32,
    couplings=4,
    l0_steps=4,
    l1_steps=2,
    l0_compute=170e-6,
    l1_compute=6.0e-3,
    halo_bytes=8192,
    workers_per_node=2,
)


def main() -> None:
    machine = trinity(PROBLEM.ranks // PROBLEM.ppn)
    baseline = run_twomesh(PROBLEM, use_sessions=False, machine=machine)
    sessions = run_twomesh(PROBLEM, use_sessions=True, machine=machine)
    normalized = sessions / baseline
    print(f"problem {PROBLEM.name}: {PROBLEM.ranks} ranks on "
          f"{PROBLEM.ranks // PROBLEM.ppn} Trinity nodes")
    print(f"  baseline (QUO_barrier):        {baseline * 1e3:8.3f} ms")
    print(f"  sessions (Ibarrier+nanosleep): {sessions * 1e3:8.3f} ms")
    print(f"  normalized execution time:     {normalized:8.4f}")
    assert 1.0 < normalized < 1.06, normalized
    print("sessions quiescence overhead is small, as in the paper's Fig 7 — OK")


if __name__ == "__main__":
    main()
