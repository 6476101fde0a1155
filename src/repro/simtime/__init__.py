"""Deterministic discrete-event simulation core.

Every component of the reproduced middleware stack (PMIx servers, PRRTE
daemons, MPI ranks, benchmark drivers) runs as a :class:`SimProcess` — a
Python generator driven by a single :class:`Engine`.  Blocking operations
are expressed by ``yield``-ing effect objects (:class:`Sleep`,
:class:`Wait`, ...) and composed with ``yield from``.  Simulated time is
a float in seconds and is completely decoupled from wall-clock time,
which makes experiments deterministic and lets thousands of simulated
ranks run inside one OS process.
"""

from repro.simtime.engine import Engine, SimulationError, DeadlockError
from repro.simtime.process import (
    SimProcess,
    Sleep,
    Wait,
    Spawn,
    Join,
    Now,
    Self,
    ProcessKilled,
)
from repro.simtime.primitives import SimEvent, SimBarrier

__all__ = [
    "Engine",
    "SimulationError",
    "DeadlockError",
    "SimProcess",
    "Sleep",
    "Wait",
    "Spawn",
    "Join",
    "Now",
    "Self",
    "ProcessKilled",
    "SimEvent",
    "SimBarrier",
]
