"""Two scheduler-bound kernels distilled from the hottest runtime patterns.

``fence_storm`` is the PMIx fence fan-in (staggered arrivals, a timed
wait per participant whose watchdog timer is canceled on completion,
then a same-timestamp release cascade); ``comm_dup`` is the
CID-allocation chain behind ``MPI_Comm_dup`` (long zero-delay message
round-trips punctuated by daemon hops).  Both isolate the engine +
trampoline and return the number of events executed, which must be the
same on the fast-path scheduler and on ``Engine(compat=True)``.

``benchmarks/suite`` times them as its ``simtime.kernel_eps`` probe.
"""

from __future__ import annotations

from repro.simtime.engine import Engine
from repro.simtime.primitives import SimEvent
from repro.simtime.process import SLEEP0, SimProcess, Sleep, Wait


def _spawn(engine: Engine, gen, name: str = "") -> SimProcess:
    proc = SimProcess(engine, gen, name)
    proc.defuse()
    proc.start()
    return proc


def fence_storm(compat: bool, procs: int = 64, rounds: int = 120) -> int:
    """PMIx-fence fan-in kernel; returns events executed.

    Per round, each participant arrives after a per-rank stagger (heap
    traffic at distinct timestamps), blocks in a *timed* wait — arming a
    watchdog timer that completion cancels, the retransmission-timer
    pattern that motivated lazy deletion — and the last arrival releases
    everyone into a same-timestamp drain chain (ready-lane traffic).
    """
    engine = Engine(compat=compat)
    state = {"count": 0, "event": SimEvent()}

    def rank(r: int):
        for rnd in range(rounds):
            yield Sleep((r + 1) * 1e-8)
            state["count"] += 1
            if state["count"] == procs:
                event = state["event"]
                state["event"] = SimEvent()
                state["count"] = 0
                event.succeed(rnd)
            else:
                # The stagger makes arrival order strict, so the fence
                # completes long before the watchdog: every timer here
                # is armed and then canceled.
                yield Wait(state["event"], timeout=1.0)
            # Post-release cascade: grpcomm release -> per-client PMIx
            # notify -> completion callbacks, all at the same instant.
            for _ in range(10):
                yield SLEEP0
    for r in range(procs):
        _spawn(engine, rank(r), f"rank{r}")
    engine.run()
    return engine.events_executed


def comm_dup(compat: bool, procs: int = 32, dups: int = 100) -> int:
    """CID-allocation chain kernel; returns events executed.

    Models the ``MPI_Comm_dup`` hot loop: each dup is a burst of
    zero-delay allocation round-trips (agreement messages landing at the
    same instant) followed by one short daemon hop.  Almost pure
    ready-lane + trampoline traffic.
    """
    engine = Engine(compat=compat)

    def rank(r: int):
        for _ in range(dups):
            for _ in range(10):
                yield SLEEP0
            yield Sleep(1e-7)
    for r in range(procs):
        _spawn(engine, rank(r), f"rank{r}")
    engine.run()
    return engine.events_executed
