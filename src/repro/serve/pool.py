"""Process workers for the serve layer.

Each :class:`Worker` is one OS process running :func:`_worker_main`: a
recv/compute/send loop over a duplex pipe.  Scenario exceptions travel
back as ``("error", message)`` replies; a *death* (crash, ``os._exit``,
kill) surfaces to the caller as :class:`WorkerDied`, which the server
turns into a seeded-backoff retry on a fresh process.

Workers are deliberately not a ``concurrent.futures`` pool: one pipe
per worker keeps death isolated (a dying process breaks only its own
requests, never the pool) and lets the server kill a single worker to
enforce a mid-run deadline.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Any, Dict, Optional, Tuple

from repro.sweep import default_mp_context


class WorkerDied(RuntimeError):
    """The worker process exited (or its pipe broke) mid-request."""


# Listening-socket fds of every live server in this process.
# Fork-started workers inherit these fds, and a child holding one keeps
# the kernel accepting on the port after the parent closes it — so a
# stopped server's address would still take connections that nobody
# ever answers (a client hangs instead of failing to connect).
# Workers close their inherited copies first thing; under spawn the
# child imports a fresh, empty set and there is nothing to close.
_listener_fds: set = set()


def share_listener(fd: int) -> None:
    """Register a listening socket so forked workers close their copy."""
    _listener_fds.add(fd)


def release_listener(fd: int) -> None:
    """Unregister a listener (its server stopped); keeps later forks
    from closing an unrelated fd that reused the number."""
    _listener_fds.discard(fd)


def _worker_main(conn) -> None:
    for fd in list(_listener_fds):      # inherited via fork, see above
        try:
            os.close(fd)
        except OSError:
            pass
    _listener_fds.clear()
    # The parent starts workers daemonic so a dying server never leaks
    # them — that cleanup is driven by the *parent-side* flag.  The
    # child-side copy of the flag only forbids grandchildren, which
    # would break scenarios that themselves fork (partitioned runs,
    # repro.dsim), so clear it here.  dsim children are tied to this
    # process by their pipes and exit on EOF if it dies uncleanly.
    multiprocessing.current_process().daemon = False
    # Resolved here, in the worker process, so spawn/forkserver children
    # see the built-in scenarios without inheriting parent state.
    from repro.serve import registry

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg is None:                 # orderly retirement
            return
        scenario, params, meta = msg
        try:
            # The telemetry meta (trace id + sim-trace export path)
            # rides *beside* params, never inside them, so tracing a
            # request cannot change its cache identity or its result.
            sim_trace = (meta or {}).get("sim_trace")
            if sim_trace and registry.traceable(scenario):
                reply = ("ok", registry.run_traced(scenario, params, sim_trace))
            else:
                fn = registry.scenario(scenario)
                reply = ("ok", fn(**params))
        except BaseException as err:    # noqa: BLE001 — the wire is the boundary
            reply = ("error", f"{type(err).__name__}: {err}")
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return


class Worker:
    """One worker process plus its parent end of the pipe."""

    def __init__(self, wid: int) -> None:
        ctx = multiprocessing.get_context(default_mp_context())
        self.wid = wid
        self.conn, child = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(target=_worker_main, args=(child,),
                                name=f"serve-worker-{wid}", daemon=True)
        self.proc.start()
        child.close()
        self.calls = 0

    @property
    def alive(self) -> bool:
        return self.proc.is_alive()

    def call(self, scenario: str, params: Dict[str, Any],
             meta: Optional[Dict[str, Any]] = None, *,
             chaos: Any = None) -> Tuple[str, Any]:
        """Blocking request/reply; raises :class:`WorkerDied` on death.

        Runs on an executor thread — the asyncio side awaits it via
        ``asyncio.to_thread``.  ``meta`` is telemetry-only side data
        (trace id, sim-trace export path); it never enters ``params``.
        ``chaos`` (:class:`repro.chaos.ChaosPlan`) is consulted at the
        ``worker.call`` site before the dispatch; a firing action kills
        this worker, breaks its pipe, or stalls the call, all of which
        surface through the existing :class:`WorkerDied` / retry path.
        """
        if chaos is not None:
            for act in chaos.on("worker.call", scenario=scenario,
                                wid=self.wid):
                if act.kind == "kill_worker":
                    # The dead child tears the pipe down; the send or
                    # recv below then raises exactly as a real crash.
                    self.proc.kill()
                    self.proc.join(timeout=5.0)
                elif act.kind == "break_pipe":
                    try:
                        self.conn.close()
                    except OSError:
                        pass
                elif act.kind == "hang_worker":
                    time.sleep(act.delay)
        try:
            self.conn.send((scenario, params, meta))
            kind, payload = self.conn.recv()
        except (EOFError, OSError, BrokenPipeError) as err:
            raise WorkerDied(
                f"worker {self.wid} (pid {self.proc.pid}) died mid-request: "
                f"{type(err).__name__}") from None
        self.calls += 1
        return kind, payload

    def kill(self) -> None:
        """Hard-stop (deadline enforcement / death cleanup)."""
        try:
            self.proc.kill()
        except (OSError, ValueError):
            pass
        self.proc.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:
            pass

    def retire(self) -> None:
        """Orderly shutdown: sentinel, join, then force if needed."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.proc.join(timeout=1.0)
        if self.proc.is_alive():
            self.kill()
        else:
            try:
                self.conn.close()
            except OSError:
                pass
