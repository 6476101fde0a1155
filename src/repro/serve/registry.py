"""Scenario registry: the named, cacheable units of serve-able work.

A *scenario* is a module-level function ``fn(**params) -> result`` where
``params`` and ``result`` are JSON-serializable and the function is a
pure, deterministic map from its parameters (the simulator's central
promise).  That contract is exactly :class:`repro.sweep.SweepPoint`'s,
so a serve request shares its cache identity with the batch sweeps:
``cache_key(scenario, params)`` computed here hits the same on-disk
entries ``python -m repro recovery --cache-dir`` writes, and vice versa.

Built-ins:

``sim``
    Run a named rank program under a :class:`repro.api.SimSpec` payload
    — the serve-native scenario (``params={"spec": spec.to_payload(),
    "program": "allreduce", "seed": 0}``).
``recovery-soak``
    One chaos-soak run (``repro.recovery.soak_run``); same scenario
    name the recovery sweep CLI uses, so cache entries interchange.
``figure``
    One paper figure (``repro.bench.figures.run_point``).
``sleep`` / ``flaky``
    Deterministic load/fault scenarios for tests and the load
    generator: ``sleep`` holds a worker for a wall-clock duration;
    ``flaky`` kills its worker process a configured number of times
    before succeeding (exercises the retry path).

Workers resolve scenarios by name in their own process, so custom
scenarios must either be registered at import time of this module's
importers (fork start method) or live in an importable module
(spawn/forkserver).
"""

from __future__ import annotations

import difflib
import os
import time
from typing import Any, Callable, Dict, List

from repro.api import SimSpec, run_world
from repro.ompi.constants import SUM
from repro.sweep import result_digest

ScenarioFn = Callable[..., Any]

_SCENARIOS: Dict[str, ScenarioFn] = {}


def register_scenario(name: str, fn: ScenarioFn, *, replace: bool = False) -> None:
    if not replace and name in _SCENARIOS:
        raise ValueError(f"scenario {name!r} already registered")
    _SCENARIOS[name] = fn


def scenario(name: str) -> ScenarioFn:
    try:
        return _SCENARIOS[name]
    except KeyError:
        msg = f"unknown scenario {name!r}"
        close = difflib.get_close_matches(str(name), _SCENARIOS, n=3)
        if close:
            msg += " (did you mean: " + ", ".join(close) + "?)"
        raise KeyError(msg) from None


def scenario_names() -> List[str]:
    return sorted(_SCENARIOS)


# ---------------------------------------------------------------------------
# "sim": run a rank program under a SimSpec
# ---------------------------------------------------------------------------
def _prog_allreduce(mpi, seed: int):
    """World-model flow: MPI_Init, one allreduce seasoned by the seed."""
    world = yield from mpi.mpi_init()
    total = yield from world.allreduce(world.rank + seed, op=SUM)
    yield from mpi.mpi_finalize()
    return total


def _prog_sessions(mpi, seed: int):
    """Sessions flow: pset group -> comm_create_from_group -> allreduce."""
    session = yield from mpi.session_init()
    group = yield from session.group_from_pset("mpi://world")
    comm = yield from mpi.comm_create_from_group(group, f"serve-{seed}")
    total = yield from comm.allreduce(comm.rank + seed, op=SUM)
    comm.free()
    yield from session.finalize()
    return total


PROGRAMS: Dict[str, Callable] = {
    "allreduce": _prog_allreduce,
    "sessions": _prog_sessions,
}


def run_simspec(spec: Any = None, program: str = "allreduce",
                seed: int = 0) -> Dict[str, Any]:
    """Build a world from a :class:`SimSpec` (or its payload; ``None``
    means a default :class:`SimSpec`), run one named rank program, and
    return a deterministic result record.

    The ``digest`` field is a sha256 over the canonical JSON of the
    per-rank results and the final simulated clock — byte-equal across
    serial, parallel and served executions of the same request.
    """
    return _run_simspec(spec, program, seed, tracer=None)


def _run_simspec(spec: Any, program: str, seed: int, tracer: Any) -> Dict[str, Any]:
    if spec is None:
        sp = SimSpec()
    else:
        sp = spec if isinstance(spec, SimSpec) else SimSpec.from_payload(spec)
    if program not in PROGRAMS:
        raise KeyError(f"unknown program {program!r}; "
                       f"have: {', '.join(sorted(PROGRAMS))}")
    if tracer is not None:
        sp = sp.replace(tracer=tracer)
    res = run_world(sp, PROGRAMS[program], args=(seed,))
    res.raise_first_failure()
    results, t_end = res.result_list(sp.nprocs), res.t_end
    return {
        "program": program,
        "seed": seed,
        "nprocs": sp.nprocs,
        "results": results,
        "t_end": t_end,
        "digest": result_digest({"results": results, "t_end": t_end}),
    }


def run_simspec_traced(spec: Any = None, program: str = "allreduce",
                       seed: int = 0, trace_path: str = "") -> Dict[str, Any]:
    """:func:`run_simspec` with a simulated-time tracer attached.

    The tracer observes but never steers the engine, so the returned
    record — digest included — is byte-identical to the untraced run;
    only the side effect differs: the sim-time Chrome trace is written
    to ``trace_path``.  The live wall-clock trace links here via the
    ``sim_trace`` span attribute (docs/observability.md).
    """
    from repro.obs.export import chrome_trace, dumps
    from repro.simtime.trace import Tracer

    tracer = Tracer()
    result = _run_simspec(spec, program, seed, tracer=tracer)
    if trace_path:
        os.makedirs(os.path.dirname(trace_path) or ".", exist_ok=True)
        with open(trace_path, "w") as fh:
            fh.write(dumps(chrome_trace(tracer)))
    return result


_TRACEABLE = {"sim"}


def traceable(name: str) -> bool:
    """Can this scenario export a simulated-time trace of itself?"""
    return name in _TRACEABLE


def run_traced(name: str, params: Dict[str, Any], trace_path: str) -> Any:
    """Run a :func:`traceable` scenario with sim-trace export.

    Result (and therefore cache identity) is identical to the plain
    ``scenario(name)(**params)`` call — tracing is a pure side channel.
    """
    if name == "sim":
        return run_simspec_traced(trace_path=trace_path, **params)
    raise KeyError(f"scenario {name!r} is not traceable")


# ---------------------------------------------------------------------------
# load/fault scenarios
# ---------------------------------------------------------------------------
def serve_sleep(seconds: float = 0.05, tag: Any = None) -> Dict[str, Any]:
    """Hold a worker for ``seconds`` of wall-clock time (load filler)."""
    time.sleep(seconds)
    return {"slept": seconds, "tag": tag}


def serve_flaky(state_dir: str, key: str = "default", crashes: int = 1,
                value: Any = 0) -> Dict[str, Any]:
    """Kill the worker process ``crashes`` times, then succeed.

    Attempt counts persist in ``state_dir`` (one file per ``key``), so
    each retried delivery sees one more prior attempt — a deterministic
    stand-in for a transiently dying worker.
    """
    os.makedirs(state_dir, exist_ok=True)
    path = os.path.join(state_dir, f"flaky-{key}.attempts")
    try:
        with open(path) as fh:
            attempts = int(fh.read().strip() or 0)
    except OSError:
        attempts = 0
    with open(path, "w") as fh:
        fh.write(str(attempts + 1))
    if attempts < crashes:
        os._exit(41)        # hard death: no exception, no cleanup
    return {"attempts": attempts + 1, "value": value}


def figure_point(figure: str, **kwargs) -> Dict[str, Any]:
    """One paper figure (:func:`repro.bench.figures.run_point`); the
    figure harness loads on the first call, not with the registry."""
    from repro.bench.figures import run_point

    return run_point(figure, **kwargs)


def _register_builtins() -> None:
    from repro.recovery import soak_run

    register_scenario("sim", run_simspec)
    register_scenario("recovery-soak", soak_run)
    register_scenario("figure", figure_point)
    register_scenario("sleep", serve_sleep)
    register_scenario("flaky", serve_flaky)


_register_builtins()
