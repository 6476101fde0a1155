"""The MPI instance: lazy, reference-counted subsystem lifecycle.

Paper §III-B5: instead of initializing the whole library in MPI_Init
and tearing it down in a carefully ordered MPI_Finalize, the prototype
initializes subsystems on demand, counts references, registers cleanup
callbacks with the OPAL framework, and runs them when the *last*
session is finalized — after which a new session can start the cycle
over.  Both the Sessions path and the restructured legacy
MPI_Init/MPI_Finalize path (which wrap an internal session) share this
machinery, "removing the need for any duplicate code".
"""

from __future__ import annotations

from repro.ompi.opal.mca import MCAComponent
from repro.simtime.process import Sleep, SleepUntil

#: Subsystems the instance brings up, in dependency order.  Each costs
#: ``machine.session_subsys_init`` on its first initialization per epoch.
SUBSYSTEMS = (
    "opal_util",
    "mca_base",
    "info",
    "errhandler",
    "attributes",
    "datatype",
    "btl",
    "pml_ob1",
    "coll_base",
    "group",
)


#: The components every rank registers, per framework.  They are the same
#: for every rank of every world, so they are built once and each rank's
#: frameworks hold the tables by reference.
MCA_COMPONENTS = {
    framework: {c.name: c for c in components}
    for framework, components in (
        ("pml", (MCAComponent("ob1", priority=20), MCAComponent("cm", priority=10))),
        ("btl", (MCAComponent("sm", priority=50), MCAComponent("net", priority=30))),
        ("coll", (MCAComponent("tuned", priority=30), MCAComponent("basic", priority=10))),
    )
}


def instance_acquire(runtime):
    """Sub-generator: retain the instance's subsystems, initializing all
    of them on the first acquire of an epoch."""
    reg = runtime.subsystems
    if not reg.is_initialized("pml_ob1"):
        if runtime.engine.compat:
            for name in SUBSYSTEMS:
                yield from _INIT.get(name, _generic_init)(runtime)
        else:
            yield from _init_fused(runtime)
        reg.mark_all_initialized(runtime)
    reg.retain("pml_ob1")       # one record for all of SUBSYSTEMS
    runtime.instance_refcount += 1


#: Subsystems up to and including ``pml_ob1``, and the ones after it.
_THROUGH_PML = SUBSYSTEMS.index("pml_ob1") + 1
_AFTER_PML = len(SUBSYSTEMS) - _THROUGH_PML


def _init_fused(runtime):
    """Fast-path cold init: fuse consecutive subsystem sleeps.

    The reference charges one ``session_subsys_init`` sleep per
    subsystem, with only process-local bookkeeping between the resumes
    (MCA registration).  Nothing outside this rank can observe those
    intermediate instants, so a run of subsystems collapses into a single
    :class:`SleepUntil` at the run's final resume time — computed with
    the reference's exact float-add sequence so timestamps stay
    byte-identical.  ``pml_ob1`` ends the first run: its init registers
    the endpoint with the fabric and commits the modex blob (an RPC), and
    the reference performs both at exactly the fused run's end time.
    """
    engine = runtime.engine
    d = runtime.machine.session_subsys_init
    t = engine.now
    for _ in range(_THROUGH_PML):
        t = t + d               # replay the reference's exact float adds
    yield SleepUntil(t, _THROUGH_PML - 1)
    _mca_register(runtime)
    _pml_setup(runtime)
    yield from runtime.pmix.commit()
    t = engine.now
    for _ in range(_AFTER_PML):
        t = t + d
    yield SleepUntil(t, _AFTER_PML - 1)


def instance_release(runtime):
    """Sub-generator: drop one instance reference; the last one triggers
    the cleanup framework (LIFO teardown of every subsystem)."""
    if runtime.instance_refcount <= 0:
        from repro.ompi.errors import MPIErrIntern

        raise MPIErrIntern("instance released more times than acquired")
    runtime.subsystems.release("pml_ob1")
    runtime.instance_refcount -= 1
    if runtime.instance_refcount == 0:
        yield Sleep(runtime.machine.proc_local_init / 2)  # teardown work
        runtime.cleanup.run_all()
    return
    yield  # pragma: no cover


def _generic_init(runtime):
    yield Sleep(runtime.machine.session_subsys_init)


def _mca_init(runtime):
    """Open MCA frameworks and register the standard components."""
    yield Sleep(runtime.machine.session_subsys_init)
    _mca_register(runtime)


def _mca_register(runtime):
    """The non-sleeping body of :func:`_mca_init` (shared with the fused
    fast path, which performs the time charge separately)."""
    mca = runtime.mca
    for name, components in MCA_COMPONENTS.items():
        mca.framework(name, components).open()
    mca.framework("pml").select(prefer=runtime.config.pml)
    mca.framework("btl").select()
    mca.framework("coll").select()


def _mca_cleanup(runtime):
    for name in MCA_COMPONENTS:
        fw = runtime.mca.framework(name)
        if fw.is_open:
            fw.close()


def _pml_init(runtime):
    """Bring up ob1: create the endpoint and publish our modex blob."""
    yield Sleep(runtime.machine.session_subsys_init)
    _pml_setup(runtime)
    yield from runtime.pmix.commit()


def _pml_setup(runtime):
    """The non-sleeping setup of :func:`_pml_init` (shared with the fused
    fast path): create the endpoint — from here until :func:`_pml_cleanup`
    the fabric delivers to this rank and the fault manager tells it of
    peer deaths — and stage our modex blob."""
    from repro.ompi.pml.ob1 import ENDPOINT_KEY, Ob1Endpoint

    runtime.endpoint = Ob1Endpoint(runtime)
    faults = runtime.fabric.faults
    if faults is not None:
        faults.register_runtime(runtime)
    runtime.pmix.put(
        ENDPOINT_KEY, {"node": runtime.node, "addr": f"ob1-{runtime.proc.rank}"}
    )


def _pml_cleanup(runtime):
    if runtime.endpoint is not None:
        m = runtime.engine.metrics
        if m is not None and m.enabled:
            runtime.endpoint.harvest_metrics(m)
        runtime.fabric.deregister(runtime.proc)
        faults = runtime.fabric.faults
        if faults is not None:
            faults.deregister_runtime(runtime)
        runtime.endpoint = None
    runtime.reset_cid_state()


#: What the reference path runs per subsystem (with the runtime); every
#: other subsystem only charges its init time.
_INIT = {"mca_base": _mca_init, "pml_ob1": _pml_init}

#: The teardown every rank registers by reference: ``(name, cleanup)``
#: rows, newest subsystem first, ``cleanup(runtime)`` where there is one.
TEARDOWN = tuple(
    (name, {"mca_base": _mca_cleanup, "pml_ob1": _pml_cleanup}.get(name))
    for name in reversed(SUBSYSTEMS)
)
