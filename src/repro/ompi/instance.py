"""The MPI instance: lazy, reference-counted subsystem lifecycle.

Paper §III-B5: instead of initializing the whole library in MPI_Init
and tearing it down in a carefully ordered MPI_Finalize, the prototype
initializes subsystems on first use, counts references, and tears them
down when the *last* session is finalized — after which the library is
"truly uninitialized" and a new session can start the cycle over.  Both
the Sessions path and the restructured legacy MPI_Init/MPI_Finalize
path (which wrap an internal session) share this lifecycle, "removing
the need for any duplicate code".

The ten :data:`SUBSYSTEMS` always come up and go down together, so the
whole lifecycle is three fields of the rank's runtime:
``instance_refcount`` (sessions holding the instance), ``instance_up``
(true from the cold init until the teardown) and ``instance_epochs``
(cold inits so far).
"""

from __future__ import annotations

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

#: The PMLs a configuration may name (MCA's ``pml`` framework).
PMLS = ("ob1", "cm")


def instance_acquire(runtime):
    """Sub-generator: retain the instance, initializing every subsystem
    on the first acquire of an epoch."""
    if not runtime.instance_up:
        yield from _init_fused(runtime)
        runtime.instance_up = True
        runtime.instance_epochs += 1
    runtime.instance_refcount += 1


#: Subsystems up to and including ``pml_ob1``, and the ones after it.
_THROUGH_PML = SUBSYSTEMS.index("pml_ob1") + 1
_AFTER_PML = len(SUBSYSTEMS) - _THROUGH_PML


def _init_fused(runtime):
    """Cold init: each subsystem costs one ``session_subsys_init``.

    Only process-local bookkeeping (the PML selection) happens between
    two subsystems' inits, and nothing outside this rank can observe
    those intermediate instants, so a run of subsystems is a single
    :class:`SleepUntil` at the run's final time, charged as one logical
    event per subsystem.  ``pml_ob1`` ends the first run: its init
    registers the endpoint with the fabric and commits the modex blob
    (an RPC) at exactly the run's end time.
    """
    engine = runtime.engine
    d = runtime.machine.session_subsys_init
    t = engine.now
    for _ in range(_THROUGH_PML):
        # The same float adds as one sleep per subsystem: the times the
        # frozen-bytes corpus pins depend on the rounding of each add.
        t = t + d
    yield SleepUntil(t, _THROUGH_PML - 1)
    if runtime.config.pml not in PMLS:
        from repro.ompi.errors import MPIErrIntern

        raise MPIErrIntern(f"no component pml/{runtime.config.pml}")
    _pml_setup(runtime)
    yield from runtime.pmix.commit()
    t = engine.now
    for _ in range(_AFTER_PML):
        t = t + d
    yield SleepUntil(t, _AFTER_PML - 1)


def instance_release(runtime):
    """Sub-generator: drop one instance reference; the last one tears
    every subsystem down."""
    if runtime.instance_refcount <= 0:
        from repro.ompi.errors import MPIErrIntern

        raise MPIErrIntern("instance released more times than acquired")
    runtime.instance_refcount -= 1
    if runtime.instance_refcount == 0:
        yield Sleep(runtime.machine.proc_local_init / 2)  # teardown work
        _pml_cleanup(runtime)
        runtime.instance_up = False


def _pml_setup(runtime):
    """Bring up ob1: create the endpoint — from here until
    :func:`_pml_cleanup` the fabric delivers to this rank and the fault
    manager tells it of peer deaths — and stage our modex blob."""
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
