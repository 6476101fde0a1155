"""SimSpec: the unified run description (repro.api.SimSpec).

Covers the wire round-trip, the frozen/equality contract, and the one
call shape ``make_world``/``run_mpi`` accept — a :class:`SimSpec`,
positionally or as ``spec=``, every field of which reaches the cluster
(``recovery``/``recovery_seed``/``engine_compat`` included).
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro.api import SimSpec, make_world, run_mpi
from repro.machine.presets import laptop
from repro.ompi.config import MpiConfig
from repro.ompi.constants import SUM


def _main(mpi):
    world = yield from mpi.mpi_init()
    total = yield from world.allreduce(world.rank, op=SUM)
    yield from mpi.mpi_finalize()
    return total


def _full_spec() -> SimSpec:
    return SimSpec(
        nprocs=4,
        machine=laptop(num_nodes=2),
        ppn=2,
        config=MpiConfig.sessions_prototype(),
        psets={"mpi://odd": [1, 3]},
        grpcomm_mode="flat",
        grpcomm_radix=3,
        recovery=True,
        recovery_seed=7,
        engine_compat=True,
    )


# ---------------------------------------------------------------------------
# the dataclass contract
# ---------------------------------------------------------------------------
class TestSimSpec:
    def test_frozen(self):
        with pytest.raises(AttributeError):
            SimSpec(nprocs=2).nprocs = 4

    def test_needs_at_least_one_rank(self):
        with pytest.raises(ValueError, match="at least one rank"):
            SimSpec(nprocs=0)

    def test_psets_normalized_for_equality(self):
        a = SimSpec(nprocs=4, psets={"p": [0, 1]})
        b = SimSpec(nprocs=4, psets={"p": (0, 1)})
        assert a == b
        assert a.psets == {"p": (0, 1)}

    def test_replace(self):
        base = SimSpec(nprocs=2)
        bumped = base.replace(nprocs=8, recovery=True)
        assert (bumped.nprocs, bumped.recovery) == (8, True)
        assert base.nprocs == 2     # original untouched


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------
class TestPayloadRoundTrip:
    def test_round_trip_defaults(self):
        spec = SimSpec(nprocs=3)
        assert SimSpec.from_payload(spec.to_payload()) == spec

    def test_round_trip_full_through_json(self):
        spec = _full_spec()
        wire = json.dumps(spec.to_payload(), sort_keys=True)
        assert SimSpec.from_payload(json.loads(wire)) == spec

    def test_payload_is_canonical_json_stable(self):
        spec = _full_spec()
        canon = lambda p: json.dumps(p, sort_keys=True, separators=(",", ":"))
        assert canon(spec.to_payload()) == canon(spec.to_payload())

    def test_tracer_rejected_on_the_wire(self):
        spec = SimSpec(nprocs=2, tracer=object())
        with pytest.raises(ValueError, match="tracer"):
            spec.to_payload()
        with pytest.raises(ValueError, match="tracer"):
            SimSpec.from_payload({"nprocs": 2, "tracer": "x"})

    def test_unknown_payload_field_rejected(self):
        with pytest.raises(ValueError, match="nprcs"):
            SimSpec.from_payload({"nprcs": 2})


# ---------------------------------------------------------------------------
# the one call shape (this class used to pin the loose-kwargs shim)
# ---------------------------------------------------------------------------
class TestLegacyShim:
    def test_spec_path_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            make_world(spec=SimSpec(nprocs=2, ppn=2))
            run_mpi(SimSpec(nprocs=2), _main)

    def test_non_spec_first_argument_names_simspec(self):
        with pytest.raises(TypeError, match="SimSpec"):
            make_world(4)
        with pytest.raises(TypeError, match="SimSpec"):
            run_mpi(2, _main)

    def test_spec_and_legacy_kwargs_rejected(self):
        with pytest.raises(TypeError, match="ppn"):
            make_world(spec=SimSpec(nprocs=2), ppn=1)
        with pytest.raises(TypeError, match="grpcomm_mode"):
            run_mpi(SimSpec(nprocs=2), _main, grpcomm_mode="flat")

    def test_spec_passed_twice_rejected(self):
        with pytest.raises(TypeError, match="multiple values"):
            make_world(SimSpec(nprocs=2), spec=SimSpec(nprocs=2))

    def test_nprocs_conflict_rejected(self):
        with pytest.raises(TypeError, match="multiple values"):
            make_world(4, spec=SimSpec(nprocs=2))

    def test_missing_nprocs_rejected(self):
        with pytest.raises(TypeError, match="spec"):
            make_world()


# ---------------------------------------------------------------------------
# positional spec vs spec=: one parameter path
# ---------------------------------------------------------------------------
class TestEquivalence:
    def test_run_mpi_results_identical(self):
        spec = SimSpec(nprocs=4, machine=laptop(num_nodes=2), ppn=2)
        assert run_mpi(spec, _main) == run_mpi(spec=spec, main=_main) \
            == [6, 6, 6, 6]

    def test_run_mpi_no_longer_drops_recovery_and_engine_flags(self):
        # The old kwargs API accepted but never forwarded these.
        spec = SimSpec(nprocs=2, recovery=True, recovery_seed=7,
                       engine_compat=True)
        _, world = run_mpi(spec, _main, return_world=True)
        assert world.cluster.recovery is True
        assert world.cluster.engine.compat is True

    def test_world_remembers_its_spec(self):
        spec = SimSpec(nprocs=2)
        assert make_world(spec=spec).spec is spec
