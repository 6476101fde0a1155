"""SimSpec: the unified run description (repro.api.SimSpec).

Covers the wire round-trip, the frozen/equality contract, and the one
call shape ``make_world``/``run_mpi`` accept — a :class:`SimSpec`,
positionally or as ``spec=``, every field of which reaches the cluster
(``recovery``/``recovery_seed``/``engine_compat`` included).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SimSpec, make_world, run_mpi
from repro.machine.model import MachineModel
from repro.machine.presets import laptop
from repro.ompi.config import MpiConfig
from repro.ompi.constants import SUM
from repro.serve import run_simspec
from repro.sweep import cache_key


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

    def test_payload_carries_only_non_default_fields(self):
        assert SimSpec().to_payload() == {}
        assert SimSpec(nprocs=2, grpcomm_radix=2).to_payload() == {"nprocs": 2}
        # A default model is not "no model": it stays on the wire, empty.
        spec = SimSpec(machine=MachineModel(), config=MpiConfig.baseline())
        assert spec.to_payload() == {"machine": {}, "config": {}}
        assert SimSpec.from_payload(spec.to_payload()) == spec


# ---------------------------------------------------------------------------
# the compact payload against the full one (every field, ``asdict`` at
# every level — what to_payload wrote before it dropped defaults)
# ---------------------------------------------------------------------------
def _full_payload(spec: SimSpec) -> dict:
    return {
        "nprocs": spec.nprocs,
        "machine": asdict(spec.machine) if spec.machine is not None else None,
        "ppn": spec.ppn,
        "config": asdict(spec.config) if spec.config is not None else None,
        "psets": ({name: list(ranks) for name, ranks in spec.psets.items()}
                  if spec.psets is not None else None),
        "grpcomm_mode": spec.grpcomm_mode,
        "grpcomm_radix": spec.grpcomm_radix,
        "recovery": spec.recovery,
        "recovery_seed": spec.recovery_seed,
        "engine_compat": spec.engine_compat,
        "partitions": spec.partitions,
    }


def _canon(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


#: String fields whose values are validated.
_CHOICES = {"cid_mode": ["consensus", "excid"],
            "excid_dup_policy": ["pgcid-per-dup", "subfield"]}


def _value(f) -> st.SearchStrategy:
    """The field's own default (set explicitly) or another value."""
    if isinstance(f.default, bool):
        other = st.booleans()
    elif isinstance(f.default, int):
        other = st.integers(1, 64)
    elif isinstance(f.default, float):
        other = st.floats(1e-9, 1e3)
    else:
        other = st.sampled_from(_CHOICES.get(f.name, ["", "x", "laptop"]))
    return st.just(f.default) | other


def _model(cls) -> st.SearchStrategy:
    """``cls`` with some fields set — explicitly, to default or not."""
    return st.fixed_dictionaries(
        {}, optional={f.name: _value(f) for f in fields(cls)},
    ).map(lambda kw: cls(**kw))


_specs = st.builds(
    SimSpec,
    nprocs=st.integers(1, 64),
    machine=st.none() | _model(MachineModel),
    config=st.none() | _model(MpiConfig),
    psets=st.none() | st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.lists(st.integers(0, 63), max_size=6), max_size=3),
    ppn=st.none() | st.integers(1, 8),
    grpcomm_mode=st.sampled_from(["tree", "flat"]),
    grpcomm_radix=st.integers(2, 4),
    recovery=st.booleans(),
    recovery_seed=st.integers(0, 9),
    engine_compat=st.booleans(),
    partitions=st.integers(1, 3),
)


@settings(max_examples=200, deadline=None)
@given(_specs)
def test_compact_payload_round_trips_and_keys_canonically(spec):
    compact = spec.to_payload()
    assert SimSpec.from_payload(json.loads(_canon(compact))) == spec
    # Nothing on the wire repeats a default, at any level.
    for payload, cls in ((compact, SimSpec),
                         (compact.get("machine") or {}, MachineModel),
                         (compact.get("config") or {}, MpiConfig)):
        assert all(payload[f.name] != f.default
                   for f in fields(cls) if f.name in payload)
    # An equal spec built another way (from the full payload) writes the
    # same bytes, so it has the same cache identity.
    twin = SimSpec.from_payload(_full_payload(spec))
    assert twin == spec
    assert _canon(twin.to_payload()) == _canon(compact)
    assert cache_key("sim", {"spec": twin.to_payload()}) \
        == cache_key("sim", {"spec": compact})
    assert len(_canon(compact)) <= len(_canon(_full_payload(spec)))


_runnable_specs = st.builds(
    lambda nodes, ppn, latency, config, radix: SimSpec(
        nprocs=nodes * ppn,
        machine=replace(laptop(num_nodes=nodes), **latency),
        ppn=ppn, config=config, grpcomm_radix=radix),
    nodes=st.integers(1, 2),
    ppn=st.integers(1, 2),
    latency=st.fixed_dictionaries({}, optional={
        name: st.floats(1e-7, 1e-5)
        for name in ("intra_node_latency", "inter_node_latency")}),
    config=st.sampled_from([None, MpiConfig.baseline(),
                            MpiConfig.sessions_prototype()]),
    radix=st.sampled_from([2, 3]),
)


@settings(max_examples=12, deadline=None)
@given(_runnable_specs, st.integers(0, 3))
def test_full_payload_decodes_and_runs_like_the_compact_one(spec, seed):
    full = _full_payload(spec)
    assert SimSpec.from_payload(full) == spec
    program = ("sessions" if spec.config == MpiConfig.sessions_prototype()
               else "allreduce")
    assert run_simspec(full, program=program, seed=seed)["digest"] \
        == run_simspec(spec.to_payload(), program=program,
                       seed=seed)["digest"]


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
