"""Tier-1 guard for the ``python -m repro bench --check`` regression gate.

The gate logic (``repro.bench.perf.check_regression``) is exercised on
canned report payloads — no wall-clock measurement, so the assertions
are exact — plus one end-to-end CLI pass over the smallest real case.
"""

from __future__ import annotations

import json

from repro.bench.perf import check_regression


def _report(**cases):
    return {"bench": "engine-fast-path", "mode": "full", "repeats": 3,
            "python": "3", "cases": cases}


def _case(speedup, events=100, params=None):
    params = params or {"procs": 8}
    return {"params": params, "events": events, "fast_s": 0.1,
            "compat_s": 0.1 * speedup, "fast_eps": events / 0.1,
            "compat_eps": events / (0.1 * speedup), "speedup": speedup,
            "min_speedup": None}


def test_gate_passes_when_equal():
    base = _report(a=_case(2.0), b=_case(1.2))
    assert check_regression(base, base) == []


def test_gate_passes_inside_tolerance():
    base = _report(a=_case(2.0))
    cur = _report(a=_case(1.7))   # -15% with 20% tolerance
    assert check_regression(cur, base, tolerance=0.2) == []


def test_gate_fails_past_tolerance():
    base = _report(a=_case(2.0))
    cur = _report(a=_case(1.5))   # -25% with 20% tolerance
    failures = check_regression(cur, base, tolerance=0.2)
    assert len(failures) == 1 and "a:" in failures[0]
    # A looser tolerance admits the same report.
    assert check_regression(cur, base, tolerance=0.3) == []


def test_gate_fails_on_event_drift_at_same_params():
    base = _report(a=_case(2.0, events=100))
    cur = _report(a=_case(2.0, events=101))
    failures = check_regression(cur, base)
    assert len(failures) == 1
    assert "determinism" in failures[0]


def test_gate_skips_event_check_when_params_differ():
    base = _report(a=_case(2.0, events=100, params={"procs": 8}))
    cur = _report(a=_case(2.0, events=9999, params={"procs": 64}))
    assert check_regression(cur, base) == []


def test_gate_fails_on_missing_case():
    base = _report(a=_case(2.0), b=_case(1.5))
    cur = _report(a=_case(2.0))
    failures = check_regression(cur, base)
    assert len(failures) == 1 and failures[0].startswith("b:")


def test_gate_ignores_cases_added_since_baseline():
    base = _report(a=_case(2.0))
    cur = _report(a=_case(2.0), brand_new=_case(0.1))
    assert check_regression(cur, base) == []


def _partitioned_case(speedup, events=100, cores=1, params=None,
                      min_speedup=2.0):
    params = params or {"nodes": 16, "ppn": 4, "partitions": 4}
    return {"kind": "partitioned", "params": params, "events": events,
            "partitions": params["partitions"], "cores": cores,
            "windows": 10, "boundary_msgs": 5, "serial_s": 0.1 * speedup,
            "partitioned_s": 0.1, "serial_eps": events / (0.1 * speedup),
            "partitioned_eps": events / 0.1, "speedup": speedup,
            "min_speedup": min_speedup,
            "enforced": (min_speedup is not None
                         and cores >= params["partitions"])}


def test_gate_fails_on_kind_change():
    # A case that silently switched measurement axes (scheduler
    # fast-vs-compat -> serial-vs-partitioned) must not have its
    # speedups compared as if they meant the same thing.
    base = _report(a=_case(2.0))
    cur = _report(a=_partitioned_case(0.1))
    failures = check_regression(cur, base)
    assert len(failures) == 1 and "kind" in failures[0]


def test_gate_compares_partitioned_like_for_like():
    base = _report(a=_partitioned_case(0.8, cores=4))
    cur = _report(a=_partitioned_case(0.7, cores=4))   # -12.5%, inside 20%
    assert check_regression(cur, base) == []
    cur = _report(a=_partitioned_case(0.5, cores=4))   # -37.5%
    failures = check_regression(cur, base)
    assert len(failures) == 1 and "speedup" in failures[0]


def test_gate_skips_partitioned_speedup_across_core_counts():
    # A 4-core baseline rerun on a 1-core host: the wall-clock ratio is
    # a property of the machine, so the gate keeps only the
    # deterministic checks (events, coverage).
    base = _report(a=_partitioned_case(2.4, cores=4))
    cur = _report(a=_partitioned_case(0.7, cores=1))
    assert check_regression(cur, base) == []
    # ... but event drift still fails across core counts.
    cur = _report(a=_partitioned_case(0.7, cores=1, events=101))
    failures = check_regression(cur, base)
    assert len(failures) == 1 and "determinism" in failures[0]


def _fleet_case(speedup, events=48, cores=1, shards=2, params=None,
                min_speedup=1.5):
    params = params or {"shards": shards, "requests": 48, "clients": 4,
                        "workers": 1, "nprocs": 2, "seed": 0,
                        "repeat_every": 4}
    return {"kind": "fleet", "params": params, "shards": shards,
            "cores": cores, "events": events, "single_s": 0.1 * speedup,
            "fleet_s": 0.1, "speedup": speedup,
            "balance": {"routed": {"0": events}, "max_over_mean": 1.0},
            "dedup": {"coalesced": 0, "hit_rate": 0.0},
            "hot": {"hits": 0, "misses": events, "hit_rate": 0.0,
                    "evictions": 0},
            "throughput_rps": events / 0.1, "min_speedup": min_speedup,
            "enforced": min_speedup is not None and cores >= shards}


def test_gate_compares_fleet_like_for_like():
    base = _report(a=_fleet_case(1.6, cores=4))
    cur = _report(a=_fleet_case(1.4, cores=4))    # -12.5%, inside 20%
    assert check_regression(cur, base) == []
    cur = _report(a=_fleet_case(0.9, cores=4))    # -44%
    failures = check_regression(cur, base)
    assert len(failures) == 1 and "speedup" in failures[0]


def test_gate_skips_fleet_speedup_across_core_counts():
    # Fleet scaling is a property of the host's parallelism, exactly
    # like the partitioned cases: a 4-core baseline rechecked on 1 core
    # keeps only the deterministic checks.
    base = _report(a=_fleet_case(1.8, cores=4))
    cur = _report(a=_fleet_case(0.6, cores=1))
    assert check_regression(cur, base) == []
    cur = _report(a=_fleet_case(0.6, cores=1, events=47))
    failures = check_regression(cur, base)
    assert len(failures) == 1 and "determinism" in failures[0]


def test_gate_skips_unenforced_scaling_speedups():
    # Un-enforced records (no bar, or a host that cannot actually run
    # the shards/partitions in parallel) track the trajectory honestly
    # but their sub-second wall-clock ratios are noise: a 1-core CI box
    # re-gating its own committed fleet report must not flake.
    base = _report(a=_fleet_case(1.2, cores=1))        # 1 < shards=2
    cur = _report(a=_fleet_case(0.6, cores=1))
    assert check_regression(cur, base) == []
    base = _report(a=_fleet_case(1.2, cores=1, min_speedup=None, shards=1))
    cur = _report(a=_fleet_case(0.6, cores=1, min_speedup=None, shards=1))
    assert check_regression(cur, base) == []
    base = _report(a=_partitioned_case(2.4, cores=2))  # 2 < partitions=4
    cur = _report(a=_partitioned_case(0.5, cores=2))
    assert check_regression(cur, base) == []
    # ... while the deterministic checks still bind for all of them.
    cur = _report(a=_partitioned_case(0.5, cores=2, events=101))
    failures = check_regression(cur, base)
    assert len(failures) == 1 and "determinism" in failures[0]


def test_fleet_smoke_two_shards_in_process():
    """Tier-1 fleet smoke: one real 2-shard bench point, small enough
    for a 1-core box, checked for shape and the routing invariants."""
    from repro.serve.loadgen import run_fleet_case

    rec = run_fleet_case(2, requests=8, clients=2, nprocs=2)
    assert rec["kind"] == "fleet" and rec["shards"] == 2
    assert rec["events"] == 8                 # every request answered ok
    assert sum(rec["balance"]["routed"].values()) == 8
    assert rec["speedup"] > 0
    assert rec["enforced"] is False           # no bar requested
    # sim_workload repeats every 4th point: the repeat either hits the
    # shared hot tier or coalesces in flight on its owner shard.
    assert rec["hot"]["hits"] + rec["dedup"]["coalesced"] >= 1
    # The record gates cleanly against itself.
    assert check_regression(_report(f2=rec), _report(f2=rec)) == []


def test_committed_bench_pr10_is_self_consistent():
    """The committed BENCH_PR10.json gates cleanly against itself and
    carries the 1/2/4-shard trajectory with core-count context."""
    import os

    path = os.path.join(os.path.dirname(__file__), "..", "..",
                        "BENCH_PR10.json")
    committed = json.loads(open(path).read())
    assert check_regression(committed, committed) == []
    assert set(committed["cases"]) == {"fleet-1", "fleet-2", "fleet-4"}
    for name, rec in committed["cases"].items():
        assert rec["kind"] == "fleet"
        assert rec["shards"] == int(name.split("-")[1])
        assert rec["events"] > 0
        assert sum(rec["balance"]["routed"].values()) == rec["events"]
        # The scaling bar binds only when the host could actually run
        # the shards in parallel; the record says which it was.
        assert rec["enforced"] == (rec["min_speedup"] is not None
                                   and rec["cores"] >= rec["shards"])
    assert committed["cases"]["fleet-4"]["min_speedup"] is not None


def test_committed_bench_pr9_is_self_consistent():
    """The committed BENCH_PR9.json gates cleanly against itself and
    carries the partitioned cases with their core-count context."""
    import os

    path = os.path.join(os.path.dirname(__file__), "..", "..",
                        "BENCH_PR9.json")
    committed = json.loads(open(path).read())
    assert check_regression(committed, committed) == []
    for name in ("fig3-init-1k-p4", "fig3-init-4k"):
        rec = committed["cases"][name]
        assert rec["kind"] == "partitioned"
        assert rec["partitions"] == 4
        assert rec["cores"] >= 1
        assert rec["windows"] > 0
        # The >=2x bar binds only when the host could actually run the
        # partitions in parallel; the record says which it was.
        assert rec["enforced"] == (rec["min_speedup"] is not None
                                   and rec["cores"] >= rec["partitions"])
    assert committed["cases"]["fig3-init-1k-p4"]["events"] \
        == committed["cases"]["fig3-init-1k"]["events"]


def test_cli_check_roundtrip(tmp_path):
    """End-to-end: a real quick run gated against its own output passes;
    a doctored baseline demanding an impossible speedup fails."""
    from repro.cli.bench import main

    out = tmp_path / "fresh.json"
    baseline = tmp_path / "baseline.json"
    argv = ["--quick", "--repeats", "1", "--cases", "comm-dup",
            "--out", str(out)]
    assert main(argv) == 0
    report = json.loads(out.read_text())

    # Wall-clock speedups are noisy run-to-run; floor the committed
    # speedup so the pass verdict only depends on the deterministic
    # checks (event counts at identical params, case coverage).
    relaxed = json.loads(json.dumps(report))
    relaxed["cases"]["comm-dup"]["speedup"] = 0.01
    baseline.write_text(json.dumps(relaxed))
    assert main(argv + ["--check", str(baseline)]) == 0

    doctored = json.loads(out.read_text())
    doctored["cases"]["comm-dup"]["speedup"] = 1000.0
    baseline.write_text(json.dumps(doctored))
    assert main(argv + ["--check", str(baseline)]) == 1

    assert main(argv + ["--check", str(tmp_path / "missing.json")]) == 2
