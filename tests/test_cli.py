"""The unified ``python -m repro`` CLI: dispatch and fleet loadgen."""

import json
import subprocess
import sys

from repro.serve import FleetThread


def run_cli(*args, timeout=600):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, timeout=timeout, cwd=".",
    )


class TestDispatch:
    def test_no_args_prints_usage(self):
        proc = run_cli()
        assert proc.returncode == 0
        for name in ("figure", "recovery", "chaos", "faults", "bench",
                     "obs", "serve"):
            assert name in proc.stdout

    def test_unknown_subcommand_exits_2(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2
        assert "unknown subcommand" in proc.stderr

    def test_faults_list(self):
        proc = run_cli("faults", "--list")
        assert proc.returncode == 0
        assert "fence-kill" in proc.stdout

    def test_subcommand_help_exits_zero(self):
        for name in ("figure", "bench", "serve", "obs"):
            assert run_cli(name, "--help").returncode == 0


class TestServeLoadgenFleet:
    def test_loadgen_round_trips_against_a_live_fleet(self, tmp_path):
        """`python -m repro serve loadgen --addr ...` against a running
        2-shard fleet: the router is indistinguishable from a server."""
        out = tmp_path / "fleet_loadgen.json"
        with FleetThread(shards=2, workers=1, capacity=16) as fleet:
            proc = run_cli(
                "serve", "loadgen", "--addr", str(fleet.address),
                "--requests", "8", "--clients", "2", "--nprocs", "2",
                "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "req/s" in proc.stdout
        report = json.loads(out.read_text())
        assert report["target"] == str(fleet.address)
        assert report["loadgen"]["by_status"] == {"ok": 8}
        assert report["loadgen"]["client_errors"] == []

    def test_loadgen_self_hosts_a_fleet_with_shards_flag(self, tmp_path):
        out = tmp_path / "self_fleet.json"
        proc = run_cli(
            "serve", "loadgen", "--shards", "2", "--requests", "8",
            "--clients", "2", "--nprocs", "2", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "fleet:" in proc.stdout
        report = json.loads(out.read_text())
        assert report["bench"] == "serve-fleet-loadgen"
        assert report["shards"] == 2
        assert report["loadgen"]["by_status"] == {"ok": 8}
        assert report["fleet"]["live"] == 2
        assert sum(report["fleet"]["routed"].values()) == 8
