"""The unified ``python -m repro`` CLI: dispatch and loadgen."""

import json
import subprocess
import sys

from repro.serve import ServerThread


def run_cli(*args, timeout=600):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, timeout=timeout, cwd=".",
    )


class TestDispatch:
    def test_no_args_prints_usage(self):
        proc = run_cli()
        assert proc.returncode == 0
        for name in ("figure", "recovery", "chaos", "faults", "obs", "serve"):
            assert name in proc.stdout

    def test_unknown_subcommand_exits_2(self):
        for name in ("frobnicate", "bench"):    # never was / retired
            proc = run_cli(name)
            assert proc.returncode == 2
            assert "unknown subcommand" in proc.stderr

    def test_faults_list(self):
        proc = run_cli("faults", "--list")
        assert proc.returncode == 0
        assert "fence-kill" in proc.stdout

    def test_subcommand_help_exits_zero(self):
        for name in ("figure", "serve", "obs"):
            assert run_cli(name, "--help").returncode == 0

    def test_runs_mode_missing_ledger_exits_2(self, tmp_path):
        proc = run_cli("obs", "--runs", str(tmp_path / "nope.sqlite"),
                       timeout=120)
        assert proc.returncode == 2
        assert "no ledger" in proc.stderr


class TestServeLoadgen:
    def test_loadgen_round_trips_against_a_live_server(self, tmp_path):
        """`python -m repro serve loadgen --addr ...` against a running
        server it did not host itself."""
        out = tmp_path / "loadgen.json"
        with ServerThread(workers=1, capacity=16) as srv:
            proc = run_cli(
                "serve", "loadgen", "--addr", str(srv.address),
                "--requests", "8", "--clients", "2", "--nprocs", "2",
                "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "req/s" in proc.stdout
        report = json.loads(out.read_text())
        assert report["target"] == str(srv.address)
        assert report["loadgen"]["by_status"] == {"ok": 8}
        assert report["loadgen"]["client_errors"] == []

    def test_loadgen_against_a_dead_address_exits_1(self):
        """Nothing listens on port 1: no request is answered, so the run
        must not read as a success (and, without --out, writes nothing)."""
        proc = run_cli("serve", "loadgen", "--addr", "127.0.0.1:1",
                       "--requests", "4", timeout=120)
        assert proc.returncode == 1, proc.stdout
        assert "only 0 of 4 requests answered" in proc.stderr
        assert "ConnectionRefusedError" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "wrote" not in proc.stdout
