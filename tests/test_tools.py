"""Behaviour of the ``python -m repro`` subcommands, each driven as a
subprocess the way a shell user would (dispatch itself, ``recovery`` and
``figure`` are tests/test_cli.py)."""

import json
import subprocess
import sys

import pytest


@pytest.mark.serve
class TestServeCLI:
    def run(self, *args, timeout=600):
        return subprocess.run(
            [sys.executable, "-m", "repro", "serve", *args],
            capture_output=True, text=True, timeout=timeout, cwd=".",
        )

    def test_loadgen_writes_bench_report(self, tmp_path):
        out = tmp_path / "BENCH_SERVE.json"
        proc = self.run("loadgen", "--clients", "2", "--requests", "8",
                        "--jobs", "2", "--nprocs", "2", "--seed", "0",
                        "--cache-dir", str(tmp_path / "cache"),
                        "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "req/s" in proc.stdout
        report = json.loads(out.read_text())
        assert report["bench"] == "serve-loadgen"
        lg = report["loadgen"]
        assert lg["by_status"] == {"ok": 8}
        assert lg["throughput_rps"] > 0
        assert {"p50", "p99"} <= set(lg["latency_s"])

    def test_start_submit_shutdown_round_trip(self):
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "start", "--addr", "127.0.0.1:0",
             "--jobs", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=".",
        )
        try:
            banner = server.stderr.readline()       # "serving on host:port ..."
            assert "serving on" in banner, banner
            addr = banner.split()[2]
            submit = self.run("submit", "sleep", "--param", "seconds=0.01",
                              "--addr", addr, "--json")
            assert submit.returncode == 0, submit.stderr
            assert json.loads(submit.stdout)["status"] == "ok"
            down = self.run("shutdown", "--addr", addr)
            assert down.returncode == 0
            assert server.wait(timeout=30) == 0     # start exits after the op
        finally:
            if server.poll() is None:
                server.kill()
            server.wait()

    def test_telemetry_stats_json_and_metrics(self, tmp_path):
        """A --telemetry server: stats/health round-trip through --json,
        metrics prints Prometheus text, and the telemetry directory ends
        up holding the ledger and the wall trace."""
        tel_dir = tmp_path / "tel"
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "start", "--addr", "127.0.0.1:0",
             "--jobs", "1", "--telemetry", str(tel_dir)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=".",
        )
        try:
            banner = server.stderr.readline()
            assert "serving on" in banner, banner
            addr = banner.split()[2]
            assert "telemetry" in server.stderr.readline()

            submit = self.run("submit", "sleep", "--param", "seconds=0.01",
                              "--addr", addr, "--json")
            assert submit.returncode == 0, submit.stderr
            assert json.loads(submit.stdout)["status"] == "ok"

            stats = self.run("stats", "--addr", addr, "--json")
            assert stats.returncode == 0, stats.stderr
            payload = json.loads(stats.stdout)        # --json is valid JSON
            assert payload["status"] == "ok"
            assert payload["stats"]["submitted"] == 1
            assert payload["stats"]["ok"] == 1

            human = self.run("stats", "--addr", addr)
            assert human.returncode == 0
            assert "submitted: 1" in human.stdout
            assert not human.stdout.lstrip().startswith("{")

            health = self.run("health", "--addr", addr, "--json")
            assert health.returncode == 0
            hp = json.loads(health.stdout)
            assert hp["status"] == "ok" and hp["workers"] >= 1

            metrics = self.run("metrics", "--addr", addr)
            assert metrics.returncode == 0, metrics.stderr
            assert "# TYPE serve_requests counter" in metrics.stdout

            down = self.run("shutdown", "--addr", addr)
            assert down.returncode == 0
            assert server.wait(timeout=30) == 0
        finally:
            if server.poll() is None:
                server.kill()
            server.wait()

        assert (tel_dir / "ledger.sqlite").exists()
        assert (tel_dir / "serve-trace.json").exists()
        runs = subprocess.run(
            [sys.executable, "-m", "repro", "obs", "--runs",
             str(tel_dir / "ledger.sqlite")],
            capture_output=True, text=True, timeout=120, cwd=".",
        )
        assert runs.returncode == 0, runs.stderr
        assert "serve" in runs.stdout and "sleep" in runs.stdout

    def test_submit_unreachable_server_fails_cleanly(self):
        proc = self.run("submit", "sleep", "--addr", "127.0.0.1:1")    # nothing there
        assert proc.returncode == 1
        assert "cannot reach server" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_all_client_commands_fail_cleanly_when_server_down(self):
        for cmd in (["stats"], ["health"], ["metrics"], ["drain"],
                    ["shutdown"], ["resize", "2"]):
            proc = self.run(*cmd, "--addr", "127.0.0.1:1")
            assert proc.returncode == 1, (cmd, proc.stderr)
            assert "cannot reach server" in proc.stderr, cmd
            assert "Traceback" not in proc.stderr, cmd


class TestRunChaos:
    def run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro", "chaos", *args],
            capture_output=True, text=True, timeout=600, cwd=".",
        )

    def test_verify_determinism_smoke(self):
        proc = self.run("--seeds", "2", "--verify-determinism",
                        "--skip-degraded", "--json")
        assert proc.returncode == 0, proc.stderr
        records = [json.loads(line) for line in proc.stdout.splitlines()]
        assert [r["seed"] for r in records] == [0, 1]
        assert all(r["ok"] for r in records)
        for r in records:
            assert r["serve"]["clean_digest"] == r["serve"]["chaos_digest"]
            assert r["sweep"]["clean_digest"] == r["sweep"]["chaos_digest"]
        assert "2/2 seeds byte-identical" in proc.stderr
        assert "NON-DETERMINISTIC" not in proc.stderr

    def test_degraded_scenario_reported(self):
        proc = self.run("--seed", "1", "--requests", "2", "--points", "4")
        assert proc.returncode == 0, proc.stderr
        assert "degraded-mode scenario: ok" in proc.stderr
