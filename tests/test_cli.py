"""The unified ``python -m repro`` CLI, each subcommand driven as a
subprocess the way a shell user would: dispatch, ``recovery``, loadgen,
``figure``, the ``serve`` client commands and ``chaos``."""

import json
import pathlib
import subprocess
import sys

import pytest

from repro.cli import faults, figure
from repro.cli.main import main as cli_main
from repro.serve import ServerThread

EXPERIMENTS_MD = pathlib.Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"


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


class TestFaults:
    """``python -m repro faults`` in-process: each scenario twice, the
    same bytes both times, and the outcome lines it prints today."""

    @pytest.mark.parametrize("argv, lines", [
        (["fence-kill"], ["  rank 7: killed\n",
                          "  fault stats: kill_proc=1\n"]),
        (["node-down"], ["  rank 7: killed\n",
                         "  fault stats: dead_drop=1, kill_node=1\n"]),
        (["chaos", "--seed", "7"],
         ["  rank 7: stopped after 1 fences (PMIX_ERR_TIMEOUT)\n",
          "  fault stats: drop_msg=1, kill_proc=1\n"]),
    ], ids=["fence-kill", "node-down", "chaos-seed-7"])
    def test_scenario_is_deterministic(self, argv, lines, capsys):
        outs = []
        for _ in range(2):
            assert faults.main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        for line in lines:
            assert line in outs[0], outs[0]


class TestSizeFlags:
    """A size or count flag given 0 is a usage error, not a traceback
    from deep inside the run or a vacuous "0/0 seeds" pass."""

    @pytest.mark.parametrize("argv", [
        ["obs", "--scenario", "faults-drop", "--nodes", "0"],
        ["obs", "--scenario", "faults-drop", "--ppn", "0"],
        ["recovery", "--seeds", "0"],
        ["recovery", "--seeds", "-3"],
        ["recovery", "--nodes", "0"],
        ["recovery", "--ranks", "0"],
        ["chaos", "--seeds", "0"],
        ["chaos", "--nprocs", "0"],
    ], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
    def test_non_positive_size_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {argv[-2]}: must be >= 1, got {argv[-1]}" in err
        assert "Traceback" not in err


class TestRunRecovery:
    def test_jobs_output_identical_to_serial(self):
        serial = run_cli("recovery", "--seeds", "3", "--json")
        fanned = run_cli("recovery", "--seeds", "3", "--jobs", "2", "--json")
        assert serial.returncode == 0 and fanned.returncode == 0
        assert serial.stdout == fanned.stdout     # records AND digests
        digests = [json.loads(line)["digest"]
                   for line in serial.stdout.splitlines()]
        assert len(digests) == 3 and len(set(digests)) == 3

    def test_cache_hits_on_rerun(self, tmp_path):
        first = run_cli("recovery", "--seeds", "2", "--json",
                        "--cache-dir", str(tmp_path))
        again = run_cli("recovery", "--seeds", "2", "--json",
                        "--cache-dir", str(tmp_path))
        assert first.returncode == 0 and again.returncode == 0
        assert "2 miss(es)" in first.stderr
        assert "2 hit(s)" in again.stderr
        assert first.stdout == again.stdout


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


class TestRunFigure:
    def run(self, *args):
        return run_cli("figure", *args)

    def test_list(self):
        proc = self.run("--list")
        assert proc.returncode == 0
        for name in ("fig3a", "fig4", "fig7", "ablation_dup_policy"):
            assert name in proc.stdout

    def test_runs_a_figure(self):
        proc = self.run("fig6b")
        assert proc.returncode == 0
        assert "natural-order ring latency" in proc.stdout
        assert "MPI_Init" in proc.stdout and "Sessions" in proc.stdout

    def test_unknown_figure_exits_2(self):
        proc = self.run("fig99")
        assert proc.returncode == 2
        assert "unknown figure" in proc.stderr

    def test_no_args_lists(self):
        assert self.run().returncode == 0

    def test_multiple_figures_with_jobs_and_cache(self, tmp_path):
        proc = self.run("table1", "fig6b", "--jobs", "2",
                        "--cache-dir", str(tmp_path))
        assert proc.returncode == 0
        assert "== table1" in proc.stdout and "== fig6b" in proc.stdout
        assert "2 miss(es)" in proc.stderr
        again = self.run("table1", "fig6b", "--cache-dir", str(tmp_path))
        assert again.returncode == 0
        assert "2 hit(s)" in again.stderr
        # A cache hit renders the same tables as the fresh run (modulo
        # the wall-clock footer).
        strip = lambda s: s[:s.rfind("\n(")]
        assert strip(again.stdout) == strip(proc.stdout)

    def test_csv_requires_single_figure(self):
        proc = self.run("table1", "fig6b", "--csv", "out.csv")
        assert proc.returncode == 2
        assert "exactly one figure" in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["fig6b", "--presync"], ["ablation_grpcomm", "--full"],
        ["table1", "--partitions", "2"], ["--report", "--obs"],
    ])
    def test_a_flag_the_figure_does_not_take_exits_2(self, argv, capsys):
        assert figure.main(argv) == 2
        flag = next(arg for arg in argv[1:] if arg.startswith("--"))
        assert f"{argv[0]} does not support {flag}" in capsys.readouterr().err

    def test_report_is_the_committed_experiments_md(self, capsys):
        """In-process, so it reuses the figures tests/bench/test_claims.py
        already computed."""
        assert figure.main(["--report"]) == 0
        assert capsys.readouterr().out == EXPERIMENTS_MD.read_text(encoding="utf-8"), (
            "EXPERIMENTS.md is stale: regenerate it with "
            "`python -m repro figure --report > EXPERIMENTS.md`")


@pytest.mark.serve
class TestServeCLI:
    def test_loadgen_writes_bench_report(self, tmp_path):
        out = tmp_path / "BENCH_SERVE.json"
        proc = run_cli("serve", "loadgen", "--clients", "2", "--requests", "8",
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
            submit = run_cli("serve", "submit", "sleep", "--param", "seconds=0.01",
                             "--addr", addr, "--json")
            assert submit.returncode == 0, submit.stderr
            assert json.loads(submit.stdout)["status"] == "ok"
            down = run_cli("serve", "shutdown", "--addr", addr)
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

            submit = run_cli("serve", "submit", "sleep", "--param", "seconds=0.01",
                             "--addr", addr, "--json")
            assert submit.returncode == 0, submit.stderr
            assert json.loads(submit.stdout)["status"] == "ok"

            stats = run_cli("serve", "stats", "--addr", addr, "--json")
            assert stats.returncode == 0, stats.stderr
            payload = json.loads(stats.stdout)        # --json is valid JSON
            assert payload["status"] == "ok"
            assert payload["stats"]["submitted"] == 1
            assert payload["stats"]["ok"] == 1

            human = run_cli("serve", "stats", "--addr", addr)
            assert human.returncode == 0
            assert "submitted: 1" in human.stdout
            assert not human.stdout.lstrip().startswith("{")

            health = run_cli("serve", "health", "--addr", addr, "--json")
            assert health.returncode == 0
            hp = json.loads(health.stdout)
            assert hp["status"] == "ok" and hp["workers"] >= 1

            metrics = run_cli("serve", "metrics", "--addr", addr)
            assert metrics.returncode == 0, metrics.stderr
            assert "# TYPE serve_requests counter" in metrics.stdout

            down = run_cli("serve", "shutdown", "--addr", addr)
            assert down.returncode == 0
            assert server.wait(timeout=30) == 0
        finally:
            if server.poll() is None:
                server.kill()
            server.wait()

        assert (tel_dir / "ledger.sqlite").exists()
        assert (tel_dir / "serve-trace.json").exists()
        runs = run_cli("obs", "--runs", str(tel_dir / "ledger.sqlite"),
                       timeout=120)
        assert runs.returncode == 0, runs.stderr
        assert "serve" in runs.stdout and "sleep" in runs.stdout

    def test_submit_unreachable_server_fails_cleanly(self):
        proc = run_cli("serve", "submit", "sleep", "--addr", "127.0.0.1:1")    # nothing there
        assert proc.returncode == 1
        assert "cannot reach server" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_all_client_commands_fail_cleanly_when_server_down(self):
        for cmd in (["stats"], ["health"], ["metrics"], ["drain"],
                    ["shutdown"], ["resize", "2"]):
            proc = run_cli("serve", *cmd, "--addr", "127.0.0.1:1")
            assert proc.returncode == 1, (cmd, proc.stderr)
            assert "cannot reach server" in proc.stderr, cmd
            assert "Traceback" not in proc.stderr, cmd


class TestRunChaos:
    def test_verify_determinism_smoke(self):
        proc = run_cli("chaos", "--seeds", "2", "--verify-determinism",
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
        proc = run_cli("chaos", "--seed", "1", "--requests", "2", "--points", "4")
        assert proc.returncode == 0, proc.stderr
        assert "degraded-mode scenario: ok" in proc.stderr
