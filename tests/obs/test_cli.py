"""Smoke tests for the observability CLI tools."""

import json
import subprocess
import sys

import pytest

pytestmark = pytest.mark.obs

_VALID_PHASES = {"B", "E", "X", "i", "I", "M", "s", "t", "f", "C"}


class TestObsReport:
    def run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro", "obs", *args],
            capture_output=True, text=True, timeout=600, cwd=".",
        )

    def test_list(self):
        proc = self.run("--list")
        assert proc.returncode == 0
        for name in ("fig3-init", "fence-chain", "fig4-dup"):
            assert name in proc.stdout

    def test_unknown_scenario_exits_2(self):
        proc = self.run("--scenario", "nope")
        assert proc.returncode == 2

    def test_fig3_init_report_and_export(self, tmp_path):
        out = tmp_path / "trace.json"
        proc = self.run("--scenario", "fig3-init", "--export", str(out))
        assert proc.returncode == 0, proc.stderr
        # The three report sections.
        assert "span flamegraph" in proc.stdout
        assert "metrics" in proc.stdout
        assert "critical path" in proc.stdout
        # Every layer shows up in the flamegraph.
        for needle in ("ompi.session.init", "pmix", "prrte.grpcomm",
                       "simtime.proc.run"):
            assert needle in proc.stdout
        # The export is valid Chrome trace_event JSON.
        obj = json.loads(out.read_text())
        assert isinstance(obj["traceEvents"], list) and obj["traceEvents"]
        for ev in obj["traceEvents"]:
            assert ev["ph"] in _VALID_PHASES
            assert isinstance(ev["pid"], int) and isinstance(ev["tid"], int)
            if ev["ph"] == "X":
                assert ev["dur"] >= 0 and "name" in ev
            if ev["ph"] in ("s", "f"):
                assert "id" in ev
        names = {e["name"] for e in obj["traceEvents"] if e["ph"] == "X"}
        assert any(n.startswith("ompi.") for n in names)
        assert any(n.startswith("pmix.") for n in names)
        assert any(n.startswith("prrte.") for n in names)
        assert any(n.startswith("simtime.") for n in names)
        flows = [e for e in obj["traceEvents"] if e["ph"] == "s"]
        assert any(e["name"].startswith("pml.") for e in flows)

    def test_identity_prints_the_same_text_twice(self):
        """The committed corpus was printed by another process: this one
        prints the same lines, up to its shorter seed range."""
        from pathlib import Path

        proc = self.run("--identity", "--seeds", "0:3")
        assert proc.returncode == 0, proc.stderr
        corpus = (Path(__file__).parents[1] / "stackparity"
                  / "identity.txt").read_text().splitlines()
        keep = {"soak/0", "soak/1", "soak/2"}
        assert proc.stdout.splitlines() == [
            ln for ln in corpus
            if not ln.startswith("soak/") or "@" in ln or ln.split()[0] in keep]

    @pytest.mark.parametrize("seeds", ["50:0", "-1:3", "3"])
    def test_identity_rejects_a_bad_seed_range(self, seeds):
        proc = self.run("--identity", f"--seeds={seeds}")
        assert proc.returncode == 2
        assert "expected" in proc.stderr and not proc.stdout


class TestRunFigureObs:
    def run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro", "figure", *args],
            capture_output=True, text=True, timeout=600, cwd=".",
        )

    def test_fig3a_obs_json(self, tmp_path):
        out = tmp_path / "fig3a.json"
        proc = self.run("fig3a", "--obs", "--json", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "critical-path attribution" in proc.stdout
        data = json.loads(out.read_text())
        assert data["obs"]
        for entry in data["obs"].values():
            assert entry["total"] > 0
            assert entry["stages"]
            stage_sum = sum(st["duration"] for st in entry["stages"])
            assert stage_sum == pytest.approx(entry["total"], abs=1e-12)

    def test_obs_on_unsupported_figure_exits_2(self):
        proc = self.run("fig6b", "--obs")
        assert proc.returncode == 2
        assert "does not support --obs" in proc.stderr
