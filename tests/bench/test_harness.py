"""Unit tests for the benchmark harness containers."""

import pytest

from repro.bench.harness import BenchResult, Series, format_table


class TestSeries:
    def test_add_and_access(self):
        s = Series("x")
        s.add(1, 10.0)
        s.add(2, 20.0)
        assert s.xs() == [1, 2]
        assert s.points == [(1, 10.0), (2, 20.0)]
        assert s.y_at(2) == 20.0

    def test_y_at_missing_raises(self):
        with pytest.raises(KeyError):
            Series("x").y_at(1)


class TestBenchResult:
    def test_series_for_creates_once(self):
        res = BenchResult(exp_id="t", title="t")
        a = res.series_for("a")
        assert res.series_for("a") is a

    def test_ratio(self):
        res = BenchResult(exp_id="t", title="t")
        res.series_for("num").add(1, 10.0)
        res.series_for("num").add(2, 30.0)
        res.series_for("den").add(1, 5.0)
        res.series_for("den").add(2, 10.0)
        assert res.ratio("num", "den") == [(1, 2.0), (2, 3.0)]

    def test_render_contains_everything(self):
        res = BenchResult(exp_id="figX", title="A Title")
        res.series_for("line").add(4, 1.5)
        res.notes.append("a note")
        text = res.render()
        assert "figX" in text and "A Title" in text
        assert "line" in text
        assert "1.5" in text
        assert "a note" in text

    def test_render_handles_missing_points(self):
        res = BenchResult(exp_id="t", title="t")
        res.series_for("a").add(1, 1.0)
        res.series_for("b").add(2, 2.0)
        assert "-" in res.render()


def test_format_table_aligns():
    text = format_table(["col", "c2"], [["x", "yyyy"], ["zzz", "w"]])
    lines = text.splitlines()
    assert len({len(l) for l in lines}) == 1  # all rows same width


class TestCsvExport:
    def test_to_csv_shape(self):
        res = BenchResult(exp_id="t", title="t")
        res.series_for("a").add(1, 1.5)
        res.series_for("a").add(2, 2.5)
        res.series_for("b").add(1, 9.0)
        csv = res.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "x,a,b"
        assert lines[1] == "1,1.5,9.0"
        assert lines[2].startswith("2,2.5,")  # missing b cell is empty
        assert lines[2].endswith(",")

    def test_cli_csv_flag(self, tmp_path):
        import subprocess
        import sys

        out = tmp_path / "fig.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "figure", "fig6b", "--csv", str(out)],
            capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
        assert out.read_text().startswith("x,MPI_Init,Sessions")
