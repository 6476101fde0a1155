"""Shared benchmark plumbing: result containers and table printing."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple


@dataclass
class Series:
    """One line of a figure: label + (x, y) points."""

    label: str
    points: List[Tuple[Any, float]] = field(default_factory=list)

    def add(self, x: Any, y: float) -> None:
        self.points.append((x, y))

    def xs(self) -> List[Any]:
        return [x for x, _y in self.points]

    def y_at(self, x: Any) -> float:
        for px, py in self.points:
            if px == x:
                return py
        raise KeyError(x)


@dataclass
class BenchResult:
    """Output of one figure/table reproduction."""

    exp_id: str                     # e.g. "fig3a"
    title: str
    series: Dict[str, Series] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    obs: Dict[str, Any] = field(default_factory=dict)   # --obs breakdowns

    def series_for(self, label: str) -> Series:
        if label not in self.series:
            self.series[label] = Series(label)
        return self.series[label]

    def ratio(self, num_label: str, den_label: str) -> List[Tuple[Any, float]]:
        """Pointwise ratio of two series sharing x values."""
        num = self.series[num_label]
        den = self.series[den_label]
        return [(x, y / den.y_at(x)) for x, y in num.points]

    def _rows(self, cell, missing: str) -> List[List[str]]:
        """One row per x (first-seen order): x, then each series' y
        through ``cell``, or ``missing`` where the series has no point."""
        ys = [dict(s.points) for s in self.series.values()]
        xs = dict.fromkeys(x for s in self.series.values() for x in s.xs())
        return [[str(x)] + [cell(col[x]) if x in col else missing for col in ys]
                for x in xs]

    def to_csv(self) -> str:
        """CSV rendering: one row per x, one column per series (for
        plotting the reproduced figures with external tooling)."""
        lines = ["x," + ",".join(str(lbl) for lbl in self.series)]
        lines.extend(",".join(row) for row in self._rows(repr, ""))
        return "\n".join(lines) + "\n"

    def to_payload(self) -> Dict[str, Any]:
        """JSON-serializable dict; inverse of :meth:`from_payload`.  This
        is what the sweep cache stores, so it must capture everything
        render()/to_csv()/to_json() read."""
        return {
            "exp_id": self.exp_id,
            "title": self.title,
            "series": {lbl: [list(p) for p in s.points]
                       for lbl, s in self.series.items()},
            "notes": self.notes,
            "obs": self.obs,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "BenchResult":
        result = cls(
            exp_id=payload["exp_id"],
            title=payload["title"],
            notes=list(payload.get("notes", [])),
            obs=dict(payload.get("obs", {})),
        )
        for lbl, points in payload.get("series", {}).items():
            series = result.series_for(lbl)
            for x, y in points:
                series.add(x, y)
        return result

    def to_json(self) -> str:
        """Deterministic JSON dump (the ``--json`` flag of run_figure)."""
        import json

        return json.dumps(self.to_payload(), sort_keys=True, indent=2) + "\n"

    def render(self) -> str:
        """Paper-style text rendering: one row per x, one column per series."""
        out = [f"== {self.exp_id}: {self.title} =="]
        out.append(format_table(["x", *self.series],
                                self._rows(lambda y: f"{y:.6g}", "-")))
        for note in self.notes:
            out.append(f"   note: {note}")
        return "\n".join(out)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)

