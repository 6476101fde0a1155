"""The frozen-bytes corpus: ``identity.txt`` beside this file.

The corpus is the output of ``python -m repro obs --identity --seeds
0:50`` (``repro.obs.identity``): every obs scenario at 2x2, 4x4 and 8x8
(Perfetto sha, events, final clock, metrics sha), soak seed 0 at 8x16
and 8x32, and soak seeds 0..49 (record digest and trace sha).  Any
change that moves a simulated byte — an event out of order, a float add
regrouped, a counter off by one — fails here.  Regenerating the file is
a reviewed act, never a way to make this test pass:

    PYTHONPATH=src python -m repro obs --identity --seeds 0:50 > tests/stackparity/identity.txt
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.obs.identity import identity_lines
from repro.obs.scenarios import scenario_names

pytestmark = pytest.mark.stackparity

CORPUS = Path(__file__).with_name("identity.txt")
SEEDS = range(50)
REGENERATE = ("PYTHONPATH=src python -m repro obs --identity --seeds 0:50 "
              "> tests/stackparity/identity.txt")


def _mismatch(expected, actual, shown: int = 5) -> str:
    """The first ``shown`` differing lines, numbered, and the command
    that regenerates the corpus."""
    out = []
    for no in range(max(len(expected), len(actual))):
        want = expected[no] if no < len(expected) else "<missing>"
        got = actual[no] if no < len(actual) else "<missing>"
        if want != got:
            out.append(f"line {no + 1}:\n  corpus: {want}\n  now:    {got}")
            if len(out) == shown:
                break
    return ("simulated bytes moved (first differing lines):\n"
            + "\n".join(out)
            + f"\nif the move is intended, regenerate with\n  {REGENERATE}")


def test_corpus_is_unchanged():
    expected = CORPUS.read_text().splitlines()
    actual = list(identity_lines(SEEDS))
    assert actual == expected, _mismatch(expected, actual)


def test_corpus_covers_every_scenario_at_every_size():
    lines = CORPUS.read_text().splitlines()
    sizes = {tuple(ln.split()[:2]) for ln in lines if not ln.startswith("soak")}
    assert sizes == {(name, size) for name in scenario_names()
                     for size in ("2x2", "4x4", "8x8")}
    assert [ln.split()[0] for ln in lines if ln.startswith("soak")] == (
        ["soak/0@8x16", "soak/0@8x32"] + [f"soak/{s}" for s in SEEDS])


def test_mismatch_names_the_line_and_the_regeneration_command():
    msg = _mismatch(["a", "b", "c"], ["a", "B"])
    assert "line 2:\n  corpus: b\n  now:    B" in msg
    assert "line 3:\n  corpus: c\n  now:    <missing>" in msg
    assert REGENERATE in msg


def test_registry_covers_known_scenarios():
    """The corpus must not silently shrink: these six are load-bearing
    (new scenarios are picked up automatically via scenario_names)."""
    for required in ("fig3-init", "fig3-init-world", "fig4-dup",
                     "fence-chain", "pingpong", "faults-drop"):
        assert required in scenario_names()
