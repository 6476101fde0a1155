"""The paper's claims table (:mod:`repro.bench.claims`), asserted row by row.

Each row runs at CI scale in tier-1, over figures computed once per
process; the ``slow`` twin runs the same rows at paper scale
(``quick=False``: the full node sweeps and the 256/1,024-rank 2MESH
problems).  A failing row quotes its claim, its tolerance and the
figures it read.  That EXPERIMENTS.md is this table's rendering is
checked in ``tests/test_cli.py``.
"""

from __future__ import annotations

import pytest

from repro.bench import claims, figures

ROWS = pytest.mark.parametrize("claim", claims.CLAIMS, ids=lambda c: c.id)


def assert_holds(claim, quick):
    outcome = claims.check(claim, quick)
    assert outcome.holds, "\n\n".join([
        f"{claim.section}: {claim.text}\nTolerance: {claim.tolerance}\n"
        f"Measured: {outcome.measured}", *outcome.figures])


@ROWS
def test_claim_holds(claim):
    assert_holds(claim, quick=True)


@pytest.mark.slow
@ROWS
def test_claim_holds_at_paper_scale(claim):
    assert_holds(claim, quick=False)


def test_every_entry_point_is_read_by_a_claim():
    read = {name for c in claims.CLAIMS for name in c.reads}
    missing = set(figures.entry_points()) - read
    assert not missing, f"read by no claim: {sorted(missing)}"


def test_every_claim_reads_only_entry_points():
    catalog = figures.entry_points()
    for c in claims.CLAIMS:
        assert c.text and c.tolerance and callable(c.check), c.id
        unknown = set(c.reads) - set(catalog)
        assert c.reads and not unknown, f"{c.id} reads no figure or not a figure: {sorted(unknown)}"
