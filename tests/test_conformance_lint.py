"""Conformance lint: docs/conformance.md and tests/conformance/ agree.

Each row of the rules table in ``docs/conformance.md`` names its test as
``file.py::test_name`` (relative to ``tests/conformance/``).  AST only,
in the style of ``tests/test_census_lint.py``.  It fails when

* a row names a test that does not exist: a renamed or deleted test
  leaves its rule unchecked; or
* a test under ``tests/conformance/`` has no row: a check with no cited
  rule is not a conformance check.
"""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TABLE = os.path.join(ROOT, "docs", "conformance.md")
SUITE = os.path.join(ROOT, "tests", "conformance")

#: A test id in a table row: ``test_x.py::test_y``.
ROW_ID = re.compile(r"`(test_\w+\.py::test_\w+)`")


def row_ids(text):
    """Test ids named by the table's rows (lines that start with ``|``)."""
    return [m for line in text.splitlines() if line.startswith("|")
            for m in ROW_ID.findall(line)]


def suite_ids(directory=SUITE):
    """``file.py::test_name`` of every module-level test function."""
    ids = set()
    for fname in sorted(os.listdir(directory)):
        if fname.startswith("test_") and fname.endswith(".py"):
            with open(os.path.join(directory, fname)) as fh:
                tree = ast.parse(fh.read())
            ids.update(f"{fname}::{node.name}" for node in tree.body
                       if isinstance(node, ast.FunctionDef)
                       and node.name.startswith("test_"))
    return ids


def read_table():
    with open(TABLE) as fh:
        return fh.read()


def test_the_lint_sees_rows_and_tests():
    rows = row_ids("| P1 | rule | source | `test_pt2pt.py::test_gone` |\n"
                   "not a row: `test_pt2pt.py::test_elsewhere`\n")
    assert rows == ["test_pt2pt.py::test_gone"]
    known = suite_ids()
    assert "test_sessions.py::test_session_works_without_mpi_init" in known
    assert "test_pt2pt.py::test_gone" not in known


def test_every_row_names_an_existing_test():
    rows = row_ids(read_table())
    assert rows, "docs/conformance.md has no rule rows"
    missing = sorted(set(rows) - suite_ids())
    assert not missing, (
        "docs/conformance.md names tests that do not exist under "
        "tests/conformance/:\n" + "\n".join(missing))


def test_every_conformance_test_has_a_row():
    orphans = sorted(suite_ids() - set(row_ids(read_table())))
    assert not orphans, (
        "tests under tests/conformance/ with no row in "
        "docs/conformance.md (cite the rule they check):\n" + "\n".join(orphans))
