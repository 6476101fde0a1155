"""Module-map lint: every path in DESIGN.md §2 exists.

The system inventory in ``DESIGN.md`` is a tree drawn in one fenced
block: ``src/repro/`` at the top, two more spaces of indent per level,
a directory written ``name/`` and a module ``name.py``, each followed
by its description (whose continuation lines are indented further and
never start with such a name).  A module that was renamed or deleted
leaves an entry that sends the reader to a file that is not there.
"""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DESIGN = os.path.join(ROOT, "DESIGN.md")
SECTION = "## 2. System inventory"

#: An entry of the tree: indent, then a directory or module name.
ENTRY = re.compile(r"^( *)([\w/]+/|\w+\.py)(?:\s|$)")


def map_paths(text):
    """Every path the section's tree draws, relative to the repo root."""
    block = text.split(SECTION, 1)[1].split("```", 2)[1]
    paths = []
    stack = []      # (indent, directory) of the entries above this one
    for line in block.splitlines():
        m = ENTRY.match(line)
        if m is None:
            continue
        indent, name = len(m.group(1)), m.group(2)
        while stack and stack[-1][0] >= indent:
            stack.pop()
        path = "".join(d for _, d in stack) + name
        paths.append(path.rstrip("/"))
        if name.endswith("/"):
            stack.append((indent, name))
    return paths


def test_the_lint_reads_the_tree():
    text = (f"{SECTION} (module map)\n\n```\nsrc/repro/\n  ompi/        x\n"
            "    comm.py       y\n                  continued in cid.py\n"
            "  quo/  z\n    gone.py  w\n```\n")
    assert map_paths(text) == ["src/repro", "src/repro/ompi",
                               "src/repro/ompi/comm.py", "src/repro/quo",
                               "src/repro/quo/gone.py"]


def test_every_module_map_path_exists():
    with open(DESIGN) as fh:
        paths = map_paths(fh.read())
    assert "src/repro/ompi/coll/barrier.py" in paths
    assert "src/repro/apps/twomesh/driver.py" in paths
    missing = [p for p in paths if not os.path.exists(os.path.join(ROOT, p))]
    assert not missing, (
        f"DESIGN.md §2 names paths that do not exist: {missing}; point each "
        f"entry at the module that holds the code now, or delete it")
