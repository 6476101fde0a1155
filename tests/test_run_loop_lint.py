"""Run-loop lint: one module spawns ranks, one module reaches dsim.

``repro.api.run_world`` owns the spawn-run-harvest loop and the
serial-vs-partitioned switch.  Before it did, fourteen call sites
inlined the loop and four of them forked into a hand-mirrored
partitioned twin; this lint keeps the fork from regrowing.  AST-based
over ``src/repro`` (the style of ``tests/obs/test_metric_names.py``):

* ``spawn_ranks`` is *called* only from ``api.py`` (the runner) and
  ``dsim/worker.py`` (a partition spawning its local ranks);
* ``repro.dsim`` — and ``run_partitioned`` by any route — is imported
  only from ``api.py`` and from inside ``repro/dsim/`` itself.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "repro")

MAY_SPAWN = {"api.py", os.path.join("dsim", "worker.py")}
MAY_IMPORT_DSIM = {"api.py"}
ADVICE = "call `repro.api.run_mpi`/`run_world` instead"


def _modules():
    """(path relative to src/repro, parsed tree) for every module."""
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames.sort()
        for fname in sorted(filenames):
            if fname.endswith(".py"):
                path = os.path.join(dirpath, fname)
                with open(path) as fh:
                    yield os.path.relpath(path, SRC), ast.parse(fh.read(), path)


def _imports_dsim(node) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name == "repro.dsim" or a.name.startswith("repro.dsim.")
                   for a in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        names = {a.name for a in node.names}
        return (module == "repro.dsim" or module.startswith("repro.dsim.")
                or (module == "repro" and "dsim" in names)
                or "run_partitioned" in names)
    return False


def spawn_call_sites():
    return [(rel, node.lineno) for rel, tree in _modules()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "spawn_ranks"]


def dsim_import_sites():
    return [(rel, node.lineno) for rel, tree in _modules()
            if not rel.startswith("dsim" + os.sep)
            for node in ast.walk(tree) if _imports_dsim(node)]


def test_sites_were_found():
    """The lint must actually be looking at something."""
    assert MAY_SPAWN <= {rel for rel, _ in spawn_call_sites()}
    assert MAY_IMPORT_DSIM <= {rel for rel, _ in dsim_import_sites()}


def test_only_the_runner_spawns_ranks():
    bad = [f"src/repro/{rel}:{line}: calls spawn_ranks; {ADVICE}"
           for rel, line in spawn_call_sites() if rel not in MAY_SPAWN]
    assert not bad, "\n".join(bad)


def test_only_the_runner_imports_dsim():
    bad = [f"src/repro/{rel}:{line}: imports repro.dsim / run_partitioned; "
           f"{ADVICE} (SimSpec.partitions selects the partitioned run)"
           for rel, line in dsim_import_sites() if rel not in MAY_IMPORT_DSIM]
    assert not bad, "\n".join(bad)
