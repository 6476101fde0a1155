"""CID lint: one place obtains a new communicator's id.

``Communicator._new_comm`` is the one constructor path that picks a CID
generator (paper §III-B): a PGCID by PMIx group construction (exCID)
or the legacy consensus loop ``repro.ompi.cid.allocate_consensus_cid``.
Before it did, ``dup``, ``create``, ``create_group``, ``split`` and
``shrink`` each chose between the two, and the consensus loop was
written twice.  AST-based over ``src/repro/ompi`` (the style of
``tests/test_run_loop_lint.py``):

* ``group_construct`` is called only from ``Communicator._new_comm`` and
  from ``MpiRuntime.comm_create_from_group`` (no parent communicator,
  its own error mapping);
* ``allocate_consensus_cid`` is called only from ``_new_comm`` and from
  ``create``'s non-member branch (a rank outside the new group still
  takes part in the agreement over the parent).
"""

import ast
import os

OMPI = os.path.join(os.path.dirname(__file__), "..", "src", "repro", "ompi")

GROUP_CONSTRUCT_SITES = ["Communicator._new_comm",
                         "MpiRuntime.comm_create_from_group"]
CONSENSUS_SITES = ["Communicator._new_comm", "Communicator.create"]
ADVICE = "obtain the id through `Communicator._new_comm`"


def _call_sites(name):
    """``(file, line, Class.function, enclosing if-tests)`` of every call
    to a function or method called ``name`` inside ``repro.ompi``."""
    sites = []

    def visit(node, rel, scope, tests):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + [node.name]
        if isinstance(node, ast.If):
            tests = tests + [node.test]
        if isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if called == name:
                sites.append((rel, node.lineno, ".".join(scope), tests))
        for child in ast.iter_child_nodes(node):
            visit(child, rel, scope, tests)

    for dirpath, dirnames, filenames in sorted(os.walk(OMPI)):
        dirnames.sort()
        for fname in sorted(filenames):
            if fname.endswith(".py"):
                path = os.path.join(dirpath, fname)
                with open(path) as fh:
                    tree = ast.parse(fh.read(), path)
                visit(tree, os.path.relpath(path, OMPI), [], [])
    return sites


def _report(name, sites, allowed):
    found = "\n".join(f"  src/repro/ompi/{rel}:{line}: {where or 'module level'}"
                      for rel, line, where, _tests in sites)
    return f"{name} must be called once from each of {allowed}; {ADVICE}. Found:\n{found}"


def _callers(sites):
    return sorted(where for _rel, _line, where, _tests in sites)


def test_group_construct_has_two_call_sites():
    sites = _call_sites("group_construct")
    assert _callers(sites) == sorted(GROUP_CONSTRUCT_SITES), \
        _report("group_construct", sites, GROUP_CONSTRUCT_SITES)


def test_consensus_loop_has_two_call_sites():
    sites = _call_sites("allocate_consensus_cid")
    assert _callers(sites) == sorted(CONSENSUS_SITES), \
        _report("allocate_consensus_cid", sites, CONSENSUS_SITES)


def test_create_runs_the_loop_only_for_non_members():
    """``create``'s own call sits under ``if ... not in group``: a
    member gets its id from ``_new_comm`` like every constructor."""
    [(_rel, _line, _where, tests)] = [
        s for s in _call_sites("allocate_consensus_cid") if s[2] == "Communicator.create"]
    assert any(isinstance(t, ast.Compare) and isinstance(t.ops[0], ast.NotIn)
               for t in tests)
