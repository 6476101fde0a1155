"""Census lint: the committed never-entered lists are current and do not grow.

``python tests/census.py --write`` commits, for the tier-1 census and the
entry-point census, the sorted ``file:qualname`` of every ``def`` under
``src/repro`` that the run never entered
(``tests/census/never_entered_{tier1,entry}.txt``);
``tests/census/ceilings.json`` caps each list's length.  Tier-1 cannot
afford the census itself (it runs the whole suite under a profiler
hook), so this check is AST-only, in the style of
``tests/test_run_loop_lint.py``.  It fails when

* a listed def no longer exists: a deleted or renamed def leaves a stale
  line, which goes with it; or
* a list is longer than its ceiling: a new def that nothing enters is
  tested or reached from an entry point, not added to the list.

The other half, a fresh census finding a never-entered def that its list
lacks, is ``python tests/census.py --check``.
"""

import pytest

from tests.census import read_ceilings, read_list, universe

CENSUSES = ("tier1", "entry")


def defs():
    """``file:qualname`` of every def under src/repro."""
    return {f"{rel}:{name}" for (rel, _), (name, _) in universe().items()}


def stale(lines, known):
    return [line for line in lines if line not in known]


def test_the_lint_sees_the_source_and_a_stale_line():
    known = defs()
    assert "api.py:run_world" in known and "ompi/comm.py:Communicator.dup" in known
    assert stale(["api.py:run_world", "ompi/dynamic.py:comm_connect"],
                 known) == ["ompi/dynamic.py:comm_connect"]


@pytest.mark.parametrize("what", CENSUSES)
def test_every_listed_def_exists(what):
    bad = stale(read_list(what), defs())
    assert not bad, (
        f"tests/census/never_entered_{what}.txt lists defs that no longer "
        f"exist; delete these lines:\n" + "\n".join(bad))


@pytest.mark.parametrize("what", CENSUSES)
def test_list_is_sorted_and_within_its_ceiling(what):
    lines = read_list(what)
    assert lines == sorted(set(lines)), f"never_entered_{what}.txt: unsorted"
    ceiling = read_ceilings()[what]
    assert len(lines) <= ceiling, (
        f"tests/census/never_entered_{what}.txt has {len(lines)} defs, "
        f"ceiling {ceiling}: enter the new ones from a test or an entry "
        f"point rather than list them")
