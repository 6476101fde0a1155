"""Reachability census: which ``src/repro`` functions does a run never enter?

Usage (from the repository root)::

    python tests/census.py tier1          # never entered by tier-1
    python tests/census.py entry          # ... by the entry points below
    python tests/census.py entry --commands FILE   # ... by FILE's commands
    python tests/census.py                # both
    python tests/census.py --write        # both, and commit the lists
    python tests/census.py --check        # both; exit 1 on a new def

Each run is a shell command executed with a ``sitecustomize`` module
first on ``PYTHONPATH``, so every Python process it starts — pytest,
``python -m repro`` subprocesses, spawned interpreters — installs a
``sys.setprofile`` + ``threading.setprofile`` hook at startup; forked
workers inherit it.  The hook appends ``file:first-line`` of each code
object under ``tests/_callcount.py``'s ``SRC`` the first time a process
enters it, with one ``O_APPEND`` write, so even a worker that is killed
has already reported.  A function counts as entered when any process
entered it; the universe is every ``def`` under ``src/repro``.

Under the hook every call costs more, so wall-clock and per-rank
footprint gates (the two in ``tests/ompi/test_rank_footprint.py`` among
them) read high and may fail in the tier-1 run; their functions are
entered all the same.

The ratchet: ``--write`` commits each census's never-entered defs as
sorted ``file:qualname`` lines to ``tests/census/never_entered_<what>.txt``
and lowers (never raises) that list's ceiling in
``tests/census/ceilings.json``; ``--check`` exits 1 when a def the census
never entered is missing from its list.  ``tests/test_census_lint.py``
(tier-1, AST only) fails when a listed def no longer exists or a list
outgrows its ceiling.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shlex
import socket
import subprocess
import sys
import tempfile
from typing import Dict, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from tests._callcount import SRC  # noqa: E402  (needs the path above)

#: What a shell command's Python processes run first.  It imports
#: nothing from the repository, so it changes no import footprint.
SITECUSTOMIZE = '''\
import os
import sys
import threading

_out = os.environ.get("REPRO_CENSUS_OUT")
if _out:
    _src = os.environ["REPRO_CENSUS_SRC"]
    _skip = len(_src)
    _fd = os.open(_out, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    _seen = set()

    def _census_hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code not in _seen:
                _seen.add(code)
                if code.co_filename.startswith(_src):
                    line = f"{code.co_filename[_skip:]}:{code.co_firstlineno}\\n"
                    try:
                        os.write(_fd, line.encode())
                    except OSError:
                        pass

    sys.setprofile(_census_hook)
    threading.setprofile(_census_hook)
'''

#: The entry points a user runs: every example, the benchmark's smoke
#: run, and the one-shot ``python -m repro`` commands of README.md (the
#: server ones as one start/submit/metrics/shutdown sequence).  In a
#: command, ``{py}`` is this interpreter, ``{tmp}`` a scratch directory
#: and ``{addr}`` a free local port.
ENTRY_POINTS = [
    *(f"{{py}} examples/{name}" for name in (
        "checkpoint_restart.py", "client_server_isolation.py",
        "dask_style_tasks.py", "ensemble_forecast.py", "multi_physics.py",
        "quickstart.py", "stencil_heat.py")),
    "{py} benchmarks/suite/run.py --smoke",
    "{py} -m repro figure --report",
    "{py} -m repro faults fence-kill",
    "{py} -m repro recovery --verify-determinism",
    "{py} -m repro recovery --jobs 4",
    "{py} -m repro obs --scenario fig3-init --export {tmp}/trace.json",
    "{py} -m repro figure fig3a --partitions 4",
    "{py} -m repro serve loadgen",
    "{py} -m repro serve start --addr {addr} --telemetry {tmp}/tel & "
    "i=0; until {py} -m repro serve health --addr {addr}; do "
    "i=$((i+1)); [ $i -gt 100 ] && break; sleep 0.3; done; "
    "{py} -m repro serve submit sim --addr {addr} --param seed=3; "
    "{py} -m repro serve metrics --addr {addr}; "
    "{py} -m repro serve shutdown --addr {addr}; wait; "
    "{py} -m repro obs --runs {tmp}/tel/ledger.sqlite",
    "{py} -m repro chaos --verify-determinism",
]

TIER1 = ["{py} -m pytest -q -p no:cacheprovider"]

Func = Tuple[str, int]          # (path relative to SRC, first line)

#: The committed lists and their ceilings.
LISTS = os.path.join(ROOT, "tests", "census")
CEILINGS = os.path.join(LISTS, "ceilings.json")


def universe() -> Dict[Func, Tuple[str, int]]:
    """Every ``def`` under SRC: (path, first line) -> (qualname, lines).
    A decorated function's code starts at its first decorator."""
    funcs: Dict[Func, Tuple[str, int]] = {}
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for fname in sorted(filenames):
            if not fname.endswith(".py"):
                continue
            path = os.path.join(dirpath, fname)
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            rel = path[len(SRC):]

            def visit(node: ast.AST, prefix: str) -> None:
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        first = min([child.lineno] + [d.lineno for d in
                                                      child.decorator_list])
                        name = prefix + child.name
                        funcs[rel, first] = (name, child.end_lineno - first + 1)
                        visit(child, name + ".")
                    elif isinstance(child, ast.ClassDef):
                        visit(child, prefix + child.name + ".")
                    else:
                        visit(child, prefix)

            visit(tree, "")
    return funcs


def entered(commands: List[str]) -> Set[Func]:
    """Run ``commands`` one after another under the hook; every
    (path, first line) any of their processes entered."""
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        site = os.path.join(tmp, "site")
        os.makedirs(site)
        with open(os.path.join(site, "sitecustomize.py"), "w") as fh:
            fh.write(SITECUSTOMIZE)
        out = os.path.join(tmp, "entered.txt")
        env = dict(os.environ, REPRO_CENSUS_OUT=out, REPRO_CENSUS_SRC=SRC,
                   PYTHONPATH=os.pathsep.join(
                       [site, os.path.join(ROOT, "src"), ROOT]))
        for cmd in commands:
            with socket.socket() as probe:
                probe.bind(("127.0.0.1", 0))
                addr = f"127.0.0.1:{probe.getsockname()[1]}"
            for name, value in (("{py}", shlex.quote(sys.executable)),
                                ("{tmp}", tmp), ("{addr}", addr)):
                cmd = cmd.replace(name, value)
            print(f"census: {cmd}", file=sys.stderr, flush=True)
            rc = subprocess.run(cmd, shell=True, cwd=ROOT, env=env,
                                stdout=subprocess.DEVNULL).returncode
            if rc:
                print(f"census: exit {rc} (recorded all the same)",
                      file=sys.stderr, flush=True)
        seen: Set[Func] = set()
        if os.path.exists(out):
            with open(out) as fh:
                for line in fh:
                    rel, _, first = line.rstrip("\n").rpartition(":")
                    seen.add((rel, int(first)))
    return seen


def report(title: str, funcs: Dict[Func, Tuple[str, int]],
           seen: Set[Func]) -> List[str]:
    """Print what ``seen`` never entered; return it as sorted
    ``file:qualname`` lines."""
    never = sorted(set(funcs) - seen)
    lines = sum(funcs[f][1] for f in never)
    print(f"never entered by {title}: {len(never)} of {len(funcs)} "
          f"functions ({lines} lines)")
    for rel, first in never:
        name, n = funcs[rel, first]
        print(f"  repro/{rel}:{first}  {name}  ({n} lines)")
    return sorted({f"{rel}:{funcs[rel, first][0]}" for rel, first in never})


def list_path(what: str) -> str:
    return os.path.join(LISTS, f"never_entered_{what}.txt")


def read_list(what: str) -> List[str]:
    with open(list_path(what)) as fh:
        return [ln.rstrip("\n") for ln in fh if ln.strip()]


def read_ceilings() -> Dict[str, int]:
    with open(CEILINGS) as fh:
        return json.load(fh)


def write_list(what: str, never: List[str]) -> None:
    """Commit ``never`` as the list; lower its ceiling if it shrank."""
    os.makedirs(LISTS, exist_ok=True)
    with open(list_path(what), "w") as fh:
        fh.writelines(f"{line}\n" for line in never)
    ceilings = read_ceilings() if os.path.exists(CEILINGS) else {}
    ceilings[what] = min(ceilings.get(what, len(never)), len(never))
    with open(CEILINGS, "w") as fh:
        json.dump(ceilings, fh, indent=1, sort_keys=True)
        fh.write("\n")


def check_list(what: str, never: List[str]) -> int:
    """1 if the census never entered a def its committed list lacks."""
    new = sorted(set(never) - set(read_list(what)))
    for line in new:
        print(f"census: {what}: never entered and not listed: {line}",
              file=sys.stderr)
    return 1 if new else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", nargs="?", choices=["tier1", "entry", "all"],
                        default="all")
    parser.add_argument("--commands", metavar="FILE",
                        help="entry mode: one shell command per line, "
                             "{py}/{tmp}/{addr} as in ENTRY_POINTS "
                             "(default: ENTRY_POINTS)")
    parser.add_argument("--write", action="store_true",
                        help="commit the never-entered lists (and lower "
                             "their ceilings) under tests/census/")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if a never-entered def is missing "
                             "from its committed list")
    args = parser.parse_args(argv)
    if args.commands and (args.write or args.check):
        parser.error("--write/--check compare the default entry points")
    funcs = universe()
    legs = []
    if args.what in ("tier1", "all"):
        legs.append(("tier1", "tier-1", TIER1))
    if args.what in ("entry", "all"):
        commands = ENTRY_POINTS
        if args.commands:
            with open(args.commands) as fh:
                commands = [ln.strip() for ln in fh if ln.strip()]
        legs.append(("entry", "entry points", commands))
    rc = 0
    for what, title, commands in legs:
        never = report(title, funcs, entered(commands))
        if args.write:
            write_list(what, never)
        if args.check:
            rc |= check_list(what, never)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
