"""Reachability census: which ``src/repro`` functions does a run never enter?

Usage (from the repository root)::

    python tests/census.py tier1          # never entered by tier-1
    python tests/census.py entry          # ... by the entry points below
    python tests/census.py entry --commands FILE   # ... by FILE's commands
    python tests/census.py                # both

Each run is a shell command executed with a ``sitecustomize`` module
first on ``PYTHONPATH``, so every Python process it starts — pytest,
``python -m repro`` subprocesses, spawned interpreters — installs a
``sys.setprofile`` + ``threading.setprofile`` hook at startup; forked
workers inherit it.  The hook appends ``file:first-line`` of each code
object under ``tests/_callcount.py``'s ``SRC`` the first time a process
enters it, with one ``O_APPEND`` write, so even a worker that is killed
has already reported.  A function counts as entered when any process
entered it; the universe is every ``def`` under ``src/repro``.

The census records; it gates nothing.  Under the hook every call costs
more, so wall-clock and per-rank footprint gates (the two in
``tests/ompi/test_rank_footprint.py`` among them) read high and may fail
in the tier-1 run; their functions are entered all the same.
"""

from __future__ import annotations

import argparse
import ast
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
           seen: Set[Func]) -> None:
    never = sorted(set(funcs) - seen)
    lines = sum(funcs[f][1] for f in never)
    print(f"never entered by {title}: {len(never)} of {len(funcs)} "
          f"functions ({lines} lines)")
    for rel, first in never:
        name, n = funcs[rel, first]
        print(f"  repro/{rel}:{first}  {name}  ({n} lines)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", nargs="?", choices=["tier1", "entry", "all"],
                        default="all")
    parser.add_argument("--commands", metavar="FILE",
                        help="entry mode: one shell command per line, "
                             "{py}/{tmp}/{addr} as in ENTRY_POINTS "
                             "(default: ENTRY_POINTS)")
    args = parser.parse_args(argv)
    funcs = universe()
    if args.what in ("tier1", "all"):
        report("tier-1", funcs, entered(TIER1))
    if args.what in ("entry", "all"):
        commands = ENTRY_POINTS
        if args.commands:
            with open(args.commands) as fh:
                commands = [ln.strip() for ln in fh if ln.strip()]
        report("entry points", funcs, entered(commands))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
