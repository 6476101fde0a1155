"""Shared argparse conventions for the ``python -m repro`` CLI.

Every subcommand spells the common flags identically by building them
here:

``--jobs N``        worker processes (sweeps: ``repro.sweep``; serve: pool size)
``--cache-dir DIR`` on-disk result cache (``repro.sweep.SweepCache``)
``--seed N``        the base PRNG seed of whatever the tool sweeps/generates
``--obs``           attach observability instrumentation to the runs
``--json [FILE]``   machine-readable output (a path, or a flag for ndjson)
``--addr ADDR``     a serve endpoint (``host:port`` or ``unix:/path``)
``--partitions N``  conservative parallel simulation across N processes

Keeping the definitions in one module keeps help strings, metavars and
defaults from drifting between the subcommand modules
(``repro.cli.figure``, ``repro.cli.recovery``, ``repro.cli.chaos``,
``repro.cli.faults``, ``repro.cli.obs``, ``repro.cli.serve``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Optional

from repro.sweep import SweepCache


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def add_jobs(parser: argparse.ArgumentParser, *, default: int = 1,
             help: Optional[str] = None) -> None:          # noqa: A002
    parser.add_argument(
        "--jobs", type=positive_int, default=default, metavar="N",
        help=help or "fan work across N worker processes (default: %(default)s)")


def add_cache_dir(parser: argparse.ArgumentParser, *,
                  help: Optional[str] = None) -> None:     # noqa: A002
    parser.add_argument(
        "--cache-dir", metavar="DIR",
        help=help or "on-disk result cache (see docs/performance.md)")


def cache_from_args(args: argparse.Namespace) -> Optional[SweepCache]:
    """The tool's :class:`SweepCache`, or ``None`` without --cache-dir."""
    cache_dir = getattr(args, "cache_dir", None)
    return SweepCache(cache_dir) if cache_dir else None


def report_cache(cache: Optional[SweepCache]) -> None:
    """The standard post-run one-liner, on stderr like all diagnostics."""
    if cache is not None:
        print(cache.report(), file=sys.stderr)


def add_seed(parser: argparse.ArgumentParser, *, default: Any = 0,
             help: Optional[str] = None) -> None:          # noqa: A002
    parser.add_argument(
        "--seed", type=int, default=default, metavar="N",
        help=help or "base seed (default: %(default)s)")


def add_obs(parser: argparse.ArgumentParser, *,
            help: Optional[str] = None) -> None:           # noqa: A002
    parser.add_argument(
        "--obs", action="store_true",
        help=help or "instrument runs with the observability layer "
                     "(docs/observability.md)")


def add_json_path(parser: argparse.ArgumentParser, *,
                  help: Optional[str] = None) -> None:     # noqa: A002
    """``--json FILE``: write one JSON document to FILE."""
    parser.add_argument(
        "--json", metavar="FILE",
        help=help or "write the result as JSON to FILE")


def add_json_flag(parser: argparse.ArgumentParser, *,
                  help: Optional[str] = None) -> None:     # noqa: A002
    """``--json``: switch stdout to machine-readable (nd)JSON records."""
    parser.add_argument(
        "--json", action="store_true",
        help=help or "emit machine-readable JSON records on stdout")


def add_addr(parser: argparse.ArgumentParser, *,
             default: Optional[str] = "127.0.0.1:7077",
             help: Optional[str] = None) -> None:          # noqa: A002
    """``--addr ADDR``, parsed into a :class:`repro.serve.ServeAddress`
    (a malformed address is a usage error, not a traceback)."""
    from repro.serve.protocol import ServeAddress    # serve CLI only
    parser.add_argument(
        "--addr", metavar="ADDR", type=ServeAddress.parse, default=default,
        help=help or "server address: host:port or unix:/path "
                     "(default: %(default)s)")


def add_partitions(parser: argparse.ArgumentParser, *,
                   help: Optional[str] = None) -> None:    # noqa: A002
    parser.add_argument(
        "--partitions", type=positive_int, default=1, metavar="N",
        help=help or "run the simulation across N conservatively "
                     "synchronised worker processes (repro.dsim); results "
                     "and digests are unchanged")


def write_json(path: str, obj: Any, *, indent: Optional[int] = 2,
               label: str = "") -> int:
    """Write ``obj`` to ``path`` with the tools' shared conventions:
    sorted keys, trailing newline, ``wrote <path>`` confirmation, and a
    nonzero return (not an exception) on OS errors."""
    try:
        with open(path, "w") as fh:
            json.dump(obj, fh, sort_keys=True, indent=indent)
            fh.write("\n")
    except OSError as err:
        print(f"cannot write {path}: {err}", file=sys.stderr)
        return 1
    print(f"wrote {label or path}")
    return 0
