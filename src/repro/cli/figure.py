"""Run one or more paper figures (or ablations) from the shell.

Usage::

    python -m repro figure --list
    python -m repro figure fig3b
    python -m repro figure fig5c --presync
    python -m repro figure fig7 --full            # includes P3 (1,024 ranks)
    python -m repro figure fig3a fig3b fig4 --jobs 3
    python -m repro figure fig7 --cache-dir .figcache   # instant re-runs
    python -m repro figure --report > EXPERIMENTS.md    # every claim, checked

``--jobs N`` fans independent figures across processes; ``--cache-dir``
memoizes results on disk keyed by (figure, params, source digest) — see
docs/performance.md for the invalidation rules.  ``--report`` prints
EXPERIMENTS.md: the :mod:`repro.bench.claims` table with every row
checked, then the figures it read.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time

from repro import cli
from repro.bench import claims, figures
from repro.bench.harness import BenchResult
from repro.sweep import SweepPoint, run_sweep


def _unknown_msg(name: str, catalog) -> str:
    import difflib

    msg = f"unknown figure {name!r}; try --list"
    close = difflib.get_close_matches(name, catalog, n=3)
    if close:
        msg += " (did you mean: " + ", ".join(close) + "?)"
    return msg


def _given_flags(args) -> list:
    """(flag, figure parameter, value) for every figure flag given."""
    flags = [("--obs", "obs", args.obs or None),
             ("--partitions", "partitions",
              args.partitions if args.partitions > 1 else None),
             ("--presync", "presync", args.presync or None),
             ("--full", "quick", False if args.full else None)]
    return [flag for flag in flags if flag[2] is not None]


def main(argv=None) -> int:
    catalog = figures.entry_points()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("figure", nargs="*",
                        help="entry point name(s) (see --list)")
    parser.add_argument("--list", action="store_true", help="list available figures")
    parser.add_argument("--report", action="store_true",
                        help="check every claim and print EXPERIMENTS.md")
    parser.add_argument("--full", action="store_true", help="paper-scale sweeps")
    parser.add_argument("--presync", action="store_true", help="fig5c: pair pre-sync")
    cli.add_partitions(parser,
                       help="compute each run across N worker processes "
                            "(repro.dsim); bit-identical results, only "
                            "supported by some figures")
    parser.add_argument("--csv", metavar="FILE", help="also write the series as CSV")
    cli.add_obs(parser, help="instrument runs: attach critical-path "
                             "breakdowns (figures that support it)")
    cli.add_json_path(parser, help="write the result (series + obs data) as JSON")
    cli.add_jobs(parser, help="run figures across N worker processes")
    cli.add_cache_dir(parser)
    args = parser.parse_args(argv)

    # Validate the figure names even when --list is passed: listing must
    # not mask a typo'd name with a zero exit status.
    unknown = [name for name in args.figure if name not in catalog]

    if args.list or not (args.figure or args.report):
        for name in sorted(catalog):
            doc = (inspect.getdoc(catalog[name]) or "").splitlines()
            print(f"  {name:28s} {doc[0] if doc else ''}")
        for name in unknown:
            print(_unknown_msg(name, catalog), file=sys.stderr)
        return 2 if unknown else 0

    if unknown:
        for name in unknown:
            print(_unknown_msg(name, catalog), file=sys.stderr)
        return 2
    if args.report and args.figure:
        print("--report takes no figure names", file=sys.stderr)
        return 2
    if (args.csv or args.json) and len(args.figure) != 1:
        print("--csv/--json need exactly one figure", file=sys.stderr)
        return 2
    chosen = ({"--report": claims.report} if args.report
              else {name: catalog[name] for name in args.figure})
    given = _given_flags(args)
    for flag, param, _value in given:
        unsupported = [name for name, fn in chosen.items()
                       if param not in inspect.signature(fn).parameters]
        if unsupported:
            print(f"{', '.join(unsupported)} does not support {flag}",
                  file=sys.stderr)
            return 2
    kwargs = {param: value for _flag, param, value in given}
    if args.report:
        print(claims.report(**kwargs), end="")
        return 0

    points = [
        SweepPoint("figure", figures.run_point, {"figure": name, **kwargs})
        for name in args.figure
    ]
    cache = cli.cache_from_args(args)

    t0 = time.time()
    payloads = run_sweep(points, jobs=args.jobs, cache=cache)
    for i, payload in enumerate(payloads):
        result = BenchResult.from_payload(payload)
        if i:
            print()
        print(result.render())
        if result.obs:
            for key, data in result.obs.items():
                print(f"\n-- obs {key}: critical-path attribution "
                      f"(total {data['total'] * 1e3:.3f} ms) --")
                for name, dur in data["by_stage"].items():
                    pct = 100.0 * dur / data["total"] if data["total"] else 0.0
                    print(f"  {dur * 1e3:>10.3f}ms {pct:5.1f}%  {name}")
        if args.json:
            try:
                with open(args.json, "w") as fh:
                    fh.write(result.to_json())
            except OSError as err:
                print(f"cannot write {args.json}: {err}", file=sys.stderr)
                return 1
            print(f"wrote {args.json}")
        if args.csv:
            try:
                with open(args.csv, "w") as fh:
                    fh.write(result.to_csv())
            except OSError as err:
                print(f"cannot write {args.csv}: {err}", file=sys.stderr)
                return 1
            print(f"wrote {args.csv}")
    cli.report_cache(cache)
    print(f"\n({time.time() - t0:.1f}s wall)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
