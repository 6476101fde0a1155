"""Run an instrumented scenario and print its observability report.

Usage::

    python -m repro obs --list
    python -m repro obs --scenario fig3-init
    python -m repro obs --scenario fig3-init --export /tmp/trace.json
    python -m repro obs --scenario fence-chain --nodes 4 --ppn 1
    python -m repro obs --scenario fig3-init --json report.json
    python -m repro obs --runs obs/ledger.sqlite --last 20
    python -m repro obs --runs obs/ledger.sqlite --trend
    python -m repro obs --runs obs/ledger.sqlite --kind serve \\
        --run-scenario sim --digest b7f0b9 --json runs.json
    python -m repro obs --identity --seeds 0:450

The report has four sections: end-to-end timing, the span flamegraph,
the metrics table, and the critical path through the span/causality DAG.
``--export`` additionally writes a Chrome ``trace_event`` JSON loadable
in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``;
``--json`` writes a machine-readable summary (timing, span/flow counts,
metric rows, critical-path stages).

``--runs LEDGER`` switches to the run-ledger query mode
(docs/observability.md): print the recorded serve/sweep runs —
filter by ``--kind``, ``--run-scenario``, ``--digest`` prefix and
``--since``; ``--trend`` aggregates per (kind, scenario) instead.

``--identity`` prints the byte-identity fingerprint
(:mod:`repro.obs.identity`): every scenario at each corpus size, the
scaled soaks, plus the soak seeds ``A..B-1`` of ``--seeds A:B``.
``diff`` the text of two trees to prove a change left the simulation
alone; ``tests/stackparity/identity.txt`` is this text for
``--seeds 0:50``.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro import cli
from repro.obs import (
    chrome_trace,
    compute_critical_path,
    dumps,
    flame_report,
    validate_chrome_trace,
)
from repro.obs.scenarios import MACHINES, run_scenario, scenario_names


def _runs_mode(args) -> int:
    """``--runs LEDGER``: query the persistent run ledger."""
    from repro.obs import RunLedger

    if not os.path.exists(args.runs):
        print(f"no ledger at {args.runs}", file=sys.stderr)
        return 2
    with RunLedger(args.runs) as ledger:
        if args.trend:
            rows = ledger.trend(kind=args.kind, scenario=args.run_scenario,
                                since=args.since)
            if args.json:
                rc = cli.write_json(args.json, {"trend": rows})
                if rc:
                    return rc
            for r in rows:
                mean = r["wall_mean_s"]
                print(f"{r['kind']:<6} {r['scenario']:<16} "
                      f"runs={r['runs']} ok={r['ok']} cached={r['cached']}  "
                      f"wall mean={mean * 1e3:.1f}ms" if mean is not None
                      else f"{r['kind']:<6} {r['scenario']:<16} "
                           f"runs={r['runs']} ok={r['ok']} cached={r['cached']}")
            if not rows:
                print("(no runs recorded)")
            return 0
        rows = ledger.query(kind=args.kind, scenario=args.run_scenario,
                            digest=args.digest, since=args.since,
                            limit=args.last)
    if args.json:
        rc = cli.write_json(args.json, {"runs": rows})
        if rc:
            return rc
    for r in rows:
        wall = f"{r['wall_s'] * 1e3:7.1f}ms" if r["wall_s"] is not None \
            else "       --"
        cached = "cache" if r["cached"] else "     "
        trace = f"  trace={r['trace']}" if r["trace"] else ""
        sim = f"  sim={r['trace_path']}" if r["trace_path"] else ""
        print(f"#{r['id']:<4} {r['kind']:<6} {r['scenario']:<16} "
              f"{r['status']:<8} {wall} {cached} "
              f"{r['digest'][:12]}{trace}{sim}")
    if not rows:
        print("(no runs matched)")
    return 0


def _seed_range(text: str) -> range:
    try:
        first, _, last = text.partition(":")
        first, last = int(first), int(last)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A:B, got {text!r}") from None
    if first < 0 or last < first:
        raise argparse.ArgumentTypeError(
            f"expected 0 <= A <= B in A:B, got {text!r}")
    return range(first, last)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", help="scenario name (see --list)")
    parser.add_argument("--list", action="store_true",
                        help="list available scenarios")
    parser.add_argument("--nodes", type=int, default=2)
    parser.add_argument("--ppn", type=int, default=2)
    parser.add_argument("--machine", default="jupiter",
                        choices=sorted(MACHINES))
    parser.add_argument("--export", metavar="FILE",
                        help="write Chrome trace_event JSON")
    cli.add_json_path(parser, help="write a machine-readable run summary "
                                   "(timing, counts, metrics, critical path)")
    runs = parser.add_argument_group("run-ledger mode")
    runs.add_argument("--runs", metavar="LEDGER",
                      help="query a RunLedger sqlite file instead of "
                           "running a scenario")
    runs.add_argument("--kind", choices=["serve", "sweep"],
                      help="filter ledger rows by producer kind")
    runs.add_argument("--run-scenario", metavar="NAME",
                      help="filter ledger rows by scenario name")
    runs.add_argument("--digest", metavar="PREFIX",
                      help="filter ledger rows by spec-digest prefix")
    runs.add_argument("--since", type=float, metavar="UNIX_TS",
                      help="only rows recorded at or after this time")
    runs.add_argument("--last", type=int, default=50, metavar="N",
                      help="show at most the newest N rows "
                           "(default: %(default)s)")
    runs.add_argument("--trend", action="store_true",
                      help="aggregate per (kind, scenario) instead of "
                           "listing rows")
    parser.add_argument("--identity", action="store_true",
                        help="print the byte-identity fingerprint and exit")
    parser.add_argument("--seeds", type=_seed_range, default=range(0),
                        metavar="A:B", help="with --identity: also one line "
                                            "per soak seed in [A, B)")
    args = parser.parse_args(argv)

    if args.runs:
        return _runs_mode(args)

    if args.identity:
        from repro.obs.identity import identity_lines

        for line in identity_lines(args.seeds):
            print(line, flush=True)
        return 0

    if args.list or not args.scenario:
        for name in scenario_names():
            print(f"  {name}")
        if args.scenario and args.scenario not in scenario_names():
            print(f"unknown scenario {args.scenario!r}", file=sys.stderr)
            return 2
        return 0

    try:
        run = run_scenario(args.scenario, nodes=args.nodes, ppn=args.ppn,
                           machine=args.machine)
    except KeyError as err:
        print(err.args[0], file=sys.stderr)
        return 2

    print(f"== scenario {run.name}: {args.nodes} node(s) x {args.ppn} ppn "
          f"on {args.machine} ==")
    print(f"end-to-end simulated time: {run.t_end * 1e3:.3f} ms")
    print(f"spans: {len(run.tracer.spans)}  flows: {len(run.tracer.flows)}  "
          f"events: {len(run.tracer.records)}")

    print("\n-- span flamegraph (inclusive / self / count) --")
    print(flame_report(run.tracer))

    print("\n-- metrics --")
    print(run.metrics.render())

    print("\n-- critical path --")
    print(compute_critical_path(run.tracer).render())

    if args.json:
        path = compute_critical_path(run.tracer)
        summary = {
            "scenario": run.name,
            "nodes": args.nodes,
            "ppn": args.ppn,
            "machine": args.machine,
            "t_end": run.t_end,
            "spans": len(run.tracer.spans),
            "flows": len(run.tracer.flows),
            "events": len(run.tracer.records),
            "metrics": [list(row) for row in run.metrics.rows()],
            "critical_path": {stage: dur for stage, dur in path.by_stage().items()},
        }
        rc = cli.write_json(args.json, summary)
        if rc:
            return rc

    if args.export:
        obj = chrome_trace(run.tracer)
        errors = validate_chrome_trace(obj)
        if errors:
            for e in errors:
                print(f"trace validation: {e}", file=sys.stderr)
            return 1
        try:
            with open(args.export, "w") as fh:
                fh.write(dumps(obj))
        except OSError as err:
            print(f"cannot write {args.export}: {err}", file=sys.stderr)
            return 1
        print(f"\nwrote {len(obj['traceEvents'])} trace events to "
              f"{args.export} (load in Perfetto or chrome://tracing)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
